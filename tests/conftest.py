import multiprocessing
import os

# one BLAS thread, set before numpy loads: the two-CPU worker tests fork, and
# forking a multi-threaded process is deprecated from Python 3.12
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest

from dgn.workspace import SCRATCH, Workspace  # noqa: E402


def random_unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def perturb_direction(rng, u, angle):
    """Rotate a unit vector by the given angle toward a random tangent."""
    t = rng.standard_normal(u.shape[0])
    t -= (t @ u) * u
    t /= np.linalg.norm(t)
    return np.cos(angle) * u + np.sin(angle) * t


def stale_workspace(size=1 << 16):
    """A workspace whose every key of an aligned training step (the network's
    of up to three layers among them) already holds a larger buffer of nan,
    so that a call reading a buffer before it has written all of it gives
    other bits than a call without a workspace."""
    ws = Workspace()
    for key in (*SCRATCH, "input", "act0", "act1", "act2", "logits", "probs", "unit",
                "posterior", "twice", "d_features", "d_logits"):
        ws.take(key, 1, size).fill(np.nan)
    return ws


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(autouse=True)
def no_process_outlives_a_test():
    # a pool left running would outlive the command that started it
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture(params=[1, 2], ids=["one-cpu", "two-cpus"])
def cpus(request, monkeypatch):
    """The size of the affinity mask ``workers.ordered_map`` sees: one runs
    the plain loop, two fork two workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)))
    return request.param
