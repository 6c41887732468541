"""An ordered process map for independent, separately seeded work.

``ordered_map(fn, items)`` returns ``[fn(x) for x in items]``, computed by
one forked worker per CPU in the process's affinity mask (at most one per
item). The workers inherit ``fn`` and ``items``, so only item indices and
results cross the pipe: scenes are not copied, and ``fn`` may be a closure
or a wrapped function that does not pickle by reference. Where the
``fork`` start method or the affinity mask is missing, or one worker would
do, the map is the plain loop.

On Python 3.12 and later, forking while BLAS threads run emits a
DeprecationWarning; ``OPENBLAS_NUM_THREADS=1`` avoids it.
"""

from __future__ import annotations

import os

from .errors import WorkerDied

# (fn, items) of the map in progress; set before the pool forks, so every
# worker reads the parent's copy
_job: tuple | None = None


def _call(index: int) -> tuple[bool, object]:
    """(True, result) or (False, exception) of ``fn(items[index])``."""
    fn, items = _job
    try:
        return True, fn(items[index])
    except Exception as exc:
        return False, exc


def ordered_map(fn, items) -> list:
    """``[fn(x) for x in items]``, computed in forked workers.

    The first item that fails, in item order, raises its own exception,
    as the loop would; every item has run by then. Each exception and
    result must pickle. A worker that dies (say, killed for memory) raises
    WorkerDied, where a ``multiprocessing.Pool`` would wait forever.
    """
    global _job
    items = list(items)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(items))
    # imported here, so that importing dgn.cli loads neither
    import multiprocessing
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(x) for x in items]
    chunk = max(1, round(len(items) / (4 * workers)))
    _job = (fn, items)
    try:
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=fork) as pool:
            outcomes = list(pool.map(_call, range(len(items)), chunksize=chunk))
    except BrokenExecutor:
        raise WorkerDied("a worker process died (say, killed for memory)") from None
    finally:
        _job = None
    for ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, value in outcomes]
