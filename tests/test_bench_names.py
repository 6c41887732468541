"""The names the benchmark's tracer counts must stay the names of dgn
functions: a renamed or removed function leaves its per-layer metric at 0
without any error in the benchmark run."""

import importlib
import importlib.util
import os
import types

import numpy as np
import pytest

from dgn import bank as bank_mod
from dgn import data

_TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "bench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("name", tracer.COUNTERS)
def test_each_counted_name_is_a_public_function_defined_in_its_layer(name):
    # the tracer wraps public functions only, and names a span by the module
    # that defines the function
    layer, func = name.split(".")
    assert layer in tracer.LAYERS and not func.startswith("_")
    value = getattr(importlib.import_module(f"dgn.{layer}"), func, None)
    assert isinstance(value, types.FunctionType), name
    assert value.__module__ == f"dgn.{layer}" and value.__name__ == func


def test_init_centers_provenance_feeds_the_scene_counter():
    # two labeled classes, one from the bank, one from the fallback
    rng = np.random.default_rng(0)
    V = rng.standard_normal((6, 3))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    labels = data.SparseLabels(np.array([0, 1, 4]), np.array([0, 0, 2]))
    bank = bank_mod.MemoryBank(np.eye(4, 3), np.array([False, True, False, False]), 0.9)
    result = bank_mod.init_centers(V, labels, bank, seed=1)
    assert result.provenance == (bank_mod.PROVENANCE_SCENE, bank_mod.PROVENANCE_BANK,
                                 bank_mod.PROVENANCE_SCENE, bank_mod.PROVENANCE_FALLBACK)
    counter = tracer.COUNTERS["bank.init_centers"]
    assert counter((V, labels, bank), result) == {"centers": 4, "scene": 2}
