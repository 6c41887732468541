"""In-process span tracing of the dgn layers, and the per-layer metrics
computed from the recorded spans.

A span is (name, start, end, parent, counts, error). Names are
``<defining module>.<function>``: ``cli.read_scene`` and
``data.read_scene`` are two bindings of one function and both record
``data.read_scene``. Spans stay in memory until ``Tracer.dump``.

Self time is a span's duration minus the part of its interval covered
by its direct children.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
import types

# Layers in the order they are reported; each is a module of src/dgn.
LAYERS = ("cli", "trainer", "network", "movmf", "losses", "bank", "baselines", "data")

NAME, START, END, PARENT, COUNTS, ERROR = range(6)


def _layer_flops(params, rows: int, backward: bool) -> int:
    """Computed matmul FLOPs of one forward or backward pass: two per
    multiply-add over every layer's (out, in) and the (k, feat) head."""
    dims = [w.shape for w in params.layer_weights] + [params.head_weights.shape]
    if not backward:
        return sum(2 * rows * o * i for o, i in dims)
    # weight gradient for every matrix, input gradient for all but layer 0
    return sum(2 * rows * o * i for o, i in dims) + sum(
        2 * rows * o * i for o, i in dims[1:]
    )


def _count_forward(args, result):
    params, points = args[0], args[1]
    rows = int(points.shape[0])
    return {"rows": rows, "flop": _layer_flops(params, rows, backward=False)}


def _count_backward(args, result):
    params, cache = args[0], args[1]
    rows = int(cache.inputs.shape[0])
    return {"rows": rows, "flop": _layer_flops(params, rows, backward=True)}


def _count_predict(args, result):
    return {"rows": int(args[1].num_points)}


def _count_read_scene(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _count_em(args, result):
    return {"iters": int(result.iterations), "converged": int(bool(result.converged))}


def _count_init_centers(args, result):
    from dgn.bank import PROVENANCE_SCENE

    return {
        "centers": len(result.provenance),
        "scene": sum(p == PROVENANCE_SCENE for p in result.provenance),
    }


# Counts taken at the layer boundary, from the call's arguments and result.
COUNTERS = {
    "network.forward": _count_forward,
    "network.backward": _count_backward,
    "trainer.predict": _count_predict,
    "data.read_scene": _count_read_scene,
    "movmf.soft_movmf_em": _count_em,
    "movmf.hard_movmf_em": _count_em,
    "baselines.gmm_em": _count_em,
    "bank.init_centers": _count_init_centers,
}


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, func):
        counter = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            spans.append(span)
            stack.append(index)
            span[START] = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if counter is not None:
                span[COUNTS] = counter(args, result)
            return result

        return traced

    def install(self, modules) -> list[tuple]:
        """Wrap every public dgn function bound in each module, at the
        binding its callers look up. Returns what ``uninstall`` restores."""
        undo = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                home = value.__module__
                if not home.startswith("dgn."):
                    continue
                name = f"{home.rsplit('.', 1)[1]}.{value.__name__}"
                setattr(module, attr, self.wrap(name, value))
                undo.append((module, attr, value))
        return undo

    @staticmethod
    def uninstall(undo) -> None:
        for module, attr, value in reversed(undo):
            setattr(module, attr, value)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def install_dgn(tracer: Tracer) -> list[tuple]:
    import importlib

    modules = [importlib.import_module(f"dgn.{layer}") for layer in LAYERS]
    return tracer.install(modules)


def load_spans(paths) -> list[list]:
    """Concatenate span files, shifting parent indices past earlier files."""
    spans: list[list] = []
    for path in paths:
        with open(path) as fh:
            part = json.load(fh)
        base = len(spans)
        for span in part:
            if span[PARENT] >= 0:
                span[PARENT] += base
            spans.append(span)
    return spans


def self_times(spans) -> list[float]:
    """Duration minus the union of the direct children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, span[START]), min(hi, span[END])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(span[END] - span[START] - covered)
    return out


def percentile(values, pct: float) -> float:
    """Linear-interpolation percentile of a non-empty sample."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest percentile, to 0.1, with at least ten samples beyond it;
    0 when there are ten samples or fewer."""
    if n <= 10:
        return 0.0
    return math.floor(1000.0 * (1.0 - 10.0 / n)) / 10.0


class SpanStats:
    """Per-name sums over a list of spans."""

    def __init__(self, spans):
        self.spans = spans
        self.self_s = self_times(spans)
        self.by_name: dict[str, list[int]] = {}
        for index, span in enumerate(spans):
            self.by_name.setdefault(span[NAME], []).append(index)

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def total(self, name: str) -> float:
        return sum(self.duration(i) for i in self.by_name.get(name, ()))

    def self_total(self, name: str) -> float:
        return sum(self.self_s[i] for i in self.by_name.get(name, ()))

    def durations(self, name: str) -> list[float]:
        return [self.duration(i) for i in self.by_name.get(name, ())]

    def duration(self, index: int) -> float:
        return self.spans[index][END] - self.spans[index][START]

    def count(self, name: str, key: str, parent: str | None = None) -> int:
        total = 0
        for i in self.by_name.get(name, ()):
            span = self.spans[i]
            if parent is not None and (
                span[PARENT] < 0 or self.spans[span[PARENT]][NAME] != parent
            ):
                continue
            if span[COUNTS]:
                total += span[COUNTS].get(key, 0)
        return total

    def errors(self, name: str, error: str) -> int:
        return sum(self.spans[i][ERROR] == error for i in self.by_name.get(name, ()))

    def subtree_self_sum(self, index: int) -> float:
        """Sum of self times over a span and all its descendants."""
        kids: dict[int, list[int]] = {}
        for i, span in enumerate(self.spans):
            if span[PARENT] >= 0:
                kids.setdefault(span[PARENT], []).append(i)
        total, todo = 0.0, [index]
        while todo:
            i = todo.pop()
            total += self.self_s[i]
            todo.extend(kids.get(i, ()))
        return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: SpanStats) -> dict[str, float]:
    """Every per-layer metric of BENCHMARK.json except trace.overhead_s.

    A layer the workload does not reach reports zeros.
    """
    s = stats.total
    m: dict[str, float] = {}

    fwd_s, bwd_s = s("network.forward"), s("network.backward")
    m["network.forward.s"] = fwd_s
    m["network.forward.calls"] = stats.calls("network.forward")
    m["network.forward.rows"] = stats.count("network.forward", "rows")
    m["network.forward.gflop_per_s"] = _ratio(
        stats.count("network.forward", "flop") / 1e9, fwd_s
    )
    m["network.backward.s"] = bwd_s
    m["network.backward.gflop_per_s"] = _ratio(
        stats.count("network.backward", "flop") / 1e9, bwd_s
    )
    m["network.softmax.s"] = s("network.softmax")
    m["network.softmax_backward.s"] = s("network.softmax_backward")
    m["network.adam_step.s"] = s("network.adam_step")
    m["network.adam_step.calls"] = stats.calls("network.adam_step")
    m["network.save_checkpoint.s"] = s("network.save_checkpoint")
    m["network.load_checkpoint.s"] = s("network.load_checkpoint")

    predict_rows = stats.count("trainer.predict", "rows")
    m["trainer.predict.s"] = s("trainer.predict")
    m["trainer.predict.rows"] = predict_rows
    m["trainer.eval_forward_ratio"] = _ratio(
        predict_rows, stats.count("network.forward", "rows", parent="trainer.train_step")
    )
    steps = stats.durations("trainer.train_step")
    tail = tail_percentile(len(steps))
    m["trainer.train_step.s"] = sum(steps)
    m["trainer.train_step.self_s"] = stats.self_total("trainer.train_step")
    m["trainer.train_step.calls"] = len(steps)
    m["trainer.train_step.p50_ms"] = 1e3 * percentile(steps, 50) if steps else 0.0
    m["trainer.train_step.pmax_ms"] = 1e3 * percentile(steps, tail) if steps else 0.0
    m["trainer.train_step.pmax_pct"] = tail
    m["trainer.fit.s"] = s("trainer.fit")
    m["trainer.fit.self_s"] = stats.self_total("trainer.fit")
    m["trainer.explain.s"] = s("trainer.explain")

    em_names = ("movmf.soft_movmf_em", "movmf.hard_movmf_em")
    em_s = sum(s(n) for n in em_names)
    em_calls = sum(stats.calls(n) for n in em_names)
    em_iters = sum(stats.count(n, "iters") for n in em_names)
    m["movmf.soft_movmf_em.s"] = s("movmf.soft_movmf_em")
    m["movmf.soft_movmf_em.calls"] = stats.calls("movmf.soft_movmf_em")
    m["movmf.em.iters"] = em_iters
    m["movmf.em.s_per_iter"] = _ratio(em_s, em_iters)
    m["movmf.em.converged_ratio"] = _ratio(
        sum(stats.count(n, "converged") for n in em_names), em_calls
    )
    m["movmf.posterior.s"] = s("movmf.posterior")
    m["movmf.posterior.calls"] = stats.calls("movmf.posterior")
    m["movmf.m_step.s"] = s("movmf.m_step")

    m["baselines.gmm_em.s"] = s("baselines.gmm_em")
    m["baselines.gmm_em.iters"] = stats.count("baselines.gmm_em", "iters")
    m["baselines.gmm_posterior.s"] = s("baselines.gmm_posterior")

    m["losses.tce_loss.s"] = s("losses.tce_loss")
    m["losses.vmf_loss.s"] = s("losses.vmf_loss")
    m["losses.dis_loss_through_means.s"] = s("losses.dis_loss_through_means")
    m["losses.dis.fallbacks"] = _ratio(
        stats.errors("losses.dis_loss_through_means", "DegenerateCluster"),
        stats.calls("losses.dis_loss_through_means"),
    )
    m["losses.con_loss.s"] = s("losses.con_loss")

    m["bank.init_centers.s"] = s("bank.init_centers")
    m["bank.init_centers.scene_ratio"] = _ratio(
        stats.count("bank.init_centers", "scene"),
        stats.count("bank.init_centers", "centers"),
    )
    m["bank.update_bank.s"] = s("bank.update_bank")

    read_s = s("data.read_scene")
    m["data.read_scene.s"] = read_s
    m["data.read_scene.mb_per_s"] = _ratio(
        stats.count("data.read_scene", "bytes") / 1e6, read_s
    )
    m["data.gen_scene.s"] = s("data.gen_scene")
    m["data.write_scene.s"] = s("data.write_scene")

    m["cli.cmd_train.s"] = s("cli.cmd_train")
    m["cli.cmd_explain.s"] = s("cli.cmd_explain")
    m["cli.cmd_cluster.s"] = s("cli.cmd_cluster")
    m["cli.cmd_cluster.self_s"] = stats.self_total("cli.cmd_cluster")
    return m


def fit_self_cover(stats: SpanStats) -> float:
    """Self times of every span under trainer.fit, summed, over the
    inclusive fit time: 1 when the span tree is consistent."""
    fits = stats.by_name.get("trainer.fit", ())
    total = sum(stats.duration(i) for i in fits)
    return _ratio(sum(stats.subtree_self_sum(i) for i in fits), total)
