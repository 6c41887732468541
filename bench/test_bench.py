"""Self-tests of the benchmark: span arithmetic, output checks, and tiny
end-to-end runs of the command.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run as bench_run  # noqa: E402
import tracer  # noqa: E402


def span(name, start, end, parent=-1, counts=None, error=None):
    return [name, start, end, parent, counts, error]


def test_self_time_nested():
    spans = [span("a", 0.0, 10.0), span("b", 1.0, 4.0, 0), span("c", 2.0, 3.0, 1)]
    assert tracer.self_times(spans) == [7.0, 2.0, 1.0]


def test_self_time_siblings():
    spans = [span("a", 0.0, 10.0), span("b", 1.0, 3.0, 0), span("b", 5.0, 8.0, 0)]
    stats = tracer.SpanStats(spans)
    assert tracer.self_times(spans) == [5.0, 2.0, 3.0]
    assert stats.total("b") == 5.0 and stats.self_total("a") == 5.0
    assert stats.subtree_self_sum(0) == 10.0


def test_self_time_counts_overlapping_children_once():
    spans = [span("a", 0.0, 10.0), span("b", 1.0, 5.0, 0), span("c", 4.0, 6.0, 0)]
    assert tracer.self_times(spans)[0] == 5.0


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tracer.tail_percentile(10) == 0.0
    assert tracer.tail_percentile(100) == 90.0
    assert tracer.tail_percentile(960) == 98.9
    assert tracer.percentile([1.0, 2.0, 3.0], 50) == 2.0


def _fake_modules():
    """Module ``dgn.low`` defines f; ``dgn.high`` binds it by name and
    calls it from g, the way cli binds data.read_scene."""
    low = types.ModuleType("dgn.low")
    high = types.ModuleType("dgn.high")
    exec("def f(x):\n    return x + 1\n", low.__dict__)
    high.__dict__["f"] = low.f
    exec("def g(x):\n    return f(x) * 2\n", high.__dict__)
    return low, high


def test_tracer_wraps_every_binding_with_parents():
    low, high = _fake_modules()
    ticks = iter(range(100))
    trace = tracer.Tracer(clock=lambda: float(next(ticks)))
    undo = trace.install([low, high])
    try:
        assert high.g(1) == 4
        assert low.f(1) == 2
    finally:
        tracer.Tracer.uninstall(undo)
    names = [(s[tracer.NAME], s[tracer.PARENT]) for s in trace.spans]
    assert names == [("high.g", -1), ("low.f", 0), ("low.f", -1)]
    assert high.f is low.f and not hasattr(low.f, "__wrapped__")


def test_tracer_records_errors():
    low, _ = _fake_modules()
    trace = tracer.Tracer()
    undo = trace.install([low])
    try:
        with pytest.raises(TypeError):
            low.f(None)
    finally:
        tracer.Tracer.uninstall(undo)
    assert trace.spans[0][tracer.ERROR] == "TypeError"
    assert tracer.SpanStats(trace.spans).errors("low.f", "TypeError") == 1


GOOD_LINE = ("epoch=0 tce=0.5 vmf=-10 dis=0.1 con=0.7 total=-8.7 "
             "train_miou=0.25 val_miou=0.3 em_iters=80 degenerate=0")


def test_check_report(tmp_path):
    path = tmp_path / "report.txt"
    path.write_text(GOOD_LINE + "\n")
    assert checks.check_report(str(path), 1)[-1]["val_miou"] == 0.3
    path.write_text(GOOD_LINE.replace("vmf=-10", "vmf=nan") + "\n")
    with pytest.raises(checks.CheckFailed, match="non-finite"):
        checks.check_report(str(path), 1)
    with pytest.raises(checks.CheckFailed, match="lines"):
        checks.check_report(str(path), 2)


def test_check_checkpoint(tmp_path):
    from dgn import network

    path = str(tmp_path / "model.ckpt")
    network.save_checkpoint(path, network.init_params([7, 4], 3, seed=0))
    assert len(checks.check_checkpoint(path)) == 64
    with open(path, "r+b") as fh:
        fh.truncate(40)
    with pytest.raises(checks.CheckFailed, match="ParseError"):
        checks.check_checkpoint(path)


def test_check_posteriors_and_assignments(tmp_path):
    post = tmp_path / "post.txt"
    post.write_text("0.25 0.75\n1 0\n")
    checks.check_posteriors(str(post), 2, 2)
    post.write_text("0.333333 0.333333 0.333333\n")  # exact thirds, printed
    checks.check_posteriors(str(post), 1, 3)
    post.write_text("0.25 0.74\n1 0\n")
    with pytest.raises(checks.CheckFailed, match="sums to"):
        checks.check_posteriors(str(post), 2, 2)
    assign = tmp_path / "a.assignments"
    assign.write_text("0\n7\n")
    checks.check_assignments(str(assign), 2, 8)
    assign.write_text("0\n8\n")
    with pytest.raises(checks.CheckFailed, match="not in"):
        checks.check_assignments(str(assign), 2, 8)


@pytest.fixture
def tiny(tmp_path, monkeypatch):
    """Tiny workloads, writing to tmp_path."""
    config = tmp_path / "tiny.cfg"
    config.write_text("em_tol = 0\nepochs = 2\nwarmup_epochs = 1\n")
    monkeypatch.setattr(bench_run, "WORK", str(tmp_path / "work"))
    monkeypatch.setattr(bench_run, "CONFIG", str(config))
    monkeypatch.setitem(bench_run.WORKLOADS, "train-small", bench_run.TrainWorkload(
        ("--scenes", "3", "--points", "20:30"), classes=4))
    monkeypatch.setitem(bench_run.WORKLOADS, "cluster", bench_run.ClusterWorkload(
        points="40:60", iters=5))


def result_of(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def spec_names(kind):
    return set(bench_run.spec_metrics(kind))


@pytest.mark.parametrize("workload", ["train-small", "cluster"])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_workload(tiny, capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert bench_run.main(argv) == 0
    result = result_of(capsys)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    kind = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == spec_names(kind)
    if trace and workload == "train-small":
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["trainer.train_step.calls"] == 2 * 2  # 2 training scenes x 2 epochs
        assert m["movmf.em.iters"] > 0 and m["data.read_scene.mb_per_s"] > 0
        assert m["trainer.fit.self_s"] < m["trainer.fit.s"]
    if trace and workload == "cluster":
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["baselines.gmm_em.iters"] == 5 and m["network.forward.calls"] == 0


def test_bad_output_is_counted_as_failure(tiny, capsys, monkeypatch):
    real_cli = bench_run.Run.cli

    def corrupting_cli(self, name, args):
        op = real_cli(self, name, args)
        if name == "train":
            with open(self.path("out", "model.ckpt"), "ab") as fh:
                fh.write(b"junk")
        return op

    monkeypatch.setattr(bench_run.Run, "cli", corrupting_cli)
    argv = ["--workload", "train-small", "--seed", "3", "--seconds", "0", "--trace", "0"]
    assert bench_run.main(argv) == 1
    result = result_of(capsys)
    # the train op fails its checkpoint check and explain cannot load it
    assert not result["correct"] and result["failed"] == 2


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cluster", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
