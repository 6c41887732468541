"""Benchmark of the dgn command-line program.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every timed operation is a real
``python3 -m dgn.cli`` child process with BLAS pinned to one thread, run
one at a time. Inputs come from --seed only. The inputs are built, then
the workload's commands repeat in rounds for about S seconds, each
round rebuilding the inputs once more to time set-up. Every output is checked; an operation fails on a non-zero exit
or a failed check. ``--trace 1`` adds one traced run of the same
commands (bench/child.py) and reports per-layer metrics instead.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics. The exit code is 0 when nothing failed, 1 when an
operation failed and 2 when the checkout has no dgn sources.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import checks
import tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN_LIMIT_S = 170.0       # a run must end within 180 s
CONFIG = os.path.join(BENCH, "train.cfg")


@dataclass(frozen=True)
class TrainWorkload:
    gen_args: tuple[str, ...]   # dgn gen-data arguments besides --out and --seed
    classes: int


@dataclass(frozen=True)
class ClusterWorkload:
    points: str = "9500:10500"  # per class: about 80k rows in all
    classes: int = 8
    iters: int = 50


WORKLOADS = {
    "train-large": TrainWorkload(
        ("--scenes", "10", "--classes", "8", "--points", "2000:3000"), classes=8
    ),
    "train-small": TrainWorkload(("--scenes", "200"), classes=4),
    "cluster": ClusterWorkload(),
}


@dataclass
class Op:
    """One timed child process and the checks on its outputs."""

    name: str
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    failure: str | None = None


@dataclass
class Run:
    """State of one benchmark run: its directory, clock and operations."""

    dir: str
    started: float = field(default_factory=time.perf_counter)
    ops: list[Op] = field(default_factory=list)

    def env(self) -> dict[str, str]:
        env = dict(os.environ, **THREAD_ENV)
        env["PYTHONPATH"] = SRC
        return env

    def spawn(self, name: str, argv: list[str]) -> Op:
        """Run one child to completion and record wall, CPU and peak RSS."""
        op = Op(name)
        self.ops.append(op)
        remaining = RUN_LIMIT_S - (time.perf_counter() - self.started)
        if remaining <= 0:
            op.failure = "run time limit reached before start"
            return op
        log_path = os.path.join(self.dir, f"op{len(self.ops):03d}-{name}.log")
        with open(log_path, "w") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=self.dir, env=self.env(),
                stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
            )
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            op.wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        op.cpu_s = usage.ru_utime + usage.ru_stime
        op.rss_mb = usage.ru_maxrss / 1024.0
        if proc.returncode != 0:
            with open(log_path) as fh:
                tail = fh.read()[-400:].strip()
            op.failure = f"exit {proc.returncode}: {tail}"
        return op

    def cli(self, name: str, args: list[str]) -> Op:
        return self.spawn(name, ["-m", "dgn.cli", *args])

    def child(self, name: str, args: list[str]) -> Op:
        return self.spawn(name, [os.path.join(BENCH, "child.py"), *args])

    def verify(self, op: Op, check, *args):
        """Run a check on a successful op's outputs; a CheckFailed marks
        the op failed. Returns the check's value, or None."""
        if op.failure is not None:
            return None
        try:
            return check(*args)
        except checks.CheckFailed as exc:
            op.failure = str(exc)
            return None

    def path(self, *parts: str) -> str:
        return os.path.join(self.dir, *parts)

    def elapsed(self) -> float:
        return time.perf_counter() - self.started


def rounds(run: Run, seconds: float, body) -> int:
    """Call body() at least once, then again while another round of the
    mean length still fits in ``seconds``. Returns the number of rounds."""
    start = time.perf_counter()
    done = 0
    while True:
        body()
        done += 1
        spent = time.perf_counter() - start
        if spent + spent / done > seconds or run.elapsed() + spent / done > RUN_LIMIT_S:
            return done


def same_as_first(op: Op, seen: list, value) -> None:
    """Determinism check: a repeated operation on the same inputs must
    produce the same outputs as its first round."""
    if op.failure is None:
        seen.append(value)
        if value != seen[0]:
            op.failure = f"output differs from the first round: {value} != {seen[0]}"


def startup_probe(run: Run) -> float:
    """Wall time of a no-op dgn invocation. One runs before every timed
    command, so the samples spread over the whole run."""
    return run.cli("startup", ["--help"]).wall_s


def run_train(run: Run, wl: TrainWorkload, seed: int, seconds: float, trace: bool):
    from dgn.trainer import load_config  # dgn loads only after main() pins BLAS

    epochs = load_config(CONFIG).epochs
    gen = ["gen-data", *wl.gen_args, "--seed", str(seed * 1000)]

    def build(out: str) -> float:
        return run.cli("gen-data", [*gen, "--out", out]).wall_s

    data = run.path("data")
    setup = [build(data)]
    scenes = sorted(glob.glob(os.path.join(data, "*.dgn")))
    held_out = scenes[-1] if scenes else os.path.join(data, "missing.dgn")
    points = checks.scene_points(held_out) if scenes else 0
    train = ["train", "--config", CONFIG, "--data", data, "--seed", str(seed)]
    explain = ["explain", "--config", CONFIG, "--scene", held_out, "--seed", str(seed)]

    def train_and_explain(launch, out: str, between=lambda: None):
        """One train and one explain, with every output check."""
        ckpt = os.path.join(out, "model.ckpt")
        fit = launch("train", [*train, "--out", out])
        report = run.verify(fit, checks.check_report, os.path.join(out, "report.txt"), epochs)
        digest = run.verify(fit, checks.check_checkpoint, ckpt)
        val_miou = report[-1]["val_miou"] if report else None
        same_as_first(fit, seen_fit, (val_miou, digest))
        between()
        exp = launch("explain", [*explain, "--checkpoint", ckpt, "--out", out + ".explain"])
        posterior = run.verify(exp, checks.check_posteriors, out + ".explain", points,
                               wl.classes)
        same_as_first(exp, seen_explain, posterior)
        return fit, exp, report

    probes, fits, explains, seen_fit, seen_explain = [], [], [], [], []

    def one_round() -> None:
        setup.append(build(run.path("rebuilt")))
        probes.append(startup_probe(run))
        fit, exp, _ = train_and_explain(run.cli, run.path("out"),
                                        lambda: probes.append(startup_probe(run)))
        fits.append(fit)
        explains.append(exp)

    done = rounds(run, seconds, one_round)
    metrics, samples = end_to_end(setup, probes, fits, explains)
    val_miou, digest = seen_fit[0] if seen_fit else (None, None)
    outcome = {"rounds": done, "samples": samples, "val_miou": val_miou, "ckpt_sha256": digest}
    if not trace:
        return metrics, outcome

    # The traced children must reproduce the untraced outputs exactly.
    spans = [run.path(f"spans{i}.json") for i in range(3)]
    launch = traced_launcher(run, spans)
    launch("gen-data", [*gen, "--out", run.path("traced_data")])
    fit, _, report = train_and_explain(launch, run.path("traced"))
    layers, stats = traced_metrics(spans, fit, statistics.median(o.wall_s for o in fits))
    layers["trainer.fit.val_miou"] = val_miou or 0.0
    step_iters = stats.count("movmf.soft_movmf_em", "iters", parent="trainer.train_step")
    if report and fit.failure is None and step_iters != sum(r["em_iters"] for r in report):
        fit.failure = f"traced EM iterations {step_iters} differ from report.txt"
    return layers, outcome


def run_cluster(run: Run, wl: ClusterWorkload, seed: int, seconds: float, trace: bool):

    def build(out: str) -> float:
        return run.child("matrix", ["matrix", out, str(seed), str(wl.classes), wl.points]).wall_s

    matrix = run.path("matrix.txt")
    setup = [build(matrix)]
    rows = checks.count_rows(matrix) if os.path.exists(matrix) else 0
    seen = {"soft": [], "gmm": []}

    def cluster(launch, variant: str) -> Op:
        prefix = run.path(variant)
        op = launch(f"cluster-{variant}", [
            "cluster", matrix, "--variant", variant, "--classes", str(wl.classes),
            "--iters", str(wl.iters), "--tol", "0", "--seed", str(seed),
            "--out-prefix", prefix,
        ])
        digest = run.verify(op, checks.check_assignments, prefix + ".assignments", rows,
                            wl.classes)
        same_as_first(op, seen[variant], digest)
        return op

    probes, softs, gmms = [], [], []

    def one_round() -> None:
        setup.append(build(run.path("rebuilt.txt")))
        probes.append(startup_probe(run))
        softs.append(cluster(run.cli, "soft"))
        probes.append(startup_probe(run))
        gmms.append(cluster(run.cli, "gmm"))

    done = rounds(run, seconds, one_round)
    metrics, samples = end_to_end(setup, probes, softs, gmms)
    outcome = {"rounds": done, "samples": samples,
               **{f"{v}_sha256": d[0] if d else None for v, d in seen.items()}}
    if not trace:
        return metrics, outcome

    # The traced children must reproduce the untraced outputs exactly.
    spans = [run.path(f"spans{i}.json") for i in range(3)]
    launch = traced_launcher(run, spans)
    launch("matrix", ["matrix", run.path("traced_matrix.txt"), str(seed), str(wl.classes),
                      wl.points])
    soft = cluster(launch, "soft")
    cluster(launch, "gmm")
    layers, _ = traced_metrics(spans, soft, statistics.median(o.wall_s for o in softs))
    layers["trainer.fit.val_miou"] = 0.0
    return layers, outcome


def traced_launcher(run: Run, span_files: list[str]):
    """Launch each next command traced, with its spans in the next file."""
    files = iter(span_files)

    def launch(name: str, args: list[str]) -> Op:
        return run.child(f"traced-{name}", ["--spans", next(files), *args])

    return launch


def end_to_end(setup, probes, fits: list[Op], seconds_ops: list[Op]):
    """The end-to-end metrics, medians of their samples, and the samples."""
    samples = {
        "setup_s": setup,
        "startup_s": probes,
        "fit_s": [o.wall_s for o in fits],
        "fit_cpu_s": [o.cpu_s for o in fits],
        "peak_rss_mb": [o.rss_mb for o in fits],
        "second_s": [o.wall_s for o in seconds_ops],
    }
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    return metrics, {name: [round(v, 4) for v in values] for name, values in samples.items()}


def traced_metrics(span_files, traced_fit: Op, untraced_fit_s: float):
    """Per-layer metrics from the traced children's spans. The fit span
    tree must account for the fit time, else the traced fit op fails."""
    stats = tracer.SpanStats(tracer.load_spans(p for p in span_files if os.path.exists(p)))
    layers = tracer.layer_metrics(stats)
    layers["trace.overhead_s"] = traced_fit.wall_s - untraced_fit_s
    cover = tracer.fit_self_cover(stats)
    if stats.calls("trainer.fit") and abs(cover - 1.0) > 0.05 and traced_fit.failure is None:
        traced_fit.failure = f"fit self times cover {cover:.3f} of trainer.fit.s"
    return layers, stats


def git_commit() -> str:
    """The checkout's commit, read from .git without running git; the
    benchmark may run in a plain copy of the tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def manifest() -> dict[str, object]:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": THREAD_ENV,
        "commit": git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dgn", "cli.py")):
        print(f"error: no dgn sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)   # before numpy loads, for the output checks
    if SRC not in sys.path:
        sys.path.insert(0, SRC)

    run_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    run = Run(run_dir)
    wl = WORKLOADS[args.workload]
    runner = run_train if isinstance(wl, TrainWorkload) else run_cluster
    try:
        metrics, outcome = runner(run, wl, args.seed, args.seconds, bool(args.trace))
        failures = [op for op in run.ops if op.failure is not None]
    finally:
        keep = os.path.join(WORK, "traces", os.path.basename(run_dir))
        shutil.rmtree(keep, ignore_errors=True)
        for spans in glob.glob(os.path.join(run_dir, "spans*.json")):
            os.makedirs(keep, exist_ok=True)
            shutil.move(spans, keep)
        shutil.rmtree(run_dir, ignore_errors=True)

    for op in failures:
        print(f"FAILED {op.name}: {op.failure}", file=sys.stderr)
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"elapsed_s={run.elapsed():.1f}")
    print(f"# manifest {json.dumps(manifest(), sort_keys=True)}")
    print(f"# outcome {json.dumps(outcome, sort_keys=True)}")
    print(f"# fail_ratio {len(failures)}/{len(run.ops)}")
    units = spec_metrics("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics do not match BENCHMARK.json: {set(units) ^ set(metrics)}")
    for name, (unit, better) in units.items():
        print(f"{name:34s} {metrics[name]:14.6f} {unit:8s} ({better} is better)")
    result = {
        "correct": not failures,
        "attempted": len(run.ops),
        "failed": len(failures),
        "metrics": {n: {"value": metrics[n], "unit": u} for n, (u, _) in units.items()},
    }
    print(json.dumps(result))
    return 1 if failures else 0


def spec_metrics(kind: str) -> dict[str, tuple[str, str]]:
    """Unit and direction of each metric of one kind, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: (m["unit"], m["better"]) for m in spec[kind]}


if __name__ == "__main__":
    sys.exit(main())
