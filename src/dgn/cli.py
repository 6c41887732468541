"""Command-line interface.

Subcommands: cluster, train, ablate, explain, gen-data, eval. Every
command takes all randomness from --seed (or the config seed) and writes
deterministic, diffable text outputs. Exit codes: 0 success, 2 parse or
configuration errors, 3 dimension or data errors, 1 internal errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import bank as bank_mod
from . import baselines, movmf, network, trainer
from .data import (
    SceneSpec,
    SparseLabels,
    gen_scene,
    miou,
    read_scene,
    sample_sparse_labels,
    with_sparse,
    write_scene,
)
from .errors import (
    DegenerateRow,
    DgnError,
    DimensionMismatch,
    EmptyScene,
    InvalidBeta,
    LengthMismatch,
    NonUnitInput,
    ParseError,
    ShapeMismatch,
    ZeroVectorRow,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_DATA = 3

_PARSE_ERRORS = (ParseError, InvalidBeta)
_DATA_ERRORS = (
    DimensionMismatch,
    LengthMismatch,
    EmptyScene,
    ZeroVectorRow,
    NonUnitInput,
    ShapeMismatch,
    DegenerateRow,
)

CLUSTER_VARIANTS = ("soft", "hard", "gmm", "proto-euclid", "proto-cosine")


def _read_matrix(path: str) -> np.ndarray:
    """Whitespace-separated floats, one row per line."""
    rows = []
    width = None
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            toks = stripped.split()
            try:
                row = [float(t) for t in toks]
            except ValueError:
                raise ParseError(str(path), line_no, "malformed number")
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ParseError(
                    str(path), line_no, f"expected {width} columns, got {len(row)}"
                )
            rows.append(row)
    if not rows:
        raise ParseError(str(path), 1, "empty matrix file")
    return np.asarray(rows)


def _read_labels(path: str, n: int) -> np.ndarray:
    labels = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                labels.append(int(stripped))
            except ValueError:
                raise ParseError(str(path), line_no, "expected one integer per line")
    if len(labels) != n:
        raise LengthMismatch(f"{path}: {len(labels)} labels for {n} rows")
    return np.asarray(labels, dtype=np.int64)


def _write_lines(path: str, lines) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _fmt6(x: float) -> str:
    return f"{x:.6g}"


def _kmeanspp_init(X: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Deterministic k-means++-style seeding on squared Euclidean distance."""
    rng = np.random.default_rng(seed)
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    dists = np.sum((X - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        total = float(dists.sum())
        if total <= 0:
            centers[c] = X[rng.integers(n)]
        else:
            centers[c] = X[rng.choice(n, p=dists / total)]
        dists = np.minimum(dists, np.sum((X - centers[c]) ** 2, axis=1))
    return centers


def _cluster_init_means(
    X_unit: np.ndarray, k: int, seed: int, labels: np.ndarray | None
) -> np.ndarray:
    if labels is None:
        return movmf.normalize_rows(_kmeanspp_init(X_unit, k, seed))
    keep = labels >= 0
    sparse = SparseLabels(np.flatnonzero(keep), labels[keep])
    fresh = bank_mod.empty_bank(k, X_unit.shape[1], 0.9)
    return bank_mod.init_centers(X_unit, sparse, fresh, seed=seed).centers


def cmd_cluster(args) -> int:
    X = _read_matrix(args.input)
    k = args.classes
    if k < 1:
        raise DimensionMismatch("--classes must be >= 1")
    labels = _read_labels(args.labels, X.shape[0]) if args.labels else None
    if labels is not None and np.any(labels >= k):
        raise DimensionMismatch("label file contains classes >= --classes")
    cfg = movmf.EMConfig(max_iters=args.iters, tol=args.tol, kappa=args.kappa)

    if args.variant in ("soft", "hard"):
        V = movmf.normalize_rows(X)
        init = _cluster_init_means(V, k, args.seed, labels)
        run = movmf.soft_movmf_em if args.variant == "soft" else movmf.hard_movmf_em
        result = run(V, init, cfg)
        assignment, posterior = result.assignment, result.posterior
    elif args.variant == "gmm":
        if labels is None:
            init = _kmeanspp_init(X, k, args.seed)
        else:
            V = movmf.normalize_rows(X)
            dirs = _cluster_init_means(V, k, args.seed, labels)
            init = dirs * float(np.mean(np.linalg.norm(X, axis=1)))
            for c in range(k):
                mask = labels == c
                if np.any(mask):
                    init[c] = X[mask].mean(axis=0)
        result = baselines.gmm_em(X, init, cfg)
        assignment, posterior = result.assignment, result.posterior
    else:
        metric = "euclidean" if args.variant == "proto-euclid" else "cosine"
        if metric == "cosine":
            space = movmf.normalize_rows(X)
            protos = _cluster_init_means(space, k, args.seed, labels)
        else:
            space = X
            if labels is None:
                protos = _kmeanspp_init(X, k, args.seed)
            else:
                V = movmf.normalize_rows(X)
                protos = _cluster_init_means(V, k, args.seed, labels) * float(
                    np.mean(np.linalg.norm(X, axis=1))
                )
                for c in range(k):
                    mask = labels == c
                    if np.any(mask):
                        protos[c] = X[mask].mean(axis=0)
        assignment = baselines.prototype_assign(X, baselines.PrototypeSet(metric, protos))
        posterior = movmf.one_hot(assignment, k)

    prefix = args.out_prefix or args.input
    _write_lines(prefix + ".assignments", [str(int(c)) for c in assignment])
    _write_lines(
        prefix + ".posteriors",
        [" ".join(_fmt6(v) for v in row) for row in posterior],
    )
    print(f"wrote {prefix}.assignments and {prefix}.posteriors")
    return EXIT_OK


def _scene_paths(data_dir: str) -> list[Path]:
    paths = sorted(Path(data_dir).glob("*.dgn"))
    if not paths:
        raise EmptyScene(f"no .dgn scene files in {data_dir}")
    return paths


def _load_train_config(args) -> trainer.TrainConfig:
    cfg = trainer.load_config(args.config) if args.config else trainer.TrainConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def cmd_train(args) -> int:
    cfg = _load_train_config(args)
    scenes = [read_scene(str(p)) for p in _scene_paths(args.data)]
    result = trainer.fit(scenes, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_lines(
        str(out / "report.txt"),
        [trainer.format_report_line(r) for r in result.reports] or ["epochs=0"],
    )
    network.save_checkpoint(str(out / "model.ckpt"), result.params, result.bank)
    final = result.reports[-1].val_miou if result.reports else float("nan")
    print(f"trained {cfg.epochs} epochs; final val_miou={_fmt6(final)}")
    print(f"wrote {out / 'report.txt'} and {out / 'model.ckpt'}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    if args.param == "seed":
        raise ParseError("--param", 1, "seeds are swept with --seeds, not --param seed")
    cfg = _load_train_config(args)
    scenes = [read_scene(str(p)) for p in _scene_paths(args.data)]
    raw_values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not raw_values:
        raise ParseError("--values", 1, "empty value list")
    try:
        values = [trainer._parse_value(args.param, v) for v in raw_values]
    except KeyError:
        raise ParseError("--param", 1, f"unknown config key {args.param!r}")
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    rows = trainer.ablate(scenes, cfg, {args.param: values}, seeds=seeds or None)
    lines = []
    for row in rows:
        cell = " ".join(f"{k}={v}" for k, v in row.overrides)
        per_seed = ",".join(_fmt6(v) for v in row.per_seed)
        lines.append(
            f"{cell} mean_val_miou={_fmt6(row.mean_val_miou)} "
            f"stderr={_fmt6(row.stderr)} per_seed={per_seed}"
        )
    _write_lines(args.out, lines)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def cmd_explain(args) -> int:
    cfg = _load_train_config(args)
    scene = read_scene(args.scene)
    params, _ = network.load_checkpoint(args.checkpoint)
    posterior = trainer.explain(scene, params, cfg)
    _write_lines(
        args.out, [" ".join(_fmt6(v) for v in row) for row in posterior]
    )
    print(f"wrote per-point posteriors to {args.out}")
    return EXIT_OK


def cmd_gen_data(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lo, _, hi = args.points.partition(":")
    points = (int(lo), int(hi or lo))
    for i in range(args.scenes):
        spec = SceneSpec(
            num_classes=args.classes,
            points_per_class=points,
            geometry=args.geometry,
            noise_sigma=args.noise,
            seed=args.seed + i,
        )
        scene = gen_scene(spec)
        if args.label_rate < 1.0:
            scene = with_sparse(
                scene, sample_sparse_labels(scene, args.label_rate, seed=args.seed + i)
            )
        write_scene(str(out / f"scene_{i:03d}.dgn"), scene)
    print(f"wrote {args.scenes} scenes to {out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    scene = read_scene(args.scene)
    pred = _read_labels(args.pred, scene.num_points)
    if np.any(scene.gt_labels < 0):
        raise DimensionMismatch("scene lacks dense ground truth; cannot score")
    report = miou(pred, scene.gt_labels, scene.num_classes)
    print(f"miou={_fmt6(report.miou)}")
    for c in range(scene.num_classes):
        value = "absent" if not report.present[c] else _fmt6(report.per_class_iou[c])
        print(f"iou_{c}={value}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dgn",
        description="Hyperspherical mixture clustering and weakly supervised "
        "training on synthetic point-cloud scenes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="cluster a matrix file")
    p.add_argument("input", help="text matrix, one row of floats per line")
    p.add_argument("--variant", choices=CLUSTER_VARIANTS, default="soft")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--kappa", type=float, default=10.0)
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--labels", help="optional label file (one int per line, -1 = none)")
    p.add_argument("--out-prefix", help="output prefix (default: the input path)")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("train", help="train on a directory of .dgn scenes")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--data", required=True, help="directory of .dgn scene files")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("ablate", help="sweep one config key over a value grid")
    p.add_argument("--config", help="base config file")
    p.add_argument("--data", required=True)
    p.add_argument("--param", required=True, help="TrainConfig field to sweep")
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--seeds", default="", help="comma-separated seeds")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output table file")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("explain", help="export per-point posteriors for a scene")
    p.add_argument("--scene", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", help="config file (clustering settings)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("gen-data", help="generate synthetic labeled scenes")
    p.add_argument("--out", required=True)
    p.add_argument("--scenes", type=int, default=20)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--points", default="60:90", help="points per class, lo:hi")
    p.add_argument("--geometry", choices=("gaussian_blobs", "planar_patches", "mixed"),
                   default="mixed")
    p.add_argument("--noise", type=float, default=0.3)
    p.add_argument("--label-rate", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("eval", help="score a prediction file against a scene")
    p.add_argument("--pred", required=True, help="one predicted class per line")
    p.add_argument("--scene", required=True)
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _PARSE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DgnError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
