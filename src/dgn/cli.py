"""Command-line interface.

Subcommands: cluster, train, ablate, explain, gen-data, eval. Every
command takes all randomness from --seed (or the config seed) and writes
deterministic, diffable text outputs. Exit codes: 0 success, 2 parse or
configuration errors, 3 dimension or data errors, running out of memory
(say, for widths that cannot be allocated) and network outputs that are
not finite (NonFiniteOutput: a diverged run or an overflowing checkpoint),
1 internal errors. Each error ends in one line on stderr, not a traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import warnings
from pathlib import Path

import numpy as np

from . import bank as bank_mod
from . import baselines, movmf, network, trainer
from .data import (
    SceneSpec,
    SparseLabels,
    gen_scene,
    integer,
    miou,
    read_scene,
    real,
    sample_sparse_labels,
    with_sparse,
    write_scene,
)
from .errors import (
    EXIT_DATA,
    EXIT_INTERNAL,
    EXIT_PARSE,
    DgnError,
    DimensionMismatch,
    EmptyScene,
    LengthMismatch,
    ParseError,
)

EXIT_OK = 0

CLUSTER_VARIANTS = (*trainer.ALIGNMENTS, "proto-euclid", "proto-cosine")
_INT64 = np.iinfo(np.int64)
_ROWS_PER_WRITE = 4096


def _read_matrix(path: str) -> np.ndarray:
    """Whitespace-separated finite floats, one row per line; blank lines
    are skipped.

    The text is parsed with one ``np.loadtxt`` call. Only when that call
    fails, or reads a nan or inf, does a scan of the lines raise the
    ParseError of the first faulty line: a malformed or non-finite number,
    or a row whose width differs from the first row's. Numbers are those
    ``np.loadtxt`` reads: unlike ``float()``, it rejects digit-group
    underscores (``1_0``) and non-ASCII digits.
    """
    with open(path) as fh:
        try:
            with warnings.catch_warnings():
                # loadtxt warns on empty input: no lines, or only blank ones
                warnings.simplefilter("ignore", UserWarning)
                matrix = np.loadtxt(fh, comments=None, ndmin=2)
        except ValueError:
            matrix = None
        if matrix is None or not np.isfinite(matrix).all():
            fh.seek(0)
            raise _matrix_fault(path, fh)
    if not matrix.shape[0]:
        raise ParseError(str(path), 1, "empty matrix file")
    return matrix


def _matrix_fault(path: str, lines) -> ParseError:
    """The ParseError of the first faulty line of a rejected matrix file."""
    width = None
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            row = np.loadtxt([line], comments=None, ndmin=1)
        except ValueError:
            return ParseError(str(path), line_no, "malformed number")
        if not np.isfinite(row).all():
            return ParseError(str(path), line_no, "non-finite number")
        if width is None:
            width = row.size
        elif row.size != width:
            return ParseError(
                str(path), line_no, f"expected {width} columns, got {row.size}"
            )
    return ParseError(str(path), 1, "malformed matrix")


def _read_labels(path: str, n: int) -> np.ndarray:
    labels = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                label = integer(stripped)
            except ValueError:
                raise ParseError(str(path), line_no, "expected one integer per line") from None
            if not _INT64.min <= label <= _INT64.max:
                raise ParseError(str(path), line_no, "label outside the int64 range")
            labels.append(label)
    if len(labels) != n:
        raise LengthMismatch(f"{path}: {len(labels)} labels for {n} rows")
    return np.asarray(labels, dtype=np.int64)


def _write_lines(path: str, lines) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _fmt6(x: float) -> str:
    return f"{x:.6g}"


def _report_line(report: trainer.EpochReport) -> str:
    """One report.txt line: each field as name=value, a float as ``_fmt6`` prints it."""
    values = ((f.name, getattr(report, f.name)) for f in dataclasses.fields(report))
    return " ".join(f"{k}={_fmt6(v) if isinstance(v, float) else v}" for k, v in values)


def _format_rows(matrix: np.ndarray) -> str:
    """One line per row of ``matrix``, joined by newlines, each value as
    ``_fmt6`` prints it; one ``%`` formats the whole matrix."""
    row = " ".join(["%.6g"] * matrix.shape[1])
    return "\n".join([row] * matrix.shape[0]) % tuple(matrix.ravel().tolist())


def _write_rows(path: str, matrix: np.ndarray) -> None:
    """``_format_rows(matrix)`` and a final newline (a lone newline for no
    rows), formatted and written 4096 rows at a time so the text of the
    whole matrix is never held."""
    with open(path, "w") as fh:
        if not matrix.shape[0]:
            fh.write("\n")
        for start in range(0, matrix.shape[0], _ROWS_PER_WRITE):
            fh.write(_format_rows(matrix[start:start + _ROWS_PER_WRITE]) + "\n")


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


def cmd_cluster(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    if args.classes < 1:
        raise ValueError(f"--classes must be >= 1, got {args.classes}")
    # a flag the variant ignores is an error; EMConfig holds the defaults
    if args.kappa is not None and args.variant not in trainer.MOVMF_ALIGNMENTS:
        raise ValueError("--kappa applies to --variant soft or hard only")
    if args.variant.startswith("proto-") and (args.iters, args.tol) != (None, None):
        raise ValueError("--iters and --tol do not apply to the proto-* variants")
    given = {"max_iters": args.iters, "tol": args.tol, "kappa": args.kappa}
    cfg = movmf.EMConfig(**{name: v for name, v in given.items() if v is not None})

    X = _read_matrix(args.input)
    k = args.classes
    labels = _read_labels(args.labels, X.shape[0]) if args.labels else None
    if labels is not None and np.any((labels < -1) | (labels >= k)):
        raise DimensionMismatch("label file contains classes outside [-1, --classes)")

    # the Euclidean variants work on the raw rows, the others on unit rows; init:
    # k-means++ seeding without labels, labeled means with them
    euclidean = args.variant in ("gmm", "proto-euclid")
    rows = X if euclidean else movmf.normalize_rows(X)
    if labels is None:
        init = _kmeanspp_init(rows, k, args.seed)
        if not euclidean:
            init = movmf.normalize_rows(init)
    else:
        keep = labels >= 0
        sparse = SparseLabels(np.flatnonzero(keep), labels[keep])
        fresh = bank_mod.empty_bank(k, X.shape[1], 0.9)
        if euclidean:
            init = bank_mod.euclidean_init_means(rows, sparse, fresh, seed=args.seed)
        else:
            init = bank_mod.init_centers(rows, sparse, fresh, seed=args.seed).centers

    if args.variant.startswith("proto-"):
        metric = "euclidean" if euclidean else "cosine"
        assignment = baselines.prototype_assign(X, init, metric)
        posterior = movmf.one_hot(assignment, k)
    else:
        if args.variant == "gmm":
            result = baselines.gmm_em(rows, init, cfg)
        else:
            run = movmf.soft_movmf_em if args.variant == "soft" else movmf.hard_movmf_em
            result = run(rows, init, cfg)
        assignment, posterior = result.assignment, result.posterior

    prefix = args.out_prefix or args.input
    _write_lines(prefix + ".assignments", map(str, assignment.tolist()))
    _write_rows(prefix + ".posteriors", posterior)
    print(f"wrote {prefix}.assignments and {prefix}.posteriors")
    return EXIT_OK


def _scene_paths(data_dir: str) -> list[Path]:
    paths = sorted(Path(data_dir).glob("*.dgn"))
    if not paths:
        raise EmptyScene(f"no .dgn scene files in {data_dir}")
    return paths


def _load_train_config(config: str | None, seed: int | None = None) -> trainer.TrainConfig:
    cfg = trainer.load_config(config) if config else trainer.TrainConfig()
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)
    return cfg


def cmd_train(args) -> int:
    cfg = _load_train_config(args.config, args.seed)
    scenes = [read_scene(str(p)) for p in _scene_paths(args.data)]
    result = trainer.fit(scenes, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = [_report_line(r) for r in result.reports] or ["epochs=0"]
    _write_lines(str(out / "report.txt"), lines)
    network.save_checkpoint(str(out / "model.ckpt"), result.params, result.bank)
    final = result.reports[-1].val_miou if result.reports else float("nan")
    print(f"trained {cfg.epochs} epochs; final val_miou={_fmt6(final)}")
    print(f"wrote {out / 'report.txt'} and {out / 'model.ckpt'}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    # every argument is checked before the config or a scene is read
    raw_values = [v.strip() for v in args.values.split(",") if v.strip()]
    values = trainer.parse_sweep(args.param, raw_values)
    if not values:
        raise ParseError("--values", 1, "empty value list")
    try:
        seeds = [integer(s.strip()) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        raise ParseError("--seeds", 1, "expected comma-separated integers") from None
    if any(seed < 0 for seed in seeds):
        raise ValueError(f"seed must be >= 0, got {min(seeds)}")
    cfg = _load_train_config(args.config)
    scenes = [read_scene(str(p)) for p in _scene_paths(args.data)]
    rows = trainer.ablate(scenes, cfg, args.param, values, seeds=seeds or None)
    lines = []
    for row in rows:
        # a tuple of widths in the config syntax, so the cell stays one token
        value = ",".join(map(str, row.value)) if isinstance(row.value, tuple) else row.value
        per_seed = ",".join(_fmt6(v) for v in row.per_seed)
        lines.append(
            f"{args.param}={value} mean_val_miou={_fmt6(row.mean_val_miou)} "
            f"stderr={_fmt6(row.stderr)} per_seed={per_seed}"
        )
    _write_lines(args.out, lines)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def cmd_explain(args) -> int:
    cfg = _load_train_config(args.config, args.seed)
    scene = read_scene(args.scene)
    params, prototype_bank = network.load_checkpoint(args.checkpoint)
    posterior = trainer.explain(scene, params, cfg, prototype_bank)
    _write_rows(args.out, posterior)
    print(f"wrote per-point posteriors to {args.out}")
    return EXIT_OK


def cmd_gen_data(args) -> int:
    # every argument is checked before the output directory is made
    lo, _, hi = args.points.partition(":")
    spec = SceneSpec(
        num_classes=args.classes,
        points_per_class=(integer(lo), integer(hi or lo)),
        geometry=args.geometry,
        noise_sigma=args.noise,
        seed=args.seed,
    )
    if not 0.0 < args.label_rate <= 1.0:
        raise ValueError("--label-rate must be in (0, 1]")
    if args.scenes < 1:
        raise ValueError("--scenes must be >= 1")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i in range(args.scenes):
        scene = gen_scene(dataclasses.replace(spec, seed=args.seed + i))
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
    p.add_argument("--classes", type=integer, required=True)
    p.add_argument("--kappa", type=real, help="shared moVMF concentration, soft and "
                   f"hard only (default {movmf.EMConfig.kappa:g})")
    p.add_argument("--iters", type=integer, help="EM iteration budget, not for proto-* "
                   f"(default {movmf.EMConfig.max_iters})")
    p.add_argument("--tol", type=real, help="EM convergence threshold, not for proto-* "
                   f"(default {movmf.EMConfig.tol:g})")
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--labels", help="optional label file (one int per line, -1 = none)")
    p.add_argument("--out-prefix", help="output prefix (default: the input path)")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("train", help="train on a directory of .dgn scenes")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--data", required=True, help="directory of .dgn scene files")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=integer, default=None, help="override the config seed")
    p.set_defaults(func=cmd_train)

    # no abbreviations: "--seed" must not read as "--seeds"
    p = sub.add_parser("ablate", help="sweep one config key over a value grid",
                       allow_abbrev=False)
    p.add_argument("--config", help="base config file")
    p.add_argument("--data", required=True)
    p.add_argument("--param", required=True, help="TrainConfig field to sweep")
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--seeds", default="", help="comma-separated seeds")
    p.add_argument("--out", required=True, help="output table file")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("explain", help="export per-point posteriors for a scene")
    p.add_argument("--scene", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", help="config file (clustering settings)")
    p.add_argument("--seed", type=integer, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("gen-data", help="generate synthetic labeled scenes")
    p.add_argument("--out", required=True)
    p.add_argument("--scenes", type=integer, default=20)
    p.add_argument("--classes", type=integer, default=4)
    p.add_argument("--points", default="60:90", help="points per class, lo:hi")
    p.add_argument("--geometry", choices=("gaussian_blobs", "planar_patches", "mixed"),
                   default="mixed")
    p.add_argument("--noise", type=real, default=0.3)
    p.add_argument("--label-rate", type=real, default=1.0,
                   help="share of each scene's points written to its sparse "
                   "trailer; only 'dgn explain' reads the trailer, 'dgn train' draws "
                   "its own labels at label_rate from the dense ground truth")
    p.add_argument("--seed", type=integer, default=0)
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
    except DgnError as exc:
        kind = "internal error" if exc.exit_code == EXIT_INTERNAL else "error"
        print(f"{kind}: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
