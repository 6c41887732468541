"""Command-line interface.

Subcommands: cluster, train, ablate, explain, gen-data, eval. Every
command takes all randomness from --seed (or the config seed) and writes
deterministic, diffable text tables (see ``dgn.data``). Exit codes: 0
success, 2 parse or configuration errors (say, a checkpoint whose layer
shapes do not chain or whose bank is not its head's shape, an ablate
grid that holds out no validation scene, or an explain --config whose
alignment or kappa is not the one the checkpoint was trained with), 3
dimension or data errors (say, explaining a scene whose class count is
not the checkpoint head's, or clustering fewer rows than --classes with
--variant gmm or proto-euclid), running out of memory (say, for widths
that cannot be allocated), a worker that dies (WorkerDied: say, killed
for memory) and values that overflow (NonFiniteOutput: a diverged run,
an overflowing checkpoint or a cluster matrix), 1 internal errors.
Each error ends in one line on stderr.

gen-data (one task per scene) and ablate (one task per fit) run their
tasks in forked workers, one per CPU in the process's affinity mask, and
write the bytes a one-CPU run writes.
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
    _read_labels,
    _read_matrix,
    _write_rows,
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
    NonFiniteOutput,
    ParseError,
)
from .workers import ordered_map

EXIT_OK = 0
# the config a checkpoint was trained with, written beside it by `dgn train`
TRAINED_CONFIG = "config.txt"

# each variant's family; a proto-* variant is its family's E step at the init
# (uniform weights, and for the GMM one shared variance), so it assigns each
# row to its nearest init centre: by squared distance, or by cosine
CLUSTER_VARIANTS = {**trainer.FAMILIES, "proto-euclid": trainer.FAMILIES["gmm"],
                    "proto-cosine": trainer.FAMILIES["hard"]}


def _write_lines(path: str, lines) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _fmt6(x: float) -> str:
    return f"{x:.6g}"


def _report_line(report: trainer.EpochReport) -> str:
    """One report.txt line: each field as name=value, a float as ``_fmt6`` prints it."""
    values = ((f.name, getattr(report, f.name)) for f in dataclasses.fields(report))
    return " ".join(f"{k}={_fmt6(v) if isinstance(v, float) else v}" for k, v in values)


def _kmeanspp_init(X: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Deterministic k-means++-style seeding on squared Euclidean distance.

    Each new center lowers each point's running minimum squared distance
    by ``baselines._lower_sq_dists``."""
    rng = np.random.default_rng(seed)
    n, d = X.shape
    centers = np.empty((k, d))
    buf = np.empty((min(n, movmf._BLOCK), d))
    first = np.broadcast_to(np.intp(0), n)  # every row is measured against one center
    dists = np.full(n, np.inf)   # the first center's distances replace every inf
    for c in range(k):
        total = float(dists.sum())
        if c and total > 0:
            centers[c] = X[rng.choice(n, p=dists / total)]
        else:
            centers[c] = X[rng.integers(n)]
        baselines._lower_sq_dists(X, centers[c:c + 1], first, dists, buf)
    return centers


def cmd_cluster(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    if args.classes < 1:
        raise ValueError(f"--classes must be >= 1, got {args.classes}")
    # a flag the variant ignores is an error; EMConfig holds the defaults, and a
    # proto-* variant runs no EM iteration
    family, proto = CLUSTER_VARIANTS[args.variant], args.variant.startswith("proto-")
    if args.kappa is not None and (family.euclidean or proto):
        raise ValueError("--kappa applies to --variant soft or hard only")
    if proto and (args.iters, args.tol) != (None, None):
        raise ValueError("--iters and --tol do not apply to the proto-* variants")
    given = {"max_iters": 0 if proto else args.iters, "tol": args.tol, "kappa": args.kappa}
    cfg = movmf.EMConfig(**{name: v for name, v in given.items() if v is not None})

    X = _read_matrix(args.input)
    k = args.classes
    labels = _read_labels(args.labels, X.shape[0]) if args.labels else None
    if labels is not None and np.any((labels < -1) | (labels >= k)):
        raise DimensionMismatch("label file contains classes outside [-1, --classes)")

    # the family fits X (Euclidean; only its labeled init reads X's unit rows and norms)
    # or X's unit rows; init: k-means++ without labels, else the family's labeled init
    try:
        with np.errstate(over="raise", invalid="raise"):  # as in trainer.train_step
            if family.euclidean:
                rows, unit = X, (None if labels is None else movmf.unit_rows(X))
            else:
                # a spherical family reads only the unit rows, so the raw matrix goes
                X = rows = movmf.normalize_rows(X)
                unit = (rows, None)
            if labels is None:
                init = _kmeanspp_init(rows, k, args.seed)
                if not family.euclidean:
                    init = movmf.normalize_rows(init)
            else:
                keep = labels >= 0
                sparse = SparseLabels(np.flatnonzero(keep), labels[keep])
                init = family.init(X, unit, sparse, bank_mod.empty_bank(k, X.shape[1]), args.seed)
            result = family.fit(X, unit, init, cfg)[0]
    except FloatingPointError as exc:
        raise NonFiniteOutput(f"the matrix overflows in clustering: {exc}") from None

    assignment = np.argmax(result.posterior, axis=1)   # ties to the lowest index
    if proto:   # the fit's posterior is dead, so the one-hot overwrites it
        movmf.one_hot(assignment, k, out=result.posterior)
    prefix = args.out_prefix or args.input
    _write_rows(prefix + ".assignments", assignment[:, None], "%d")
    _write_rows(prefix + ".posteriors", result.posterior)
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
    (out / TRAINED_CONFIG).write_text(trainer.format_config(cfg))
    final = result.reports[-1].val_miou if result.reports else float("nan")
    print(f"trained {cfg.epochs} epochs; final val_miou={_fmt6(final)}")
    print(f"wrote {out / 'report.txt'}, {out / 'model.ckpt'} and {out / TRAINED_CONFIG}")
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
    # the config `dgn train` saved beside the checkpoint, if it did: an explain
    # --config must fit the family and kappa the checkpoint was trained with
    saved = Path(args.checkpoint).parent / TRAINED_CONFIG
    saved = str(saved) if saved.is_file() else None
    cfg = _load_train_config(args.config or saved, args.seed)
    if args.config and saved:
        trained = trainer.load_config(saved)
        for name in ("alignment", "kappa"):
            if getattr(cfg, name) != getattr(trained, name):
                raise ValueError(f"--config sets {name} = {getattr(cfg, name)}, but the "
                                 f"checkpoint was trained with {getattr(trained, name)} ({saved})")
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
    ordered_map(_write_generated, [
        (out / f"scene_{i:03d}.dgn", dataclasses.replace(spec, seed=args.seed + i),
         args.label_rate)
        for i in range(args.scenes)
    ])
    print(f"wrote {args.scenes} scenes to {out}")
    return EXIT_OK


def _write_generated(task: tuple[Path, SceneSpec, float]) -> None:
    """One scene of gen-data: generated from the spec's seed, its sparse
    trailer drawn with that seed below a label rate of 1, and written."""
    path, spec, label_rate = task
    scene = gen_scene(spec)
    if label_rate < 1.0:
        scene = with_sparse(scene, sample_sparse_labels(scene, label_rate, seed=spec.seed))
    write_scene(str(path), scene)


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
    p.add_argument("--variant", choices=CLUSTER_VARIANTS, default="soft",
                   help="soft or hard moVMF EM on the unit rows (hard is a clustering "
                   "variant only, not a training alignment), gmm: isotropic GMM EM on "
                   "the rows; proto-cosine and proto-euclid: the nearest init centre under "
                   "the hard moVMF or GMM family's own score, with no EM (default soft)")
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
    about = ("sweep one config key over a value grid, one fit per value and seed; the "
             "fits run on every CPU of the affinity mask and give a one-CPU run's table")
    p = sub.add_parser("ablate", help=about, description=about, allow_abbrev=False)
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
    p.add_argument("--config", help="config file (clustering settings; default: the "
                   f"{TRAINED_CONFIG} that 'dgn train' wrote beside the checkpoint)")
    p.add_argument("--seed", type=integer, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_explain)

    about = ("generate synthetic labeled scenes on every CPU of the affinity mask, "
             "writing the files a one-CPU run writes")
    p = sub.add_parser("gen-data", help=about, description=about)
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
