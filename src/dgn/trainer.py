"""Training loop: per-scene clustering (E) alternated with gradient
descent on the network (M), plus ablation sweeps and posterior export.

The alignment stage is gated behind a warmup during which only the
truncated cross-entropy contributes. Per step: forward, normalize
features, initialize cluster centers from labeled means and the memory
bank, run the configured clustering variant to convergence, then take one
SGD step on the enabled losses with the clustering outputs held constant.
Inference uses only the segment head (never the clustering stage).
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np

from . import bank as bank_mod
from . import baselines, losses, movmf, network
from .data import SceneBatch, SparseLabels, miou, sample_sparse_labels, with_sparse
from .errors import DegenerateCluster, DimensionMismatch

EM_VARIANTS = ("soft", "hard")
DIS_GRAD_MODES = ("through_means", "frozen_means")
ALIGNMENTS = ("movmf", "gmm", "proto_euclid", "proto_cosine")
OPTIMIZERS = ("adam", "sgd")


@dataclass(frozen=True)
class TrainConfig:
    """All knobs for one training run. Defaults follow the reference
    operating point: kappa 10, 10 clustering iterations, beta 0.8."""

    kappa: float = 10.0
    em_iters: int = 10
    em_tol: float = 1e-6
    beta: float = 0.8
    warmup_epochs: int = 5
    epochs: int = 20
    lr: float = 0.003
    label_rate: float = 0.001
    use_tce: bool = True
    use_vmf: bool = True
    use_dis: bool = True
    use_con: bool = True
    seed: int = 0
    em_variant: str = "soft"
    dis_grad_mode: str = "through_means"
    alignment: str = "movmf"
    optimizer: str = "adam"
    bank_momentum: float = 0.9
    hidden_dims: tuple[int, ...] = (32, 32)
    feat_dim: int = 16
    val_fraction: float = 0.2

    def __post_init__(self):
        if self.em_variant not in EM_VARIANTS:
            raise ValueError(f"em_variant must be one of {EM_VARIANTS}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}")
        if self.dis_grad_mode not in DIS_GRAD_MODES:
            raise ValueError(f"dis_grad_mode must be one of {DIS_GRAD_MODES}")
        if self.alignment not in ALIGNMENTS:
            raise ValueError(f"alignment must be one of {ALIGNMENTS}")
        if self.epochs < 0 or self.warmup_epochs < 0 or self.em_iters < 0:
            raise ValueError("epoch and iteration counts must be >= 0")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if not 0.0 < self.label_rate <= 1.0:
            raise ValueError("label_rate must be in (0, 1]")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in [0, 1)")


@dataclass(frozen=True)
class EpochReport:
    epoch: int
    losses: losses.LossReport
    train_miou: float
    val_miou: float
    em_converged_iters: int
    degenerate_clusters: int


@dataclass(frozen=True)
class StepResult:
    params: network.ModelParams
    bank: bank_mod.MemoryBank
    report: losses.LossReport
    opt_state: network.AdamState | None = None
    em_iterations: int = 0
    degenerate_clusters: int = 0


@dataclass(frozen=True)
class FitResult:
    params: network.ModelParams
    bank: bank_mod.MemoryBank
    reports: tuple[EpochReport, ...]


@dataclass(frozen=True)
class AblationRow:
    overrides: tuple[tuple[str, object], ...]
    mean_val_miou: float
    stderr: float
    per_seed: tuple[float, ...]


def _safe_unit_rows(features: np.ndarray) -> np.ndarray:
    # zero rows stay zero instead of raising; they then score equally
    # against every cluster, which is the graceful degenerate behavior
    norms = np.linalg.norm(features, axis=1, keepdims=True)
    return features / np.maximum(norms, 1e-12)


def _gmm_init_means(
    features: np.ndarray,
    labels: SparseLabels,
    prototype_bank: bank_mod.MemoryBank,
    seed: int,
) -> np.ndarray:
    """Euclidean analogue of the spherical initialization: labeled raw
    means where available, bank directions scaled to the scene's mean
    feature norm elsewhere."""
    k = prototype_bank.num_classes
    scale = float(np.mean(np.linalg.norm(features, axis=1)))
    directions = bank_mod.init_centers(
        _safe_unit_rows(features), labels, prototype_bank, seed=seed
    )
    means = directions.centers * max(scale, 1e-6)
    for c in range(k):
        mask = labels.classes == c
        if np.any(mask):
            means[c] = features[labels.indices[mask]].mean(axis=0)
    return means


def train_step(
    scene: SceneBatch,
    params: network.ModelParams,
    prototype_bank: bank_mod.MemoryBank,
    cfg: TrainConfig,
    epoch: int,
    opt_state: network.AdamState | None = None,
    workspace: network.Workspace | None = None,
) -> StepResult:
    """One forward/cluster/backward/update cycle on a single scene.

    ``workspace`` holds the network's per-point arrays; a fresh one is
    used when it is omitted.
    """
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    cache = network.forward(params, scene.network_input(), workspace)
    labels = scene.sparse

    d_features = np.zeros_like(cache.features)
    d_logits = np.zeros_like(cache.logits)
    tce_val = vmf_val = dis_val = con_val = 0.0
    em_iterations = 0
    degenerate = 0

    if cfg.use_tce and labels.size:
        tce_val, d_prob = losses.tce_loss(cache.probs, labels, cfg.beta)
        d_logits += network.softmax_backward(d_prob, cache.probs)

    aligned = epoch >= cfg.warmup_epochs and (cfg.use_vmf or cfg.use_dis or cfg.use_con)
    if aligned:
        V = _safe_unit_rows(cache.features)
        present = np.unique(labels.classes)
        if cfg.alignment in ("movmf", "proto_cosine", "proto_euclid"):
            centers = bank_mod.init_centers(V, labels, prototype_bank, seed=cfg.seed)

        if cfg.alignment == "movmf":
            em_cfg = movmf.EMConfig(
                max_iters=cfg.em_iters, tol=cfg.em_tol, kappa=cfg.kappa
            )
            run = movmf.soft_movmf_em if cfg.em_variant == "soft" else movmf.hard_movmf_em
            result = run(V, centers.centers, em_cfg)
            em_iterations = result.iterations
            degenerate = len(result.degenerate)
            if cfg.use_vmf:
                vmf_val, grad = losses.vmf_loss(cache.features, result.posterior, result.params)
                d_features += grad
            if cfg.use_dis:
                if cfg.dis_grad_mode == "through_means":
                    try:
                        dis_val, grad, _ = losses.dis_loss_through_means(
                            cache.features, result.posterior
                        )
                        d_features += grad
                    except DegenerateCluster:
                        dis_val, _ = losses.dis_loss(result.params)
                else:
                    dis_val, _ = losses.dis_loss(result.params)
            if cfg.use_con:
                con_val, grad = losses.con_loss(cache.probs, result.posterior)
                d_logits += grad
            prototype_bank = bank_mod.update_bank(
                prototype_bank, result.params.means, present
            )
        elif cfg.alignment == "gmm":
            init_means = _gmm_init_means(cache.features, labels, prototype_bank, cfg.seed)
            em_cfg = movmf.EMConfig(max_iters=cfg.em_iters, tol=cfg.em_tol, kappa=cfg.kappa)
            result = baselines.gmm_em(cache.features, init_means, em_cfg)
            em_iterations = result.iterations
            degenerate = len(result.degenerate)
            if cfg.use_vmf:
                # the Euclidean counterpart of the spherical alignment loss
                vmf_val, grad = baselines.gmm_nll_loss(
                    cache.features, result.posterior, result.params
                )
                d_features += grad
            if cfg.use_dis:
                mean_dirs = _safe_unit_rows(result.params.means)
                gram = mean_dirs @ mean_dirs.T
                k = mean_dirs.shape[0]
                dis_val = float((gram.sum() - np.trace(gram)) / (k * (k - 1)))
            if cfg.use_con:
                con_val, grad = losses.con_loss(cache.probs, result.posterior)
                d_logits += grad
            present_means = _safe_unit_rows(result.params.means)
            ok = [c for c in present if np.linalg.norm(present_means[c]) > 0.5]
            prototype_bank = bank_mod.update_bank(prototype_bank, present_means, ok)
        else:
            # prototype descriptors: no mixture fit, no per-point alignment
            # or consistency form; only the separation term applies
            if cfg.use_dis and centers.centers.shape[0] >= 2:
                theta_like = movmf.MoVMFParams(
                    np.full(centers.centers.shape[0], 1.0 / centers.centers.shape[0]),
                    cfg.kappa,
                    centers.centers,
                )
                dis_val, _ = losses.dis_loss(theta_like)
            scene_classes = [
                c
                for c, src in enumerate(centers.provenance)
                if src == bank_mod.PROVENANCE_SCENE
            ]
            prototype_bank = bank_mod.update_bank(
                prototype_bank, centers.centers, scene_classes
            )

    report = losses.total_loss(
        tce=tce_val,
        vmf=vmf_val,
        dis=dis_val,
        con=con_val,
        use_tce=cfg.use_tce,
        use_vmf=cfg.use_vmf and aligned,
        use_dis=cfg.use_dis and aligned,
        use_con=cfg.use_con and aligned,
    )
    grads = network.backward(params, cache, d_features, d_logits, workspace)
    if cfg.optimizer == "adam":
        if opt_state is None:
            opt_state = network.init_adam_state(params)
        new_params, opt_state = network.adam_step(params, grads, opt_state, cfg.lr)
    else:
        new_params = network.sgd_step(params, grads, cfg.lr)
    return StepResult(
        new_params, prototype_bank, report, opt_state, em_iterations, degenerate
    )


def predict(
    params: network.ModelParams,
    scene: SceneBatch,
    workspace: network.Workspace | None = None,
) -> np.ndarray:
    """Head-only inference: argmax of the class probabilities."""
    cache = network.forward(params, scene.network_input(), workspace)
    return np.argmax(cache.probs, axis=1)


def _eval_miou(params: network.ModelParams, scenes, workspace: network.Workspace) -> float:
    if not scenes:
        return float("nan")
    preds = np.concatenate([predict(params, s, workspace) for s in scenes])
    gts = np.concatenate([s.gt_labels for s in scenes])
    return miou(preds, gts, scenes[0].num_classes).miou


def split_dataset(dataset, val_fraction: float):
    """Deterministic holdout: the last round(fraction * len) scenes,
    keeping at least one training scene."""
    n_val = min(int(round(val_fraction * len(dataset))), len(dataset) - 1)
    cut = len(dataset) - n_val
    return list(dataset[:cut]), list(dataset[cut:])


def fit(dataset, cfg: TrainConfig) -> FitResult:
    """Train on the given scenes; deterministic for a fixed seed.

    Sparse annotations are drawn once per scene up front at
    ``cfg.label_rate``. Evaluation after each epoch scores head-only
    predictions (the clustering stage is never run at inference).
    """
    dataset = list(dataset)
    if not dataset:
        raise ValueError("dataset must be non-empty")
    num_classes = dataset[0].num_classes
    d_extra = dataset[0].extra_feats.shape[1]
    for s in dataset:
        if s.num_classes != num_classes or s.extra_feats.shape[1] != d_extra:
            raise DimensionMismatch("scenes disagree on classes or feature width")

    train_scenes, val_scenes = split_dataset(dataset, cfg.val_fraction)
    train_scenes = [
        with_sparse(s, sample_sparse_labels(s, cfg.label_rate, seed=cfg.seed + 7919 * i))
        for i, s in enumerate(train_scenes)
    ]

    params = network.init_params(
        [3 + d_extra, *cfg.hidden_dims, cfg.feat_dim], num_classes, cfg.seed
    )
    prototype_bank = bank_mod.empty_bank(num_classes, cfg.feat_dim, cfg.bank_momentum)

    reports: list[EpochReport] = []
    workspace = network.Workspace()
    opt_state = network.init_adam_state(params) if cfg.optimizer == "adam" else None
    for epoch in range(cfg.epochs):
        acc = {"tce": 0.0, "vmf": 0.0, "dis": 0.0, "con": 0.0, "total": 0.0}
        em_iters = 0
        degenerate = 0
        for scene in train_scenes:
            step = train_step(
                scene, params, prototype_bank, cfg, epoch, opt_state, workspace
            )
            params, prototype_bank, opt_state = step.params, step.bank, step.opt_state
            for key in acc:
                acc[key] += getattr(step.report, key)
            em_iters += step.em_iterations
            degenerate += step.degenerate_clusters
        n = len(train_scenes)
        reports.append(
            EpochReport(
                epoch=epoch,
                losses=losses.LossReport(**{k: v / n for k, v in acc.items()}),
                train_miou=_eval_miou(params, train_scenes, workspace),
                val_miou=_eval_miou(params, val_scenes, workspace),
                em_converged_iters=em_iters,
                degenerate_clusters=degenerate,
            )
        )
    return FitResult(params, prototype_bank, tuple(reports))


def explain(scene: SceneBatch, params: network.ModelParams, cfg: TrainConfig) -> np.ndarray:
    """Posterior over classes for every point of a scene, from one
    clustering pass on the frozen embeddings."""
    cache = network.forward(params, scene.network_input())
    V = _safe_unit_rows(cache.features)
    fresh = bank_mod.empty_bank(scene.num_classes, params.feature_dim, cfg.bank_momentum)
    centers = bank_mod.init_centers(V, scene.sparse, fresh, seed=cfg.seed)
    em_cfg = movmf.EMConfig(max_iters=cfg.em_iters, tol=cfg.em_tol, kappa=cfg.kappa)
    run = movmf.soft_movmf_em if cfg.em_variant == "soft" else movmf.hard_movmf_em
    return run(V, centers.centers, em_cfg).posterior


def ablate(dataset, base_cfg: TrainConfig, grid: dict, seeds=None) -> list[AblationRow]:
    """Run ``fit`` over the cartesian product of the grid, once per seed,
    and report mean/stderr of the final validation mIoU per cell."""
    if not grid:
        raise ValueError("grid must be non-empty")
    if base_cfg.epochs < 1:
        raise ValueError("ablation needs at least one epoch")
    seeds = [base_cfg.seed] if seeds is None else list(seeds)
    keys = sorted(grid)
    rows = []
    for combo in itertools.product(*(grid[k] for k in keys)):
        overrides = dict(zip(keys, combo))
        finals = []
        for seed in seeds:
            cfg = dataclasses.replace(base_cfg, seed=seed, **overrides)
            result = fit(dataset, cfg)
            finals.append(result.reports[-1].val_miou)
        finals_arr = np.asarray(finals)
        stderr = (
            float(finals_arr.std(ddof=1) / np.sqrt(len(finals)))
            if len(finals) > 1
            else 0.0
        )
        rows.append(
            AblationRow(
                overrides=tuple(sorted(overrides.items())),
                mean_val_miou=float(finals_arr.mean()),
                stderr=stderr,
                per_seed=tuple(float(v) for v in finals),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# config file handling: "key = value" lines, keys match TrainConfig fields

_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(TrainConfig)}


def _parse_value(name: str, raw: str):
    if name == "hidden_dims":
        parts = [p for p in raw.replace(",", " ").split() if p]
        return tuple(int(p) for p in parts)
    typ = _CONFIG_FIELDS[name].type
    if typ == "bool":
        lowered = raw.strip().lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"cannot parse boolean {raw!r} for {name}")
    if typ == "int":
        return int(raw)
    if typ == "float":
        return float(raw)
    return raw.strip()


def parse_config_text(text: str, path: str = "<config>") -> TrainConfig:
    overrides = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{line_no}: expected 'key = value'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _CONFIG_FIELDS:
            raise ValueError(f"{path}:{line_no}: unknown config key {key!r}")
        try:
            overrides[key] = _parse_value(key, raw)
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from None
    return TrainConfig(**overrides)


def load_config(path: str) -> TrainConfig:
    with open(path) as fh:
        return parse_config_text(fh.read(), path=str(path))


def format_report_line(report: EpochReport) -> str:
    """One machine-readable line per epoch; floats carry 6 significant digits."""
    fields = [
        ("epoch", str(report.epoch)),
        ("tce", f"{report.losses.tce:.6g}"),
        ("vmf", f"{report.losses.vmf:.6g}"),
        ("dis", f"{report.losses.dis:.6g}"),
        ("con", f"{report.losses.con:.6g}"),
        ("total", f"{report.losses.total:.6g}"),
        ("train_miou", f"{report.train_miou:.6g}"),
        ("val_miou", f"{report.val_miou:.6g}"),
        ("em_iters", str(report.em_converged_iters)),
        ("degenerate", str(report.degenerate_clusters)),
    ]
    return " ".join(f"{k}={v}" for k, v in fields)
