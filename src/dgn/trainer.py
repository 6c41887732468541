"""Training loop: per-scene clustering (E) alternated with gradient
descent on the network (M), plus ablation sweeps and posterior export.

The alignment stage is gated behind a warmup during which only the
truncated cross-entropy contributes. Per step: forward, normalize
features, initialize the configured family from labeled means and the
memory bank, run at most ``em_iters`` EM iterations (fewer only once the
means move less than ``em_tol``), then take one Adam step on the
enabled losses with the clustering outputs held constant.
Inference uses only the segment head (never the clustering stage).
"""

from __future__ import annotations

import dataclasses
import io
import math
from dataclasses import dataclass

import numpy as np

from . import bank as bank_mod
from . import baselines, losses, movmf, network
from .data import (SceneBatch, _distinct, confusion, integer, iou_from_confusion, miou,
                   real, sample_sparse_labels, with_sparse)
from .errors import DimensionMismatch, InvalidGrid, NonFiniteOutput
from .workers import ordered_map
from .workspace import SCRATCH


@dataclass(frozen=True)
class Family:
    """A mixture family: the one labeled/bank ``init``, EM ``fit`` (its result
    and unit mean directions for the bank) and alignment ``loss`` of
    ``train_step``, ``explain`` and ``dgn cluster`` (hard: cluster only). A
    Euclidean family (an isotropic GMM, no kappa) fits the raw features, a
    spherical one (a moVMF, shared kappa) their unit rows: ``unit`` is
    ``movmf.unit_rows``' (rows, norms); ``em`` names the EM in ``baselines``
    or ``movmf``. Every layer function is looked up at call time, so a wrapped
    binding is the one called, and ``workspace`` goes on to the EM and loss."""

    euclidean: bool
    em: str

    def init(self, features, unit, labels, bank, seed):
        if self.euclidean:
            return bank_mod.euclidean_init_means(features, unit[0], labels, bank, seed, unit[1])
        return bank_mod.init_centers(unit[0], labels, bank, seed=seed).centers

    def fit(self, features, unit, init, em_cfg, workspace=None):
        layer, rows = (baselines, features) if self.euclidean else (movmf, unit[0])
        result = getattr(layer, self.em)(rows, init, em_cfg, workspace)
        means = result.params.means
        return result, movmf.unit_rows(means)[0] if self.euclidean else means

    def loss(self, features, unit, Q, params, workspace=None):
        if self.euclidean:
            return baselines.gmm_nll_loss(features, Q, params, workspace)
        return losses.vmf_loss(*unit, Q, params, workspace)


FAMILIES = {"soft": Family(euclidean=False, em="soft_movmf_em"),
            "hard": Family(euclidean=False, em="hard_movmf_em"),
            "gmm": Family(euclidean=True, em="gmm_em")}
# hard's one-hot CON targets train worse than TCE alone: it is a `dgn cluster` family only
ALIGNMENTS = ("soft", "gmm")


@dataclass(frozen=True)
class TrainConfig:
    """All knobs for one training run, which updates the network by Adam
    at ``lr``. Defaults follow the reference operating point:
    ``movmf.EMConfig``'s EM iterations and tolerance, beta 0.8, and kappa 1,
    not ``EMConfig``'s 10: in training kappa scales the soft alignment loss,
    and at 10 its pull makes the fit score below TCE alone, while ``dgn
    cluster`` keeps 10, where kappa only sharpens the posterior. ``fit``
    draws each training scene's labels at ``label_rate`` from its dense
    ground truth and ignores the scene's ``sparse`` trailer, which only
    ``explain`` reads. The last ``val_fraction`` of the scenes is held
    out: ``fit`` scores its ``val_miou`` after each epoch, while
    ``train_miou`` is the head mIoU of the epoch's own steps, each before
    its update.

    ``alignment`` names the family fitted to each scene's features after
    warmup, soft or gmm; ``FAMILIES``' hard is for ``dgn cluster`` only.
    gmm has no concentration and rejects a ``kappa`` other than the default.
    ``use_vmf`` adds the family's alignment loss, ``use_dis`` the separation
    of the posterior-weighted mean directions and ``use_con`` the
    cross-entropy from the posterior to the head; each backpropagates into
    the network. Floats must be finite, ``beta`` in (0, 1], ``bank_momentum``
    in [0, 1), ``seed`` at least 0, and ``feat_dim`` and every
    ``hidden_dims`` width at least 1.
    """

    kappa: float = 1.0
    em_iters: int = movmf.EMConfig.max_iters
    em_tol: float = movmf.EMConfig.tol
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
    alignment: str = "soft"
    bank_momentum: float = 0.9
    hidden_dims: tuple[int, ...] = (32, 32)
    feat_dim: int = 16
    val_fraction: float = 0.2

    def __post_init__(self):
        for name, spec in _CONFIG_FIELDS.items():
            if spec.type == "float" and not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.alignment not in ALIGNMENTS:
            raise ValueError(f"alignment must be one of {ALIGNMENTS}")
        if FAMILIES[self.alignment].euclidean and self.kappa != TrainConfig.kappa:
            raise ValueError("kappa applies to the soft alignment, not gmm")
        if self.feat_dim < 1 or any(width < 1 for width in self.hidden_dims):
            raise ValueError("feat_dim and every hidden_dims width must be >= 1")
        if self.epochs < 0 or self.warmup_epochs < 0 or self.em_iters < 0:
            raise ValueError("epoch and iteration counts must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        _em_config(self)  # a negative kappa or em_tol fails here, before any work
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must be in (0, 1]")
        if not 0.0 < self.label_rate <= 1.0:
            raise ValueError("label_rate must be in (0, 1]")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in [0, 1)")
        if not 0.0 <= self.bank_momentum < 1.0:
            raise ValueError("bank_momentum must be in [0, 1)")


@dataclass(frozen=True)
class StepReport:
    """One step: each loss term (0 when disabled or in warmup), their
    unit-weight sum, and the EM counts (0 when no mixture was fitted)."""

    tce: float
    vmf: float
    dis: float
    con: float
    total: float
    em_iters: int
    degenerate: int


@dataclass(frozen=True)
class EpochReport:
    """One epoch in report.txt line order: the steps' mean losses; the
    head mIoU of the epoch's steps (``train_miou``: each step's own
    forward, before its update, counted over all training scenes) and of
    the validation scenes after the epoch (``val_miou``); and the steps'
    summed EM counts."""

    epoch: int
    tce: float
    vmf: float
    dis: float
    con: float
    total: float
    train_miou: float
    val_miou: float
    em_iters: int
    degenerate: int


_STEP_FIELDS = tuple(f.name for f in dataclasses.fields(StepReport))


@dataclass(frozen=True)
class StepResult:
    params: network.ModelParams
    bank: bank_mod.MemoryBank
    report: StepReport
    predictions: np.ndarray     # (n,) head argmax of the step's forward
    opt_state: network.AdamState | None = None


@dataclass(frozen=True)
class FitResult:
    params: network.ModelParams
    bank: bank_mod.MemoryBank
    reports: tuple[EpochReport, ...]


@dataclass(frozen=True)
class AblationRow:
    value: object
    mean_val_miou: float
    stderr: float
    per_seed: tuple[float, ...]


def _em_config(cfg: TrainConfig) -> movmf.EMConfig:
    return movmf.EMConfig(max_iters=cfg.em_iters, tol=cfg.em_tol, kappa=cfg.kappa)


def _forward(params, scene, workspace):
    """``network.forward`` of the scene, its input also taken from ``workspace``."""
    ws = network.Workspace() if workspace is None else workspace
    width = 3 + scene.extra_feats.shape[1]
    return network.forward(params, scene.network_input(ws.take("input", scene.num_points, width)),
                           ws)


@np.errstate(over="raise", invalid="raise")  # a diverging step stops at its first inf or nan
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

    ``workspace`` holds every per-point array of the step (the network's,
    the fit's and the losses'; see ``network``) and ``opt_state`` Adam's
    moments; each starts fresh when omitted. The result's ``predictions``
    are the head's argmax from this step's forward, before the update. The
    features are normalized once per aligned step, for the fit and the
    losses alike. A diverging step raises NonFiniteOutput in the forward or
    FloatingPointError after it.
    """
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    ws = network.Workspace() if workspace is None else workspace
    n, k = scene.num_points, params.num_classes
    cache = _forward(params, scene, ws)
    labels = scene.sparse

    d_features = ws.zeros("d_features", n, params.feature_dim)
    d_logits = ws.zeros("d_logits", n, k)
    tce_val = vmf_val = dis_val = con_val = 0.0
    em_iters = degenerate = 0

    if cfg.use_tce and labels.size:
        tce_val, d_prob = losses.tce_loss(cache.probs, labels, cfg.beta, ws)
        d_logits += network.softmax_backward(d_prob, cache.probs, ws.take(SCRATCH[1], n, k))

    if epoch >= cfg.warmup_epochs and (cfg.use_vmf or cfg.use_dis or cfg.use_con):
        family = FAMILIES[cfg.alignment]
        unit = movmf.unit_rows(cache.features, ws.take("unit", n, params.feature_dim))
        init = family.init(cache.features, unit, labels, prototype_bank, cfg.seed)
        result, means = family.fit(cache.features, unit, init, _em_config(cfg), ws)
        Q = result.posterior
        em_iters = result.iterations
        degenerate = len(result.degenerate)
        if cfg.use_vmf:
            vmf_val, grad = family.loss(cache.features, unit, Q, result.params, ws)
            d_features += grad
        if cfg.use_dis:
            dis_val, grad = losses.dis_loss_through_means(*unit, Q, means, ws)
            d_features += grad
        if cfg.use_con:
            con_val, grad = losses.con_loss(cache.probs, Q, ws)
            d_logits += grad
        present = _distinct(labels.classes)
        # a gmm mean at the origin has no direction to store
        present = present[np.linalg.norm(means[present], axis=1) > 0.5]
        prototype_bank = bank_mod.update_bank(prototype_bank, means, present)

    total = tce_val + vmf_val + dis_val + con_val
    report = StepReport(tce_val, vmf_val, dis_val, con_val, total, em_iters, degenerate)
    predictions = np.argmax(cache.probs, axis=1)
    grads = network.backward(params, cache, d_features, d_logits)
    if opt_state is None:
        opt_state = network.init_adam_state(params)
    new_params, opt_state = network.adam_step(params, grads, opt_state, cfg.lr)
    return StepResult(new_params, prototype_bank, report, predictions, opt_state)


def predict(
    params: network.ModelParams,
    scene: SceneBatch,
    workspace: network.Workspace | None = None,
) -> np.ndarray:
    """Head-only inference: argmax of the class probabilities."""
    cache = _forward(params, scene, workspace)
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
    """Train on the given scenes; bitwise deterministic for a seed and a
    pinned BLAS thread count (a threaded BLAS may split its sums another
    way at another count, so only the pinned count repeats bit for bit).

    Sparse annotations are drawn once per scene up front at
    ``cfg.label_rate``; the first ``train_step`` creates Adam's moments.
    Each epoch's ``train_miou`` comes from the steps' own forwards: their
    head predictions, each before its step's update, are added into one
    confusion count as they come. Only the validation scenes are forwarded
    again, after the epoch, for ``val_miou``. Both score head-only
    predictions (the clustering stage is never run at inference). Every
    step and evaluation shares one ``Workspace``, built for the largest
    training or validation scene, so each of its buffers is allocated once.
    A diverging step or evaluation ends the fit in NonFiniteOutput naming
    the epoch and scene.
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
    workspace = network.Workspace(max(s.num_points for s in dataset))
    for key in SCRATCH:  # at the width the first aligned step would grow them to
        workspace.take(key, 0, max(cfg.feat_dim, num_classes))
    opt_state = None
    for epoch in range(cfg.epochs):
        # += in step order, not sum(), whose rounding differs across Pythons
        sums = dict.fromkeys(_STEP_FIELDS, 0)
        counts = np.zeros((num_classes, num_classes), dtype=np.int64)
        try:
            for i, scene in enumerate(train_scenes):
                where = f"training scene {i}"
                step = train_step(
                    scene, params, prototype_bank, cfg, epoch, opt_state, workspace
                )
                params, prototype_bank, opt_state = step.params, step.bank, step.opt_state
                counts += confusion(step.predictions, scene.gt_labels, num_classes)
                for name in sums:
                    sums[name] += getattr(step.report, name)
            where = "evaluation"
            # the losses are averaged over the steps, the counts summed
            n = len(train_scenes)
            reports.append(
                EpochReport(
                    epoch=epoch,
                    train_miou=iou_from_confusion(counts).miou,
                    val_miou=_eval_miou(params, val_scenes, workspace),
                    **{k: v / n if isinstance(v, float) else v for k, v in sums.items()},
                )
            )
        except (NonFiniteOutput, FloatingPointError) as exc:
            raise NonFiniteOutput(f"training diverged at epoch {epoch}, {where}: {exc}") from None
    return FitResult(params, prototype_bank, tuple(reports))


@np.errstate(over="raise", invalid="raise")  # as in train_step
def explain(
    scene: SceneBatch,
    params: network.ModelParams,
    cfg: TrainConfig,
    prototype_bank: bank_mod.MemoryBank | None = None,
) -> np.ndarray:
    """Posterior over classes for every point of a scene, from one
    clustering pass on the frozen embeddings.

    The fit starts as in training: a class with labels in the scene from
    their mean, one without from ``prototype_bank`` (the bank a
    checkpoint saved), and a class the bank has not seen from a seeded
    direction. Without a bank every unlabeled class takes that last path,
    so its column need not line up with the head's class. The posterior
    has one column per class of the head: a scene whose class count is not
    ``params.num_classes`` raises DimensionMismatch. Features or a fit that
    overflow raise NonFiniteOutput.
    """
    if scene.num_classes != params.num_classes:
        raise DimensionMismatch(f"the scene has {scene.num_classes} classes but the "
                                f"model's head has {params.num_classes}")
    cache = network.forward(params, scene.network_input())
    if prototype_bank is None:
        prototype_bank = bank_mod.empty_bank(params.num_classes, params.feature_dim)
    try:
        family = FAMILIES[cfg.alignment]
        unit = movmf.unit_rows(cache.features)
        init = family.init(cache.features, unit, scene.sparse, prototype_bank, cfg.seed)
        result = family.fit(cache.features, unit, init, _em_config(cfg))[0]
    except FloatingPointError as exc:
        raise NonFiniteOutput(f"the scene's features overflow in clustering: {exc}") from None
    return result.posterior


def ablate(dataset, base_cfg: TrainConfig, param: str, values, seeds=None):
    """Run ``fit`` once per value of the config field ``param`` and per
    seed; one AblationRow per value holds the mean and stderr of the final
    validation mIoU. Raises InvalidGrid for ``param`` as ``parse_sweep`` does.

    Every config is built before the first fit, so a value the config
    rejects raises ValueError first, as does a config whose ``val_fraction``
    holds out no validation scene, which would score nan. The fits run in
    forked workers through ``workers.ordered_map`` and give the rows of one
    fit after another.
    """
    _check_sweep(param)
    if not values:
        raise ValueError("values must be non-empty")
    if base_cfg.epochs < 1:
        raise ValueError("ablation needs at least one epoch")
    seeds = [base_cfg.seed] if seeds is None else list(seeds)
    cfgs = [
        dataclasses.replace(base_cfg, seed=seed, **{param: value})
        for value in values
        for seed in seeds
    ]
    for cfg in cfgs:
        if not split_dataset(dataset, cfg.val_fraction)[1]:
            raise ValueError(f"val_fraction={cfg.val_fraction:g} holds out no validation "
                             f"scene of {len(dataset)}; ablate scores val_miou")
    finals = ordered_map(lambda cfg: fit(dataset, cfg).reports[-1].val_miou, cfgs)
    rows = []
    for value, per_seed in zip(values, np.reshape(finals, (len(values), len(seeds)))):
        stderr = per_seed.std(ddof=1) / np.sqrt(len(per_seed)) if len(per_seed) > 1 else 0.0
        rows.append(
            AblationRow(value, float(per_seed.mean()), float(stderr), tuple(per_seed.tolist()))
        )
    return rows


def _check_sweep(param: str) -> None:
    if param == "seed":
        raise InvalidGrid("seed is swept with --seeds (ablate's seeds=), not as the param")
    if param not in _CONFIG_FIELDS:
        raise InvalidGrid(f"unknown config key {param!r}")


def parse_sweep(param: str, raw_values) -> list:
    """The values of the swept field ``param``, each parsed from text as a
    config file line is. Raises InvalidGrid for ``seed``, which is swept by
    seeds, and for a name that is not a TrainConfig field."""
    _check_sweep(param)
    return [_parse_value(param, raw) for raw in raw_values]


# ---------------------------------------------------------------------------
# config file handling: "key = value" lines, keys match TrainConfig fields

_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(TrainConfig)}


def _parse_value(name: str, raw: str):
    if name == "hidden_dims":
        parts = [p for p in raw.replace(",", " ").split() if p]
        return tuple(integer(p) for p in parts)
    typ = _CONFIG_FIELDS[name].type
    if typ == "bool":
        lowered = raw.strip().lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"cannot parse boolean {raw!r} for {name}")
    if typ == "int":
        return integer(raw.strip())
    if typ == "float":
        return real(raw.strip())
    return raw.strip()


def parse_config_text(text: str, path: str = "<config>") -> TrainConfig:
    """``key = value`` lines to a TrainConfig; a line ends only at LF, CRLF or CR."""
    overrides = {}
    for line_no, line in enumerate(io.StringIO(text, newline=None), start=1):
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
    try:
        return TrainConfig(**overrides)
    except ValueError as exc:  # a check may span fields, so it names no line
        raise ValueError(f"{path}: {exc}") from None


def format_config(cfg: TrainConfig) -> str:
    """``cfg`` as config text, one ``key = value`` line per field, that
    ``parse_config_text`` reads back to an equal TrainConfig: a float as
    ``str`` writes it, which reads back exactly, a boolean as true or false
    and the widths comma-separated."""
    def text(value):
        if isinstance(value, tuple):
            return ", ".join(map(str, value))
        return str(value).lower() if isinstance(value, bool) else str(value)

    return "".join(f"{name} = {text(getattr(cfg, name))}\n" for name in _CONFIG_FIELDS)


def load_config(path: str) -> TrainConfig:
    with open(path) as fh:
        return parse_config_text(fh.read(), path=str(path))

