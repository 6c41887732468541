"""Alternative feature-space descriptors: category prototypes and an
isotropic Gaussian mixture, used for the distribution-comparison runs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .movmf import EMConfig, EMResult, _has_unit_rows, _softmax_rows, normalize_rows

VARIANCE_FLOOR = 1e-6
WEIGHT_FLOOR = 1e-12
METRICS = ("euclidean", "cosine")


@dataclass(frozen=True)
class PrototypeSet:
    """Per-class prototype vectors under a fixed distance metric."""

    metric: str                # "euclidean" | "cosine"
    prototypes: np.ndarray     # (k, d); unit rows required for cosine

    def __post_init__(self):
        protos = np.asarray(self.prototypes, dtype=np.float64)
        object.__setattr__(self, "prototypes", protos)
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}")
        if protos.ndim != 2:
            raise DimensionMismatch(f"prototypes must be 2-d, got {protos.shape}")
        if self.metric == "cosine" and not _has_unit_rows(protos):
            raise ValueError("cosine prototypes must have unit rows")


@dataclass(frozen=True)
class GMMParams:
    """Isotropic Gaussian mixture: scalar variance per component."""

    weights: np.ndarray    # (k,) sums to 1
    means: np.ndarray      # (k, d), not normalized
    variances: np.ndarray  # (k,) positive

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.float64)
        means = np.asarray(self.means, dtype=np.float64)
        variances = np.asarray(self.variances, dtype=np.float64)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)
        if means.ndim != 2 or weights.shape != (means.shape[0],) or variances.shape != (
            means.shape[0],
        ):
            raise DimensionMismatch("weights, means and variances disagree")
        if abs(float(weights.sum()) - 1.0) > 1e-9 or np.any(weights < 0):
            raise ValueError("weights must be nonnegative and sum to 1")
        if np.any(variances <= 0):
            raise ValueError("variances must be positive")

    @property
    def num_clusters(self) -> int:
        return self.means.shape[0]


def prototype_assign(F: np.ndarray, protos: PrototypeSet) -> np.ndarray:
    """Assign each row of F to the nearest prototype.

    Euclidean: smallest distance; cosine: largest similarity after row
    normalization. Ties go to the lowest class index.
    """
    F = np.asarray(F, dtype=np.float64)
    if F.ndim != 2 or F.shape[1] != protos.prototypes.shape[1]:
        raise DimensionMismatch(
            f"features {F.shape} incompatible with prototypes {protos.prototypes.shape}"
        )
    if protos.metric == "cosine":
        sims = normalize_rows(F) @ protos.prototypes.T
        return np.argmax(sims, axis=1)
    diffs = F[:, None, :] - protos.prototypes[None, :, :]
    dists = np.einsum("nkd,nkd->nk", diffs, diffs)
    return np.argmin(dists, axis=1)


def _sq_dists(F: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance of every row of F to every mean, (n, k)."""
    return (
        np.einsum("nd,nd->n", F, F)[:, None]
        - 2.0 * F @ means.T
        + np.einsum("kd,kd->k", means, means)[None, :]
    )


def _gmm_log_scores(sq: np.ndarray, log_w: np.ndarray, params: GMMParams) -> np.ndarray:
    # the one GMM score path: log weight + log isotropic density, from the
    # squared distances to the means
    d = params.means.shape[1]
    return (
        log_w[None, :]
        - 0.5 * d * np.log(2.0 * np.pi * params.variances)[None, :]
        - 0.5 * sq / params.variances[None, :]
    )


def _gmm_floored_scores(F: np.ndarray, params: GMMParams) -> np.ndarray:
    # weight log floored at 1e-12 so one-hot Q at a dead component stays finite
    log_w = np.log(np.maximum(params.weights, WEIGHT_FLOOR))
    return _gmm_log_scores(_sq_dists(F, params.means), log_w, params)


def gmm_posterior(
    F: np.ndarray, params: GMMParams, sq: np.ndarray | None = None
) -> np.ndarray:
    """Log-space responsibilities with per-row max subtraction.

    ``sq`` holds the squared distances of F to ``params.means`` when the
    caller already has them.
    """
    if sq is None:
        sq = _sq_dists(np.asarray(F, dtype=np.float64), params.means)
    with np.errstate(divide="ignore"):
        scores = _gmm_log_scores(sq, np.log(params.weights), params)
    return _softmax_rows(scores, out=scores)


def gmm_em(F: np.ndarray, init_means: np.ndarray, cfg: EMConfig) -> EMResult:
    """EM for an isotropic GMM with the same convergence and tie-break
    contracts as the spherical variant.

    Weights start uniform; the initial per-component variance is the mean
    squared deviation from the init means divided by d. Variances are
    floored at 1e-6. Components whose responsibility mass vanishes are
    frozen and reported.
    """
    F = np.asarray(F, dtype=np.float64)
    init_means = np.asarray(init_means, dtype=np.float64)
    if F.ndim != 2 or init_means.ndim != 2 or F.shape[1] != init_means.shape[1]:
        raise DimensionMismatch(
            f"features {F.shape} incompatible with init means {init_means.shape}"
        )
    n, d = F.shape
    k = init_means.shape[0]
    if n < k:
        raise DimensionMismatch(f"need at least {k} points, got {n}")
    if not np.all(np.isfinite(init_means)):
        raise ValueError("init means must be finite")

    sq = _sq_dists(F, init_means)
    nearest = np.argmin(sq, axis=1)
    spread = float(np.mean(np.sum((F - init_means[nearest]) ** 2, axis=1))) / d
    params = GMMParams(
        np.full(k, 1.0 / k),
        init_means,
        np.full(k, max(spread, VARIANCE_FLOOR)),
    )

    degenerate: set[int] = set()
    iterations = 0
    converged = False
    for _ in range(cfg.max_iters):
        q = gmm_posterior(F, params, sq)
        mass = q.sum(axis=0)
        dead = mass <= 1e-12
        degenerate.update(int(c) for c in np.flatnonzero(dead))
        weights = mass / n
        weights = weights / weights.sum()
        means = params.means.copy()
        variances = params.variances.copy()
        alive = ~dead
        means[alive] = (q.T @ F)[alive] / mass[alive, None]
        # the next E step scores against these means, so it reuses sq
        sq = _sq_dists(F, means)
        variances[alive] = np.maximum(
            (q * sq).sum(axis=0)[alive] / (d * mass[alive]), VARIANCE_FLOOR
        )
        shift = float(np.max(np.linalg.norm(means - params.means, axis=1)))
        params = GMMParams(weights, means, variances)
        iterations += 1
        if shift < cfg.tol:
            converged = True
            break

    q = gmm_posterior(F, params, sq)
    labels = np.argmax(q, axis=1)
    return EMResult(q, labels, params, iterations, converged, tuple(sorted(degenerate)))


def gmm_nll_loss(
    F: np.ndarray, Q: np.ndarray, params: GMMParams
) -> tuple[float, np.ndarray]:
    """Negative expected complete-data log-likelihood and its gradient wrt F.

    Includes the Gaussian normalizers (variances differ per component), the
    Euclidean counterpart of the spherical alignment loss. Q and the mixture
    parameters are treated as constants.
    """
    F = np.asarray(F, dtype=np.float64)
    Q = np.asarray(Q, dtype=np.float64)
    if Q.shape != (F.shape[0], params.num_clusters):
        raise DimensionMismatch(
            f"posterior {Q.shape} != ({F.shape[0]}, {params.num_clusters})"
        )
    value = -float((Q * _gmm_floored_scores(F, params)).sum())
    # d(-score)/dF_i = sum_c q_ic (f_i - m_c) / var_c
    ratio = Q / params.variances[None, :]
    grad = ratio.sum(axis=1)[:, None] * F - ratio @ params.means
    return value, grad
