"""Alternative feature-space descriptors: category prototypes and an
isotropic Gaussian mixture, used for the distribution-comparison runs.

``gmm_em`` passes its E and M steps to ``movmf._run_em``, the one EM
loop of both mixture families. Its E step runs cluster-major through the
softmax it shares with moVMF EM (see the "Layout" notes of ``movmf``),
on buffers allocated once per fit: the (n, k) squared distances, a
(k, n) score buffer and the (n, k) posterior. ||f||^2 and 2F are
computed once per fit. Every output is bitwise equal to the point-major
loop that scores fresh (n, k) arrays on every pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .movmf import (ALPHA_FLOOR, EMConfig, EMResult, _blocks, _check_weights,
                    _has_unit_rows, _run_em, _softmax_columns, normalize_rows)

VARIANCE_FLOOR = 1e-6
METRICS = ("euclidean", "cosine")


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
        _check_weights(weights)
        if np.any(variances <= 0):
            raise ValueError("variances must be positive")

    @property
    def num_clusters(self) -> int:
        return self.means.shape[0]


def prototype_assign(F: np.ndarray, prototypes: np.ndarray, metric: str) -> np.ndarray:
    """Assign each row of F to the nearest of the (k, d) ``prototypes``.

    Euclidean: smallest distance; cosine: largest similarity after row
    normalization, to prototypes that must be unit rows. Ties go to the
    lowest class index.
    """
    F = np.asarray(F, dtype=np.float64)
    prototypes = np.asarray(prototypes, dtype=np.float64)
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}")
    if F.ndim != 2 or prototypes.ndim != 2 or F.shape[1] != prototypes.shape[1]:
        raise DimensionMismatch(
            f"features {F.shape} incompatible with prototypes {prototypes.shape}"
        )
    if metric == "cosine":
        if not _has_unit_rows(prototypes):
            raise ValueError("cosine prototypes must have unit rows")
        return np.argmax(normalize_rows(F) @ prototypes.T, axis=1)
    diffs = F[:, None, :] - prototypes[None, :, :]
    return np.argmin(np.einsum("nkd,nkd->nk", diffs, diffs), axis=1)


def _f_terms(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the terms of _sq_dists that depend on F alone: ||f||^2 as (n, 1), and 2F
    return np.einsum("nd,nd->n", F, F)[:, None], 2.0 * F


def _sq_dists(
    F: np.ndarray,
    means: np.ndarray,
    out: np.ndarray | None = None,
    f_terms: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Squared Euclidean distance of every row of F to every mean, (n, k),
    as ||f||^2 - 2F @ means.T + ||m||^2, written into ``out`` when given.
    ``f_terms`` is ``_f_terms(F)``, passed by a caller that measures F
    against many means so that it is computed once."""
    norms, twice = _f_terms(F) if f_terms is None else f_terms
    out = np.matmul(twice, means.T, out=out)
    np.subtract(norms, out, out=out)
    out += np.einsum("kd,kd->k", means, means)
    return out


def _gmm_log_norms(log_w: np.ndarray, params: GMMParams) -> np.ndarray:
    # the per-component part of a score: log weight + log normaliser, (k,)
    d = params.means.shape[1]
    return log_w - 0.5 * d * np.log(2.0 * np.pi * params.variances)


def _gmm_scores(sq, log_norms, variances, out=None) -> np.ndarray:
    # the one GMM score path, log_norm_c - (0.5 * sq) / var_c, in the layout
    # the arguments broadcast to: (n, k) with (k,) rows, or (k, n) with
    # (k, 1) columns
    out = np.multiply(sq, 0.5, out=out)
    out /= variances
    return np.subtract(log_norms, out, out=out)


def _gmm_floored_scores(F: np.ndarray, params: GMMParams) -> np.ndarray:
    # weight log floored at 1e-12 so one-hot Q at a dead component stays finite
    log_w = np.log(np.maximum(params.weights, ALPHA_FLOOR))
    return _gmm_scores(_sq_dists(F, params.means), _gmm_log_norms(log_w, params),
                       params.variances)


def gmm_posterior(
    sq: np.ndarray,
    params: GMMParams,
    scratch: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Responsibilities (n, k), C-contiguous, from the (n, k) squared
    distances ``sq`` of the points to ``params.means``.

    Computed in log space with the max over components subtracted, on a
    (k, n) buffer (``scratch`` when given) as ``movmf`` does; the result
    is written into ``out`` when given.
    """
    n, k = sq.shape
    P = np.empty((k, n)) if scratch is None else scratch
    with np.errstate(divide="ignore"):
        log_norms = _gmm_log_norms(np.log(params.weights), params)[:, None]
    variances = params.variances[:, None]
    for b in _blocks(n):
        _gmm_scores(sq[b].T, log_norms, variances, out=P[:, b])
    _softmax_columns(P)
    if out is None:
        return np.ascontiguousarray(P.T)
    np.copyto(out, P.T)
    return out


def gmm_em(F: np.ndarray, init_means: np.ndarray, cfg: EMConfig) -> EMResult:
    """EM for an isotropic GMM, run by ``movmf._run_em``, the loop of the
    moVMF fits: the same iteration budget, ``tol`` stop, tie-break and
    held components. The shift is the largest Euclidean move of a mean.

    Weights start uniform; the initial per-component variance is the mean
    squared deviation from the init means divided by d. Variances are
    floored at 1e-6. Components whose responsibility mass vanishes are
    held and reported as degenerate.
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

    f_terms = _f_terms(F)
    sq = _sq_dists(F, init_means, np.empty((n, k)), f_terms)
    nearest = np.argmin(sq, axis=1)
    spread = float(np.mean(np.sum((F - init_means[nearest]) ** 2, axis=1))) / d
    params = GMMParams(
        np.full(k, 1.0 / k),
        init_means,
        np.full(k, max(spread, VARIANCE_FLOOR)),
    )

    P = np.empty((k, n))   # the E step's log scores, cluster-major
    q = np.empty((n, k))   # the posterior the M step reads

    def m_step(q: np.ndarray, params: GMMParams):
        # masses and variance numerators are column sums taken point after
        # point, and the means the same BLAS call q.T @ F; a component
        # whose mass is <= 1e-12 is held
        mass = np.einsum("ic->c", q)
        dead = mass <= 1e-12
        alive = ~dead
        weights = mass / n
        means = params.means.copy()
        variances = params.variances.copy()
        means[alive] = (q.T @ F)[alive] / mass[alive, None]
        # the next E step scores against these means, so it reuses sq
        _sq_dists(F, means, sq, f_terms)
        # q is read no more before the next E step overwrites it
        scatter = np.multiply(q, sq, out=q).sum(axis=0)
        variances[alive] = np.maximum(scatter[alive] / (d * mass[alive]), VARIANCE_FLOOR)
        shift = float(np.max(np.linalg.norm(means - params.means, axis=1)))
        return GMMParams(weights / weights.sum(), means, variances), shift, np.flatnonzero(dead)

    return _run_em(params, lambda p: gmm_posterior(sq, p, P, q), m_step, cfg)


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
