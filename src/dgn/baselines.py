"""The isotropic Gaussian mixture, the Euclidean family beside the moVMF
of ``movmf`` in the distribution-comparison runs: its EM, posterior and
alignment loss.

``gmm_em`` passes its E and M steps to ``movmf._run_em``, the one EM
loop of both mixture families. Its E step is ``movmf._softmax_rows``,
the one row softmax of moVMF EM and the segment head (see the "Layout"
notes of ``movmf``), which scores one block of points at a time from the
(n, k) squared distances into the (n, k) posterior. Both are taken once
per fit from the caller's workspace, as are ||f||^2 and 2F, computed
once per fit. The loop iterates on the raw weights, means and
variances; ``GMMParams`` validates them once, when the fit returns.
Every output is bitwise equal to the point-major loop that scores fresh
(n, k) arrays on every pass. Weights and variances start shared, so with
``max_iters = 0`` the assignment is each point's nearest init mean by
squared distance: ``dgn cluster --variant proto-euclid``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch
from .movmf import (_BLOCK, ALPHA_FLOOR, EMConfig, EMResult, _check_weights, _log_weights,
                    _run_em, _softmax_rows, _sum_columns)
from .workspace import SCRATCH, Workspace

VARIANCE_FLOOR = 1e-6


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


class _GMMArrays(NamedTuple):
    """The raw arrays ``gmm_em`` iterates on, named as in ``GMMParams``
    and validated by it once, when the fit ends."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray


def _f_terms(F: np.ndarray, twice: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    # the terms of _sq_dists that depend on F alone: ||f||^2 as (n, 1), and 2F,
    # written into ``twice`` when given
    return np.einsum("nd,nd->n", F, F)[:, None], np.multiply(2.0, F, out=twice)


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


def _lower_sq_dists(X: np.ndarray, means: np.ndarray, nearest: np.ndarray, out: np.ndarray,
                    buf: np.ndarray) -> np.ndarray:
    """Lower the (n,) ``out`` to ``np.sum((X - means[nearest]) ** 2, axis=1)``
    where that is smaller, by the same ops: ``_BLOCK`` rows at a time in the
    (min(n, _BLOCK), d) ``buf``, so no (n, d) array is held."""
    n = X.shape[0]
    for i in range(0, n, _BLOCK):
        # the indices are in range, and mode="clip" writes them without a copy
        dev = np.take(means, nearest[i:i + _BLOCK], axis=0, out=buf[:min(_BLOCK, n - i)],
                      mode="clip")
        np.subtract(X[i:i + _BLOCK], dev, out=dev)
        sq = np.add.reduce(np.square(dev, out=dev), axis=1)
        np.minimum(out[i:i + _BLOCK], sq, out=out[i:i + _BLOCK])
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


def _gmm_floored_scores(F: np.ndarray, params: GMMParams, out: np.ndarray | None = None,
                        twice: np.ndarray | None = None) -> np.ndarray:
    # weight log floored at 1e-12 so one-hot Q at a dead component stays
    # finite; the (n, k) scores go into ``out`` and 2F into ``twice`` when given
    log_w = np.log(np.maximum(params.weights, ALPHA_FLOOR))
    sq = _sq_dists(F, params.means, out, _f_terms(F, twice))
    return _gmm_scores(sq, _gmm_log_norms(log_w, params), params.variances, out=sq)


def gmm_posterior(sq: np.ndarray, params: GMMParams, out: np.ndarray) -> np.ndarray:
    """Responsibilities from the (n, k) squared distances ``sq`` of the
    points to ``params.means``, written into the (n, k) ``out``: computed in
    log space with the max over components subtracted, by
    ``movmf._softmax_rows``, which scores one block of points at a time.
    ``params`` is a GMMParams or the unvalidated arrays of the same names
    ``gmm_em`` iterates on."""
    log_norms = _gmm_log_norms(_log_weights(params.weights), params)[:, None]
    variances = params.variances[:, None]
    return _softmax_rows(sq, out, lambda s, p: _gmm_scores(s, log_norms, variances, out=p))


def gmm_em(F: np.ndarray, init_means: np.ndarray, cfg: EMConfig,
           workspace: Workspace | None = None) -> EMResult:
    """EM for an isotropic GMM, run by ``movmf._run_em``, the loop of the
    moVMF fits: the same iteration budget, ``tol`` stop and held
    components. The shift is the largest Euclidean move of a mean.

    Weights start uniform; the initial per-component variance is the mean
    squared deviation from the init means divided by d. Variances are
    floored at 1e-6. Components whose responsibility mass vanishes are
    held and reported as degenerate. The posterior and the fit's other
    per-point arrays are taken from ``workspace`` (a fresh one when
    omitted; see ``network``).
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

    ws = Workspace() if workspace is None else workspace
    f_terms = _f_terms(F, ws.take("twice", n, d))
    sq = _sq_dists(F, init_means, ws.take(SCRATCH[1], n, k), f_terms)
    sq_devs = _lower_sq_dists(F, init_means, np.argmin(sq, axis=1), np.full(n, np.inf),
                              ws.take(SCRATCH[0], min(n, _BLOCK), d))
    spread = float(np.mean(sq_devs)) / d
    state = _GMMArrays(np.full(k, 1.0 / k), init_means,
                       np.full(k, max(spread, VARIANCE_FLOOR)))

    q = ws.take("posterior", n, k)     # the posterior the M step reads

    def m_step(q: np.ndarray, state: _GMMArrays):
        # masses and variance numerators are column sums taken point after
        # point, and the means the same BLAS call q.T @ F; a component
        # whose mass is <= 1e-12 is held
        mass = np.einsum("ic->c", q)
        dead = mass <= 1e-12
        alive = ~dead
        weights = mass / n
        means = np.divide(q.T @ F, mass[:, None], out=state.means.copy(),
                          where=alive[:, None])
        # the next E step scores against these means, so it reuses sq
        _sq_dists(F, means, sq, f_terms)
        # q is read no more before the next E step overwrites it
        scatter = _sum_columns(np.multiply(q, sq, out=q))
        variances = np.divide(scatter, d * mass, out=state.variances.copy(), where=alive)
        np.maximum(variances, VARIANCE_FLOOR, out=variances, where=alive)
        shift = float(np.max(np.linalg.norm(means - state.means, axis=1)))
        return _GMMArrays(weights / weights.sum(), means, variances), shift, dead

    return _run_em(state, lambda s: gmm_posterior(sq, s, q), m_step,
                   lambda s: GMMParams(*s), cfg)


def gmm_nll_loss(
    F: np.ndarray, Q: np.ndarray, params: GMMParams, workspace: Workspace | None = None
) -> tuple[float, np.ndarray]:
    """Negative expected complete-data log-likelihood and its gradient wrt F.

    Includes the Gaussian normalizers (variances differ per component), the
    Euclidean counterpart of the spherical alignment loss. Q and the mixture
    parameters are treated as constants. The gradient and the temporaries
    are taken from ``workspace`` (a fresh one when omitted; see ``network``).
    """
    F = np.asarray(F, dtype=np.float64)
    Q = np.asarray(Q, dtype=np.float64)
    if Q.shape != (F.shape[0], params.num_clusters):
        raise DimensionMismatch(
            f"posterior {Q.shape} != ({F.shape[0]}, {params.num_clusters})"
        )
    ws = Workspace() if workspace is None else workspace
    (n, d), k = F.shape, Q.shape[1]
    twice = ws.take("twice", n, d)
    scores = _gmm_floored_scores(F, params, ws.take(SCRATCH[0], n, k), twice)
    value = -float(np.multiply(Q, scores, out=scores).sum())
    # d(-score)/dF_i = sum_c q_ic (f_i - m_c) / var_c
    ratio = np.divide(Q, params.variances[None, :], out=scores)
    grad = np.multiply(ratio.sum(axis=1)[:, None], F, out=ws.take(SCRATCH[1], n, d))
    grad -= np.matmul(ratio, params.means, out=twice)
    return value, grad
