"""Mixtures of von Mises-Fisher distributions on the unit hypersphere.

Provides the posterior (soft assignment), the expected complete-data
objective and soft/hard EM fitting with a shared concentration kappa.
Under a shared kappa the normalising constant C_d(kappa) cancels in the
posterior and only shifts the objectives, so it is never computed. All
computation is float64 and log-space where overflow is possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateRow,
    DimensionMismatch,
    NonUnitInput,
    ZeroVectorRow,
)

UNIT_ATOL = 1e-6
ZERO_NORM = 1e-12
ALPHA_FLOOR = 1e-12


def unit_rows(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of ``features`` divided by its norm, and the (n, 1) norms.

    The one normaliser for network features: a row whose norm is <= 1e-12
    stays zero, so it scores equally against every cluster and, through
    the losses, passes no gradient.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise DimensionMismatch(f"expected 2-d matrix, got shape {features.shape}")
    norms = np.linalg.norm(features, axis=1, keepdims=True)
    zero = norms <= ZERO_NORM  # a nan row is not zero: it stays nan
    V = np.divide(features, norms, out=np.zeros_like(features), where=~zero)
    return V, norms


def normalize_rows(features: np.ndarray) -> np.ndarray:
    """Project each row of user input onto the unit sphere.

    Raises ZeroVectorRow for the first row whose norm is <= 1e-12: in user
    input a zero row is a data error.
    """
    V, norms = unit_rows(features)
    bad = np.flatnonzero(norms <= ZERO_NORM)
    if bad.size:
        raise ZeroVectorRow(int(bad[0]))
    return V


def _check_unit_rows(mat: np.ndarray, what: str, atol: float = UNIT_ATOL) -> None:
    norms = np.linalg.norm(mat, axis=1)
    if not np.allclose(norms, 1.0, atol=atol, rtol=0.0):
        worst = int(np.argmax(np.abs(norms - 1.0)))
        raise NonUnitInput(f"{what} row {worst} has norm {norms[worst]!r}")


@dataclass(frozen=True)
class MoVMFParams:
    """Mixture parameters: weights, shared concentration, unit mean directions."""

    alphas: np.ndarray          # (k,) nonnegative, sums to 1
    kappa: float                # shared concentration, >= 0
    means: np.ndarray           # (k, d) unit rows

    def __post_init__(self):
        alphas = np.asarray(self.alphas, dtype=np.float64)
        means = np.asarray(self.means, dtype=np.float64)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "means", means)
        if means.ndim != 2 or alphas.ndim != 1 or alphas.shape[0] != means.shape[0]:
            raise DimensionMismatch(
                f"alphas {alphas.shape} incompatible with means {means.shape}"
            )
        if np.any(alphas < 0):
            raise ValueError("mixture weights must be nonnegative")
        if abs(float(alphas.sum()) - 1.0) > 1e-9:
            raise ValueError(f"mixture weights sum to {alphas.sum()!r}, not 1")
        if self.kappa < 0:
            raise ValueError("concentration must be nonnegative")
        _check_unit_rows(means, "means", atol=1e-9)

    @property
    def num_clusters(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


@dataclass(frozen=True)
class EMConfig:
    """Iteration budget, convergence threshold, and shared concentration."""

    max_iters: int = 10
    tol: float = 1e-6
    kappa: float = 10.0

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if not 0.0 <= self.tol < math.inf:
            raise ValueError("tol must be finite and >= 0")
        if not 0.0 <= self.kappa < math.inf:
            raise ValueError("kappa must be finite and >= 0")


@dataclass(frozen=True)
class EMResult:
    """Posterior, hard assignment, fitted parameters, and run diagnostics
    of one EM fit: a moVMF here, an isotropic GMM in ``baselines.gmm_em``."""

    posterior: np.ndarray       # (n, k) row-stochastic
    assignment: np.ndarray      # (n,) argmax of posterior, ties to lowest index
    params: MoVMFParams         # baselines.GMMParams from gmm_em
    iterations: int
    converged: bool
    degenerate: tuple[int, ...] = field(default_factory=tuple)


def _check_dims(V: np.ndarray, theta: MoVMFParams) -> None:
    if V.ndim != 2:
        raise DimensionMismatch(f"embeddings must be 2-d, got {V.shape}")
    if V.shape[1] != theta.dim:
        raise DimensionMismatch(
            f"embeddings dim {V.shape[1]} != mixture dim {theta.dim}"
        )


def _scores(V: np.ndarray, theta: MoVMFParams, log_alphas: np.ndarray) -> np.ndarray:
    # the one moVMF score path: log(alpha_c) + kappa * dot(u_c, v_i)
    q = V @ theta.means.T
    q *= theta.kappa
    q += log_alphas
    return q


def _softmax_rows(scores: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row softmax with per-row max subtraction, written into ``out`` (which
    may be ``scores`` itself) or a fresh array."""
    # row max column by column: over k columns this is several times
    # faster than a row reduce, and max is exact
    z = np.subtract(scores, np.maximum.reduce(tuple(scores.T))[:, None], out=out)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def log_scores(V: np.ndarray, theta: MoVMFParams) -> np.ndarray:
    """Per-point per-cluster log(alpha_c) + kappa * dot(u_c, v_i).

    The shared-kappa normalization constant cancels in the posterior and
    only shifts the objective, so it is omitted here. Weights are floored
    at 1e-12 inside the log so one-hot targets stay finite.
    """
    _check_dims(V, theta)
    return _scores(V, theta, np.log(np.maximum(theta.alphas, ALPHA_FLOOR)))


def posterior(V: np.ndarray, theta: MoVMFParams) -> np.ndarray:
    """Soft assignment of each embedding to each mixture component.

    Computed in log space with per-row max subtraction. With kappa = 0 the
    density is constant on the sphere and every row equals the (renormalized)
    mixture weights exactly.
    """
    V = np.asarray(V, dtype=np.float64)
    _check_dims(V, theta)
    alphas = theta.alphas
    total = float(alphas.sum())
    if not np.any(alphas > 0) or total <= 0:
        raise DegenerateRow("all mixture weights are zero")
    if theta.kappa == 0.0:
        return np.tile(alphas / total, (V.shape[0], 1))
    with np.errstate(divide="ignore"):
        q = _scores(V, theta, np.log(alphas))
    return _softmax_rows(q, out=q)


def movmf_objective(V: np.ndarray, Q: np.ndarray, theta: MoVMFParams) -> float:
    """Q-weighted expected complete-data log-likelihood, without the
    kappa-only constant n * log C_d(kappa)."""
    V = np.asarray(V, dtype=np.float64)
    Q = np.asarray(Q, dtype=np.float64)
    if Q.shape != (V.shape[0], theta.num_clusters):
        raise DimensionMismatch(
            f"posterior shape {Q.shape} != ({V.shape[0]}, {theta.num_clusters})"
        )
    per_point = (Q * log_scores(V, theta)).sum(axis=1)
    return float(per_point.sum())


def one_hot(labels: np.ndarray, num_clusters: int) -> np.ndarray:
    """Row-stochastic one-hot matrix for a hard assignment."""
    labels = np.asarray(labels)
    out = np.zeros((labels.shape[0], num_clusters))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def m_step(
    V: np.ndarray, Q: np.ndarray, prev_means: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Maximization step shared by both EM variants.

    alpha_c is the mean posterior mass, u_c the normalized Q-weighted
    embedding sum. Clusters whose weighted sum has norm <= 1e-12 keep
    their previous mean and are reported in the returned list.
    """
    alphas = Q.mean(axis=0)
    sums = Q.T @ V
    norms = np.linalg.norm(sums, axis=1)
    degenerate = [int(c) for c in np.flatnonzero(norms <= ZERO_NORM)]
    means = prev_means.copy()
    ok = norms > ZERO_NORM
    means[ok] = sums[ok] / norms[ok, None]
    return alphas, means, degenerate


def _mean_shift(new: np.ndarray, old: np.ndarray) -> float:
    # rotation-invariant convergence measure: max over clusters of 1 - cos(angle)
    return float(np.max(1.0 - np.einsum("cd,cd->c", new, old)))


def _run_em(
    V: np.ndarray,
    init_means: np.ndarray,
    cfg: EMConfig,
    hard: bool,
) -> EMResult:
    V = np.asarray(V, dtype=np.float64)
    init_means = np.asarray(init_means, dtype=np.float64)
    if init_means.ndim != 2 or init_means.shape[1] != V.shape[1]:
        raise DimensionMismatch(
            f"init means {init_means.shape} incompatible with embeddings {V.shape}"
        )
    if V.shape[0] < 1 or init_means.shape[0] < 1:
        raise DimensionMismatch("need at least one point and one cluster")
    _check_unit_rows(init_means, "init means")

    k = init_means.shape[0]
    theta = MoVMFParams(np.full(k, 1.0 / k), cfg.kappa, init_means)
    degenerate: set[int] = set()
    iterations = 0
    converged = False

    for _ in range(cfg.max_iters):
        q = posterior(V, theta)
        if hard:
            q = one_hot(np.argmax(q, axis=1), k)
        alphas, means, degen = m_step(V, q, theta.means)
        degenerate.update(degen)
        # EM-produced weights sum to 1 only within rounding; renormalize so
        # the params invariant holds exactly across many iterations.
        alphas = alphas / alphas.sum()
        shift = _mean_shift(means, theta.means)
        theta = MoVMFParams(alphas, cfg.kappa, means)
        iterations += 1
        if shift < cfg.tol:
            converged = True
            break

    q = posterior(V, theta)
    labels = np.argmax(q, axis=1)   # np.argmax breaks ties toward index 0
    if hard:
        q = one_hot(labels, k)
    return EMResult(
        posterior=q,
        assignment=labels,
        params=theta,
        iterations=iterations,
        converged=converged,
        degenerate=tuple(sorted(degenerate)),
    )


def soft_movmf_em(V: np.ndarray, init_means: np.ndarray, cfg: EMConfig) -> EMResult:
    """Fit a shared-kappa moVMF by soft EM from the given unit init means.

    Weights start uniform at 1/k. The E step computes the posterior, the
    M step re-estimates weights and mean directions from posterior-weighted
    sums. Stops after ``cfg.max_iters`` iterations or when the largest
    per-cluster mean rotation drops below ``cfg.tol`` (measured as
    1 - cos(angle)). With max_iters = 0 the returned posterior and
    assignment are evaluated at the initialization and means are unchanged.
    """
    return _run_em(V, init_means, cfg, hard=False)


def hard_movmf_em(V: np.ndarray, init_means: np.ndarray, cfg: EMConfig) -> EMResult:
    """Hard-assignment EM variant: the E step one-hots each posterior row
    at its argmax (ties to the lowest index) before the M step, and the
    returned posterior is one-hot. Empty clusters keep their previous mean
    and take weight from their (zero) counts."""
    return _run_em(V, init_means, cfg, hard=True)
