"""Mixtures of von Mises-Fisher distributions on the unit hypersphere.

Provides the density, posterior (soft assignment), the expected
complete-data objective, soft/hard EM fitting with shared concentration,
and a rejection sampler used by synthetic-data oracles. All computation
is float64 and log-space where overflow is possible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, ive

from .errors import (
    DegenerateRow,
    DimensionMismatch,
    NonUnitInput,
    ZeroVectorRow,
)

UNIT_ATOL = 1e-6
ZERO_NORM = 1e-12
ALPHA_FLOOR = 1e-12


def normalize_rows(features: np.ndarray) -> np.ndarray:
    """Project each row of ``features`` onto the unit sphere.

    Raises ZeroVectorRow for the first row whose norm is <= 1e-12.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise DimensionMismatch(f"expected 2-d matrix, got shape {features.shape}")
    norms = np.linalg.norm(features, axis=1)
    bad = np.flatnonzero(norms <= ZERO_NORM)
    if bad.size:
        raise ZeroVectorRow(int(bad[0]))
    return features / norms[:, None]


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
    log_norm_const: float | None = None  # log C_d(kappa) when computed

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
        if self.tol < 0:
            raise ValueError("tol must be >= 0")
        if self.kappa < 0:
            raise ValueError("kappa must be >= 0")


@dataclass(frozen=True)
class EMResult:
    """Posterior, hard assignment, fitted parameters, and run diagnostics."""

    posterior: np.ndarray       # (n, k) row-stochastic
    assignment: np.ndarray      # (n,) argmax of posterior, ties to lowest index
    params: MoVMFParams
    iterations: int
    converged: bool
    degenerate: tuple[int, ...] = field(default_factory=tuple)


def log_norm_const(kappa: float, dim: int) -> float:
    """log C_d(kappa) for the vMF density on the (dim-1)-sphere.

    Uses the exponentially scaled Bessel function so large kappa does not
    overflow; kappa = 0 falls back to the closed-form uniform density
    (reciprocal surface area).
    """
    if dim < 2:
        raise DimensionMismatch("vMF requires dim >= 2")
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    half = dim / 2.0
    if kappa <= ZERO_NORM:
        return float(-np.log(2.0) - half * np.log(np.pi) + gammaln(half))
    nu = half - 1.0
    # log I_nu(k) = log(ive(nu, k)) + k
    log_bessel = float(np.log(ive(nu, kappa)) + kappa)
    return float(nu * np.log(kappa) - half * np.log(2.0 * np.pi) - log_bessel)


def vmf_log_density(
    v: np.ndarray,
    u: np.ndarray,
    kappa: float,
    include_const: bool = False,
) -> float:
    """Log of the vMF density kernel at ``v`` with mean direction ``u``.

    Returns kappa * dot(u, v), plus log C_d(kappa) when ``include_const``
    is set; without the constant the value is exact up to a term that does
    not depend on v or u.
    """
    v = np.asarray(v, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if v.shape != u.shape or v.ndim != 1:
        raise DimensionMismatch(f"v {v.shape} vs u {u.shape}")
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    for name, vec in (("v", v), ("u", u)):
        if abs(float(np.linalg.norm(vec)) - 1.0) > UNIT_ATOL:
            raise NonUnitInput(f"{name} has norm {np.linalg.norm(vec)!r}")
    out = kappa * float(u @ v)
    if include_const:
        out += log_norm_const(kappa, v.shape[0])
    return out


def _check_dims(V: np.ndarray, theta: MoVMFParams) -> None:
    if V.ndim != 2:
        raise DimensionMismatch(f"embeddings must be 2-d, got {V.shape}")
    if V.shape[1] != theta.dim:
        raise DimensionMismatch(
            f"embeddings dim {V.shape[1]} != mixture dim {theta.dim}"
        )


def log_scores(V: np.ndarray, theta: MoVMFParams) -> np.ndarray:
    """Per-point per-cluster log(alpha_c) + kappa * dot(u_c, v_i).

    The shared-kappa normalization constant cancels in the posterior and
    only shifts the objective, so it is omitted here. Weights are floored
    at 1e-12 inside the log so one-hot targets stay finite.
    """
    _check_dims(V, theta)
    return np.log(np.maximum(theta.alphas, ALPHA_FLOOR))[None, :] + theta.kappa * (
        V @ theta.means.T
    )


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
    q = V @ theta.means.T
    q *= theta.kappa
    with np.errstate(divide="ignore"):
        q += np.log(alphas)
    # row max column by column: over k columns this is several times
    # faster than a row reduce, and max is exact
    q -= np.maximum.reduce(tuple(q.T))[:, None]
    np.exp(q, out=q)
    q /= q.sum(axis=1, keepdims=True)
    return q


def movmf_objective(V: np.ndarray, Q: np.ndarray, theta: MoVMFParams) -> float:
    """Q-weighted expected complete-data log-likelihood, without the
    kappa-only constant n * log C_d(kappa).

    With a one-hot Q this equals ``movmf_hard_objective`` at the argmax
    labels, bitwise.
    """
    V = np.asarray(V, dtype=np.float64)
    Q = np.asarray(Q, dtype=np.float64)
    if Q.shape != (V.shape[0], theta.num_clusters):
        raise DimensionMismatch(
            f"posterior shape {Q.shape} != ({V.shape[0]}, {theta.num_clusters})"
        )
    per_point = (Q * log_scores(V, theta)).sum(axis=1)
    return float(per_point.sum())


def movmf_hard_objective(V: np.ndarray, labels: np.ndarray, theta: MoVMFParams) -> float:
    """Complete-data log-likelihood of a hard assignment (same constant
    omitted as in ``movmf_objective``)."""
    V = np.asarray(V, dtype=np.float64)
    labels = np.asarray(labels)
    if labels.shape != (V.shape[0],):
        raise DimensionMismatch(f"labels shape {labels.shape} != ({V.shape[0]},)")
    scores = log_scores(V, theta)
    return float(scores[np.arange(V.shape[0]), labels].sum())


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


def incomplete_log_likelihood(V: np.ndarray, theta: MoVMFParams) -> float:
    """Observed-data log-likelihood sum_i log sum_c alpha_c exp(kappa u_c.v_i),
    up to the same kappa-only constant omitted everywhere else. This is the
    quantity EM is guaranteed not to decrease."""
    V = np.asarray(V, dtype=np.float64)
    _check_dims(V, theta)
    with np.errstate(divide="ignore"):
        scores = np.log(theta.alphas)[None, :] + theta.kappa * (V @ theta.means.T)
    m = scores.max(axis=1, keepdims=True)
    return float((m[:, 0] + np.log(np.exp(scores - m).sum(axis=1))).sum())


def sample_vmf(u: np.ndarray, kappa: float, n: int, seed: int) -> np.ndarray:
    """Draw n i.i.d. unit vectors from vMF(u, kappa), deterministically per seed.

    Uses the standard rejection scheme for the cosine under the
    tangent-normal decomposition (Wood 1994), a uniform draw on the
    orthogonal subsphere, and a Householder rotation onto ``u``.
    kappa = 0 reduces to the uniform distribution on the sphere.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 1 or u.shape[0] < 2:
        raise DimensionMismatch("mean direction must be a d-vector with d >= 2")
    if abs(float(np.linalg.norm(u)) - 1.0) > UNIT_ATOL:
        raise NonUnitInput(f"u has norm {np.linalg.norm(u)!r}")
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    if n < 1:
        raise ValueError("n must be >= 1")

    d = u.shape[0]
    rng = np.random.default_rng(seed)
    if kappa == 0.0:
        x = rng.standard_normal((n, d))
        return normalize_rows(x)

    dim = d - 1
    b = dim / (2.0 * kappa + np.sqrt(4.0 * kappa**2 + dim**2))
    x0 = (1.0 - b) / (1.0 + b)
    c = kappa * x0 + dim * np.log(1.0 - x0**2)

    cosines = np.empty(n)
    filled = 0
    while filled < n:
        todo = n - filled
        z = rng.beta(dim / 2.0, dim / 2.0, size=todo)
        w = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
        accept = kappa * w + dim * np.log1p(-x0 * w) - c >= np.log(
            rng.uniform(size=todo)
        )
        taken = w[accept]
        cosines[filled : filled + taken.size] = taken
        filled += taken.size

    tangent = rng.standard_normal((n, dim))
    tangent /= np.linalg.norm(tangent, axis=1, keepdims=True)
    sines = np.sqrt(np.maximum(1.0 - cosines**2, 0.0))
    samples = np.concatenate([cosines[:, None], sines[:, None] * tangent], axis=1)

    # Householder reflection mapping e1 onto u.
    e1 = np.zeros(d)
    e1[0] = 1.0
    axis = e1 - u
    norm = np.linalg.norm(axis)
    if norm > ZERO_NORM:
        axis /= norm
        samples = samples - 2.0 * np.outer(samples @ axis, axis)
    return samples
