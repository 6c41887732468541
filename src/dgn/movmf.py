"""Mixtures of von Mises-Fisher distributions on the unit hypersphere.

Provides the expected complete-data objective and soft/hard EM fitting
with a shared concentration kappa. Under a shared kappa the normalising
constant C_d(kappa) cancels in the posterior and only shifts the
objectives, so it is never computed. All computation is float64 and
log-space where overflow is possible.

Layout. Both mixture families, this moVMF and the isotropic GMM of
``baselines``, run in ``_run_em``, the one EM loop. Every row softmax
of ``dgn``, the E step of both families and the segment head's
(``network.softmax``), is ``_softmax_rows``. It works on 4096 points
at a time (``_BLOCK``): it moves a block's (n, k) scores into one
(k, min(n, 4096)) buffer with a row per class or cluster, so that the
max over them, ``exp``, the sum over them and the division
(``_softmax_columns``) are operations on whole rows of the block's
points rather than reductions over rows of k, and copies the block's
result back into the (n, k) output. The buffer (256 KiB at k = 8) stays
in cache, and no (k, n) copy of the scores is held. Each result is
bitwise equal to the point-major (n, k) form (the (n, k) scores, then
the row softmax), at any block edge:

- the scores are first written point-major by the same BLAS call as the
  point-major form, and the op that finishes them moves each block of
  them into the buffer. moVMF: ``V @ means.T``, scaled by kappa, then
  the add of log(alpha_c). GMM: the squared distances
  ``baselines._sq_dists`` (``2F @ means.T``), then ``0.5 * sq``, divided
  by var_c and subtracted from log w_c - (d/2) log(2 pi var_c), the same
  elementwise ops in the same order. The head: the logits, copied. ``means @ V.T`` and ``P @ V`` are
  not used: with OpenBLAS they differ in the last bit for some shapes;
- the sum over the k rows adds them in the order numpy adds the k
  entries of one row (``Q.sum(axis=1)``): left to right below 8 rows,
  as ``np.add.reduce(P, axis=0)`` adds them; from 8 to 128 rows, eight
  strided accumulators r_j (rows j, j+8, ...) combined as
  ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the leftover rows one by
  one; above 128 rows, numpy's pairwise split;
- the M step reads the posterior in the (n, k) layout, so ``Q.T @ V`` is
  the same BLAS call, and the weights are column sums taken point after
  point, as ``Q.mean(axis=0)`` takes them (``np.einsum("ic->c", Q)``).
  The GMM variance numerators ``(q * sq).sum(axis=0)``, with the product
  in a buffer, and the network's bias gradients ``dz.sum(axis=0)`` are
  taken by ``_sum_columns``: ``np.einsum("ic->c", ...)`` at k >= 2, where
  it is bitwise equal and faster (numpy sums the one column of k = 1
  pairwise); ``np.einsum("ic,ic->c", q, sq)`` is not bitwise equal to it.

The loop iterates on raw arrays: weights, means and, for the GMM,
variances. Its (n, k) posterior is taken once per fit from the caller's
workspace (a fresh array without one), and hard EM writes its one-hot
posterior into it with ``one_hot(..., out=)``.
``MoVMFParams`` or ``baselines.GMMParams`` is built, and validated, once,
when the fit returns. The only check inside the loop is the E step's:
all-zero or nan weights raise ``DegenerateRow``.
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
from .workspace import Workspace

UNIT_ATOL = 1e-9
ZERO_NORM = 1e-12
ALPHA_FLOOR = 1e-12
_BLOCK = 4096   # points per block of a row softmax


def unit_rows(
    features: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Each row of ``features`` divided by its norm, and the (n, 1) norms.
    The rows are written into ``out`` (which may not be ``features``) or a
    fresh array.

    The one normaliser for network features: a row whose norm is <= 1e-12
    stays zero, so it scores equally against every cluster and, through
    the losses, passes no gradient.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise DimensionMismatch(f"expected 2-d matrix, got shape {features.shape}")
    # np.linalg.norm's ops, its squares held in the rows' buffer
    V = np.multiply(features, features, out=out)
    norms = np.add.reduce(V, axis=1, keepdims=True)
    np.sqrt(norms, out=norms)
    zero = norms <= ZERO_NORM  # a nan row is not zero: it stays nan
    np.divide(features, norms, out=V, where=~zero)
    V[zero[:, 0]] = 0.0
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


@np.errstate(over="ignore")  # a row too long to square has an inf norm
def _has_unit_rows(rows: np.ndarray) -> bool:
    """Whether every row's norm is within ``UNIT_ATOL`` of 1. A nan or inf
    row fails, as does a finite row whose norm overflows; a matrix with no
    rows passes."""
    norms = np.linalg.norm(rows, axis=1)
    return norms.size == 0 or float(np.max(np.abs(norms - 1.0))) <= UNIT_ATOL


@np.errstate(over="ignore")  # as in _has_unit_rows
def _check_unit_rows(mat: np.ndarray, what: str) -> None:
    if not _has_unit_rows(mat):
        norms = np.linalg.norm(mat, axis=1)
        worst = int(np.argmax(np.abs(norms - 1.0)))
        raise NonUnitInput(f"{what} row {worst} has norm {float(norms[worst])!r}")


def _check_weights(alphas: np.ndarray) -> None:
    if np.any(alphas < 0):
        raise ValueError("mixture weights must be nonnegative")
    total = float(alphas.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"mixture weights sum to {total!r}, not 1")


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
        _check_weights(alphas)
        if self.kappa < 0:
            raise ValueError("concentration must be nonnegative")
        _check_unit_rows(means, "means")

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

    posterior: np.ndarray       # (n, k) row-stochastic, C-contiguous
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


def _scores(V: np.ndarray, means: np.ndarray, kappa: float, out=None) -> np.ndarray:
    # the one moVMF score path: kappa * dot(u_c, v_i), point-major (n, k);
    # the caller adds log(alpha_c)
    q = np.matmul(V, means.T, out=out)
    q *= kappa
    return q


def _sum_rows(P: np.ndarray) -> np.ndarray:
    """Sum of the rows of a (k, n) array, added in the order numpy's
    pairwise sum adds the k entries of one row of the (n, k) transpose."""
    k = P.shape[0]
    if k < 8:
        return np.add.reduce(P, axis=0)   # row after row, as numpy adds < 8 entries
    if k > 128:
        half = k // 2
        half -= half % 8
        s = _sum_rows(P[:half])
        s += _sum_rows(P[half:])
        return s
    end = k - k % 8
    r = P[:8] if end == 8 else P[:8] + P[8:16]
    for c in range(16, end, 8):
        r += P[c:c + 8]
    s = r[0] + r[1]
    s += r[2] + r[3]
    tail = r[4] + r[5]
    tail += r[6] + r[7]
    s += tail
    for c in range(end, k):
        s += P[c]
    return s


def _sum_columns(A: np.ndarray) -> np.ndarray:
    """The column sums of the (n, k) ``A``, bitwise ``A.sum(axis=0)``: at
    k >= 2 numpy adds each column point after point, as ``einsum`` does,
    but faster; at k = 1 it adds the one contiguous column pairwise."""
    return A.sum(axis=0) if A.shape[1] == 1 else np.einsum("ic->c", A)


def _log_weights(weights: np.ndarray) -> np.ndarray:
    """log of the mixture weights, -inf at a zero weight without numpy's
    divide warning; a nan weight stays nan."""
    return np.log(weights, out=np.full(weights.shape, -np.inf), where=weights != 0)


def _softmax_columns(P: np.ndarray) -> np.ndarray:
    """The posterior from the (k, n) log scores P, in place: the max over
    the k rows is subtracted from each column, then ``exp``, then each
    column is divided by its ``_sum_rows`` total. The one softmax of both
    mixture families."""
    P -= np.maximum.reduce(P, axis=0)
    np.exp(P, out=P)
    P /= _sum_rows(P)
    return P


def _softmax_rows(S: np.ndarray, out: np.ndarray,
                  score=lambda s, p: np.copyto(p, s)) -> np.ndarray:
    """The row softmax of the (n, k) scores S, written into the (n, k)
    ``out`` (which may be S), ``_BLOCK`` points at a time through one
    (k, min(n, _BLOCK)) buffer. Each block of points is moved into the
    buffer by ``score(S[b].T, block)``, a plain copy unless a caller's last
    elementwise op on the scores is the move; ``_softmax_columns`` takes
    the block's softmax, which is copied into ``out[b]``. The one softmax
    of the segment head and both E steps."""
    n = S.shape[0]
    P = np.empty((S.shape[1], min(n, _BLOCK)))
    for i in range(0, n, _BLOCK):   # a block's working set stays in cache
        block = P[:, :min(_BLOCK, n - i)]
        score(S[i:i + _BLOCK].T, block)
        np.copyto(out[i:i + _BLOCK], _softmax_columns(block).T)
    return out


def _posterior(V: np.ndarray, means: np.ndarray, kappa: float, alphas: np.ndarray,
               out: np.ndarray) -> np.ndarray:
    """The (n, k) posterior of the points V under (alphas, kappa, means),
    written into ``out``, which first holds the scores.

    Computed in log space with the max over clusters subtracted. With
    kappa = 0 every row equals the (renormalized) weights exactly.
    """
    total = float(alphas.sum())
    if not (alphas > 0).any() or total <= 0:
        raise DegenerateRow("all mixture weights are zero")
    if kappa == 0.0:
        out[...] = alphas / total
        return out
    log_alphas = _log_weights(alphas)[:, None]
    S = _scores(V, means, kappa, out=out)
    return _softmax_rows(S, out, lambda s, p: np.add(s, log_alphas, out=p))


def log_scores(V: np.ndarray, theta: MoVMFParams, out: np.ndarray | None = None) -> np.ndarray:
    """Per-point per-cluster log(alpha_c) + kappa * dot(u_c, v_i), written
    into the (n, k) ``out`` or a fresh array.

    The shared-kappa normalization constant cancels in the posterior and
    only shifts the objective, so it is omitted here. Weights are floored
    at 1e-12 inside the log so one-hot targets stay finite.
    """
    _check_dims(V, theta)
    q = _scores(V, theta.means, theta.kappa, out=out)
    q += np.log(np.maximum(theta.alphas, ALPHA_FLOOR))
    return q


def movmf_objective(
    V: np.ndarray, Q: np.ndarray, theta: MoVMFParams, out: np.ndarray | None = None
) -> float:
    """Q-weighted expected complete-data log-likelihood, without the
    kappa-only constant n * log C_d(kappa). ``out`` is an optional (n, k)
    buffer for the weighted scores."""
    V = np.asarray(V, dtype=np.float64)
    Q = np.asarray(Q, dtype=np.float64)
    if Q.shape != (V.shape[0], theta.num_clusters):
        raise DimensionMismatch(
            f"posterior shape {Q.shape} != ({V.shape[0]}, {theta.num_clusters})"
        )
    weighted = log_scores(V, theta, out)
    per_point = np.multiply(Q, weighted, out=weighted).sum(axis=1)
    return float(per_point.sum())


def one_hot(labels: np.ndarray, num_clusters: int, out: np.ndarray | None = None) -> np.ndarray:
    """Row-stochastic one-hot matrix for a hard assignment, written into
    the (n, num_clusters) ``out`` or a fresh array."""
    labels = np.asarray(labels)
    n = labels.shape[0]
    out = np.empty((n, num_clusters)) if out is None else out
    out.fill(0.0)
    out[np.arange(n), labels] = 1.0
    return out


def _run_em(state, e_step, m_step, build, cfg: EMConfig) -> EMResult:
    """The one EM loop of soft and hard moVMF and ``baselines.gmm_em``.

    ``state`` is the tuple of raw arrays a fit iterates on (weights and
    means, and for the GMM the variances). ``e_step(state)`` returns the
    (n, k) posterior; ``m_step(Q, state)``, which may overwrite Q, returns
    the next state, the shift of the means and the (k,) mask of the clusters
    it held. ``build(state)`` makes the validated params, once, when the
    loop ends. The loop stops after ``cfg.max_iters`` M steps or at a shift
    below ``cfg.tol`` and returns the E step at the last state with its row
    argmax."""
    held = np.False_
    iterations = 0
    converged = False
    for _ in range(cfg.max_iters):
        state, shift, dead = m_step(e_step(state), state)
        held = held | dead
        iterations += 1
        if shift < cfg.tol:
            converged = True
            break
    Q = e_step(state)
    return EMResult(Q, np.argmax(Q, axis=1), build(state), iterations, converged,
                    tuple(np.flatnonzero(held).tolist()))


def _movmf_em(V: np.ndarray, init_means: np.ndarray, cfg: EMConfig, hard: bool,
              workspace: Workspace | None) -> EMResult:
    V = np.asarray(V, dtype=np.float64)
    init_means = np.asarray(init_means, dtype=np.float64)
    if init_means.ndim != 2 or init_means.shape[1] != V.shape[1]:
        raise DimensionMismatch(
            f"init means {init_means.shape} incompatible with embeddings {V.shape}"
        )
    if V.shape[0] < 1 or init_means.shape[0] < 1:
        raise DimensionMismatch("need at least one point and one cluster")
    _check_unit_rows(init_means, "init means")

    n, k = V.shape[0], init_means.shape[0]
    kappa = cfg.kappa
    ws = Workspace() if workspace is None else workspace
    Q = ws.take("posterior", n, k)   # the scores, then the posterior the M step reads

    def e_step(state) -> np.ndarray:
        alphas, means = state
        _posterior(V, means, kappa, alphas, Q)
        if hard:
            one_hot(np.argmax(Q, axis=1), k, out=Q)   # the first nan of a row wins
        return Q

    def m_step(Q: np.ndarray, state):
        # alpha_c is the mean posterior mass (summed point after point),
        # renormalized to sum to 1 exactly; u_c the normalized Q-weighted
        # sum, held where its norm is <= 1e-12; the shift is the largest
        # rotation, 1 - cos(angle)
        prev = state[1]
        alphas = np.einsum("ic->c", Q) / n
        sums = Q.T @ V
        norms = np.sqrt(np.add.reduce(sums * sums, axis=1))   # np.linalg.norm's sum
        means = np.divide(sums, norms[:, None], out=prev.copy(),
                          where=(norms > ZERO_NORM)[:, None])
        # 1 - x rounds monotonically, so the largest 1 - cos is 1 - the least cos
        shift = 1.0 - float(np.einsum("cd,cd->c", means, prev).min())
        alphas /= alphas.sum()
        return (alphas, means), shift, norms <= ZERO_NORM

    return _run_em((np.full(k, 1.0 / k), init_means), e_step, m_step,
                   lambda state: MoVMFParams(state[0], kappa, state[1]), cfg)


def soft_movmf_em(V: np.ndarray, init_means: np.ndarray, cfg: EMConfig,
                  workspace: Workspace | None = None) -> EMResult:
    """Fit a shared-kappa moVMF by soft EM from the given unit init means.

    Weights start uniform at 1/k. The E step computes the posterior, the
    M step re-estimates weights and mean directions from posterior-weighted
    sums. Stops after ``cfg.max_iters`` iterations or when the largest
    per-cluster mean rotation drops below ``cfg.tol`` (measured as
    1 - cos(angle)). With max_iters = 0 the returned posterior and
    assignment are evaluated at the initialization and means are unchanged.

    The posterior is taken from ``workspace`` (a fresh one when omitted),
    as are the fit's other per-point arrays (see ``network``).
    """
    return _movmf_em(V, init_means, cfg, False, workspace)


def hard_movmf_em(V: np.ndarray, init_means: np.ndarray, cfg: EMConfig,
                  workspace: Workspace | None = None) -> EMResult:
    """Hard-assignment EM variant: the E step one-hots each posterior row
    at its argmax (ties to the lowest index) before the M step, and the
    returned posterior is one-hot. Empty clusters keep their previous mean
    and take weight from their (zero) counts. ``workspace`` as in
    ``soft_movmf_em``."""
    return _movmf_em(V, init_means, cfg, True, workspace)
