"""Scalar training losses with analytic gradients.

Gradients are taken with respect to network outputs only: the clustering
posterior, mixture parameters, and pseudo-label targets are constants by
construction (the EM, at most ``em_iters`` iterations, ends before backprop).
Probabilities and mixture weights are floored at 1e-12 inside logs.

Each loss takes its per-point gradient and temporaries from an optional
trailing ``workspace`` (a fresh one when omitted), on the two keys the
alignment stage shares with ``network.backward`` (see ``network``): a
gradient so returned is valid until the next loss call on that workspace.
"""

from __future__ import annotations

import numpy as np

from .data import SparseLabels
from .errors import DimensionMismatch, EmptyLabelSet, InvalidBeta, SingleCluster
from .movmf import ZERO_NORM, MoVMFParams, movmf_objective, unit_rows
from .workspace import SCRATCH, Workspace

PROB_FLOOR = 1e-12


def _check_prob_matrix(P: np.ndarray) -> np.ndarray:
    P = np.asarray(P, dtype=np.float64)
    if P.ndim != 2:
        raise DimensionMismatch(f"probability matrix must be 2-d, got {P.shape}")
    return P


def _labeled_probs(P: np.ndarray, labels: SparseLabels) -> np.ndarray:
    if labels.size == 0:
        raise EmptyLabelSet("no labeled points")
    if np.any(labels.indices >= P.shape[0]) or np.any(labels.classes >= P.shape[1]):
        raise DimensionMismatch("labels index outside the probability matrix")
    return P[labels.indices, labels.classes]


def tce_loss(
    P: np.ndarray, labels: SparseLabels, beta: float, workspace: Workspace | None = None
) -> tuple[float, np.ndarray]:
    """Truncated cross-entropy: -(1/m) sum min(log p_i^{y_i}, log beta).

    The per-point value and gradient are capped once the predicted
    probability of the annotated class exceeds beta; the gradient there is
    exactly zero. beta = 1 gives the partial cross-entropy.
    """
    if not 0.0 < beta <= 1.0:
        raise InvalidBeta(f"beta must be in (0, 1], got {beta!r}")
    P = _check_prob_matrix(P)
    p = _labeled_probs(P, labels)
    p_f = np.maximum(p, PROB_FLOOR)
    value = float(-np.mean(np.minimum(np.log(p_f), np.log(beta))))
    ws = Workspace() if workspace is None else workspace
    grad = ws.zeros(SCRATCH[0], *P.shape)
    m = labels.size
    grad[labels.indices, labels.classes] = np.where(
        (p > beta) | (p <= PROB_FLOOR), 0.0, -1.0 / (m * p_f)
    )
    return value, grad


def _through_unit(
    g: np.ndarray, U: np.ndarray, norms: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Chain a gradient wrt the unit rows U = X / ||X|| back to X:
    (g - (g.u)u) / ||x|| per row, with ``norms`` as ``unit_rows`` returns
    them, written into ``out`` (neither ``g`` nor ``U``) or a fresh array.
    A zero row of X passes a zero gradient, not g over a floored norm."""
    tangent = np.multiply(np.einsum("nd,nd->n", g, U)[:, None], U, out=out)
    np.subtract(g, tangent, out=tangent)
    zero = norms <= ZERO_NORM
    np.divide(tangent, norms, out=tangent, where=~zero)
    tangent[zero[:, 0]] = 0.0
    return tangent


def vmf_loss(
    V: np.ndarray,
    norms: np.ndarray,
    Q: np.ndarray,
    theta: MoVMFParams,
    workspace: Workspace | None = None,
) -> tuple[float, np.ndarray]:
    """Spherical alignment loss: the exact negation of ``movmf_objective``
    evaluated on the row-normalized features.

    Takes the features as ``movmf.unit_rows`` splits them, unit rows V and
    norms, so the gradient, wrt the features, flows through v = f / ||f||;
    Q and the mixture parameters are constants. A zero feature row has no
    direction: it scores log(alpha) and gets no gradient.
    """
    ws = Workspace() if workspace is None else workspace
    n, k, d = len(V), theta.num_clusters, theta.dim
    value = -movmf_objective(V, Q, theta, ws.take(SCRATCH[0], n, k))
    # dL/dv_i = -kappa * sum_c q_ic u_c, then project through normalization
    g = np.matmul(np.asarray(Q, dtype=np.float64), theta.means, out=ws.take(SCRATCH[0], n, d))
    np.multiply(-theta.kappa, g, out=g)
    return value, _through_unit(g, V, norms, ws.take(SCRATCH[1], n, d))


def dis_loss(means: np.ndarray) -> float:
    """Mean pairwise inner product of the (k, d) unit mean directions over
    ordered pairs. Value only: the means are EM-produced constants, and
    ``dis_loss_through_means`` is the form whose gradient reaches the
    features."""
    means = np.asarray(means, dtype=np.float64)
    k = means.shape[0]
    if k < 2:
        raise SingleCluster("discriminative loss needs at least two clusters")
    gram = means @ means.T
    return float((gram.sum() - np.trace(gram)) / (k * (k - 1)))


def dis_loss_through_means(
    V: np.ndarray,
    feat_norms: np.ndarray,
    Q: np.ndarray,
    means: np.ndarray,
    workspace: Workspace | None = None,
) -> tuple[float, np.ndarray]:
    """Discriminative loss with means recomputed inside the loss graph.

    Each mean is the Q-weighted normalized sum of the normalized features,
    given as ``movmf.unit_rows`` splits them (unit rows V and norms), with
    Q constant, so the gradient reaches the raw features through the mean
    directions. A cluster whose weighted sum vanished, such as a gmm
    component whose posterior mass underflowed, keeps its row of the fit's
    (k, d) unit ``means``, as the EM's M step does: a constant that passes
    no gradient. Returns (value, gradient wrt features).
    """
    Q = np.asarray(Q, dtype=np.float64)
    means = np.asarray(means, dtype=np.float64)
    if Q.ndim != 2 or Q.shape[0] != V.shape[0] or means.shape != (Q.shape[1], V.shape[1]):
        raise DimensionMismatch(f"posterior {Q.shape}, means {means.shape}, features {V.shape}")
    U, sum_norms = unit_rows(Q.T @ V)
    dead = sum_norms[:, 0] <= ZERO_NORM
    U[dead] = means[dead]
    value = dis_loss(U)

    k = Q.shape[1]
    g_mean = 2.0 * (U.sum(axis=0)[None, :] - U) / (k * (k - 1))
    ws = Workspace() if workspace is None else workspace
    n, d = V.shape
    g_v = np.matmul(Q, _through_unit(g_mean, U, sum_norms), out=ws.take(SCRATCH[0], n, d))
    return value, _through_unit(g_v, V, feat_norms, ws.take(SCRATCH[1], n, d))


def con_loss(
    P: np.ndarray, Q: np.ndarray, workspace: Workspace | None = None
) -> tuple[float, np.ndarray]:
    """Cross-entropy from the clustering posterior (pseudo-label target) to
    the predicted probabilities: -(1/n) sum_i q_i . log p_i.

    Returns the gradient wrt the head logits, (P - Q) / n per row.
    """
    P = _check_prob_matrix(P)
    Q = np.asarray(Q, dtype=np.float64)
    if Q.shape != P.shape:
        raise DimensionMismatch(f"posterior {Q.shape} vs probabilities {P.shape}")
    ws = Workspace() if workspace is None else workspace
    n = P.shape[0]
    # the weighted logs, then the gradient, in one buffer
    t = np.maximum(P, PROB_FLOOR, out=ws.take(SCRATCH[0], *P.shape))
    np.log(t, out=t)
    value = float(-np.multiply(Q, t, out=t).sum() / n)
    grad = np.subtract(P, Q, out=t)
    grad /= n
    return value, grad
