"""Scalar training losses with analytic gradients.

Gradients are taken with respect to network outputs only: the clustering
posterior, mixture parameters, and pseudo-label targets are constants by
construction (the alignment stage runs to convergence before backprop).
Probabilities and mixture weights are floored at 1e-12 inside logs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SparseLabels
from .errors import (
    DegenerateCluster,
    DimensionMismatch,
    EmptyLabelSet,
    InvalidBeta,
    SingleCluster,
)
from .movmf import MoVMFParams, movmf_objective, normalize_rows

PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class LossReport:
    """Per-term loss values; disabled terms are recorded as 0."""

    tce: float = 0.0
    vmf: float = 0.0
    dis: float = 0.0
    con: float = 0.0
    total: float = 0.0


def total_loss(
    tce: float = 0.0, vmf: float = 0.0, dis: float = 0.0, con: float = 0.0
) -> LossReport:
    """Unit-weight sum of the four terms; a disabled term is passed as 0."""
    return LossReport(tce=tce, vmf=vmf, dis=dis, con=con, total=tce + vmf + dis + con)


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
    P: np.ndarray, labels: SparseLabels, beta: float
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
    grad = np.zeros_like(P)
    m = labels.size
    grad[labels.indices, labels.classes] = np.where(
        (p > beta) | (p <= PROB_FLOOR), 0.0, -1.0 / (m * p_f)
    )
    return value, grad


def vmf_loss(
    features: np.ndarray, Q: np.ndarray, theta: MoVMFParams
) -> tuple[float, np.ndarray]:
    """Spherical alignment loss: the exact negation of ``movmf_objective``
    evaluated on the row-normalized features.

    Takes the pre-normalization features so the gradient can flow through
    v = f / ||f||; Q and the mixture parameters are constants.
    """
    features = np.asarray(features, dtype=np.float64)
    V = normalize_rows(features)
    value = -movmf_objective(V, Q, theta)
    # dL/dv_i = -kappa * sum_c q_ic u_c, then project through normalization
    g = -theta.kappa * (np.asarray(Q, dtype=np.float64) @ theta.means)
    norms = np.linalg.norm(features, axis=1, keepdims=True)
    grad = (g - np.einsum("nd,nd->n", g, V)[:, None] * V) / norms
    return value, grad


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
    features: np.ndarray, Q: np.ndarray
) -> tuple[float, np.ndarray]:
    """Discriminative loss with means recomputed inside the loss graph.

    Each mean is the Q-weighted normalized sum of the normalized features
    (Q constant), so the gradient reaches the raw features through the
    mean directions. Returns (value, gradient wrt features).
    """
    features = np.asarray(features, dtype=np.float64)
    Q = np.asarray(Q, dtype=np.float64)
    if Q.ndim != 2 or Q.shape[0] != features.shape[0]:
        raise DimensionMismatch(f"posterior {Q.shape} vs features {features.shape}")
    k = Q.shape[1]
    if k < 2:
        raise SingleCluster("discriminative loss needs at least two clusters")
    V = normalize_rows(features)
    sums = Q.T @ V
    sum_norms = np.linalg.norm(sums, axis=1)
    dead = np.flatnonzero(sum_norms <= 1e-12)
    if dead.size:
        raise DegenerateCluster(int(dead[0]))
    means = sums / sum_norms[:, None]
    value = dis_loss(means)

    denom = k * (k - 1)
    g_mean = 2.0 * (means.sum(axis=0)[None, :] - means) / denom
    # through u = s/||s||: dL/ds_c = (g - (g.u)u)/||s||
    g_sum = (g_mean - np.einsum("kd,kd->k", g_mean, means)[:, None] * means) / sum_norms[
        :, None
    ]
    g_v = Q @ g_sum
    feat_norms = np.linalg.norm(features, axis=1, keepdims=True)
    grad = (g_v - np.einsum("nd,nd->n", g_v, V)[:, None] * V) / feat_norms
    return value, grad


def con_loss(P: np.ndarray, Q: np.ndarray) -> tuple[float, np.ndarray]:
    """Cross-entropy from the clustering posterior (pseudo-label target) to
    the predicted probabilities: -(1/n) sum_i q_i . log p_i.

    Returns the gradient wrt the head logits, (P - Q) / n per row.
    """
    P = _check_prob_matrix(P)
    Q = np.asarray(Q, dtype=np.float64)
    if Q.shape != P.shape:
        raise DimensionMismatch(f"posterior {Q.shape} vs probabilities {P.shape}")
    n = P.shape[0]
    value = float(-(Q * np.log(np.maximum(P, PROB_FLOOR))).sum() / n)
    return value, (P - Q) / n
