import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_unit_rows, stale_workspace
from dgn import losses, movmf
from dgn.data import SparseLabels
from dgn.errors import (
    DimensionMismatch,
    EmptyLabelSet,
    InvalidBeta,
    SingleCluster,
)


def _labels(indices, classes):
    return SparseLabels(np.asarray(indices), np.asarray(classes))


def _rand_probs(rng, n, k):
    p = rng.dirichlet(np.ones(k), size=n)
    return p


# ---------------------------------------------------------------------------
# partial cross-entropy: a test oracle. dgn trains with the truncated form,
# which equals it at beta = 1.

def pce_loss(P, labels):
    """Partial cross-entropy over labeled points: -(1/m) sum log p_i^{y_i}.

    The gradient wrt P is zero on unlabeled rows.
    """
    P = losses._check_prob_matrix(P)
    p = losses._labeled_probs(P, labels)
    p_f = np.maximum(p, losses.PROB_FLOOR)
    value = float(-np.mean(np.log(p_f)))
    grad = np.zeros_like(P)
    m = labels.size
    grad[labels.indices, labels.classes] = np.where(
        p > losses.PROB_FLOOR, -1.0 / (m * p_f), 0.0
    )
    return value, grad


def test_pce_perfect_prediction_is_zero():
    P = np.array([[1.0, 0.0]])
    value, grad = pce_loss(P, _labels([0], [0]))
    assert value == 0.0
    assert grad[0, 1] == 0.0


def test_pce_half_probability():
    P = np.array([[0.5, 0.5]])
    value, _ = pce_loss(P, _labels([0], [0]))
    assert value == pytest.approx(math.log(2.0), abs=1e-12)


def test_pce_two_points_hand_value():
    P = np.array([[0.5, 0.5], [0.25, 0.75], [0.9, 0.1]])
    value, grad = pce_loss(P, _labels([0, 1], [0, 0]))
    assert value == pytest.approx((math.log(2) + math.log(4)) / 2, abs=1e-12)
    assert value == pytest.approx(1.03972, abs=1e-5)
    # unlabeled rows carry no gradient
    np.testing.assert_array_equal(grad[2], 0.0)


def test_pce_empty_labels_raises():
    with pytest.raises(EmptyLabelSet):
        pce_loss(np.ones((3, 2)) / 2, _labels([], []))


# ---------------------------------------------------------------------------
# truncated cross-entropy

def test_tce_truncation_active():
    P = np.array([[0.9, 0.1]])
    value, grad = losses.tce_loss(P, _labels([0], [0]), beta=0.8)
    assert value == pytest.approx(-math.log(0.8), abs=1e-12)
    assert value == pytest.approx(0.22314, abs=1e-5)
    assert grad[0, 0] == 0.0


def test_tce_truncation_inactive_matches_pce():
    P = np.array([[0.5, 0.5]])
    tval, tgrad = losses.tce_loss(P, _labels([0], [0]), beta=0.8)
    pval, pgrad = pce_loss(P, _labels([0], [0]))
    assert tval == pytest.approx(math.log(2.0), abs=1e-12)
    np.testing.assert_array_equal(tgrad, pgrad)
    assert tval == pval


def test_tce_beta_one_is_pce_bitwise(rng):
    P = _rand_probs(rng, 40, 5)
    labels = _labels(rng.choice(40, size=15, replace=False), rng.integers(0, 5, 15))
    tval, tgrad = losses.tce_loss(P, labels, beta=1.0)
    pval, pgrad = pce_loss(P, labels)
    assert tval == pval
    assert np.array_equal(tgrad, pgrad)


def test_tce_invalid_beta():
    P = np.ones((1, 2)) / 2
    for beta in (0.0, -0.1, 1.5):
        with pytest.raises(InvalidBeta):
            losses.tce_loss(P, _labels([0], [0]), beta)


def test_tce_per_point_contribution_floor(rng):
    # every per-point term is >= -log(beta): the cap is a lower bound
    beta = 0.8
    P = _rand_probs(rng, 30, 4)
    labels = _labels(np.arange(30), rng.integers(0, 4, 30))
    p = P[labels.indices, labels.classes]
    contributions = -np.minimum(np.log(p), math.log(beta))
    assert np.all(contributions >= -math.log(beta) - 1e-12)


def test_tce_gradient_vanishes_exactly_above_beta(rng):
    P = np.array([[0.85, 0.15], [0.7, 0.3], [0.80001, 0.19999]])
    _, grad = losses.tce_loss(P, _labels([0, 1, 2], [0, 0, 0]), beta=0.8)
    assert grad[0, 0] == 0.0
    assert grad[2, 0] == 0.0
    assert grad[1, 0] != 0.0


@pytest.mark.parametrize("seed", range(8))
def test_tce_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    n, k = 12, 4
    P = _rand_probs(rng, n, k)
    labels = _labels(rng.choice(n, size=6, replace=False), rng.integers(0, k, 6))
    _, grad = losses.tce_loss(P, labels, beta=0.8)
    step = 1e-7
    for idx, cls in zip(labels.indices, labels.classes):
        p = P[idx, cls]
        if abs(p - 0.8) < 10 * step:
            continue  # kink of the min; FD undefined there
        plus = P.copy(); plus[idx, cls] += step
        minus = P.copy(); minus[idx, cls] -= step
        fd = (losses.tce_loss(plus, labels, 0.8)[0]
              - losses.tce_loss(minus, labels, 0.8)[0]) / (2 * step)
        denom = max(abs(fd), abs(grad[idx, cls]), 1e-8)
        assert abs(fd - grad[idx, cls]) / denom < 1e-5


# ---------------------------------------------------------------------------
# spherical alignment loss

def _theta(alphas, kappa, means):
    return movmf.MoVMFParams(np.asarray(alphas, float), kappa, np.asarray(means, float))


def test_vmf_loss_single_aligned_cluster():
    f = np.array([[2.0, 0.0, 0.0]])  # normalizes onto the mean direction
    theta = _theta([1.0], 10.0, [[1.0, 0.0, 0.0]])
    value, _ = losses.vmf_loss(*movmf.unit_rows(f), np.array([[1.0]]), theta)
    assert value == pytest.approx(-10.0, abs=1e-12)


def test_vmf_loss_hand_derived():
    f = np.array([[3.0, 0.0]])
    theta = _theta([0.5, 0.5], 10.0, [[1.0, 0.0], [-1.0, 0.0]])
    value, _ = losses.vmf_loss(*movmf.unit_rows(f), np.full((1, 2), 0.5), theta)
    assert value == pytest.approx(-math.log(0.5), abs=1e-12)
    assert value == pytest.approx(0.69315, abs=1e-5)


def test_vmf_loss_is_exact_negation_of_objective(rng):
    F = rng.standard_normal((25, 6)) * 2.0
    theta = _theta(rng.dirichlet(np.ones(3)), 12.0, random_unit_rows(rng, 3, 6))
    Q = rng.dirichlet(np.ones(3), size=25)
    value, _ = losses.vmf_loss(*movmf.unit_rows(F), Q, theta)
    assert value == -movmf.movmf_objective(movmf.normalize_rows(F), Q, theta) / 25


@pytest.mark.parametrize("seed", range(8))
def test_vmf_gradient_through_normalization(seed):
    rng = np.random.default_rng(seed)
    n, d, k = 7, 5, 3
    F = rng.standard_normal((n, d)) * 1.5 + 0.2
    theta = _theta(rng.dirichlet(np.ones(k)), 9.0, random_unit_rows(rng, k, d))
    Q = rng.dirichlet(np.ones(k), size=n)
    _, grad = losses.vmf_loss(*movmf.unit_rows(F), Q, theta)
    step = 1e-5
    for _ in range(15):
        i, j = rng.integers(n), rng.integers(d)
        plus = F.copy(); plus[i, j] += step
        minus = F.copy(); minus[i, j] -= step
        fd = (losses.vmf_loss(*movmf.unit_rows(plus), Q, theta)[0]
              - losses.vmf_loss(*movmf.unit_rows(minus), Q, theta)[0]) / (2 * step)
        denom = max(abs(fd), abs(grad[i, j]), 1e-8)
        assert abs(fd - grad[i, j]) / denom < 1e-5


# ---------------------------------------------------------------------------
# discriminative loss

def test_dis_orthogonal_means_zero():
    theta = _theta([0.5, 0.5], 1.0, [[1.0, 0.0], [0.0, 1.0]])
    value = losses.dis_loss(theta.means)
    assert value == pytest.approx(0.0, abs=1e-15)


def test_dis_identical_means_one():
    theta = _theta([0.5, 0.5], 1.0, [[1.0, 0.0], [1.0, 0.0]])
    value = losses.dis_loss(theta.means)
    assert value == pytest.approx(1.0, abs=1e-12)


def test_dis_planar_120_degrees():
    angles = [0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0]
    means = np.array([[math.cos(a), math.sin(a)] for a in angles])
    theta = _theta([1 / 3] * 3, 1.0, means)
    value = losses.dis_loss(theta.means)
    assert value == pytest.approx(-0.5, abs=1e-12)


def test_dis_single_cluster_raises():
    with pytest.raises(SingleCluster):
        losses.dis_loss(np.array([[1.0, 0.0]]))


def test_dis_permutation_invariant(rng):
    means = random_unit_rows(rng, 5, 4)
    theta = _theta(np.full(5, 0.2), 3.0, means)
    base = losses.dis_loss(theta.means)
    perm = rng.permutation(5)
    shuffled = _theta(np.full(5, 0.2), 3.0, means[perm])
    value = losses.dis_loss(shuffled.means)
    assert value == pytest.approx(base, abs=1e-12)


def _unit_weighted_sums(F, Q):
    sums = Q.T @ (F / np.linalg.norm(F, axis=1, keepdims=True))
    return sums / np.linalg.norm(sums, axis=1, keepdims=True)


@pytest.mark.parametrize("seed", range(8))
def test_dis_through_means_gradient(seed):
    rng = np.random.default_rng(seed)
    n, d, k = 9, 4, 3
    F = rng.standard_normal((n, d)) * 1.3 + 0.1
    means = random_unit_rows(rng, k, d)
    live = rng.dirichlet(np.ones(k), size=n)
    # an empty cluster: its posterior column is all zero
    empty = live.copy()
    empty[:, 1] = 0.0
    empty /= empty.sum(axis=1, keepdims=True)
    for Q, held in ((live, []), (empty, [1])):
        value, grad = losses.dis_loss_through_means(*movmf.unit_rows(F), Q, means)
        expected = _unit_weighted_sums(F, np.delete(Q, held, axis=1))
        expected = np.insert(expected, held[0], means[held], axis=0) if held else expected
        assert value == pytest.approx(losses.dis_loss(expected), abs=1e-12)

        def value_at(feats):
            return losses.dis_loss_through_means(*movmf.unit_rows(feats), Q, means)[0]

        step = 1e-5
        for _ in range(15):
            i, j = rng.integers(n), rng.integers(d)
            plus = F.copy(); plus[i, j] += step
            minus = F.copy(); minus[i, j] -= step
            fd = (value_at(plus) - value_at(minus)) / (2 * step)
            denom = max(abs(fd), abs(grad[i, j]), 1e-8)
            assert abs(fd - grad[i, j]) / denom < 1e-4


def test_dis_through_means_cancelled_cluster_passes_nothing():
    # cluster 2 holds only two opposite points: its weighted sum vanishes,
    # so it keeps the fit's mean, and the points that feed only it get no
    # gradient through that mean
    F = np.array([[1.0, 0.2], [0.1, 1.0], [0.0, 2.0], [0.0, -2.0]])
    Q = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    means = np.array([[1.0, 0.0], [0.0, 1.0], [-0.6, 0.8]])
    value, grad = losses.dis_loss_through_means(*movmf.unit_rows(F), Q, means)
    held = np.vstack([_unit_weighted_sums(F[:2], Q[:2, :2]), means[2:]])
    assert value == pytest.approx(losses.dis_loss(held), abs=1e-12)
    np.testing.assert_array_equal(grad[2:], 0.0)
    assert np.all(np.abs(grad[:2]) > 0)


@pytest.mark.parametrize("loss", ["vmf", "dis"])
def test_zero_feature_row_has_finite_value_and_zero_gradient(rng, loss):
    F = rng.standard_normal((6, 4))
    F[2] = 0.0
    Q = rng.dirichlet(np.ones(3), size=6)
    theta = _theta(rng.dirichlet(np.ones(3)), 10.0, random_unit_rows(rng, 3, 4))
    if loss == "vmf":
        value, grad = losses.vmf_loss(*movmf.unit_rows(F), Q, theta)
    else:
        value, grad = losses.dis_loss_through_means(*movmf.unit_rows(F), Q, theta.means)
    assert math.isfinite(value) and np.all(np.isfinite(grad))
    np.testing.assert_array_equal(grad[2], 0.0)
    assert np.all(np.any(grad[[0, 1, 3, 4, 5]] != 0.0, axis=1))


# ---------------------------------------------------------------------------
# consistency loss

def test_con_matching_halves():
    P = np.array([[0.5, 0.5]])
    value, _ = losses.con_loss(P, P.copy())
    assert value == pytest.approx(math.log(2.0), abs=1e-12)


def test_con_one_hot_target_uniform_prediction():
    P = np.full((1, 4), 0.25)
    Q = np.array([[0.0, 1.0, 0.0, 0.0]])
    value, _ = losses.con_loss(P, Q)
    assert value == pytest.approx(math.log(4.0), abs=1e-12)


def test_con_two_points_average():
    P = np.array([[0.5, 0.5], [0.25, 0.75]])
    Q = np.array([[1.0, 0.0], [0.0, 1.0]])
    value, _ = losses.con_loss(P, Q)
    single0 = losses.con_loss(P[:1], Q[:1])[0]
    single1 = losses.con_loss(P[1:], Q[1:])[0]
    assert value == pytest.approx((single0 + single1) / 2.0, abs=1e-12)


def test_con_gradient_is_softmax_minus_target(rng):
    logits = rng.standard_normal((6, 3)) * 2.0
    from dgn.network import softmax

    P = softmax(logits)
    Q = rng.dirichlet(np.ones(3), size=6)
    _, grad = losses.con_loss(P, Q)
    np.testing.assert_allclose(grad, (P - Q) / 6.0, atol=1e-15)
    step = 1e-6
    for _ in range(10):
        i, j = rng.integers(6), rng.integers(3)
        plus = logits.copy(); plus[i, j] += step
        minus = logits.copy(); minus[i, j] -= step
        fd = (losses.con_loss(softmax(plus), Q)[0]
              - losses.con_loss(softmax(minus), Q)[0]) / (2 * step)
        assert fd == pytest.approx(grad[i, j], abs=1e-7)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 30), st.integers(2, 6), st.integers(0, 2**31 - 1))
def test_con_bounded_below_by_target_entropy(n, k, seed):
    # Gibbs inequality: cross-entropy >= entropy, equality iff P = Q
    rng = np.random.default_rng(seed)
    P = rng.dirichlet(np.ones(k), size=n)
    Q = rng.dirichlet(np.ones(k), size=n)
    value, _ = losses.con_loss(P, Q)
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = float(-np.nansum(Q * np.log(Q)) / n)
    assert value >= ent - 1e-9
    equal_value, _ = losses.con_loss(Q, Q)
    assert equal_value == pytest.approx(ent, abs=1e-9)


def test_con_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        losses.con_loss(np.ones((2, 3)) / 3, np.ones((2, 2)) / 2)


# ---------------------------------------------------------------------------
# workspace buffers: every loss gives the same bits with a stale workspace as
# without one, and the bits of the allocating form it replaced

def _old_through_unit(g, U, norms):
    tangent = g - np.einsum("nd,nd->n", g, U)[:, None] * U
    zero = norms <= movmf.ZERO_NORM
    return np.divide(tangent, norms, out=np.zeros_like(tangent), where=~zero)


def _old_unit_rows(F):
    norms = np.linalg.norm(F, axis=1, keepdims=True)
    zero = norms <= movmf.ZERO_NORM
    return np.divide(F, norms, out=np.zeros_like(F), where=~zero), norms


def _old_loss(name, F, P, Q, theta, labels):
    V, norms = _old_unit_rows(F)
    if name == "tce":
        return pce_loss(P, labels)
    if name == "vmf":
        n = F.shape[0]
        value = -float((Q * movmf.log_scores(V, theta)).sum(axis=1).sum()) / n
        return value, _old_through_unit((-theta.kappa / n) * (Q @ theta.means), V, norms)
    if name == "dis":
        U, sum_norms = _old_unit_rows(Q.T @ V)
        dead = sum_norms[:, 0] <= movmf.ZERO_NORM
        U[dead] = theta.means[dead]
        k = Q.shape[1]
        g_mean = 2.0 * (U.sum(axis=0)[None, :] - U) / (k * (k - 1))
        g_v = Q @ _old_through_unit(g_mean, U, sum_norms)
        return losses.dis_loss(U), _old_through_unit(g_v, V, norms)
    n = P.shape[0]
    return float(-(Q * np.log(np.maximum(P, losses.PROB_FLOOR))).sum() / n), (P - Q) / n


@pytest.mark.parametrize("name", ["tce", "vmf", "dis", "con"])
def test_losses_give_the_allocating_forms_bits_with_or_without_a_workspace(rng, name):
    n, d, k = 300, 5, 4
    F = rng.standard_normal((n, d))
    F[7] = 0.0  # a zero row passes a zero gradient
    P = _rand_probs(rng, n, k)
    P[3] = [1.0, 0.0, 0.0, 0.0]  # a probability below the floor
    Q = rng.dirichlet(np.ones(k), size=n)
    theta = _theta(rng.dirichlet(np.ones(k)), 7.0, random_unit_rows(rng, k, d))
    labels = _labels([0, 3, 9, 40], [0, 1, 2, 3])

    def call(workspace):
        if name == "tce":
            return losses.tce_loss(P, labels, 1.0, workspace)
        if name == "con":
            return losses.con_loss(P, Q, workspace)
        unit = movmf.unit_rows(F)
        if name == "vmf":
            return losses.vmf_loss(*unit, Q, theta, workspace)
        return losses.dis_loss_through_means(*unit, Q, theta.means, workspace)

    want_value, want_grad = _old_loss(name, F, P, Q, theta, labels)
    for workspace in (None, stale_workspace()):
        value, grad = call(workspace)
        assert value == want_value
        assert grad.shape == want_grad.shape and np.array_equal(grad, want_grad)
