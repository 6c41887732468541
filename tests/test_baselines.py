import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgn import baselines
from dgn.errors import DimensionMismatch
from dgn.movmf import EMConfig


def gmm_expected_objective(F, Q, params):
    """Q-weighted expected complete-data log-likelihood of the isotropic GMM
    (test oracle for the M step)."""
    F = np.asarray(F, dtype=np.float64)
    Q = np.asarray(Q, dtype=np.float64)
    if Q.shape != (F.shape[0], params.num_clusters):
        raise DimensionMismatch(
            f"posterior {Q.shape} != ({F.shape[0]}, {params.num_clusters})"
        )
    per_point = (Q * baselines._gmm_floored_scores(F, params)).sum(axis=1)
    return float(per_point.sum())


# ---------------------------------------------------------------------------
# prototype assignment

def _protos(metric):
    return baselines.PrototypeSet(metric, np.array([[1.0, 0.0], [0.0, 1.0]]))


def test_prototype_assign_euclidean():
    got = baselines.prototype_assign(np.array([[0.9, 0.1]]), _protos("euclidean"))
    assert got.tolist() == [0]


def test_prototype_assign_cosine():
    got = baselines.prototype_assign(np.array([[0.9, 0.1]]), _protos("cosine"))
    assert got.tolist() == [0]


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_prototype_assign_tie_breaks_low_index(metric):
    point = np.array([[1.0, 1.0]]) / math.sqrt(2.0)
    assert baselines.prototype_assign(point, _protos(metric)).tolist() == [0]


def test_prototype_assign_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        baselines.prototype_assign(np.ones((3, 3)), _protos("euclidean"))


def test_cosine_prototypes_must_be_unit():
    with pytest.raises(ValueError):
        baselines.PrototypeSet("cosine", np.array([[2.0, 0.0]]))


@settings(max_examples=40, deadline=None)
@given(st.floats(1e-3, 1e3), st.integers(0, 2**31 - 1))
def test_cosine_assignment_scale_invariant(scale, seed):
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((12, 4)) + 0.1
    protos = rng.standard_normal((3, 4))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)
    pset = baselines.PrototypeSet("cosine", protos)
    base = baselines.prototype_assign(F, pset)
    scaled = F.copy()
    scaled[3] *= scale
    assert baselines.prototype_assign(scaled, pset)[3] == base[3]


# ---------------------------------------------------------------------------
# GMM EM

def test_gmm_single_component_closed_form(rng):
    F = rng.standard_normal((60, 5)) * 1.7 + 3.0
    res = baselines.gmm_em(F, F[:1].copy(), EMConfig(30, 1e-12, 0.0))
    mean = F.mean(axis=0)
    np.testing.assert_allclose(res.params.means[0], mean, atol=1e-9)
    expected_var = float(np.mean(np.sum((F - mean) ** 2, axis=1))) / F.shape[1]
    assert res.params.variances[0] == pytest.approx(expected_var, rel=1e-9)
    np.testing.assert_array_equal(res.params.weights, [1.0])


def test_gmm_recovers_separated_blobs(rng):
    c0 = np.array([0.0, 0.0, 0.0])
    c1 = np.array([10.0, 0.0, 0.0])
    F = np.vstack([
        c0 + 0.5 * rng.standard_normal((150, 3)),
        c1 + 0.5 * rng.standard_normal((150, 3)),
    ])
    init = np.vstack([c0 + 0.3, c1 - 0.3])
    res = baselines.gmm_em(F, init, EMConfig(50, 1e-10, 0.0))
    assert np.linalg.norm(res.params.means[0] - F[:150].mean(axis=0)) < 0.05
    assert np.linalg.norm(res.params.means[1] - F[150:].mean(axis=0)) < 0.05
    assert res.converged


def test_gmm_symmetric_data_symmetric_responsibilities(rng):
    # mirror-symmetric data and init: responsibilities must mirror too
    right = np.array([3.0, 0.0]) + 0.4 * rng.standard_normal((80, 2))
    F = np.vstack([right, -right])
    init = np.array([[3.0, 0.0], [-3.0, 0.0]])
    res = baselines.gmm_em(F, init, EMConfig(20, 1e-12, 0.0))
    q = res.posterior
    np.testing.assert_allclose(q[:80, 0], q[80:, 1], atol=1e-9)
    np.testing.assert_allclose(res.params.weights, [0.5, 0.5], atol=1e-9)


def test_gmm_responsibilities_row_stochastic(rng):
    F = rng.standard_normal((70, 4))
    res = baselines.gmm_em(F, rng.standard_normal((5, 4)), EMConfig(10, 0.0, 0.0))
    np.testing.assert_allclose(res.posterior.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(res.posterior >= 0)


def test_gmm_variance_floored_on_duplicate_points():
    F = np.tile(np.array([[1.0, 2.0]]), (10, 1))
    res = baselines.gmm_em(F, np.array([[0.0, 0.0]]), EMConfig(10, 0.0, 0.0))
    assert res.params.variances[0] == pytest.approx(baselines.VARIANCE_FLOOR)


def test_gmm_needs_enough_points():
    with pytest.raises(DimensionMismatch):
        baselines.gmm_em(np.ones((2, 3)), np.ones((4, 3)), EMConfig(5, 0.0, 0.0))


def _gmm_incomplete_ll(F, params):
    # independent recomputation from the density formula
    d = F.shape[1]
    comps = []
    for c in range(params.num_clusters):
        diff = F - params.means[c]
        quad = np.sum(diff * diff, axis=1) / params.variances[c]
        comps.append(
            np.log(params.weights[c])
            - 0.5 * d * np.log(2.0 * np.pi * params.variances[c])
            - 0.5 * quad
        )
    scores = np.stack(comps, axis=1)
    m = scores.max(axis=1, keepdims=True)
    return float((m[:, 0] + np.log(np.exp(scores - m).sum(axis=1))).sum())


@pytest.mark.parametrize("seed", range(15))
def test_gmm_em_ascends_incomplete_log_likelihood(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 200))
    d = int(rng.integers(2, 6))
    k = int(rng.integers(1, 5))
    F = rng.standard_normal((n, d)) * rng.uniform(0.5, 3.0) + rng.standard_normal(d)
    init = F[rng.choice(n, size=k, replace=False)]

    prev = None
    for iters in range(1, 9):
        res = baselines.gmm_em(F, init, EMConfig(iters, 0.0, 0.0))
        ll = _gmm_incomplete_ll(F, res.params)
        if prev is not None:
            assert ll >= prev - 1e-9
        prev = ll


@pytest.mark.parametrize("seed", range(15))
def test_gmm_m_step_improves_expected_objective(seed):
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((80, 3)) * 2.0
    init = F[rng.choice(80, size=3, replace=False)]
    before = baselines.gmm_em(F, init, EMConfig(1, 0.0, 0.0))
    q = baselines.gmm_posterior(F, before.params)
    after = baselines.gmm_em(F, init, EMConfig(2, 0.0, 0.0))
    assert gmm_expected_objective(F, q, after.params) >= (
        gmm_expected_objective(F, q, before.params) - 1e-9
    )


# ---------------------------------------------------------------------------
# GMM alignment loss

def test_gmm_nll_at_component_mean():
    d = 6
    params = baselines.GMMParams(
        np.array([1.0]), np.zeros((1, d)), np.array([1.0])
    )
    value, _ = baselines.gmm_nll_loss(np.zeros((1, d)), np.array([[1.0]]), params)
    assert value == pytest.approx(0.5 * d * math.log(2.0 * math.pi), abs=1e-12)


def test_gmm_nll_quadratic_term_scales():
    d = 3
    params = baselines.GMMParams(np.array([1.0]), np.zeros((1, d)), np.array([1.0]))
    q = np.array([[1.0]])
    base, _ = baselines.gmm_nll_loss(np.zeros((1, d)), q, params)
    delta = np.array([[0.7, 0.0, 0.0]])
    near, _ = baselines.gmm_nll_loss(delta, q, params)
    far, _ = baselines.gmm_nll_loss(2.0 * delta, q, params)
    assert far - base == pytest.approx(4.0 * (near - base), rel=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_gmm_nll_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    n, d, k = 6, 4, 3
    F = rng.standard_normal((n, d)) * 1.5
    q = rng.dirichlet(np.ones(k), size=n)
    params = baselines.GMMParams(
        rng.dirichlet(np.ones(k)),
        rng.standard_normal((k, d)),
        rng.uniform(0.3, 2.0, size=k),
    )
    _, grad = baselines.gmm_nll_loss(F, q, params)
    step = 1e-5
    for _ in range(12):
        i, j = rng.integers(n), rng.integers(d)
        plus = F.copy(); plus[i, j] += step
        minus = F.copy(); minus[i, j] -= step
        fd = (baselines.gmm_nll_loss(plus, q, params)[0]
              - baselines.gmm_nll_loss(minus, q, params)[0]) / (2 * step)
        denom = max(abs(fd), abs(grad[i, j]), 1e-8)
        assert abs(fd - grad[i, j]) / denom < 1e-5
