import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import perturb_direction, random_unit_rows
from dgn import movmf
from dgn.errors import DimensionMismatch, NonUnitInput, ZeroVectorRow


# ---------------------------------------------------------------------------
# normalize_rows

def test_normalize_345_triangle():
    out = movmf.normalize_rows(np.array([[3.0, 4.0]]))
    np.testing.assert_allclose(out, [[0.6, 0.8]], rtol=0, atol=1e-15)


def test_normalize_axis_vectors():
    out = movmf.normalize_rows(np.array([[1.0, 0.0], [0.0, 2.0]]))
    np.testing.assert_array_equal(out, [[1.0, 0.0], [0.0, 1.0]])


def test_normalize_zero_row_raises_with_index():
    with pytest.raises(ZeroVectorRow) as err:
        movmf.normalize_rows(np.array([[0.0, 0.0]]))
    assert err.value.index == 0


def test_normalize_reports_first_bad_row():
    with pytest.raises(ZeroVectorRow) as err:
        movmf.normalize_rows(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]))
    assert err.value.index == 1


# ---------------------------------------------------------------------------
# vmf_log_density and the normalization constant

def test_log_density_aligned():
    u = np.array([1.0, 0.0, 0.0])
    assert movmf.vmf_log_density(u, u, 10.0) == pytest.approx(10.0, abs=1e-12)


def test_log_density_orthogonal():
    v = np.array([0.0, 1.0, 0.0])
    u = np.array([1.0, 0.0, 0.0])
    assert movmf.vmf_log_density(v, u, 10.0) == pytest.approx(0.0, abs=1e-12)


def test_log_density_rejects_off_sphere():
    u = np.array([1.0, 0.0, 0.0])
    with pytest.raises(NonUnitInput):
        movmf.vmf_log_density(1.001 * u, u, 1.0)
    with pytest.raises(NonUnitInput):
        movmf.vmf_log_density(u, 0.99 * u, 1.0)


def test_log_density_with_constant_integrates_to_one_on_2sphere():
    # independent oracle: quadrature of the density over S^2 must give 1
    u = np.array([1.0, 0.0, 0.0])
    kappa = 1.0
    log_c = movmf.vmf_log_density(u, u, kappa, include_const=True) - kappa

    def integrand(theta):
        return math.exp(log_c + kappa * math.cos(theta)) * 2.0 * math.pi * math.sin(theta)

    total, _ = quad(integrand, 0.0, math.pi)
    assert total == pytest.approx(1.0, abs=1e-10)
    # closed form for d = 3: C_3(k) = k / (4 pi sinh k)
    assert log_c == pytest.approx(-math.log(4.0 * math.pi * math.sinh(1.0)), abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
@pytest.mark.parametrize("kappa", [0.0, 0.5, 10.0, 200.0])
def test_log_norm_const_continuous_and_finite(d, kappa):
    value = movmf.log_norm_const(kappa, d)
    assert np.isfinite(value)
    if kappa == 0.0:
        # reciprocal surface area of the unit sphere
        area = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
        assert value == pytest.approx(-math.log(area), abs=1e-12)


def test_log_norm_const_small_kappa_limit():
    assert movmf.log_norm_const(1e-9, 4) == pytest.approx(
        movmf.log_norm_const(0.0, 4), abs=1e-6
    )


# ---------------------------------------------------------------------------
# posterior

def _theta(alphas, kappa, means):
    return movmf.MoVMFParams(np.asarray(alphas, float), kappa, np.asarray(means, float))


def test_posterior_hand_derived():
    theta = _theta([0.5, 0.5], 1.0, [[1, 0, 0], [0, 1, 0]])
    q = movmf.posterior(np.array([[1.0, 0.0, 0.0]]), theta)
    e = math.e
    np.testing.assert_allclose(q, [[e / (1 + e), 1 / (1 + e)]], atol=1e-9)
    np.testing.assert_allclose(q, [[0.73106, 0.26894]], atol=1e-5)


def test_posterior_identical_means_symmetric(rng):
    u = np.array([0.0, 0.0, 1.0])
    theta = _theta([0.5, 0.5], 7.3, [u, u])
    V = random_unit_rows(rng, 20, 3)
    np.testing.assert_allclose(movmf.posterior(V, theta), 0.5, atol=1e-12)


def test_posterior_kappa_zero_equals_alphas_bitwise(rng):
    alphas = np.array([0.5, 0.25, 0.25])
    theta = _theta(alphas, 0.0, random_unit_rows(rng, 3, 4))
    q = movmf.posterior(random_unit_rows(rng, 11, 4), theta)
    assert np.array_equal(q, np.tile(alphas, (11, 1)))


def test_posterior_bitwise_equals_reference(rng):
    # the one-buffer evaluation does the same float operations as this
    # allocating form, so the results must agree bit for bit
    alphas = np.array([0.1, 0.0, 0.3, 0.2, 0.15, 0.05, 0.12, 0.08])
    theta = _theta(alphas, 10.0, random_unit_rows(rng, 8, 16))
    V = random_unit_rows(rng, 500, 16)
    with np.errstate(divide="ignore"):
        scores = np.log(alphas)[None, :] + theta.kappa * (V @ theta.means.T)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    assert np.array_equal(movmf.posterior(V, theta), e / e.sum(axis=1, keepdims=True))


def test_posterior_dimension_mismatch():
    theta = _theta([1.0], 1.0, [[1.0, 0.0]])
    with pytest.raises(DimensionMismatch):
        movmf.posterior(np.array([[1.0, 0.0, 0.0]]), theta)


def test_posterior_stable_at_huge_kappa(rng):
    # exp(kappa * dot) would overflow without log-space evaluation
    theta = _theta([0.3, 0.7], 5000.0, random_unit_rows(rng, 2, 6))
    q = movmf.posterior(random_unit_rows(rng, 40, 6), theta)
    assert np.all(np.isfinite(q))
    np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 40), st.integers(2, 8), st.integers(1, 6),
       st.floats(0.0, 80.0), st.integers(0, 2**31 - 1))
def test_posterior_rows_stochastic_property(n, d, k, kappa, seed):
    rng = np.random.default_rng(seed)
    alphas = rng.dirichlet(np.ones(k))
    alphas = alphas / alphas.sum()
    theta = _theta(alphas, kappa, random_unit_rows(rng, k, d))
    q = movmf.posterior(random_unit_rows(rng, n, d), theta)
    assert np.all(q >= 0) and np.all(q <= 1)
    np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-9)


# ---------------------------------------------------------------------------
# objective

def test_objective_single_cluster_aligned():
    v = np.array([[1.0, 0.0, 0.0]])
    theta = _theta([1.0], 10.0, v)
    q = np.array([[1.0]])
    assert movmf.movmf_objective(v, q, theta) == pytest.approx(10.0, abs=1e-12)


def test_objective_hand_derived_two_clusters():
    v = np.array([[1.0, 0.0]])
    theta = _theta([0.5, 0.5], 10.0, [[1.0, 0.0], [-1.0, 0.0]])
    q = np.full((1, 2), 0.5)
    expected = 0.5 * (math.log(0.5) + 10) + 0.5 * (math.log(0.5) - 10)
    assert movmf.movmf_objective(v, q, theta) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(math.log(0.5), abs=1e-12)


def test_objective_one_hot_equals_hard_objective_bitwise(rng):
    V = random_unit_rows(rng, 50, 5)
    theta = _theta(rng.dirichlet(np.ones(4)), 8.0, random_unit_rows(rng, 4, 5))
    labels = rng.integers(0, 4, size=50)
    soft = movmf.movmf_objective(V, movmf.one_hot(labels, 4), theta)
    hard = movmf.movmf_hard_objective(V, labels, theta)
    assert soft == hard


# ---------------------------------------------------------------------------
# EM

def test_soft_em_single_cluster_fixed_point():
    v = np.array([0.6, 0.8])
    V = np.tile(v, (10, 1))
    res = movmf.soft_movmf_em(V, np.array([[0.0, 1.0]]), movmf.EMConfig(5, 1e-9, 10.0))
    np.testing.assert_allclose(res.params.means, [v], atol=1e-12)
    np.testing.assert_array_equal(res.posterior, np.ones((10, 1)))
    np.testing.assert_allclose(res.params.alphas, [1.0], atol=0)


def test_soft_em_zero_iters_returns_init(rng):
    V = random_unit_rows(rng, 30, 4)
    init = random_unit_rows(rng, 3, 4)
    res = movmf.soft_movmf_em(V, init, movmf.EMConfig(0, 1e-6, 5.0))
    np.testing.assert_array_equal(res.params.means, init)
    np.testing.assert_allclose(res.params.alphas, 1.0 / 3.0, atol=1e-15)
    expected_q = movmf.posterior(V, res.params)
    np.testing.assert_array_equal(res.posterior, expected_q)
    np.testing.assert_array_equal(res.assignment, np.argmax(expected_q, axis=1))
    assert res.iterations == 0 and not res.converged


def test_soft_em_recovers_two_orthogonal_components(rng):
    # generate-and-fit oracle with the vMF sampler
    u0 = np.zeros(6); u0[0] = 1.0
    u1 = np.zeros(6); u1[1] = 1.0
    V = np.vstack([
        movmf.sample_vmf(u0, 50.0, 200, seed=11),
        movmf.sample_vmf(u1, 50.0, 200, seed=12),
    ])
    init = np.vstack([
        perturb_direction(rng, u0, 0.15),
        perturb_direction(rng, u1, 0.15),
    ])
    res = movmf.soft_movmf_em(V, init, movmf.EMConfig(50, 1e-9, 50.0))
    assert res.params.means[0] @ u0 > 0.99
    assert res.params.means[1] @ u1 > 0.99
    np.testing.assert_allclose(res.params.alphas, 0.5, atol=0.05)


def test_soft_em_means_unit_alphas_stochastic(rng):
    V = random_unit_rows(rng, 120, 5)
    res = movmf.soft_movmf_em(
        V, random_unit_rows(rng, 4, 5), movmf.EMConfig(10, 0.0, 12.0)
    )
    np.testing.assert_allclose(np.linalg.norm(res.params.means, axis=1), 1.0, atol=1e-9)
    assert res.params.alphas.sum() == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(res.posterior.sum(axis=1), 1.0, atol=1e-9)


def test_soft_em_degenerate_cluster_keeps_mean():
    # antipodal points assigned evenly cancel the weighted sum for both
    # clusters at kappa = 0 (posterior stays uniform with symmetric init)
    V = np.array([[1.0, 0.0], [-1.0, 0.0]])
    init = np.array([[0.0, 1.0], [0.0, -1.0]])
    res = movmf.soft_movmf_em(V, init, movmf.EMConfig(3, 1e-12, 0.0))
    assert res.degenerate == (0, 1)
    np.testing.assert_array_equal(res.params.means, init)


def test_hard_em_single_cluster_sample_mean(rng):
    V = random_unit_rows(rng, 25, 3)
    res = movmf.hard_movmf_em(V, np.array([[1.0, 0.0, 0.0]]), movmf.EMConfig(4, 1e-9, 5.0))
    mean = V.sum(axis=0)
    mean /= np.linalg.norm(mean)
    np.testing.assert_allclose(res.params.means, [mean], atol=1e-12)


def test_hard_em_matches_soft_on_separable_data(rng):
    u0 = np.array([1.0, 0.0, 0.0])
    u1 = np.array([0.0, 0.0, 1.0])
    V = np.vstack([
        movmf.sample_vmf(u0, 80.0, 150, seed=3),
        movmf.sample_vmf(u1, 80.0, 150, seed=4),
    ])
    init = np.vstack([perturb_direction(rng, u0, 0.1), perturb_direction(rng, u1, 0.1)])
    cfg = movmf.EMConfig(30, 1e-10, 40.0)
    soft = movmf.soft_movmf_em(V, init, cfg)
    hard = movmf.hard_movmf_em(V, init, cfg)
    np.testing.assert_array_equal(soft.assignment, hard.assignment)
    assert np.array_equal(hard.posterior, movmf.one_hot(hard.assignment, 2))


def test_hard_em_tie_breaks_to_lower_index():
    # the point is exactly equidistant from both init means
    V = np.array([[1.0, 0.0]])
    init = np.array([
        [np.sqrt(0.5), np.sqrt(0.5)],
        [np.sqrt(0.5), -np.sqrt(0.5)],
    ])
    res = movmf.hard_movmf_em(V, init, movmf.EMConfig(0, 1e-9, 10.0))
    assert res.assignment[0] == 0


def test_hard_em_empty_cluster_flagged(rng):
    V = movmf.sample_vmf(np.array([1.0, 0.0, 0.0]), 100.0, 50, seed=5)
    init = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    res = movmf.hard_movmf_em(V, init, movmf.EMConfig(5, 1e-10, 50.0))
    assert 1 in res.degenerate
    np.testing.assert_allclose(res.params.means[1], [-1.0, 0.0, 0.0], atol=1e-12)
    assert res.params.alphas[1] == 0.0


# ---------------------------------------------------------------------------
# EM progress guarantees

def _random_instance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 501))
    d = int(rng.integers(2, 17))
    k = int(rng.integers(1, 9))
    kappa = float(rng.uniform(0.5, 60.0))
    return random_unit_rows(rng, n, d), random_unit_rows(rng, k, d), kappa


@pytest.mark.parametrize("seed", range(25))
def test_m_step_never_decreases_objective(seed):
    # Dempster guarantee: the M step maximizes the expected complete-data
    # objective at fixed posteriors
    V, means, kappa = _random_instance(seed)
    k = means.shape[0]
    theta = movmf.MoVMFParams(np.full(k, 1.0 / k), kappa, means)
    for _ in range(8):
        q = movmf.posterior(V, theta)
        before = movmf.movmf_objective(V, q, theta)
        alphas, new_means, _ = movmf.m_step(V, q, theta.means)
        theta = movmf.MoVMFParams(alphas / alphas.sum(), kappa, new_means)
        after = movmf.movmf_objective(V, q, theta)
        assert after >= before - 1e-9


@pytest.mark.parametrize("seed", range(25))
def test_incomplete_log_likelihood_non_decreasing(seed):
    # the classical EM ascent property
    V, means, kappa = _random_instance(seed)
    k = means.shape[0]
    theta = movmf.MoVMFParams(np.full(k, 1.0 / k), kappa, means)
    prev = movmf.incomplete_log_likelihood(V, theta)
    for _ in range(8):
        q = movmf.posterior(V, theta)
        alphas, new_means, _ = movmf.m_step(V, q, theta.means)
        theta = movmf.MoVMFParams(alphas / alphas.sum(), kappa, new_means)
        ll = movmf.incomplete_log_likelihood(V, theta)
        assert ll >= prev - 1e-9
        prev = ll


@pytest.mark.xfail(
    strict=True,
    reason="The expected complete-data objective evaluated at the post-"
    "iteration pair (Q_k, Theta_k) is not monotone across iterations: the "
    "E step can raise posterior entropy faster than the score gain. "
    "Roughly 1 in 10 random instances shows a real decrease (up to ~0.7 "
    "in magnitude). The monotone EM quantities are the incomplete-data "
    "log-likelihood and the per-iteration M-step improvement, both "
    "asserted above.",
)
def test_cross_iteration_objective_sequence_is_monotone():
    for seed in range(100):
        V, means, kappa = _random_instance(seed)
        k = means.shape[0]
        theta = movmf.MoVMFParams(np.full(k, 1.0 / k), kappa, means)
        prev = None
        for _ in range(10):
            q = movmf.posterior(V, theta)
            alphas, new_means, _ = movmf.m_step(V, q, theta.means)
            theta = movmf.MoVMFParams(alphas / alphas.sum(), kappa, new_means)
            value = movmf.movmf_objective(V, q, theta)
            if prev is not None:
                assert value >= prev - 1e-9
            prev = value


# ---------------------------------------------------------------------------
# sampler

def test_sampler_uniform_at_kappa_zero():
    X = movmf.sample_vmf(np.array([0.0, 0.0, 1.0]), 0.0, 10000, seed=7)
    np.testing.assert_allclose(np.linalg.norm(X, axis=1), 1.0, atol=1e-12)
    assert np.linalg.norm(X.mean(axis=0)) < 0.1


def test_sampler_concentrates_at_large_kappa():
    u = np.array([0.0, 1.0, 0.0, 0.0])
    X = movmf.sample_vmf(u, 200.0, 1000, seed=8)
    mean = X.mean(axis=0)
    mean /= np.linalg.norm(mean)
    assert 1.0 - mean @ u < 0.02


def test_sampler_deterministic():
    u = np.array([0.6, 0.8])
    a = movmf.sample_vmf(u, 25.0, 64, seed=123)
    b = movmf.sample_vmf(u, 25.0, 64, seed=123)
    np.testing.assert_array_equal(a, b)


def test_sampler_2d_supported():
    X = movmf.sample_vmf(np.array([1.0, 0.0]), 30.0, 500, seed=9)
    np.testing.assert_allclose(np.linalg.norm(X, axis=1), 1.0, atol=1e-12)
    assert X[:, 0].mean() > 0.9
