import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaln, ive

from conftest import perturb_direction, random_unit_rows, stale_workspace
from dgn import baselines, movmf
from dgn.errors import DegenerateRow, DimensionMismatch, NonUnitInput, ZeroVectorRow


# ---------------------------------------------------------------------------
# test oracles: the vMF density with its normalising constant, the hard and
# the observed-data objectives, a sampler, the posterior of given params
# and the point-major EM loop. dgn never needs them: with a shared kappa
# the constant cancels in the posterior, EM is checked against the
# objectives and the loop, and synthetic data comes from data.gen_scene.

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
    if kappa <= movmf.ZERO_NORM:
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
        if abs(float(np.linalg.norm(vec)) - 1.0) > movmf.UNIT_ATOL:
            raise NonUnitInput(f"{name} has norm {np.linalg.norm(vec)!r}")
    out = kappa * float(u @ v)
    if include_const:
        out += log_norm_const(kappa, v.shape[0])
    return out


def movmf_hard_objective(V, labels, theta):
    """Complete-data log-likelihood of a hard assignment (same constant
    omitted as in ``movmf.movmf_objective``)."""
    V = np.asarray(V, dtype=np.float64)
    labels = np.asarray(labels)
    if labels.shape != (V.shape[0],):
        raise DimensionMismatch(f"labels shape {labels.shape} != ({V.shape[0]},)")
    scores = movmf.log_scores(V, theta)
    return float(scores[np.arange(V.shape[0]), labels].sum())


def incomplete_log_likelihood(V, theta):
    """Observed-data log-likelihood sum_i log sum_c alpha_c exp(kappa u_c.v_i),
    up to the same kappa-only constant omitted everywhere else. This is the
    quantity EM is guaranteed not to decrease."""
    V = np.asarray(V, dtype=np.float64)
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
    if abs(float(np.linalg.norm(u)) - 1.0) > movmf.UNIT_ATOL:
        raise NonUnitInput(f"u has norm {np.linalg.norm(u)!r}")
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    if n < 1:
        raise ValueError("n must be >= 1")

    d = u.shape[0]
    rng = np.random.default_rng(seed)
    if kappa == 0.0:
        x = rng.standard_normal((n, d))
        return movmf.normalize_rows(x)

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
    if norm > movmf.ZERO_NORM:
        axis /= norm
        samples = samples - 2.0 * np.outer(samples @ axis, axis)
    return samples


def posterior(V, theta):
    """Soft assignment of each embedding to each mixture component, (n, k),
    C-contiguous: dgn's cluster-major E step at the given params."""
    V = np.asarray(V, dtype=np.float64)
    movmf._check_dims(V, theta)
    n, k = V.shape[0], theta.num_clusters
    return movmf._posterior(V, theta.means, theta.kappa, theta.alphas, np.empty((n, k)))


def reference_posterior(V, theta):
    """The point-major (n, k) posterior: scores from V @ means.T, then a row
    softmax with the row max taken column by column."""
    V = np.asarray(V, dtype=np.float64)
    alphas = theta.alphas
    total = float(alphas.sum())
    if not np.any(alphas > 0) or total <= 0:
        raise DegenerateRow("all mixture weights are zero")
    if theta.kappa == 0.0:
        return np.tile(alphas / total, (V.shape[0], 1))
    with np.errstate(divide="ignore"):
        q = V @ theta.means.T
        q *= theta.kappa
        q += np.log(alphas)
    z = q - np.maximum.reduce(tuple(q.T))[:, None]
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def m_step(V, Q, prev_means):
    """Maximization step from an (n, k) posterior.

    alpha_c is the mean posterior mass, u_c the normalized Q-weighted
    embedding sum. Clusters whose weighted sum has norm <= 1e-12 keep
    their previous mean and are reported in the returned list.
    """
    alphas = Q.mean(axis=0)
    sums = Q.T @ V
    norms = np.linalg.norm(sums, axis=1)
    degenerate = [int(c) for c in np.flatnonzero(norms <= movmf.ZERO_NORM)]
    means = prev_means.copy()
    ok = norms > movmf.ZERO_NORM
    means[ok] = sums[ok] / norms[ok, None]
    return alphas, means, degenerate


def reference_em(V, init_means, cfg, hard):
    """The point-major EM loop: one posterior, one_hot, m_step and
    validated MoVMFParams per iteration."""
    V = np.asarray(V, dtype=np.float64)
    k = init_means.shape[0]
    theta = movmf.MoVMFParams(np.full(k, 1.0 / k), cfg.kappa, init_means)
    degenerate = set()
    iterations = 0
    converged = False
    for _ in range(cfg.max_iters):
        q = reference_posterior(V, theta)
        if hard:
            q = movmf.one_hot(np.argmax(q, axis=1), k)
        alphas, means, degen = m_step(V, q, theta.means)
        degenerate.update(degen)
        alphas = alphas / alphas.sum()
        shift = float(np.max(1.0 - np.einsum("cd,cd->c", means, theta.means)))
        theta = movmf.MoVMFParams(alphas, cfg.kappa, means)
        iterations += 1
        if shift < cfg.tol:
            converged = True
            break
    q = reference_posterior(V, theta)
    if hard:
        q = movmf.one_hot(np.argmax(q, axis=1), k)
    return movmf.EMResult(q, theta, iterations, converged, tuple(sorted(degenerate)))


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


@pytest.mark.parametrize("rows", [
    np.empty((0, 3)),
    np.eye(3),
    np.array([[1.0 + 1e-9, 0.0]]),
    np.array([[1.0 + 2e-9, 0.0]]),
    np.array([[1.0, 0.0], [np.nan, 0.0]]),
    np.array([[np.inf, 0.0]]),
    np.array([[0.0, 0.0]]),
    np.array([[0.6, 0.8], [1.0 - 1e-12, 0.0]]),
], ids=["empty", "eye", "at-atol", "past-atol", "nan", "inf", "zero", "close"])
def test_unit_row_check_accepts_what_allclose_accepts(rows):
    want = np.allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-9, rtol=0.0)
    assert movmf._has_unit_rows(rows) == want


# ---------------------------------------------------------------------------
# vmf_log_density and the normalization constant

def test_log_density_aligned():
    u = np.array([1.0, 0.0, 0.0])
    assert vmf_log_density(u, u, 10.0) == pytest.approx(10.0, abs=1e-12)


def test_log_density_orthogonal():
    v = np.array([0.0, 1.0, 0.0])
    u = np.array([1.0, 0.0, 0.0])
    assert vmf_log_density(v, u, 10.0) == pytest.approx(0.0, abs=1e-12)


def test_log_density_rejects_off_sphere():
    u = np.array([1.0, 0.0, 0.0])
    with pytest.raises(NonUnitInput):
        vmf_log_density(1.001 * u, u, 1.0)
    with pytest.raises(NonUnitInput):
        vmf_log_density(u, 0.99 * u, 1.0)


def test_log_density_with_constant_integrates_to_one_on_2sphere():
    # independent oracle: quadrature of the density over S^2 must give 1
    u = np.array([1.0, 0.0, 0.0])
    kappa = 1.0
    log_c = vmf_log_density(u, u, kappa, include_const=True) - kappa

    def integrand(theta):
        return math.exp(log_c + kappa * math.cos(theta)) * 2.0 * math.pi * math.sin(theta)

    total, _ = quad(integrand, 0.0, math.pi)
    assert total == pytest.approx(1.0, abs=1e-10)
    # closed form for d = 3: C_3(k) = k / (4 pi sinh k)
    assert log_c == pytest.approx(-math.log(4.0 * math.pi * math.sinh(1.0)), abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
@pytest.mark.parametrize("kappa", [0.0, 0.5, 10.0, 200.0])
def test_log_norm_const_continuous_and_finite(d, kappa):
    value = log_norm_const(kappa, d)
    assert np.isfinite(value)
    if kappa == 0.0:
        # reciprocal surface area of the unit sphere
        area = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
        assert value == pytest.approx(-math.log(area), abs=1e-12)


def test_log_norm_const_small_kappa_limit():
    assert log_norm_const(1e-9, 4) == pytest.approx(
        log_norm_const(0.0, 4), abs=1e-6
    )


# ---------------------------------------------------------------------------
# posterior

def _theta(alphas, kappa, means):
    return movmf.MoVMFParams(np.asarray(alphas, float), kappa, np.asarray(means, float))


def test_posterior_hand_derived():
    theta = _theta([0.5, 0.5], 1.0, [[1, 0, 0], [0, 1, 0]])
    q = posterior(np.array([[1.0, 0.0, 0.0]]), theta)
    e = math.e
    np.testing.assert_allclose(q, [[e / (1 + e), 1 / (1 + e)]], atol=1e-9)
    np.testing.assert_allclose(q, [[0.73106, 0.26894]], atol=1e-5)


def test_posterior_identical_means_symmetric(rng):
    u = np.array([0.0, 0.0, 1.0])
    theta = _theta([0.5, 0.5], 7.3, [u, u])
    V = random_unit_rows(rng, 20, 3)
    np.testing.assert_allclose(posterior(V, theta), 0.5, atol=1e-12)


def test_posterior_kappa_zero_equals_alphas_bitwise(rng):
    alphas = np.array([0.5, 0.25, 0.25])
    theta = _theta(alphas, 0.0, random_unit_rows(rng, 3, 4))
    q = posterior(random_unit_rows(rng, 11, 4), theta)
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
    assert np.array_equal(posterior(V, theta), e / e.sum(axis=1, keepdims=True))


def test_posterior_dimension_mismatch():
    theta = _theta([1.0], 1.0, [[1.0, 0.0]])
    with pytest.raises(DimensionMismatch):
        posterior(np.array([[1.0, 0.0, 0.0]]), theta)


def test_posterior_stable_at_huge_kappa(rng):
    # exp(kappa * dot) would overflow without log-space evaluation
    theta = _theta([0.3, 0.7], 5000.0, random_unit_rows(rng, 2, 6))
    q = posterior(random_unit_rows(rng, 40, 6), theta)
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
    q = posterior(random_unit_rows(rng, n, d), theta)
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


def test_one_hot_into_a_used_buffer_equals_a_fresh_one(rng):
    labels = rng.integers(0, 5, 300)
    out = np.full((300, 5), np.nan)
    assert movmf.one_hot(labels, 5, out=out) is out
    assert out.tobytes() == movmf.one_hot(labels, 5).tobytes()


def test_objective_one_hot_equals_hard_objective_bitwise(rng):
    V = random_unit_rows(rng, 50, 5)
    theta = _theta(rng.dirichlet(np.ones(4)), 8.0, random_unit_rows(rng, 4, 5))
    labels = rng.integers(0, 4, size=50)
    soft = movmf.movmf_objective(V, movmf.one_hot(labels, 4), theta)
    hard = movmf_hard_objective(V, labels, theta)
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
    expected_q = posterior(V, res.params)
    np.testing.assert_array_equal(res.posterior, expected_q)
    assert res.iterations == 0 and not res.converged


def test_soft_em_recovers_two_orthogonal_components(rng):
    # generate-and-fit oracle with the vMF sampler
    u0 = np.zeros(6); u0[0] = 1.0
    u1 = np.zeros(6); u1[1] = 1.0
    V = np.vstack([
        sample_vmf(u0, 50.0, 200, seed=11),
        sample_vmf(u1, 50.0, 200, seed=12),
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
        sample_vmf(u0, 80.0, 150, seed=3),
        sample_vmf(u1, 80.0, 150, seed=4),
    ])
    init = np.vstack([perturb_direction(rng, u0, 0.1), perturb_direction(rng, u1, 0.1)])
    cfg = movmf.EMConfig(30, 1e-10, 40.0)
    soft = movmf.soft_movmf_em(V, init, cfg)
    hard = movmf.hard_movmf_em(V, init, cfg)
    labels = np.argmax(hard.posterior, axis=1)
    np.testing.assert_array_equal(np.argmax(soft.posterior, axis=1), labels)
    assert np.array_equal(hard.posterior, movmf.one_hot(labels, 2))


def test_hard_em_tie_breaks_to_lower_index():
    # the point is exactly equidistant from both init means
    V = np.array([[1.0, 0.0]])
    init = np.array([
        [np.sqrt(0.5), np.sqrt(0.5)],
        [np.sqrt(0.5), -np.sqrt(0.5)],
    ])
    res = movmf.hard_movmf_em(V, init, movmf.EMConfig(0, 1e-9, 10.0))
    assert res.posterior.tolist() == [[1.0, 0.0]]


def test_hard_em_empty_cluster_flagged(rng):
    V = sample_vmf(np.array([1.0, 0.0, 0.0]), 100.0, 50, seed=5)
    init = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    res = movmf.hard_movmf_em(V, init, movmf.EMConfig(5, 1e-10, 50.0))
    assert 1 in res.degenerate
    np.testing.assert_allclose(res.params.means[1], [-1.0, 0.0, 0.0], atol=1e-12)
    assert res.params.alphas[1] == 0.0


# ---------------------------------------------------------------------------
# the cluster-major EM against the point-major loop, bit for bit

EM_FITS = {"soft": movmf.soft_movmf_em, "hard": movmf.hard_movmf_em}


def _fit_or_error(fit, V, init, cfg):
    try:
        return fit(V, init, cfg)
    except Exception as exc:   # compared by type and message
        return exc


def assert_same_fit(V, init, cfg, variant):
    got = _fit_or_error(EM_FITS[variant], V, init, cfg)
    want = _fit_or_error(lambda *a: reference_em(*a, hard=variant == "hard"), V, init, cfg)
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return got
    assert got.posterior.flags.c_contiguous and got.posterior.shape == want.posterior.shape
    assert np.array_equal(got.posterior, want.posterior, equal_nan=True)
    assert np.array_equal(got.params.alphas, want.params.alphas, equal_nan=True)
    assert np.array_equal(got.params.means, want.params.means, equal_nan=True)
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert got.degenerate == want.degenerate
    return got


def _clustered(seed, n, k, d):
    """n unit points around k random directions, and k perturbed inits."""
    rng = np.random.default_rng(seed)
    centres = random_unit_rows(rng, k, d)
    V = movmf.normalize_rows(
        centres[rng.integers(0, k, size=n)] + 0.4 * rng.standard_normal((n, d))
    )
    init = np.vstack([perturb_direction(rng, u, 0.3) for u in centres])
    return V, init


@pytest.mark.parametrize("variant", ["soft", "hard"])
@pytest.mark.parametrize("k", [1, 2, 4, 7, 8, 9, 16, 17])
def test_em_bitwise_equals_point_major_loop(variant, k):
    # 4100 points span two transpose blocks; with d = 3 a cluster-major
    # BLAS call (P @ V for Q.T @ V) would already differ in the last bit
    V, init = _clustered(k, 4100, k, 3)
    fit = assert_same_fit(V, init, movmf.EMConfig(8, 0.0, 12.0), variant)
    assert fit.iterations == 8


@pytest.mark.parametrize("variant", ["soft", "hard"])
@pytest.mark.parametrize("cfg", [
    movmf.EMConfig(5, 0.0, 0.0),        # kappa = 0
    movmf.EMConfig(0, 1e-6, 10.0),      # no iteration
    movmf.EMConfig(50, 1e-3, 10.0),     # stops early by tol
], ids=["kappa0", "iters0", "tol"])
def test_em_bitwise_edge_configs(variant, cfg):
    V, init = _clustered(3, 300, 5, 4)
    fit = assert_same_fit(V, init, cfg, variant)
    if cfg.tol == 1e-3:
        assert fit.converged and fit.iterations < 50


def test_em_bitwise_with_empty_hard_cluster():
    V = sample_vmf(np.array([1.0, 0.0, 0.0]), 100.0, 50, seed=5)
    init = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    fit = assert_same_fit(V, init, movmf.EMConfig(5, 1e-10, 50.0), "hard")
    assert fit.degenerate == (1,)


@pytest.mark.parametrize("variant", ["soft", "hard"])
def test_em_bitwise_with_zero_row(variant):
    V, init = _clustered(4, 200, 3, 5)
    V[17] = 0.0   # unit_rows keeps a zero feature row at zero
    assert_same_fit(V, init, movmf.EMConfig(6, 0.0, 10.0), variant)


@pytest.mark.parametrize("variant", ["soft", "hard"])
@pytest.mark.parametrize("max_iters", [0, 1, 4])
def test_em_bitwise_with_nan_row(variant, max_iters):
    # soft EM raises DegenerateRow once the nan reaches the weights; hard
    # EM one-hots the nan row and keeps every mean
    V, init = _clustered(5, 200, 3, 5)
    V[9] = np.nan
    got = assert_same_fit(V, init, movmf.EMConfig(max_iters, 0.0, 10.0), variant)
    assert isinstance(got, DegenerateRow) == (variant == "soft" and max_iters > 0)


@pytest.mark.parametrize("fit", [movmf.soft_movmf_em, movmf.hard_movmf_em, baselines.gmm_em],
                         ids=["soft", "hard", "gmm"])
def test_every_fit_keeps_the_contract_of_the_one_em_loop(fit):
    V, init = _clustered(6, 300, 4, 5)
    start = fit(V, init, movmf.EMConfig(0, 1e-6, 10.0))
    assert start.iterations == 0 and not start.converged and start.degenerate == ()
    assert np.array_equal(start.params.means, init)
    stop = fit(V, init, movmf.EMConfig(50, 1e6, 10.0))
    assert stop.iterations == 1 and stop.converged
    # a nan row is held by no cluster; soft EM runs it at kappa 0, since
    # above 0 its nan weights end the fit in DegenerateRow
    V[9] = np.nan
    kappa = 0.0 if fit is movmf.soft_movmf_em else 10.0
    assert fit(V, init, movmf.EMConfig(3, 0.0, kappa)).degenerate == ()


@pytest.mark.parametrize("fit, params_type", [
    (movmf.soft_movmf_em, movmf.MoVMFParams),
    (movmf.hard_movmf_em, movmf.MoVMFParams),
    (baselines.gmm_em, baselines.GMMParams),
], ids=["soft", "hard", "gmm"])
def test_every_fit_builds_its_params_once(monkeypatch, fit, params_type):
    # the loop iterates on raw arrays; the params are validated when it ends
    built = []
    check = params_type.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(params_type, "__post_init__", counted)
    V, init = _clustered(6, 300, 4, 5)
    result = fit(V, init, movmf.EMConfig(5, 0.0, 10.0))
    assert result.iterations == 5
    assert len(built) == 1 and built[0] is result.params


@pytest.mark.parametrize("k", [*range(1, 41), 127, 128, 129, 136, 257, 1000])
def test_sum_rows_adds_in_the_order_of_a_numpy_row_sum(k):
    # magnitudes 1e-12 to 1e12, so any other order changes the last bits
    rng = np.random.default_rng(k)
    Q = np.exp(rng.uniform(-28.0, 28.0, size=(64, k)))
    assert np.array_equal(movmf._sum_rows(np.ascontiguousarray(Q.T)), Q.sum(axis=1))


@pytest.mark.parametrize("k", [1, 3, 8, 12, 17, 130])
def test_posterior_bitwise_equals_point_major(rng, k):
    theta = _theta(rng.dirichlet(np.ones(k)), 25.0, random_unit_rows(rng, k, 6))
    # n on either side of one and two 4096-point softmax blocks; the scores
    # are written into the output, so the softmax runs in place (out is S)
    for n in (4095, 4096, 4097, 4500, 8193):
        V = random_unit_rows(rng, n, 6)
        q = posterior(V, theta)
        assert q.flags.c_contiguous
        assert np.array_equal(q, reference_posterior(V, theta))


def test_init_means_checked_once_at_the_params_tolerance():
    M = np.eye(3)
    M[0] *= 1.0 + 1e-7
    with pytest.raises(NonUnitInput, match=r"^init means row 0 has norm 1\.0000001$"):
        movmf.soft_movmf_em(np.eye(3), M, movmf.EMConfig())
    M[0] = [1.0 + 1e-10, 0.0, 0.0]
    movmf.soft_movmf_em(np.eye(3), M, movmf.EMConfig())


def test_weight_sum_error_prints_a_plain_float():
    with pytest.raises(ValueError, match=r"^mixture weights sum to 0\.75, not 1$"):
        movmf.MoVMFParams(np.array([0.5, 0.25]), 1.0, np.eye(2))


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
        q = posterior(V, theta)
        before = movmf.movmf_objective(V, q, theta)
        alphas, new_means, _ = m_step(V, q, theta.means)
        theta = movmf.MoVMFParams(alphas / alphas.sum(), kappa, new_means)
        after = movmf.movmf_objective(V, q, theta)
        assert after >= before - 1e-9


@pytest.mark.parametrize("seed", range(25))
def test_incomplete_log_likelihood_non_decreasing(seed):
    # the classical EM ascent property
    V, means, kappa = _random_instance(seed)
    k = means.shape[0]
    theta = movmf.MoVMFParams(np.full(k, 1.0 / k), kappa, means)
    prev = incomplete_log_likelihood(V, theta)
    for _ in range(8):
        q = posterior(V, theta)
        alphas, new_means, _ = m_step(V, q, theta.means)
        theta = movmf.MoVMFParams(alphas / alphas.sum(), kappa, new_means)
        ll = incomplete_log_likelihood(V, theta)
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
            q = posterior(V, theta)
            alphas, new_means, _ = m_step(V, q, theta.means)
            theta = movmf.MoVMFParams(alphas / alphas.sum(), kappa, new_means)
            value = movmf.movmf_objective(V, q, theta)
            if prev is not None:
                assert value >= prev - 1e-9
            prev = value


# ---------------------------------------------------------------------------
# sampler

def test_sampler_uniform_at_kappa_zero():
    X = sample_vmf(np.array([0.0, 0.0, 1.0]), 0.0, 10000, seed=7)
    np.testing.assert_allclose(np.linalg.norm(X, axis=1), 1.0, atol=1e-12)
    assert np.linalg.norm(X.mean(axis=0)) < 0.1


def test_sampler_concentrates_at_large_kappa():
    u = np.array([0.0, 1.0, 0.0, 0.0])
    X = sample_vmf(u, 200.0, 1000, seed=8)
    mean = X.mean(axis=0)
    mean /= np.linalg.norm(mean)
    assert 1.0 - mean @ u < 0.02


def test_sampler_deterministic():
    u = np.array([0.6, 0.8])
    a = sample_vmf(u, 25.0, 64, seed=123)
    b = sample_vmf(u, 25.0, 64, seed=123)
    np.testing.assert_array_equal(a, b)


def test_sampler_2d_supported():
    X = sample_vmf(np.array([1.0, 0.0]), 30.0, 500, seed=9)
    np.testing.assert_allclose(np.linalg.norm(X, axis=1), 1.0, atol=1e-12)
    assert X[:, 0].mean() > 0.9


# ---------------------------------------------------------------------------
# workspace buffers

def test_unit_rows_into_a_stale_buffer_gives_the_linalg_norm_bits(rng):
    F = rng.standard_normal((500, 6)) * 10.0 ** rng.integers(-5, 6, (500, 1))
    F[3] = 0.0
    F[4] = 1e-14    # a norm at or below 1e-12 is a zero row
    F[5] = np.nan   # and a nan row stays nan
    want_norms = np.linalg.norm(F, axis=1, keepdims=True)
    zero = want_norms <= movmf.ZERO_NORM
    want = np.divide(F, want_norms, out=np.zeros_like(F), where=~zero)
    for out in (None, np.full_like(F, np.nan)):
        V, norms = movmf.unit_rows(F, out)
        assert out is None or V is out
        assert np.array_equal(norms, want_norms, equal_nan=True)
        assert np.array_equal(V, want, equal_nan=True)


@pytest.mark.parametrize("run", [movmf.soft_movmf_em, movmf.hard_movmf_em])
def test_em_gives_the_same_bits_with_a_stale_workspace(rng, run):
    # 4100 points span two transpose blocks
    V = random_unit_rows(rng, 4100, 5)
    V[10] = 0.0
    init = random_unit_rows(rng, 6, 5)
    cfg = movmf.EMConfig(5, 0.0, 3.0)
    want = run(V, init, cfg)
    got = run(V, init, cfg, stale_workspace())
    assert np.array_equal(got.posterior, want.posterior)
    assert np.array_equal(got.params.alphas, want.params.alphas)
    assert np.array_equal(got.params.means, want.params.means)
    assert (got.iterations, got.converged, got.degenerate) == (
        want.iterations, want.converged, want.degenerate)
