import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import stale_workspace
from dgn import baselines, cli, movmf
from dgn.errors import DimensionMismatch, NonUnitInput
from dgn.movmf import EMConfig, EMResult, normalize_rows


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
# prototype assignment: `dgn cluster --variant proto-*`, its family's fit at
# the init with no EM iteration

_PROTOS = np.array([[1.0, 0.0], [0.0, 1.0]])
_PROTO_VARIANTS = {"euclidean": "proto-euclid", "cosine": "proto-cosine"}


def prototype_assign(F, prototypes, metric):
    """The assignment `dgn cluster` writes for the init ``prototypes``: the
    argmax of the variant's family's fit of F (Euclidean) or F's unit rows
    with max_iters = 0."""
    family = cli.CLUSTER_VARIANTS[_PROTO_VARIANTS[metric]]
    rows = F if family.euclidean else normalize_rows(F)
    result = family.fit(F, (rows, None), prototypes, EMConfig(max_iters=0))[0]
    assert result.iterations == 0
    return np.argmax(result.posterior, axis=1)


def test_prototype_assign_euclidean():
    # the GMM needs as many points as components
    got = prototype_assign(np.array([[0.9, 0.1], [0.3, 0.6]]), _PROTOS, "euclidean")
    assert got.tolist() == [0, 1]


def test_prototype_assign_cosine():
    got = prototype_assign(np.array([[0.9, 0.1]]), _PROTOS, "cosine")
    assert got.tolist() == [0]


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_prototype_assign_tie_breaks_low_index(metric):
    points = np.array([[1.0, 1.0], [0.0, 1.0]]) / [[math.sqrt(2.0)], [1.0]]
    assert prototype_assign(points, _PROTOS, metric).tolist() == [0, 1]


def test_prototype_assign_dim_mismatch():
    for metric in _PROTO_VARIANTS:
        with pytest.raises(DimensionMismatch):
            prototype_assign(np.ones((3, 3)), _PROTOS, metric)


def test_cosine_prototypes_must_be_unit():
    with pytest.raises(NonUnitInput):
        prototype_assign(np.ones((1, 2)), np.array([[2.0, 0.0]]), "cosine")


@settings(max_examples=40, deadline=None)
@given(st.floats(1e-3, 1e3), st.integers(0, 2**31 - 1))
def test_cosine_assignment_scale_invariant(scale, seed):
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((12, 4)) + 0.1
    protos = rng.standard_normal((3, 4))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)
    base = prototype_assign(F, protos, "cosine")
    scaled = F.copy()
    scaled[3] *= scale
    assert prototype_assign(scaled, protos, "cosine")[3] == base[3]


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
    q = baselines.gmm_posterior(baselines._sq_dists(F, before.params.means), before.params,
                                np.empty((80, 3)))
    after = baselines.gmm_em(F, init, EMConfig(2, 0.0, 0.0))
    assert gmm_expected_objective(F, q, after.params) >= (
        gmm_expected_objective(F, q, before.params) - 1e-9
    )


# ---------------------------------------------------------------------------
# the cluster-major GMM EM against the point-major loop, bit for bit

def reference_sq_dists(F, means):
    return (
        np.einsum("nd,nd->n", F, F)[:, None]
        - 2.0 * F @ means.T
        + np.einsum("kd,kd->k", means, means)[None, :]
    )


def reference_gmm_posterior(sq, params):
    """The point-major (n, k) posterior: the scores, then a row softmax with
    the row max taken column by column."""
    d = params.means.shape[1]
    with np.errstate(divide="ignore"):
        scores = (
            np.log(params.weights)[None, :]
            - 0.5 * d * np.log(2.0 * np.pi * params.variances)[None, :]
            - 0.5 * sq / params.variances[None, :]
        )
    z = scores - np.maximum.reduce(tuple(scores.T))[:, None]
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def reference_gmm_em(F, init_means, cfg):
    """The point-major EM loop: fresh (n, k) arrays on every pass."""
    F = np.asarray(F, dtype=np.float64)
    n, d = F.shape
    k = init_means.shape[0]
    sq = reference_sq_dists(F, init_means)
    nearest = np.argmin(sq, axis=1)
    spread = float(np.mean(np.sum((F - init_means[nearest]) ** 2, axis=1))) / d
    params = baselines.GMMParams(
        np.full(k, 1.0 / k),
        init_means,
        np.full(k, max(spread, baselines.VARIANCE_FLOOR)),
    )
    degenerate = set()
    iterations = 0
    converged = False
    for _ in range(cfg.max_iters):
        q = reference_gmm_posterior(sq, params)
        mass = q.sum(axis=0)
        dead = mass <= 1e-12
        degenerate.update(int(c) for c in np.flatnonzero(dead))
        weights = mass / n
        weights = weights / weights.sum()
        means = params.means.copy()
        variances = params.variances.copy()
        alive = ~dead
        means[alive] = (q.T @ F)[alive] / mass[alive, None]
        sq = reference_sq_dists(F, means)
        variances[alive] = np.maximum(
            (q * sq).sum(axis=0)[alive] / (d * mass[alive]), baselines.VARIANCE_FLOOR
        )
        shift = float(np.max(np.linalg.norm(means - params.means, axis=1)))
        params = baselines.GMMParams(weights, means, variances)
        iterations += 1
        if shift < cfg.tol:
            converged = True
            break
    q = reference_gmm_posterior(sq, params)
    return EMResult(q, params, iterations, converged, tuple(sorted(degenerate)))


def assert_same_gmm_fit(F, init, cfg):
    got = baselines.gmm_em(F, init, cfg)
    want = reference_gmm_em(F, init, cfg)
    assert got.posterior.flags.c_contiguous and got.posterior.shape == want.posterior.shape
    assert np.array_equal(got.posterior, want.posterior, equal_nan=True)
    for name in ("weights", "means", "variances"):
        assert np.array_equal(
            getattr(got.params, name), getattr(want.params, name), equal_nan=True
        ), name
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert got.degenerate == want.degenerate
    return got


def _blobs(seed, n, k, d):
    """n points around k random centres, and k perturbed inits."""
    rng = np.random.default_rng(seed)
    centres = 4.0 * rng.standard_normal((k, d))
    F = centres[rng.integers(0, k, size=n)] + rng.standard_normal((n, d))
    return F, centres + 0.5 * rng.standard_normal((k, d))


@pytest.mark.parametrize("k", [1, 2, 7, 8, 9, 16, 17])
def test_gmm_em_bitwise_equals_point_major_loop(k):
    # 4100 points span two transpose blocks
    F, init = _blobs(k, 4100, k, 3)
    fit = assert_same_gmm_fit(F, init, EMConfig(8, 0.0, 0.0))
    assert fit.iterations == 8


@pytest.mark.parametrize("cfg", [
    EMConfig(0, 1e-6, 0.0),      # no iteration
    EMConfig(50, 1e-3, 0.0),     # stops early by tol
], ids=["iters0", "tol"])
def test_gmm_em_bitwise_edge_configs(cfg):
    F, init = _blobs(3, 300, 5, 4)
    fit = assert_same_gmm_fit(F, init, cfg)
    if cfg.tol == 1e-3:
        assert fit.converged and fit.iterations < 50


def test_gmm_em_bitwise_with_a_dead_component(rng):
    F = 0.1 * rng.standard_normal((200, 3))
    init = np.array([[0.0, 0.0, 0.0], [1000.0, 0.0, 0.0]])
    fit = assert_same_gmm_fit(F, init, EMConfig(5, 0.0, 0.0))
    assert fit.degenerate == (1,)


def test_gmm_em_bitwise_with_duplicate_points():
    F = np.tile(np.array([[1.0, 2.0]]), (10, 1))
    fit = assert_same_gmm_fit(F, np.array([[0.0, 0.0], [1.0, 2.0]]), EMConfig(6, 0.0, 0.0))
    assert np.any(fit.params.variances == baselines.VARIANCE_FLOOR)


@pytest.mark.parametrize("max_iters", [0, 1, 4])
def test_gmm_em_bitwise_with_nan_row(max_iters):
    F, init = _blobs(5, 200, 3, 5)
    F[9] = np.nan
    assert_same_gmm_fit(F, init, EMConfig(max_iters, 0.0, 0.0))


@pytest.mark.parametrize("k", [1, 3, 8, 12, 17])
def test_gmm_posterior_bitwise_equals_point_major(rng, k):
    params = baselines.GMMParams(
        rng.dirichlet(np.ones(k)), rng.standard_normal((k, 6)), rng.uniform(0.5, 4.0, k)
    )
    # n on either side of one and two 4096-point softmax blocks
    for n in (4095, 4096, 4097, 4500, 8193):
        F = 2.0 * rng.standard_normal((n, 6))
        sq = baselines._sq_dists(F, params.means)
        assert np.array_equal(sq, reference_sq_dists(F, params.means))
        want = reference_gmm_posterior(sq, params)
        out = np.empty((n, k))
        assert baselines.gmm_posterior(sq, params, out) is out
        assert np.array_equal(out, want)
        assert baselines.gmm_posterior(sq, params, sq) is sq   # in place: out is S
        assert np.array_equal(sq, want)


@pytest.mark.parametrize("k", range(1, 41))
@pytest.mark.parametrize("n", [7, 100, 4100])
def test_scatter_sums_are_numpys_column_sums(k, n):
    # movmf._sum_columns takes the GMM's scatter sums (k components) and the
    # network's bias gradients (k = a layer's width). numpy adds a column of
    # a (n, k >= 2) array point after point, as einsum does, but the one
    # column of a (n, 1) array pairwise, which einsum does not: at n = 100
    # this data tells the two apart
    rng = np.random.default_rng(k)
    prod = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-8, 8, (n, k))
    assert np.array_equal(movmf._sum_columns(prod), prod.sum(axis=0))
    if (n, k) == (100, 1):
        assert not np.array_equal(np.einsum("ic->c", prod), prod.sum(axis=0))


def test_gmm_em_gives_the_same_bits_with_a_stale_workspace():
    F, init = _blobs(2, 4100, 5, 3)
    want = baselines.gmm_em(F, init, EMConfig(6, 0.0, 0.0))
    got = baselines.gmm_em(F, init, EMConfig(6, 0.0, 0.0), stale_workspace())
    assert np.array_equal(got.posterior, want.posterior)
    for name in ("weights", "means", "variances"):
        assert np.array_equal(getattr(got.params, name), getattr(want.params, name)), name
    assert (got.iterations, got.converged, got.degenerate) == (
        want.iterations, want.converged, want.degenerate)


@pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 9000])
@pytest.mark.parametrize("d", [1, 7, 33])
def test_lower_sq_dists_equals_the_whole_array_minimum(n, d):
    # gmm_em's initial variance (from inf) and the k-means++ seeding of
    # `dgn cluster` take it block by block: the allocating form's bits
    rng = np.random.default_rng(n + d)
    X, means = rng.standard_normal((n, d)) ** 3, rng.standard_normal((5, d))
    nearest = rng.integers(0, 5, n)
    want = np.sum((X - means[nearest]) ** 2, axis=1)
    buf = np.empty((min(n, movmf._BLOCK), d))
    for start in (np.full(n, np.inf), rng.permutation(want)):
        got = baselines._lower_sq_dists(X, means, nearest, start.copy(), buf)
        assert np.array_equal(got.view(np.uint64), np.minimum(start, want).view(np.uint64))


@pytest.mark.parametrize("family", ["soft", "gmm"])
def test_em_holds_no_second_n_by_k_array(family):
    # the E step's row softmax works on one block of points at a time, so
    # past the arrays a fit holds by design (the (n, k) posterior; for the
    # GMM also its (n, k) squared distances, 2F, ||f||^2 and the (n,)
    # squared deviations, which are taken a block at a time) the traced
    # peak stays below one more (n, k) array
    n, d, k = 80_000, 7, 8
    rng = np.random.default_rng(0)
    F = rng.standard_normal((n, d))
    init = F[rng.choice(n, k, replace=False)]
    if family == "soft":
        X, init, fit, held = normalize_rows(F), normalize_rows(init), movmf.soft_movmf_em, 0
    else:
        X, fit, held = F, baselines.gmm_em, (n * d + n * k + 2 * n) * 8
    tracemalloc.start()
    try:
        result = fit(X, init, EMConfig(2, 0.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - result.posterior.nbytes - held < n * k * 8


# ---------------------------------------------------------------------------
# GMM alignment loss

def test_gmm_nll_loss_gives_the_allocating_forms_bits_with_or_without_a_workspace(rng):
    n, d, k = 300, 4, 3
    F = 2.0 * rng.standard_normal((n, d))
    Q = rng.dirichlet(np.ones(k), size=n)
    params = baselines.GMMParams(np.array([0.5, 0.5, 0.0]), rng.standard_normal((k, d)),
                                 np.array([0.5, 1.0, 3.0]))
    want_value = -float((Q * baselines._gmm_floored_scores(F, params)).sum())
    ratio = Q / params.variances[None, :]
    want_grad = ratio.sum(axis=1)[:, None] * F - ratio @ params.means
    for workspace in (None, stale_workspace()):
        value, grad = baselines.gmm_nll_loss(F, Q, params, workspace)
        assert value == want_value
        assert np.array_equal(grad, want_grad)

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
