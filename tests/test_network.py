import numpy as np
import pytest

from dgn import network
from dgn.bank import MemoryBank, empty_bank
from dgn.errors import DimensionMismatch, ParseError, ShapeMismatch, StaleCache


def _single_layer_identity(k):
    eye = np.eye(k)
    return network.ModelParams((eye.copy(),), (np.zeros(k),), eye.copy())


# ---------------------------------------------------------------------------
# forward

def test_forward_zero_params_uniform_probs(rng):
    params = network.ModelParams(
        (np.zeros((4, 3)), np.zeros((5, 4))),
        (np.zeros(4), np.zeros(5)),
        np.zeros((6, 5)),
    )
    cache = network.forward(params, rng.standard_normal((9, 3)))
    np.testing.assert_array_equal(cache.logits, 0.0)
    np.testing.assert_allclose(cache.probs, 1.0 / 6.0, atol=1e-15)


def test_forward_identity_is_softmax_of_input(rng):
    params = _single_layer_identity(3)
    x = rng.standard_normal((7, 3))
    cache = network.forward(params, x)
    np.testing.assert_allclose(cache.probs, network.softmax(x), atol=1e-15)
    np.testing.assert_array_equal(cache.features, x)


def test_forward_hidden_relu_applied():
    params = network.ModelParams(
        (np.array([[1.0]]), np.array([[1.0]])),
        (np.array([0.0]), np.array([0.0])),
        np.array([[1.0]]),
    )
    cache = network.forward(params, np.array([[-2.0], [3.0]]))
    # hidden layer rectifies, feature layer does not
    np.testing.assert_array_equal(cache.features, [[0.0], [3.0]])


def test_forward_radial_invariance(rng):
    # scaling the feature scales the logits; argmax cannot move
    params = network.init_params([4, 8, 5], num_classes=6, seed=3)
    x = rng.standard_normal((50, 4))
    cache = network.forward(params, x)
    for k in (0.01, 0.5, 2.0, 1000.0):
        scaled_logits = (k * cache.features) @ params.head_weights.T
        np.testing.assert_array_equal(
            np.argmax(scaled_logits, axis=1), np.argmax(cache.logits, axis=1)
        )


def test_forward_dim_mismatch():
    params = network.init_params([4, 3], 2, seed=0)
    with pytest.raises(DimensionMismatch):
        network.forward(params, np.ones((5, 7)))


def test_softmax_stable_at_large_logits(rng):
    logits = rng.standard_normal((20, 5)) * 1e3
    p = network.softmax(logits)
    assert np.all(np.isfinite(p))
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# backward

def test_backward_zero_upstream_zero_grads(rng):
    params = network.init_params([3, 6, 4], 5, seed=1)
    cache = network.forward(params, rng.standard_normal((8, 3)))
    grads = network.backward(
        params, cache, np.zeros_like(cache.features), np.zeros_like(cache.logits)
    )
    for g in grads.layer_weights + grads.layer_biases + (grads.head_weights,):
        np.testing.assert_array_equal(g, 0.0)


def test_backward_linear_regression_identity(rng):
    # single affine layer + identity head, squared-error probe loss:
    # dW must equal (y_hat - y)^T X
    n, d = 12, 4
    X = rng.standard_normal((n, d))
    W = rng.standard_normal((d, d))
    params = network.ModelParams((W,), (np.zeros(d),), np.eye(d))
    cache = network.forward(params, X)
    y = rng.standard_normal((n, d))
    d_logits = cache.logits - y  # gradient of .5 * ||logits - y||^2
    grads = network.backward(
        params, cache, np.zeros_like(cache.features), d_logits
    )
    head_contrib = d_logits @ np.eye(d)
    np.testing.assert_allclose(grads.layer_weights[0], head_contrib.T @ X, atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_backward_finite_difference_full_model(seed):
    rng = np.random.default_rng(seed)
    n = 6
    params = network.init_params([3, 5, 4], num_classes=3, seed=seed + 10)
    x = rng.standard_normal((n, 3))
    d_feat = rng.standard_normal((n, 4))
    d_logit = rng.standard_normal((n, 3))

    def loss_of(p):
        c = network.forward(p, x)
        return float((c.features * d_feat).sum() + (c.logits * d_logit).sum())

    grads = network.backward(params, network.forward(params, x), d_feat, d_logit)
    step = 1e-6
    for _ in range(20):
        layer = rng.integers(len(params.layer_weights) + 1)
        if layer < len(params.layer_weights):
            w = params.layer_weights[layer]
            i, j = rng.integers(w.shape[0]), rng.integers(w.shape[1])
            delta = np.zeros_like(w); delta[i, j] = step
            weights_p = list(params.layer_weights); weights_p[layer] = w + delta
            weights_m = list(params.layer_weights); weights_m[layer] = w - delta
            plus = network.ModelParams(tuple(weights_p), params.layer_biases, params.head_weights)
            minus = network.ModelParams(tuple(weights_m), params.layer_biases, params.head_weights)
            analytic = grads.layer_weights[layer][i, j]
        else:
            h = params.head_weights
            i, j = rng.integers(h.shape[0]), rng.integers(h.shape[1])
            delta = np.zeros_like(h); delta[i, j] = step
            plus = network.ModelParams(params.layer_weights, params.layer_biases, h + delta)
            minus = network.ModelParams(params.layer_weights, params.layer_biases, h - delta)
            analytic = grads.head_weights[i, j]
        fd = (loss_of(plus) - loss_of(minus)) / (2 * step)
        denom = max(abs(fd), abs(analytic), 1e-8)
        assert abs(fd - analytic) / denom < 1e-5


def test_backward_stale_cache(rng):
    params = network.init_params([3, 4], 2, seed=0)
    cache = network.forward(params, rng.standard_normal((5, 3)))
    with pytest.raises(StaleCache):
        network.backward(params, cache, np.zeros((4, 4)), np.zeros((5, 2)))


# ---------------------------------------------------------------------------
# shared workspace against the allocating reference

def _reference_forward(params, x):
    """Forward pass with a fresh array for every intermediate."""
    pre_acts = []
    a = x
    last = len(params.layer_weights) - 1
    for i, (w, b) in enumerate(zip(params.layer_weights, params.layer_biases)):
        z = a @ w.T + b
        pre_acts.append(z)
        a = np.maximum(z, 0.0) if i < last else z
    logits = a @ params.head_weights.T
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return pre_acts, a, logits, e / e.sum(axis=1, keepdims=True)


def _reference_backward(params, x, pre_acts, d_features, d_logits):
    d_head = d_logits.T @ pre_acts[-1]
    d_act = d_features + d_logits @ params.head_weights
    num_layers = len(params.layer_weights)
    d_weights, d_biases = [None] * num_layers, [None] * num_layers
    for i in range(num_layers - 1, -1, -1):
        dz = d_act if i == num_layers - 1 else d_act * (pre_acts[i] > 0)
        below = x if i == 0 else np.maximum(pre_acts[i - 1], 0.0)
        d_weights[i] = dz.T @ below
        d_biases[i] = dz.sum(axis=0)
        if i:
            d_act = dz @ params.layer_weights[i]
    return (*d_weights, *d_biases, d_head)


def test_shared_workspace_matches_allocating_reference():
    # batches shrink and grow, and two models of different widths share
    # the buffers, so a stale row or a wrongly shaped view would show
    models = [
        network.init_params([7, 32, 32, 16], num_classes=8, seed=4),
        network.init_params([7, 12, 5], num_classes=3, seed=5),
    ]
    ws = network.Workspace()
    rng = np.random.default_rng(4)
    for step, n in enumerate((50, 20, 80, 20, 0, 33)):
        params = models[step % 2]
        x = rng.standard_normal((n, params.input_dim))
        d_feat = rng.standard_normal((n, params.feature_dim))
        d_logit = rng.standard_normal((n, params.num_classes))
        pre_acts, features, logits, probs = _reference_forward(params, x)
        cache = network.forward(params, x, ws)
        np.testing.assert_array_equal(cache.features, features)
        np.testing.assert_array_equal(cache.logits, logits)
        np.testing.assert_array_equal(cache.probs, probs)
        grads = network.backward(params, cache, d_feat, d_logit, ws)
        got = (*grads.layer_weights, *grads.layer_biases, grads.head_weights)
        want = _reference_backward(params, x, pre_acts, d_feat, d_logit)
        for g, w in zip(got, want, strict=True):
            np.testing.assert_array_equal(g, w)


def test_backward_stale_cache_layer_count(rng):
    deep = network.init_params([3, 4, 4], 2, seed=0)
    shallow = network.init_params([3, 4], 2, seed=0)
    cache = network.forward(deep, rng.standard_normal((5, 3)))
    with pytest.raises(StaleCache):
        network.backward(shallow, cache, np.zeros((5, 4)), np.zeros((5, 2)))


# ---------------------------------------------------------------------------
# sgd

def test_sgd_zero_grads_no_change():
    params = network.init_params([3, 4], 2, seed=5)
    zeros = network.ModelParams(
        tuple(np.zeros_like(w) for w in params.layer_weights),
        tuple(np.zeros_like(b) for b in params.layer_biases),
        np.zeros_like(params.head_weights),
    )
    nxt = network.sgd_step(params, zeros, lr=0.5)
    np.testing.assert_array_equal(nxt.layer_weights[0], params.layer_weights[0])
    np.testing.assert_array_equal(nxt.head_weights, params.head_weights)


def test_sgd_unit_lr_self_grad_gives_zero():
    params = network.init_params([3, 4], 2, seed=6)
    nxt = network.sgd_step(params, params, lr=1.0)
    np.testing.assert_array_equal(nxt.layer_weights[0], 0.0)
    np.testing.assert_array_equal(nxt.layer_biases[0], 0.0)
    np.testing.assert_array_equal(nxt.head_weights, 0.0)


def test_sgd_two_half_steps_equal_one_full():
    params = network.init_params([2, 3], 2, seed=7)
    grads = network.init_params([2, 3], 2, seed=8)
    twice = network.sgd_step(network.sgd_step(params, grads, 0.05), grads, 0.05)
    once = network.sgd_step(params, grads, 0.1)
    np.testing.assert_allclose(twice.layer_weights[0], once.layer_weights[0], atol=1e-15)
    np.testing.assert_allclose(twice.head_weights, once.head_weights, atol=1e-15)


def test_sgd_shape_mismatch():
    params = network.init_params([2, 3], 2, seed=0)
    bad = network.init_params([2, 4], 2, seed=0)
    with pytest.raises(ShapeMismatch):
        network.sgd_step(params, bad, 0.1)


def test_sgd_rejects_nonpositive_lr():
    params = network.init_params([2, 3], 2, seed=0)
    with pytest.raises(ValueError):
        network.sgd_step(params, params, 0.0)


def test_init_params_deterministic_and_scaled():
    a = network.init_params([7, 32, 16], 4, seed=42)
    b = network.init_params([7, 32, 16], 4, seed=42)
    np.testing.assert_array_equal(a.layer_weights[0], b.layer_weights[0])
    assert np.abs(a.layer_weights[0]).max() <= 1.0 / np.sqrt(7)
    np.testing.assert_array_equal(a.layer_biases[0], 0.0)


# ---------------------------------------------------------------------------
# checkpoint container

def test_checkpoint_roundtrip_without_bank(tmp_path):
    params = network.init_params([5, 8, 6], 3, seed=11)
    path = tmp_path / "model.ckpt"
    network.save_checkpoint(str(path), params)
    loaded, bank = network.load_checkpoint(str(path))
    assert bank is None
    for a, b in zip(params.layer_weights, loaded.layer_weights):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(params.layer_biases, loaded.layer_biases):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(params.head_weights, loaded.head_weights)


def test_checkpoint_roundtrip_with_bank(tmp_path, rng):
    params = network.init_params([4, 6], 3, seed=12)
    protos = rng.standard_normal((3, 6))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)
    bank = MemoryBank(protos, np.array([True, True, True]), momentum=0.75)
    path = tmp_path / "model.ckpt"
    network.save_checkpoint(str(path), params, bank)
    _, loaded = network.load_checkpoint(str(path))
    np.testing.assert_array_equal(loaded.prototypes, bank.prototypes)
    np.testing.assert_array_equal(loaded.seen, bank.seen)
    assert loaded.momentum == 0.75


def test_checkpoint_truncated_raises(tmp_path):
    params = network.init_params([4, 6], 3, seed=13)
    path = tmp_path / "model.ckpt"
    network.save_checkpoint(str(path), params, empty_bank(3, 6))
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 9])
    with pytest.raises(ParseError):
        network.load_checkpoint(str(path))


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(b"NOTDGNXXrubbish")
    with pytest.raises(ParseError):
        network.load_checkpoint(str(path))
