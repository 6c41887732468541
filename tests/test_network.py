import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgn import network
from dgn.bank import MemoryBank, empty_bank
from dgn.errors import DgnError, DimensionMismatch, ParseError, ShapeMismatch, StaleCache


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


# ---------------------------------------------------------------------------
# adam

def reference_adam_step(params, grads, step, means, variances, lr):
    """The per-tensor Adam update, one pass of the elementwise ops per
    tensor with one pair of moment arrays per tensor: the oracle of the one
    pass over flat vectors."""
    t = step + 1
    new_p, new_m, new_v = [], [], []
    for p, g, m, v in zip(params.tensors, grads.tensors, means, variances, strict=True):
        m = network.ADAM_BETA1 * m + (1.0 - network.ADAM_BETA1) * g
        v = network.ADAM_BETA2 * v + (1.0 - network.ADAM_BETA2) * g * g
        m_hat = m / (1.0 - network.ADAM_BETA1**t)
        v_hat = v / (1.0 - network.ADAM_BETA2**t)
        new_p.append(p - lr * m_hat / (np.sqrt(v_hat) + network.ADAM_EPS))
        new_m.append(m)
        new_v.append(v)
    return network.ModelParams.from_tensors(new_p), new_m, new_v


def _same_bits(x, y):
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


def test_adam_step_is_bitwise_the_per_tensor_update(rng):
    params = network.init_params([5, 6, 4, 3], 4, seed=2)
    state = network.init_adam_state(params)
    want = params
    means = [np.zeros_like(t) for t in params.tensors]
    variances = [np.zeros_like(t) for t in params.tensors]
    for step in range(4):
        tensors = [rng.standard_normal(t.shape) * 10.0 ** rng.integers(-8, 8, size=t.shape)
                   for t in params.tensors]
        tensors[0][0, 0] = 0.0      # a zero gradient entry
        tensors[-1][-1, -1] = 1e150  # its square is still finite
        grads = network.ModelParams.from_tensors(tensors)
        params, state = network.adam_step(params, grads, state, 0.003)
        want, means, variances = reference_adam_step(want, grads, step, means, variances, 0.003)
        assert state.step == step + 1
        for got, expected in zip(params.tensors, want.tensors, strict=True):
            assert _same_bits(got, expected)
        assert _same_bits(state.means, np.concatenate([m.ravel() for m in means]))
        assert _same_bits(state.variances, np.concatenate([v.ravel() for v in variances]))


def test_adam_step_rejects_moments_of_other_parameters():
    params = network.init_params([2, 3], 2, seed=0)
    other = network.init_adam_state(network.init_params([2, 4], 2, seed=0))
    with pytest.raises(ShapeMismatch):
        network.adam_step(params, params, other, 0.1)


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


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["first weight", "last bank prototype value"])
def test_checkpoint_non_finite_value_raises(tmp_path, where, value):
    params = network.init_params([4, 6], 3, seed=13)
    path = tmp_path / "model.ckpt"
    protos = np.eye(3, 6)
    network.save_checkpoint(str(path), params, MemoryBank(protos, np.ones(3, dtype=bool), 0.9))
    blob = bytearray(path.read_bytes())
    # the header is 28 bytes; the bank's (3, 6) prototypes end the file
    offset = 28 if where == "first weight" else len(blob) - 8
    blob[offset:offset + 8] = struct.pack("<d", value)
    path.write_bytes(bytes(blob))
    start = 28 if where == "first weight" else len(blob) - 8 * protos.size
    with pytest.raises(ParseError, match=f":{start}: non-finite value$"):
        network.load_checkpoint(str(path))


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(b"NOTDGNXXrubbish")
    with pytest.raises(ParseError):
        network.load_checkpoint(str(path))


def test_checkpoint_claiming_a_huge_layer_is_truncated(tmp_path):
    # (2^32 - 1)^2 values: a fixed-width count would wrap and pass the bounds check
    path = tmp_path / "model.ckpt"
    network.save_checkpoint(str(path), network.init_params([4, 6], 3, seed=13))
    blob = bytearray(path.read_bytes())
    blob[12:20] = struct.pack("<II", 2**32 - 1, 2**32 - 1)
    path.write_bytes(bytes(blob))
    with pytest.raises(ParseError, match=":28: truncated checkpoint"):
        network.load_checkpoint(str(path))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=2, max_size=4), st.booleans(),
       st.lists(st.tuples(st.integers(0, 10**6), st.binary(min_size=1, max_size=8)),
                max_size=3),
       st.one_of(st.none(), st.integers(8, 400)))
def test_load_checkpoint_raises_only_typed_errors(
    tmp_path_factory, dims, with_bank, edits, cut
):
    # a valid checkpoint with bytes after its magic overwritten (counts, shapes,
    # bank header, payload) and its tail cut
    path = tmp_path_factory.mktemp("c") / "c.ckpt"
    params = network.init_params(dims, 2, seed=0)
    network.save_checkpoint(str(path), params, empty_bank(2, dims[-1]) if with_bank else None)
    blob = bytearray(path.read_bytes())
    for pos, chunk in edits:
        pos = len(network.MAGIC) + pos % (len(blob) - len(network.MAGIC))
        blob[pos:pos + len(chunk)] = chunk
    path.write_bytes(bytes(blob[:cut]))
    try:
        network.load_checkpoint(str(path))
    except (DgnError, ValueError, OSError):
        pass
