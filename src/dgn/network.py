"""Toy per-point MLP with a radial (bias-free) segment head.

Hidden layers are affine + rectifier; the final feature layer is affine
with no activation so the feature space keeps its orientation. Logits are
``features @ head.T`` with no bias, which makes the argmax invariant to
positive scaling of the feature vector. Forward/backward are written by
hand; all arithmetic is float64.

Forward and backward write their per-point arrays into a ``Workspace``
instead of allocating them. Aliasing rule: a ``ForwardCache`` built on a
shared workspace is valid until the next ``forward`` on that workspace,
which overwrites it; ``backward`` reuses only its own buffers, so it may
follow the ``forward`` whose cache it reads.

Checkpoint container (binary, little-endian):

    magic   8 bytes  b"DGNCK001"
    u32     number of layers L
    u32 x2L (out, in) per layer
    u32 x2  head shape (num_classes, feat_dim)
    f64     W_0 row-major, b_0, ..., W_{L-1}, b_{L-1}, head
    u8      bank flag (0 = absent)
    [u32 x2 bank shape, f64 momentum, u8 x k seen flags, f64 prototypes]
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .bank import MemoryBank
from .errors import DimensionMismatch, ParseError, ShapeMismatch, StaleCache

MAGIC = b"DGNCK001"


@dataclass(frozen=True)
class ModelParams:
    """MLP weights/biases plus the bias-free segment head.

    The same container is reused for gradients (entries then hold the
    partial derivatives in matching positions).
    """

    layer_weights: tuple[np.ndarray, ...]  # each (out, in)
    layer_biases: tuple[np.ndarray, ...]   # each (out,)
    head_weights: np.ndarray               # (num_classes, feat_dim)

    def __post_init__(self):
        weights = tuple(np.asarray(w, dtype=np.float64) for w in self.layer_weights)
        biases = tuple(np.asarray(b, dtype=np.float64) for b in self.layer_biases)
        head = np.asarray(self.head_weights, dtype=np.float64)
        object.__setattr__(self, "layer_weights", weights)
        object.__setattr__(self, "layer_biases", biases)
        object.__setattr__(self, "head_weights", head)
        if len(weights) != len(biases) or not weights:
            raise DimensionMismatch("need matching, nonempty weight/bias lists")
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise DimensionMismatch(f"layer {i}: weights {w.shape}, bias {b.shape}")
            if i and w.shape[1] != weights[i - 1].shape[0]:
                raise DimensionMismatch(
                    f"layer {i} input dim {w.shape[1]} != previous output "
                    f"{weights[i - 1].shape[0]}"
                )
        if head.ndim != 2 or head.shape[1] != weights[-1].shape[0]:
            raise DimensionMismatch(
                f"head {head.shape} incompatible with feature dim "
                f"{weights[-1].shape[0]}"
            )

    @property
    def input_dim(self) -> int:
        return self.layer_weights[0].shape[1]

    @property
    def feature_dim(self) -> int:
        return self.layer_weights[-1].shape[0]

    @property
    def num_classes(self) -> int:
        return self.head_weights.shape[0]


def init_params(layer_dims, num_classes: int, seed: int) -> ModelParams:
    """Seeded uniform init scaled by 1/sqrt(fan_in); biases start at zero."""
    dims = [int(d) for d in layer_dims]
    if len(dims) < 2:
        raise DimensionMismatch("need at least input and feature dims")
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        scale = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-scale, scale, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    scale = 1.0 / np.sqrt(dims[-1])
    head = rng.uniform(-scale, scale, size=(num_classes, dims[-1]))
    return ModelParams(tuple(weights), tuple(biases), head)


class Workspace:
    """Scratch arrays reused across ``forward``/``backward`` calls.

    Each key owns one flat float64 buffer that grows to the largest
    request seen; ``take`` returns a C-contiguous (rows, cols) view of its
    leading part, so batches of any size and width share it.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, key: str, rows: int, cols: int) -> np.ndarray:
        size = rows * cols
        buf = self._buffers.get(key)
        if buf is None or buf.size < size:
            buf = self._buffers[key] = np.empty(size)
        return buf[:size].reshape(rows, cols)


def softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row softmax with max subtraction, written into ``out`` when given."""
    # row max column by column, as in movmf.posterior
    z = np.subtract(logits, np.maximum.reduce(tuple(logits.T))[:, None], out=out)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def softmax_backward(dP: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Chain a gradient wrt probabilities back to the logits."""
    inner = np.einsum("nk,nk->n", dP, P)
    return P * (dP - inner[:, None])


@dataclass(frozen=True)
class ForwardCache:
    """Everything the backward pass needs, plus the network outputs."""

    inputs: np.ndarray                   # (n, d_in)
    acts: tuple[np.ndarray, ...]         # rectified output per hidden layer
    features: np.ndarray                 # (n, feat_dim)
    logits: np.ndarray                   # (n, num_classes)
    probs: np.ndarray                    # (n, num_classes) row-stochastic


def forward(
    params: ModelParams, points: np.ndarray, workspace: Workspace | None = None
) -> ForwardCache:
    """Run the MLP and head on a batch of points.

    Every array of the returned cache except ``inputs`` lives in
    ``workspace`` (a fresh one when omitted).
    """
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise DimensionMismatch(
            f"points {x.shape} incompatible with input dim {params.input_dim}"
        )
    ws = Workspace() if workspace is None else workspace
    n = x.shape[0]
    acts = []
    a = x
    last = len(params.layer_weights) - 1
    for i, (w, b) in enumerate(zip(params.layer_weights, params.layer_biases)):
        a = np.matmul(a, w.T, out=ws.take(f"act{i}", n, w.shape[0]))
        a += b
        if i < last:
            np.maximum(a, 0.0, out=a)
            acts.append(a)
    k = params.num_classes
    logits = np.matmul(a, params.head_weights.T, out=ws.take("logits", n, k))
    probs = softmax(logits, out=ws.take("probs", n, k))
    return ForwardCache(x, tuple(acts), a, logits, probs)


def backward(
    params: ModelParams,
    cache: ForwardCache,
    d_features: np.ndarray,
    d_logits: np.ndarray,
    workspace: Workspace | None = None,
) -> ModelParams:
    """Exact reverse-mode gradients for all parameters.

    Accumulates the feature-path gradient (alignment losses, already
    chained through normalization) and the logit-path gradient (head
    losses). Returns a ModelParams-shaped gradient container; the
    per-point gradients in between live in ``workspace``.
    """
    d_features = np.asarray(d_features, dtype=np.float64)
    d_logits = np.asarray(d_logits, dtype=np.float64)
    n = cache.inputs.shape[0]
    num_layers = len(params.layer_weights)
    if (
        len(cache.acts) != num_layers - 1
        or cache.features.shape[1] != params.feature_dim
        or cache.inputs.shape[1] != params.input_dim
    ):
        raise StaleCache("cache does not match the parameters")
    if d_features.shape != cache.features.shape or d_logits.shape != cache.logits.shape:
        raise StaleCache(
            f"upstream gradients {d_features.shape}/{d_logits.shape} do not match "
            f"the cached batch of {n} points"
        )
    ws = Workspace() if workspace is None else workspace

    d_head = d_logits.T @ cache.features
    # dz of each layer is formed in place in its upstream-gradient buffer;
    # two buffers alternate so a layer's input gradient never overwrites
    # it. Float addition commutes exactly, so the sum below is bitwise
    # d_features + d_logits @ head.
    dz = ws.take("grad0", n, params.feature_dim)
    np.matmul(d_logits, params.head_weights, out=dz)
    dz += d_features

    below = (cache.inputs, *cache.acts)
    d_weights: list[np.ndarray | None] = [None] * num_layers
    d_biases: list[np.ndarray | None] = [None] * num_layers
    for i in range(num_layers - 1, -1, -1):
        if i < num_layers - 1:
            dz *= cache.acts[i] > 0
        d_weights[i] = dz.T @ below[i]
        d_biases[i] = dz.sum(axis=0)
        if i:
            w = params.layer_weights[i]
            key = f"grad{(num_layers - i) % 2}"
            dz = np.matmul(dz, w, out=ws.take(key, n, w.shape[1]))
    return ModelParams(tuple(d_weights), tuple(d_biases), d_head)


def _check_grad_shapes(params: ModelParams, grads: ModelParams) -> None:
    if len(grads.layer_weights) != len(params.layer_weights):
        raise ShapeMismatch("gradient layer count differs from parameters")
    for w, g in zip(params.layer_weights, grads.layer_weights):
        if w.shape != g.shape:
            raise ShapeMismatch(f"weight grad {g.shape} != weights {w.shape}")
    if grads.head_weights.shape != params.head_weights.shape:
        raise ShapeMismatch("head grad shape differs from head weights")


def sgd_step(params: ModelParams, grads: ModelParams, lr: float) -> ModelParams:
    """params - lr * grads, as a new immutable snapshot."""
    if lr <= 0:
        raise ValueError("lr must be positive")
    _check_grad_shapes(params, grads)
    return ModelParams(
        tuple(w - lr * g for w, g in zip(params.layer_weights, grads.layer_weights)),
        tuple(b - lr * g for b, g in zip(params.layer_biases, grads.layer_biases)),
        params.head_weights - lr * grads.head_weights,
    )


@dataclass(frozen=True)
class AdamState:
    """First/second moment accumulators, one pair per parameter tensor."""

    step: int
    means: tuple[np.ndarray, ...]
    variances: tuple[np.ndarray, ...]


def _flatten_params(params: ModelParams) -> tuple[np.ndarray, ...]:
    out: list[np.ndarray] = []
    for w, b in zip(params.layer_weights, params.layer_biases):
        out.extend((w, b))
    out.append(params.head_weights)
    return tuple(out)


def _rebuild_params(flat: list[np.ndarray], template: ModelParams) -> ModelParams:
    n = len(template.layer_weights)
    weights = tuple(flat[2 * i] for i in range(n))
    biases = tuple(flat[2 * i + 1] for i in range(n))
    return ModelParams(weights, biases, flat[2 * n])


def init_adam_state(params: ModelParams) -> AdamState:
    flat = _flatten_params(params)
    return AdamState(
        0,
        tuple(np.zeros_like(t) for t in flat),
        tuple(np.zeros_like(t) for t in flat),
    )


def adam_step(
    params: ModelParams,
    grads: ModelParams,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[ModelParams, AdamState]:
    """One Adam update. The per-parameter step is scale-normalized, which
    keeps the sum-form alignment losses and the mean-form supervised loss
    on comparable footing under a single learning rate."""
    if lr <= 0:
        raise ValueError("lr must be positive")
    _check_grad_shapes(params, grads)
    t = state.step + 1
    flat_p = _flatten_params(params)
    flat_g = _flatten_params(grads)
    new_p: list[np.ndarray] = []
    new_m: list[np.ndarray] = []
    new_v: list[np.ndarray] = []
    for p, g, m, v in zip(flat_p, flat_g, state.means, state.variances):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        new_p.append(p - lr * m_hat / (np.sqrt(v_hat) + eps))
        new_m.append(m)
        new_v.append(v)
    return _rebuild_params(new_p, params), AdamState(t, tuple(new_m), tuple(new_v))


def _pack_matrix(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def save_checkpoint(path: str, params: ModelParams, bank: MemoryBank | None = None) -> None:
    """Write the versioned binary checkpoint, optionally with the bank."""
    out = [MAGIC, struct.pack("<I", len(params.layer_weights))]
    for w in params.layer_weights:
        out.append(struct.pack("<II", w.shape[0], w.shape[1]))
    out.append(struct.pack("<II", *params.head_weights.shape))
    for w, b in zip(params.layer_weights, params.layer_biases):
        out.append(_pack_matrix(w))
        out.append(_pack_matrix(b))
    out.append(_pack_matrix(params.head_weights))
    if bank is None:
        out.append(b"\x00")
    else:
        out.append(b"\x01")
        out.append(struct.pack("<II", bank.num_classes, bank.dim))
        out.append(struct.pack("<d", bank.momentum))
        out.append(bank.seen.astype(np.uint8).tobytes())
        out.append(_pack_matrix(bank.prototypes))
    with open(path, "wb") as fh:
        fh.write(b"".join(out))


class _Reader:
    def __init__(self, path: str, blob: bytes):
        self.path = path
        self.blob = blob
        self.offset = 0

    def take(self, count: int) -> bytes:
        if self.offset + count > len(self.blob):
            raise ParseError(self.path, self.offset, "truncated checkpoint")
        chunk = self.blob[self.offset : self.offset + count]
        self.offset += count
        return chunk

    def u32(self, n: int = 1) -> tuple[int, ...]:
        return struct.unpack(f"<{n}I", self.take(4 * n))

    def f64_array(self, shape) -> np.ndarray:
        count = int(np.prod(shape))
        return np.frombuffer(self.take(8 * count), dtype="<f8").reshape(shape).copy()


def load_checkpoint(path: str) -> tuple[ModelParams, MemoryBank | None]:
    with open(path, "rb") as fh:
        blob = fh.read()
    r = _Reader(str(path), blob)
    if r.take(8) != MAGIC:
        raise ParseError(str(path), 0, "bad magic; not a checkpoint file")
    (num_layers,) = r.u32()
    if num_layers < 1 or num_layers > 1024:
        raise ParseError(str(path), r.offset, f"implausible layer count {num_layers}")
    shapes = [r.u32(2) for _ in range(num_layers)]
    head_shape = r.u32(2)
    weights = []
    biases = []
    for out_dim, in_dim in shapes:
        weights.append(r.f64_array((out_dim, in_dim)))
        biases.append(r.f64_array((out_dim,)))
    head = r.f64_array(head_shape)
    params = ModelParams(tuple(weights), tuple(biases), head)
    (flag,) = struct.unpack("<B", r.take(1))
    bank = None
    if flag == 1:
        k, d = r.u32(2)
        (momentum,) = struct.unpack("<d", r.take(8))
        seen = np.frombuffer(r.take(k), dtype=np.uint8).astype(bool)
        protos = r.f64_array((k, d))
        bank = MemoryBank(protos, seen, momentum)
    elif flag != 0:
        raise ParseError(str(path), r.offset, f"bad bank flag {flag}")
    if r.offset != len(blob):
        raise ParseError(str(path), r.offset, "trailing bytes after checkpoint")
    return params, bank
