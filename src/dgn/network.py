"""Toy per-point MLP with a radial (bias-free) segment head.

Hidden layers are affine + rectifier; the final feature layer is affine
with no activation so the feature space keeps its orientation. Logits are
``features @ head.T`` with no bias, which makes the argmax invariant to
positive scaling of the feature vector. Forward/backward are written by
hand; all arithmetic is float64.

Adam keeps each of its two moments as one flat vector over
``ModelParams.tensors``, so an update is one pass of elementwise ops over
all parameters rather than one pass per tensor (``AdamState``).

Forward writes its per-point arrays into a ``Workspace`` instead of
allocating them, and so does the rest of an aligned training step
(``trainer.train_step``); backward forms its per-point gradients in the
forward's own buffers. The keys of one step:

- ``input``: the network input; ``act0``, ``act1``, ...: each layer's
  output, the last of them the features; ``logits`` and ``probs``: the
  head's (``forward``). ``backward`` overwrites the features and the
  hidden activations with their gradients;
- ``unit``: the unit rows of the features (``movmf.unit_rows``);
  ``posterior``: the mixture fit's (n, k) posterior; ``twice``: twice the
  features, for the gmm fit and loss; ``d_features`` and ``d_logits``: the
  summed loss gradients that ``backward`` reads;
- ``scratch0`` and ``scratch1`` (``workspace.SCRATCH``): the loss/alignment
  stage's temporaries, at most (n, max(feat_dim, k)) each: the TCE and
  softmax gradients, the fit's per-point arrays, the loss temporaries and
  the per-term gradients. All of them are dead before ``backward`` runs,
  which takes no workspace key, and ``forward`` takes neither.

Aliasing rule: an array returned on a shared workspace is valid until the
next call that takes its key. A ``ForwardCache`` lasts until the next
``forward`` or until ``backward`` reads it, whichever comes first: after
``backward`` its ``features`` and hidden activations hold gradients, and
only its ``inputs``, ``logits`` and ``probs`` are still the forward's.
The gradients ``backward`` reads may not share memory with the arrays it
overwrites. A posterior or a loss gradient lasts until the next step or
loss call on that workspace.

Checkpoint container (binary, little-endian):

    magic   8 bytes  b"DGNCK001"
    u32     number of layers L
    u32 x2L (out, in) per layer
    u32 x2  head shape (num_classes, feat_dim)
    f64     ModelParams.tensors in order: W_0 row-major, b_0, ..., head
    u8      bank flag (0 = absent)
    [u32 x2 bank shape, f64 momentum, u8 x k seen flags, f64 prototypes]

Each shape's ``in`` (the head's feat_dim) is the ``out`` of the layer
before it: a checkpoint whose shapes do not chain is a ParseError at the
first shape that breaks the chain. The bank shape is the head shape
(num_classes, feat_dim), and the bank holds what ``MemoryBank`` accepts:
a checkpoint whose bank is not is a ParseError at the bank shape's offset.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .bank import MemoryBank
from .errors import DimensionMismatch, NonFiniteOutput, ParseError, ShapeMismatch, StaleCache
from .movmf import _softmax_rows, _sum_columns
from .workspace import Workspace

MAGIC = b"DGNCK001"
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class ModelParams:
    """MLP weights/biases plus the bias-free segment head.

    The same container is reused for gradients (entries then hold the
    partial derivatives in matching positions). ``tensors`` is the one
    order that init, backward, Adam and the checkpoint walk.
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
    def tensors(self) -> tuple[np.ndarray, ...]:
        """(W_0, b_0, ..., W_{L-1}, b_{L-1}, head): the one parameter order."""
        pairs = zip(self.layer_weights, self.layer_biases)
        return (*(t for pair in pairs for t in pair), self.head_weights)

    @classmethod
    def from_tensors(cls, tensors) -> ModelParams:
        """Inverse of ``tensors``."""
        return cls(tuple(tensors[:-1:2]), tuple(tensors[1:-1:2]), tensors[-1])

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
    tensors = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        scale = 1.0 / np.sqrt(fan_in)
        tensors += [rng.uniform(-scale, scale, size=(fan_out, fan_in)), np.zeros(fan_out)]
    scale = 1.0 / np.sqrt(dims[-1])
    tensors.append(rng.uniform(-scale, scale, size=(num_classes, dims[-1])))
    return ModelParams.from_tensors(tensors)


def softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row softmax with max subtraction, written into ``out`` (which may be
    ``logits`` itself) or a fresh array, by ``movmf._softmax_rows``."""
    return _softmax_rows(logits, np.empty(logits.shape) if out is None else out)


def softmax_backward(dP: np.ndarray, P: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Chain a gradient wrt probabilities back to the logits, written into
    ``out`` (which may not be ``P``) or a fresh array."""
    inner = np.einsum("nk,nk->n", dP, P)
    out = np.subtract(dP, inner[:, None], out=out)
    return np.multiply(P, out, out=out)


@dataclass(frozen=True)
class ForwardCache:
    """Everything the backward pass needs, plus the network outputs.

    ``backward`` overwrites ``features`` and ``acts`` with their gradients,
    so a cache serves one backward pass, after any reads of its features."""

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
    ``workspace`` (a fresh one when omitted). A nan or inf output turns its
    ``probs`` row nan and raises NonFiniteOutput in place of numpy's warnings.
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
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (w, b) in enumerate(zip(params.layer_weights, params.layer_biases)):
            a = np.matmul(a, w.T, out=ws.take(f"act{i}", n, w.shape[0]))
            a += b
            if i < last:
                np.maximum(a, 0.0, out=a)
                acts.append(a)
        k = params.num_classes
        logits = np.matmul(a, params.head_weights.T, out=ws.take("logits", n, k))
        probs = softmax(logits, ws.take("probs", n, k))
    if not np.isfinite(probs).all():
        raise NonFiniteOutput("the network's outputs are not finite")
    return ForwardCache(x, tuple(acts), a, logits, probs)


def backward(
    params: ModelParams,
    cache: ForwardCache,
    d_features: np.ndarray,
    d_logits: np.ndarray,
) -> ModelParams:
    """Exact reverse-mode gradients for all parameters.

    Accumulates the feature-path gradient (alignment losses, already
    chained through normalization) and the logit-path gradient (head
    losses). Returns a ModelParams-shaped gradient container.

    The per-point gradients in between are formed in the cache's own
    buffers: each layer's upstream gradient overwrites the activation it is
    the gradient of (``features``, then each hidden activation once its
    rectifier mask and the weight gradient of the layer above are taken),
    so the cache is dead after this call. ``d_features`` or ``d_logits``
    that may share memory with ``features`` or a hidden activation raises
    StaleCache, as does a cache that does not match the parameters.
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
    overwritten = (cache.features, *cache.acts)
    if any(np.may_share_memory(g, a) for g in (d_features, d_logits) for a in overwritten):
        raise StaleCache("an upstream gradient shares memory with the activations "
                         "backward overwrites")

    d_head = d_logits.T @ cache.features
    # Float addition commutes exactly, so the sum below is bitwise
    # d_features + d_logits @ head.
    dz = np.matmul(d_logits, params.head_weights, out=cache.features)
    dz += d_features

    below = (cache.inputs, *cache.acts)
    grads: list[np.ndarray | None] = [None] * (2 * num_layers)
    grads.append(d_head)
    mask = None
    for i in range(num_layers - 1, -1, -1):
        if mask is not None:
            dz *= mask
        grads[2 * i] = dz.T @ below[i]
        grads[2 * i + 1] = _sum_columns(dz)
        if i:
            mask = below[i] > 0
            dz = np.matmul(dz, params.layer_weights[i], out=below[i])
    return ModelParams.from_tensors(grads)


def _check_grad_shapes(tensors: tuple, grads: tuple) -> None:
    """Raise unless ``grads`` has the shape of every tensor in ``tensors``."""
    want = [t.shape for t in tensors]
    got = [g.shape for g in grads]
    if got != want:
        raise ShapeMismatch(f"gradient shapes {got} != parameter shapes {want}")


@dataclass(frozen=True)
class AdamState:
    """Adam's step count and its first and second moments, each one flat
    vector over ``ModelParams.tensors`` in order, raveled row-major."""

    step: int
    means: np.ndarray
    variances: np.ndarray


def init_adam_state(params: ModelParams) -> AdamState:
    size = sum(t.size for t in params.tensors)
    return AdamState(0, np.zeros(size), np.zeros(size))


def _flat(tensors) -> np.ndarray:
    return np.concatenate([t.ravel() for t in tensors])


def _split(flat: np.ndarray, like) -> list[np.ndarray]:
    """Views of ``flat`` shaped as the tensors of ``like``, in order."""
    out, start = [], 0
    for t in like:
        out.append(flat[start:start + t.size].reshape(t.shape))
        start += t.size
    return out


def adam_step(
    params: ModelParams, grads: ModelParams, state: AdamState, lr: float
) -> tuple[ModelParams, AdamState]:
    """One Adam update. The per-parameter step is normalized by the
    gradient's running scale as a whole, not per loss term.

    Every operation is elementwise, so one pass over the flat parameter,
    gradient and moment vectors gives each entry the bits a pass per
    tensor would; the new tensors are views of the new flat vector."""
    if lr <= 0:
        raise ValueError("lr must be positive")
    flat_p, flat_g = params.tensors, grads.tensors
    _check_grad_shapes(flat_p, flat_g)
    p, g = _flat(flat_p), _flat(flat_g)
    if state.means.shape != p.shape or state.variances.shape != p.shape:
        raise ShapeMismatch(
            f"Adam moments {state.means.shape}/{state.variances.shape} != parameters {p.shape}"
        )
    t = state.step + 1
    m = ADAM_BETA1 * state.means + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * state.variances + (1.0 - ADAM_BETA2) * g * g
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    p = p - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return ModelParams.from_tensors(_split(p, flat_p)), AdamState(t, m, v)


def _pack_matrix(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def save_checkpoint(path: str, params: ModelParams, bank: MemoryBank | None = None) -> None:
    """Write the versioned binary checkpoint, optionally with the bank."""
    out = [MAGIC, struct.pack("<I", len(params.layer_weights))]
    matrices = (*params.layer_weights, params.head_weights)
    out.extend(struct.pack("<II", *w.shape) for w in matrices)
    out.extend(_pack_matrix(t) for t in params.tensors)
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
        values = np.frombuffer(self.take(8 * math.prod(shape)), dtype="<f8")
        if not np.isfinite(values).all():
            raise ParseError(self.path, self.offset - values.nbytes, "non-finite value")
        return values.reshape(shape).copy()


def load_checkpoint(path: str) -> tuple[ModelParams, MemoryBank | None]:
    with open(path, "rb") as fh:
        blob = fh.read()
    r = _Reader(str(path), blob)
    if r.take(8) != MAGIC:
        raise ParseError(str(path), 0, "bad magic; not a checkpoint file")
    (num_layers,) = r.u32()
    if num_layers < 1 or num_layers > 1024:
        raise ParseError(str(path), r.offset, f"implausible layer count {num_layers}")
    # (out, in) per layer, then the head's (num_classes, feat_dim): each takes
    # the outputs of the one before
    matrices = [r.u32(2) for _ in range(num_layers + 1)]
    for i in range(1, num_layers + 1):
        if matrices[i][1] != matrices[i - 1][0]:
            name = "head" if i == num_layers else f"layer {i}"
            raise ParseError(str(path), len(MAGIC) + 4 + 8 * i,
                             f"{name} shape {matrices[i]} does not take layer {i - 1}'s "
                             f"{matrices[i - 1][0]} outputs")
    *shapes, head_shape = matrices
    # the shapes of ModelParams.tensors: (out, in) and (out,) per layer, then the head
    tensor_shapes = [s for w in shapes for s in (w, w[:1])] + [head_shape]
    params = ModelParams.from_tensors([r.f64_array(s) for s in tensor_shapes])
    (flag,) = struct.unpack("<B", r.take(1))
    bank = None
    if flag == 1:
        at = r.offset
        k, d = r.u32(2)
        if (k, d) != head_shape:
            raise ParseError(str(path), at,
                             f"bank shape ({k}, {d}) is not the head's {head_shape}")
        (momentum,) = struct.unpack("<d", r.take(8))
        seen = np.frombuffer(r.take(k), dtype=np.uint8).astype(bool)
        protos = r.f64_array((k, d))
        try:
            bank = MemoryBank(protos, seen, momentum)
        except ValueError as exc:  # a momentum or a seen prototype out of range
            raise ParseError(str(path), at, f"bad bank: {exc}") from None
    elif flag != 0:
        raise ParseError(str(path), r.offset, f"bad bank flag {flag}")
    if r.offset != len(blob):
        raise ParseError(str(path), r.offset, "trailing bytes after checkpoint")
    return params, bank
