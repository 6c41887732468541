"""Synthetic scenes, sparse-annotation sampling, metrics, and the four
text tables of ``dgn``:

- scene files, ``dgn/1`` (without the trailer, the sparse set is every
  point whose label is >= 0)::

      dgn/1 <n> <d_extra> <num_classes>
      x y z f1 .. f<d_extra> label        (n lines; label -1 = unlabeled)
      sparse <m>                          (optional trailer)
      index class                         (m lines)

- matrix files (``dgn cluster``): rows of floats, each as wide as the first;
- label files (``dgn cluster --labels``, ``dgn eval --pred``): one integer
  per line, -1 = unlabeled;
- posterior files (``dgn cluster``, ``dgn explain``): rows of ``%.6g`` floats.

One grammar serves them. Fields are split on whitespace. A float is finite
ASCII decimal; scenes write ``repr``, so round trips are lossless. An
integer is ``[+-]?[0-9]+`` within int64: ``2.0``, ``1_0`` and non-ASCII
digits are rejected. A scene splits its lines as ``str.splitlines`` does,
and a blank line among its rows has no fields; matrix and label files are
streamed with universal newlines and skip blank lines. One ``np.loadtxt``
call parses each table; only when it fails, or a value is rejected, does
a scan raise the ParseError of the first faulty line. ``integer`` and
``real`` are the grammars of the other text inputs: header and trailer
counts, config values and command-line arguments.
"""

from __future__ import annotations

import dataclasses
import math
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyScene, LengthMismatch, ParseError

GEOMETRIES = ("gaussian_blobs", "planar_patches", "mixed")
EXTRA_FEATURE_DIM = 4  # normal-like direction (3) + height (1)
_INTEGER = re.compile(r"[+-]?[0-9]+")
_REAL = re.compile(r"[+-]?(?:(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf|nan)")


def integer(token: str) -> int:
    """The int that ``token`` spells as ``[+-]?[0-9]+``; ValueError for any
    other token. Unlike ``int()``, it rejects digit-group underscores
    (``1_0``), non-ASCII digits and surrounding whitespace."""
    if not _INTEGER.fullmatch(token):
        raise ValueError(f"invalid integer: {token!r}")
    return int(token)


def real(token: str) -> float:
    """The float that ``token`` spells in ASCII decimal, or as ``nan`` or
    ``inf`` for the caller to reject; ValueError for any other token.
    Unlike ``float()``, it rejects digit-group underscores (``0.00_3``),
    non-ASCII digits, surrounding whitespace, ``NaN`` and ``Infinity``."""
    if not _REAL.fullmatch(token):
        raise ValueError(f"invalid float: {token!r}")
    return float(token)


@dataclass(frozen=True)
class SparseLabels:
    """Indices of annotated points and their classes."""

    indices: np.ndarray  # (m,) distinct int indices
    classes: np.ndarray  # (m,) class index per annotated point

    def __post_init__(self):
        indices = np.asarray(self.indices, dtype=np.int64)
        classes = np.asarray(self.classes, dtype=np.int64)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "classes", classes)
        if indices.shape != classes.shape or indices.ndim != 1:
            raise LengthMismatch(
                f"indices {indices.shape} vs classes {classes.shape}"
            )
        if indices.size and np.unique(indices).size != indices.size:
            raise ValueError("annotated indices must be distinct")
        if np.any(indices < 0):
            raise ValueError("annotated indices must be nonnegative")

    @property
    def size(self) -> int:
        return int(self.indices.size)


@dataclass(frozen=True)
class SceneBatch:
    """One synthetic point cloud with dense ground truth and a sparse mask.

    ``gt_labels`` may hold -1 for points whose ground truth is unknown
    (annotation files); such points can never appear in ``sparse``.
    """

    coords: np.ndarray       # (n, 3)
    extra_feats: np.ndarray  # (n, d_extra)
    gt_labels: np.ndarray    # (n,) class indices, -1 = unknown
    sparse: SparseLabels
    num_classes: int

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=np.float64)
        feats = np.asarray(self.extra_feats, dtype=np.float64)
        gt = np.asarray(self.gt_labels, dtype=np.int64)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "extra_feats", feats)
        object.__setattr__(self, "gt_labels", gt)
        n = coords.shape[0]
        if coords.ndim != 2 or coords.shape[1] != 3:
            raise LengthMismatch(f"coords must be (n, 3), got {coords.shape}")
        if feats.shape[0] != n or gt.shape != (n,):
            raise LengthMismatch("coords, extra_feats and gt_labels disagree on n")
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if np.any(gt >= self.num_classes) or np.any(gt < -1):
            raise ValueError("gt labels out of range")
        sp = self.sparse
        if sp.size:
            if np.any(sp.indices >= n):
                raise ValueError("sparse indices out of range")
            if np.any(gt[sp.indices] != sp.classes):
                raise ValueError("sparse classes disagree with ground truth")

    @property
    def num_points(self) -> int:
        return int(self.coords.shape[0])

    def network_input(self) -> np.ndarray:
        return np.hstack([self.coords, self.extra_feats])


@dataclass(frozen=True)
class SceneSpec:
    """Generation recipe for one synthetic scene."""

    num_classes: int
    points_per_class: tuple[int, int] = (60, 90)
    geometry: str = "mixed"
    noise_sigma: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        lo, hi = self.points_per_class
        if lo < 1 or hi < lo:
            raise ValueError("points_per_class must be a range with 1 <= lo <= hi")
        if self.geometry not in GEOMETRIES:
            raise ValueError(f"geometry must be one of {GEOMETRIES}")
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ValueError("noise_sigma must be finite and >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class IoUReport:
    """Per-class intersection-over-union and their mean.

    Classes absent from both prediction and ground truth are excluded from
    the mean and carry NaN in ``per_class_iou``.
    """

    per_class_iou: np.ndarray  # (num_classes,), NaN where excluded
    present: np.ndarray        # (num_classes,) bool, True where counted
    miou: float


def _class_center(c: int, num_classes: int) -> np.ndarray:
    # fixed per-class layout, independent of the scene seed, so the same
    # class lands in the same region across scenes
    angle = 2.0 * np.pi * c / num_classes
    radius = 5.0
    return np.array([radius * np.cos(angle), radius * np.sin(angle), float(c % 3)])


def _class_normal(c: int, num_classes: int) -> np.ndarray:
    tilt = 0.9 * np.pi * (c + 0.5) / num_classes
    spin = 2.3 * c
    normal = np.array(
        [np.sin(tilt) * np.cos(spin), np.sin(tilt) * np.sin(spin), np.cos(tilt)]
    )
    return normal / np.linalg.norm(normal)


def gen_scene(spec: SceneSpec) -> SceneBatch:
    """Generate a deterministic labeled scene per the spec's recipe.

    Each class occupies its own region (blob or planar patch); overlap is
    controlled by ``noise_sigma``. Extra features are a noisy normal-like
    direction plus the point height. The returned scene is fully labeled
    (sparse set = all points).
    """
    rng = np.random.default_rng(spec.seed)
    lo, hi = spec.points_per_class
    coords_parts = []
    feats_parts = []
    labels_parts = []
    for c in range(spec.num_classes):
        count = int(rng.integers(lo, hi + 1))
        center = _class_center(c, spec.num_classes)
        normal = _class_normal(c, spec.num_classes)
        use_patch = spec.geometry == "planar_patches" or (
            spec.geometry == "mixed" and c % 2 == 1
        )
        if use_patch:
            basis = np.linalg.svd(normal[None, :])[2][1:]  # in-plane axes
            ab = rng.uniform(-1.5, 1.5, size=(count, 2))
            pts = center + ab @ basis
            pts += spec.noise_sigma * rng.standard_normal((count, 1)) * normal
            point_normals = normal + 0.05 * rng.standard_normal((count, 3))
        else:
            pts = center + spec.noise_sigma * rng.standard_normal((count, 3))
            offsets = pts - center
            norms = np.linalg.norm(offsets, axis=1, keepdims=True)
            point_normals = np.where(norms > 1e-12, offsets / np.maximum(norms, 1e-12),
                                     np.array([0.0, 0.0, 1.0]))
        point_normals /= np.linalg.norm(point_normals, axis=1, keepdims=True)
        coords_parts.append(pts)
        feats_parts.append(np.hstack([point_normals, pts[:, 2:3]]))
        labels_parts.append(np.full(count, c, dtype=np.int64))

    coords = np.vstack(coords_parts)
    feats = np.vstack(feats_parts)
    gt = np.concatenate(labels_parts)
    n = gt.size
    sparse = SparseLabels(np.arange(n), gt.copy())
    return SceneBatch(coords, feats, gt, sparse, spec.num_classes)


def sample_sparse_labels(scene: SceneBatch, rate: float, seed: int) -> SparseLabels:
    """Uniform random annotation subset of size max(1, round(rate * n))."""
    n = scene.num_points
    if n == 0:
        raise EmptyScene("cannot sample labels from an empty scene")
    if not 0.0 < rate <= 1.0:
        raise ValueError("rate must be in (0, 1]")
    if np.any(scene.gt_labels < 0):
        raise DimensionMismatch("scene must have dense ground truth to sample labels")
    m = max(1, int(round(rate * n)))
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(n, size=m, replace=False))
    return SparseLabels(idx, scene.gt_labels[idx])


def with_sparse(scene: SceneBatch, sparse: SparseLabels) -> SceneBatch:
    return dataclasses.replace(scene, sparse=sparse)


def confusion(pred: np.ndarray, gt: np.ndarray, num_classes: int) -> np.ndarray:
    """The (num_classes, num_classes) count of points by true class (row)
    and predicted class (column). Counts of several batches add up to the
    count of their concatenation."""
    pred = np.asarray(pred, dtype=np.int64)
    gt = np.asarray(gt, dtype=np.int64)
    if pred.shape != gt.shape or pred.ndim != 1:
        raise LengthMismatch(f"pred {pred.shape} vs gt {gt.shape}")
    if pred.size == 0:
        raise EmptyScene("cannot score an empty prediction")
    for name, arr in (("pred", pred), ("gt", gt)):
        if np.any(arr < 0) or np.any(arr >= num_classes):
            raise DimensionMismatch(f"{name} contains invalid class indices")
    return np.bincount(
        gt * num_classes + pred, minlength=num_classes * num_classes
    ).reshape(num_classes, num_classes)


def iou_from_confusion(counts: np.ndarray) -> IoUReport:
    """Per-class IoU = TP / (TP + FP + FN) and their mean, from a nonzero
    ``confusion`` count. Classes missing from both prediction and truth
    are excluded; classes predicted but absent from the truth count as 0."""
    num_classes = counts.shape[0]
    tp = np.diag(counts).astype(np.float64)
    fp = counts.sum(axis=0) - tp
    fn = counts.sum(axis=1) - tp
    denom = tp + fp + fn
    present = denom > 0
    per_class = np.full(num_classes, np.nan)
    per_class[present] = tp[present] / denom[present]
    return IoUReport(per_class, present, float(np.mean(per_class[present])))


def miou(pred: np.ndarray, gt: np.ndarray, num_classes: int) -> IoUReport:
    """Mean intersection-over-union between predicted and true classes:
    ``iou_from_confusion`` of their ``confusion`` count."""
    return iou_from_confusion(confusion(pred, gt, num_classes))


def _format_rows(matrix: np.ndarray, row_format: str) -> str:
    """The rows of ``matrix``, each formatted by ``row_format``, joined by
    newlines; one ``%`` formats the whole matrix."""
    return "\n".join([row_format] * matrix.shape[0]) % tuple(matrix.ravel().tolist())


def write_scene(path: str, scene: SceneBatch) -> None:
    """Write a scene in the dgn/1 text format, including the sparse trailer.

    Floats go through ``%r``, which is ``repr`` of the Python float, and
    labels through ``%d`` (labels are exact in float64). The coordinates
    and the extra features are joined by one space each side, so rows
    without extra features carry two spaces before the label.
    """
    d_extra = scene.extra_feats.shape[1]
    table = np.hstack([scene.coords, scene.extra_feats, scene.gt_labels[:, None]])
    pairs = np.column_stack([scene.sparse.indices, scene.sparse.classes])
    text = [f"dgn/1 {scene.num_points} {d_extra} {scene.num_classes}",
            _format_rows(table, "%r %r %r " + " ".join(["%r"] * d_extra) + " %d"),
            f"sparse {scene.sparse.size}", _format_rows(pairs, "%d %d")]
    with open(path, "w") as fh:
        fh.write("\n".join(filter(None, text)) + "\n")  # a table without rows has no line


def _ascii(line: str) -> str:
    # numpy's integer parser reads out of bounds on a character past U+00FF,
    # and may crash: a line that is not ASCII goes as its fields joined by
    # spaces, each such character as "?", which no number has
    return line if line.isascii() else " ".join(line.split()).encode("ascii", "replace").decode()


def _loadtxt(lines, row: np.dtype) -> np.ndarray | None:
    """``np.loadtxt`` of ``lines`` as records of dtype ``row`` (as a matrix
    for a plain dtype), or None when it cannot read them."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # on no rows or blank lines only
            return np.loadtxt(map(_ascii, lines), dtype=row, comments=None,
                              ndmin=1 if row.names else 2)
    except ValueError:
        return None


def _parse_rows(path, lines, row, fault, check=None, first_line=1, count=None):
    """The ``count`` records of dtype ``row`` in ``lines`` (a list, or a
    text file open at its start, from line ``first_line``), by one
    ``_loadtxt`` call. ``check(records)`` is the reason for the first
    record it rejects, or None. If the call fails, finds another count, or
    ``check`` rejects a record, a scan raises the ParseError of the first
    line ``fault(line)`` gives a reason for. With ``count`` None, any number
    of records is due and the scan skips blank lines, as ``loadtxt`` does."""
    # loadtxt allocates rows of ``row``'s width before it parses one, so the
    # width a header claims is trusted only once the first line has it
    if count is None or (len(lines) == count and not (count and fault(lines[0]))):
        records = _loadtxt(lines, row)
        if (records is not None and (count is None or len(records) == count)
                and not (check and check(records))):
            return records
    if not isinstance(lines, list):
        lines.seek(0)  # a file is scanned as it is read, never held
    line_no = first_line - 1
    for line_no, line in enumerate(lines, start=first_line):
        reason = fault(line) if count is not None or line.strip() else None
        if reason:
            raise ParseError(path, line_no, reason)
    raise ParseError(path, line_no + 1, "unexpected end of file")


def _fields_fault(row: np.dtype, width_reason: str, check=None):
    """The ``fault`` of a line of ``row``'s fields: another count (``width_reason``
    formatted with ``got``), a malformed number, or ``check``'s reason."""
    def fault(line):
        got = len(line.split())
        if got != row.itemsize // 8:  # every field is an 8-byte number
            return width_reason.format(got=got)
        record = _loadtxt([line], row)
        return "malformed number" if record is None else check and check(record)

    return fault


def _read_matrix(path: str) -> np.ndarray:
    """The matrix of a matrix file. A line's faults come in this order: a
    malformed number, a non-finite one, a width other than the first row's."""
    width = None

    def check(matrix):
        return None if np.isfinite(matrix).all() else "non-finite number"

    def fault(line):
        nonlocal width
        matrix = _loadtxt([line], np.dtype(np.float64))
        if matrix is None:
            return "malformed number"
        width, got = width or matrix.shape[1], matrix.shape[1]
        return check(matrix) or (f"expected {width} columns, got {got}" if got != width else None)

    with open(path) as fh:
        matrix = _parse_rows(path, fh, np.dtype(np.float64), fault, check)
    if not matrix.shape[0]:
        raise ParseError(path, 1, "empty matrix file")
    return matrix


def _label_fault(line: str) -> str | None:
    try:
        label = integer(line.strip())
    except ValueError:
        return "expected one integer per line"
    return None if -(2**63) <= label < 2**63 else "label outside the int64 range"


def _read_labels(path: str, n: int) -> np.ndarray:
    """The ``n`` int64 labels of a label file; LengthMismatch for another count."""
    with open(path) as fh:
        labels = _parse_rows(path, fh, np.dtype([("label", np.int64)]), _label_fault)["label"]
    if len(labels) != n:
        raise LengthMismatch(f"{path}: {len(labels)} labels for {n} rows")
    return labels


def read_scene(path: str) -> SceneBatch:
    """Parse a dgn/1 scene file; raises ParseError with a line number."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError(path, 1, "empty file")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "dgn/1":
        raise ParseError(path, 1, "expected header 'dgn/1 n d_extra num_classes'")
    try:
        n, d_extra, num_classes = (integer(tok) for tok in head[1:])
    except ValueError:
        raise ParseError(path, 1, "header counts must be integers") from None
    if n < 1 or d_extra < 0 or num_classes < 1:
        raise ParseError(path, 1, "header counts out of range")

    body = np.dtype([("coords", np.float64, (3,)), ("feats", np.float64, (d_extra,)),
                     ("label", np.int64)])

    def check_rows(records):
        labels = records["label"]
        finite = np.isfinite(records["coords"]).all(axis=1)
        finite &= np.isfinite(records["feats"]).all(axis=1)
        bad = np.flatnonzero(~finite | (labels < -1) | (labels >= num_classes))
        if not bad.size:
            return None
        first = int(bad[0])
        return "non-finite number" if not finite[first] else f"label {labels[first]} out of range"

    fault = _fields_fault(body, f"expected {3 + d_extra + 1} fields, got {{got}}", check_rows)
    rows = _parse_rows(path, lines[1 : n + 1], body, fault, check_rows, first_line=2, count=n)
    coords, feats, labels = rows["coords"], rows["feats"], rows["label"]

    cursor = n + 1
    if cursor < len(lines) and lines[cursor].strip():
        toks = lines[cursor].split()
        if len(toks) != 2 or toks[0] != "sparse":
            raise ParseError(path, cursor + 1, "expected 'sparse m' trailer")
        try:
            m = integer(toks[1])
        except ValueError:
            raise ParseError(path, cursor + 1, "sparse count must be an integer") from None
        if m < 0:
            raise ParseError(path, cursor + 1, "sparse count out of range")
        pair = np.dtype([("index", np.int64), ("class", np.int64)])
        pairs = _parse_rows(path, lines[cursor + 1 : cursor + 1 + m], pair,
                            _fields_fault(pair, "expected 'index class'"),
                            first_line=cursor + 2, count=m)
        sparse = SparseLabels(pairs["index"], pairs["class"])
    else:
        keep = labels >= 0
        sparse = SparseLabels(np.flatnonzero(keep), labels[keep])

    try:
        return SceneBatch(coords, feats, labels, sparse, num_classes)
    except (ValueError, LengthMismatch) as exc:
        raise ParseError(path, 1, f"inconsistent scene: {exc}") from None
