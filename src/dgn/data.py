"""Synthetic scenes, sparse-annotation sampling, metrics, and scene file I/O.

Scene files use the text format ``dgn/1``:

    dgn/1 <n> <d_extra> <num_classes>
    x y z f1 .. f<d_extra> label        (n lines; label -1 = unlabeled)
    sparse <m>                          (optional trailer)
    index class                         (m lines)

Floats are written with ``repr`` so round-trips are lossless. Labels,
indices and classes are integer literals (``2.0`` is rejected), and no
field has digit-group underscores or non-ASCII digits. When the trailer
is absent, the sparse set defaults to every point whose label column is
>= 0.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EmptyScene, LengthMismatch, ParseError

GEOMETRIES = ("gaussian_blobs", "planar_patches", "mixed")
EXTRA_FEATURE_DIM = 4  # normal-like direction (3) + height (1)


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
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")


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
        raise ValueError("scene must have dense ground truth to sample labels")
    m = max(1, int(round(rate * n)))
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(n, size=m, replace=False))
    return SparseLabels(idx, scene.gt_labels[idx])


def with_sparse(scene: SceneBatch, sparse: SparseLabels) -> SceneBatch:
    return dataclasses.replace(scene, sparse=sparse)


def miou(pred: np.ndarray, gt: np.ndarray, num_classes: int) -> IoUReport:
    """Mean intersection-over-union between predicted and true classes.

    Per class: IoU = TP / (TP + FP + FN). Classes missing from both pred
    and gt are excluded; classes predicted but absent from gt count as 0.
    """
    pred = np.asarray(pred, dtype=np.int64)
    gt = np.asarray(gt, dtype=np.int64)
    if pred.shape != gt.shape or pred.ndim != 1:
        raise LengthMismatch(f"pred {pred.shape} vs gt {gt.shape}")
    if pred.size == 0:
        raise EmptyScene("cannot score an empty prediction")
    for name, arr in (("pred", pred), ("gt", gt)):
        if np.any(arr < 0) or np.any(arr >= num_classes):
            raise ValueError(f"{name} contains invalid class indices")
    confusion = np.bincount(
        gt * num_classes + pred, minlength=num_classes * num_classes
    ).reshape(num_classes, num_classes)
    tp = np.diag(confusion).astype(np.float64)
    fp = confusion.sum(axis=0) - tp
    fn = confusion.sum(axis=1) - tp
    denom = tp + fp + fn
    present = denom > 0
    per_class = np.full(num_classes, np.nan)
    per_class[present] = tp[present] / denom[present]
    return IoUReport(per_class, present, float(np.mean(per_class[present])))


def _fmt_floats(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def write_scene(path: str, scene: SceneBatch) -> None:
    """Write a scene in the dgn/1 text format, including the sparse trailer."""
    lines = [f"dgn/1 {scene.num_points} {scene.extra_feats.shape[1]} {scene.num_classes}"]
    for i in range(scene.num_points):
        row = _fmt_floats(scene.coords[i]) + " " + _fmt_floats(scene.extra_feats[i])
        lines.append(f"{row} {int(scene.gt_labels[i])}")
    lines.append(f"sparse {scene.sparse.size}")
    for idx, cls in zip(scene.sparse.indices, scene.sparse.classes):
        lines.append(f"{int(idx)} {int(cls)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_err(path: str, line_no: int, reason: str) -> ParseError:
    return ParseError(str(path), line_no, reason)


_SPARSE_ROW = np.dtype([("index", np.int64), ("class", np.int64)])


def _parse_rows(path, lines, first_line, count, row, width_reason, check=None):
    """Parse ``lines`` as ``count`` records of dtype ``row`` with one
    ``np.loadtxt`` call. ``lines[0]`` is line ``first_line`` of the file;
    fewer than ``count`` lines mean the file ended early.

    ``check(records, line_no)``, when given, raises for the first record
    it rejects; ``line_no`` is the line of ``records[0]``. If the one-call
    parse fails, a scan of the lines raises the ParseError of the first
    faulty one: a field count other than ``row``'s (``width_reason``
    formatted with ``got``), a field ``loadtxt`` cannot convert, a
    rejected record, or a missing line.
    """
    if len(lines) == count:
        try:
            with warnings.catch_warnings():
                # loadtxt warns on empty input: no rows, or only blank lines
                warnings.simplefilter("ignore", UserWarning)
                records = np.loadtxt(lines, dtype=row, comments=None, ndmin=1)
        except ValueError:
            records = None
        if records is not None and len(records) == count:
            if check:
                check(records, first_line)
            return records
    fields = sum(int(np.prod(row[name].shape)) for name in row.names)
    for line_no, line in enumerate(lines, start=first_line):
        got = len(line.split())
        if got != fields:
            raise _parse_err(path, line_no, width_reason.format(got=got))
        try:
            record = np.loadtxt([line], dtype=row, comments=None, ndmin=1)
        except ValueError:
            raise _parse_err(path, line_no, "malformed number") from None
        if check:
            check(record, line_no)
    raise _parse_err(path, first_line + len(lines), "unexpected end of file")


def read_scene(path: str) -> SceneBatch:
    """Parse a dgn/1 scene file; raises ParseError with a line number."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise _parse_err(path, 1, "empty file")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "dgn/1":
        raise _parse_err(path, 1, "expected header 'dgn/1 n d_extra num_classes'")
    try:
        n, d_extra, num_classes = (int(tok) for tok in head[1:])
    except ValueError:
        raise _parse_err(path, 1, "header counts must be integers") from None
    if n < 1 or d_extra < 0 or num_classes < 1:
        raise _parse_err(path, 1, "header counts out of range")

    body = np.dtype([
        ("coords", np.float64, (3,)),
        ("feats", np.float64, (d_extra,)),
        ("label", np.int64),
    ])

    def check_labels(records, line_no):
        labels = records["label"]
        bad = np.flatnonzero((labels < -1) | (labels >= num_classes))
        if bad.size:
            first = int(bad[0])
            raise _parse_err(path, line_no + first, f"label {labels[first]} out of range")

    rows = _parse_rows(
        path, lines[1 : n + 1], 2, n, body,
        f"expected {3 + d_extra + 1} fields, got {{got}}", check_labels,
    )
    coords, feats, labels = rows["coords"], rows["feats"], rows["label"]

    cursor = n + 1
    if cursor < len(lines) and lines[cursor].strip():
        toks = lines[cursor].split()
        if len(toks) != 2 or toks[0] != "sparse":
            raise _parse_err(path, cursor + 1, "expected 'sparse m' trailer")
        try:
            m = int(toks[1])
        except ValueError:
            raise _parse_err(path, cursor + 1, "sparse count must be an integer") from None
        if m < 0:
            raise _parse_err(path, cursor + 1, "sparse count out of range")
        pairs = _parse_rows(
            path, lines[cursor + 1 : cursor + 1 + m], cursor + 2, m, _SPARSE_ROW,
            "expected 'index class'",
        )
        sparse = SparseLabels(pairs["index"], pairs["class"])
    else:
        keep = labels >= 0
        sparse = SparseLabels(np.flatnonzero(keep), labels[keep])

    try:
        return SceneBatch(coords, feats, labels, sparse, num_classes)
    except (ValueError, LengthMismatch) as exc:
        raise _parse_err(path, 1, f"inconsistent scene: {exc}") from None
