import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgn import data
from dgn.errors import DgnError, EmptyScene, LengthMismatch, ParseError


def _spec(**kw):
    base = dict(num_classes=3, points_per_class=(20, 30), geometry="mixed",
                noise_sigma=0.2, seed=0)
    base.update(kw)
    return data.SceneSpec(**base)


# ---------------------------------------------------------------------------
# generation

def test_gen_scene_deterministic():
    a = data.gen_scene(_spec(seed=5))
    b = data.gen_scene(_spec(seed=5))
    np.testing.assert_array_equal(a.coords, b.coords)
    np.testing.assert_array_equal(a.extra_feats, b.extra_feats)
    np.testing.assert_array_equal(a.gt_labels, b.gt_labels)


def test_gen_scene_seeds_differ():
    a = data.gen_scene(_spec(seed=1))
    b = data.gen_scene(_spec(seed=2))
    assert a.coords.shape != b.coords.shape or not np.array_equal(a.coords, b.coords)


def test_gen_scene_noiseless_blobs_nearest_centroid_perfect():
    scene = data.gen_scene(_spec(geometry="gaussian_blobs", noise_sigma=0.0))
    centroids = np.stack([
        scene.coords[scene.gt_labels == c].mean(axis=0)
        for c in range(scene.num_classes)
    ])
    d2 = ((scene.coords[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    pred = np.argmin(d2, axis=1)
    assert np.array_equal(pred, scene.gt_labels)


def test_gen_scene_equal_counts_with_fixed_range():
    scene = data.gen_scene(_spec(num_classes=2, points_per_class=(25, 25)))
    counts = np.bincount(scene.gt_labels, minlength=2)
    assert counts.tolist() == [25, 25]


def test_gen_scene_extra_feats_shape_and_directions():
    scene = data.gen_scene(_spec())
    assert scene.extra_feats.shape == (scene.num_points, data.EXTRA_FEATURE_DIM)
    norms = np.linalg.norm(scene.extra_feats[:, :3], axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-9)
    np.testing.assert_allclose(scene.extra_feats[:, 3], scene.coords[:, 2], atol=1e-12)


def test_gen_scene_fully_labeled_by_default():
    scene = data.gen_scene(_spec())
    assert scene.sparse.size == scene.num_points


def test_scene_spec_validation():
    with pytest.raises(ValueError):
        _spec(num_classes=1)
    with pytest.raises(ValueError):
        _spec(geometry="spheres")
    for sigma in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="noise_sigma must be finite and >= 0"):
            _spec(noise_sigma=sigma)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        _spec(seed=-1)


# ---------------------------------------------------------------------------
# sparse annotation sampling

def test_sample_rate_one_labels_everything():
    scene = data.gen_scene(_spec())
    sparse = data.sample_sparse_labels(scene, 1.0, seed=0)
    assert sparse.size == scene.num_points
    np.testing.assert_array_equal(np.sort(sparse.indices), np.arange(scene.num_points))


def test_sample_floor_keeps_one_label():
    scene = data.gen_scene(_spec(num_classes=5, points_per_class=(100, 100)))
    assert scene.num_points == 500
    sparse = data.sample_sparse_labels(scene, 0.001, seed=3)
    assert sparse.size == 1


@pytest.mark.parametrize("rate", [0.01, 0.1, 0.33, 0.8])
def test_sample_size_contract(rate):
    scene = data.gen_scene(_spec())
    n = scene.num_points
    sparse = data.sample_sparse_labels(scene, rate, seed=1)
    assert sparse.size == max(1, int(round(rate * n)))


def test_sample_two_seeds_differ_same_size():
    scene = data.gen_scene(_spec(points_per_class=(200, 200)))
    a = data.sample_sparse_labels(scene, 0.1, seed=1)
    b = data.sample_sparse_labels(scene, 0.1, seed=2)
    assert a.size == b.size
    assert not np.array_equal(a.indices, b.indices)


def test_sample_classes_copied_from_gt():
    scene = data.gen_scene(_spec())
    sparse = data.sample_sparse_labels(scene, 0.2, seed=7)
    np.testing.assert_array_equal(sparse.classes, scene.gt_labels[sparse.indices])


# ---------------------------------------------------------------------------
# mIoU

def test_miou_perfect_prediction():
    gt = np.array([0, 1, 2, 1])
    assert data.miou(gt, gt, 3).miou == pytest.approx(1.0)


def test_miou_complement_is_zero():
    gt = np.array([0, 0, 1, 1])
    pred = 1 - gt
    assert data.miou(pred, gt, 2).miou == pytest.approx(0.0)


def test_miou_hand_confusion():
    gt = np.array([0, 0, 1, 1])
    pred = np.array([0, 1, 1, 1])
    report = data.miou(pred, gt, 2)
    assert report.per_class_iou[0] == pytest.approx(0.5)
    assert report.per_class_iou[1] == pytest.approx(2.0 / 3.0)
    assert report.miou == pytest.approx(7.0 / 12.0, abs=1e-12)
    assert report.miou == pytest.approx(0.58333, abs=1e-5)


def test_miou_absent_class_excluded():
    gt = np.array([0, 0])
    pred = np.array([0, 0])
    report = data.miou(pred, gt, 3)
    assert np.isnan(report.per_class_iou[1]) and np.isnan(report.per_class_iou[2])
    assert report.miou == pytest.approx(1.0)


def test_miou_predicted_but_absent_counts_zero():
    gt = np.array([0, 0])
    pred = np.array([0, 2])
    report = data.miou(pred, gt, 3)
    assert report.per_class_iou[2] == 0.0
    assert report.miou == pytest.approx((0.5 + 0.0) / 2.0)


def test_miou_length_mismatch():
    with pytest.raises(LengthMismatch):
        data.miou(np.array([0]), np.array([0, 1]), 2)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(1, 60), st.integers(0, 2**31 - 1))
def test_miou_permutation_invariant(k, n, seed):
    rng = np.random.default_rng(seed)
    gt = rng.integers(0, k, size=n)
    pred = rng.integers(0, k, size=n)
    perm = rng.permutation(n)
    base = data.miou(pred, gt, k)
    shuffled = data.miou(pred[perm], gt[perm], k)
    assert shuffled.miou == pytest.approx(base.miou, abs=1e-12)


# ---------------------------------------------------------------------------
# scene files

def _random_scene(rng):
    spec = data.SceneSpec(
        num_classes=int(rng.integers(2, 6)),
        points_per_class=(int(rng.integers(1, 8)), int(rng.integers(8, 15))),
        geometry=data.GEOMETRIES[int(rng.integers(3))],
        noise_sigma=float(rng.uniform(0, 0.5)),
        seed=int(rng.integers(0, 2**31 - 1)),
    )
    scene = data.gen_scene(spec)
    rate = float(rng.uniform(0.005, 1.0))
    return data.with_sparse(scene, data.sample_sparse_labels(scene, rate, seed=1))


def test_roundtrip_100_random_scenes(tmp_path):
    rng = np.random.default_rng(99)
    for i in range(100):
        scene = _random_scene(rng)
        path = tmp_path / f"s{i}.dgn"
        data.write_scene(str(path), scene)
        loaded = data.read_scene(str(path))
        np.testing.assert_array_equal(loaded.coords, scene.coords)
        np.testing.assert_array_equal(loaded.extra_feats, scene.extra_feats)
        np.testing.assert_array_equal(loaded.gt_labels, scene.gt_labels)
        np.testing.assert_array_equal(loaded.sparse.indices, scene.sparse.indices)
        np.testing.assert_array_equal(loaded.sparse.classes, scene.sparse.classes)
        assert loaded.num_classes == scene.num_classes


def _old_write_scene(path, scene):
    # the per-row writer write_scene replaced: its bytes are the format's
    lines = [f"dgn/1 {scene.num_points} {scene.extra_feats.shape[1]} {scene.num_classes}"]
    for i in range(scene.num_points):
        row = " ".join(repr(float(v)) for v in scene.coords[i])
        row += " " + " ".join(repr(float(v)) for v in scene.extra_feats[i])
        lines.append(f"{row} {int(scene.gt_labels[i])}")
    lines.append(f"sparse {scene.sparse.size}")
    for idx, cls in zip(scene.sparse.indices, scene.sparse.classes):
        lines.append(f"{int(idx)} {int(cls)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _assert_same_bytes_as_old_writer(tmp_path, scene):
    new, old = tmp_path / "new.dgn", tmp_path / "old.dgn"
    data.write_scene(str(new), scene)
    _old_write_scene(str(old), scene)
    assert new.read_bytes() == old.read_bytes()


@pytest.mark.parametrize("d_extra", [0, 4])
@pytest.mark.parametrize("sparse", ["all", "some", "none"])
def test_write_scene_equals_per_row_writer(tmp_path, d_extra, sparse):
    values = [0.0, -0.0, 1e-300, -5e-324, 1.7976931348623157e308, -1e308, 0.1, 1 / 3,
              2.0**52 + 1, -123456.789, 3.0, 7e22]
    n = 9
    rng = np.random.default_rng(d_extra)
    coords = rng.choice(values, size=(n, 3))
    feats = rng.choice(values, size=(n, d_extra))
    labels = np.array([0, 1, -1, 2, 2, -1, 0, 1, 2])
    labeled = np.flatnonzero(labels >= 0)
    indices = {"all": labeled, "some": labeled[::2], "none": labeled[:0]}[sparse]
    scene = data.SceneBatch(
        coords, feats, labels, data.SparseLabels(indices, labels[indices]), 3
    )
    _assert_same_bytes_as_old_writer(tmp_path, scene)


def test_write_scene_random_scenes_equal_per_row_writer(tmp_path):
    rng = np.random.default_rng(7)
    for _ in range(20):
        _assert_same_bytes_as_old_writer(tmp_path, _random_scene(rng))


@pytest.mark.parametrize("n, m", [(n, m) for n in (1023, 1024, 1025, 4097)
                                  for m in (0, 1024, 1025) if m <= n])
def test_write_scene_equals_per_row_writer_at_block_edges(tmp_path, n, m):
    # rows and pairs go out 1024 to a block: one short of a block, exactly
    # one, one and a row, and several
    rng = np.random.default_rng(n + m)
    indices = np.sort(rng.choice(n, size=m, replace=False))
    labels = rng.integers(0, 5, size=n)
    labels[np.setdiff1d(np.arange(n), indices)[::3]] = -1   # unlabeled, outside the trailer
    scene = data.SceneBatch(rng.standard_normal((n, 3)) ** 3, rng.standard_normal((n, 4)),
                            labels, data.SparseLabels(indices, labels[indices]), 5)
    _assert_same_bytes_as_old_writer(tmp_path, scene)


def _hstack_write_scene(path, scene):
    # write_scene before its body and trailer went through data._format_rows:
    # one hstack table and one % per row
    d_extra = scene.extra_feats.shape[1]
    row = "%r %r %r " + " ".join(["%r"] * d_extra) + " %d"
    table = np.hstack([scene.coords, scene.extra_feats, scene.gt_labels[:, None]])
    lines = [f"dgn/1 {scene.num_points} {d_extra} {scene.num_classes}"]
    lines += [row % tuple(values) for values in table.tolist()]
    lines.append(f"sparse {scene.sparse.size}")
    pairs = zip(scene.sparse.indices.tolist(), scene.sparse.classes.tolist())
    lines += ["%d %d" % pair for pair in pairs]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("d_extra", range(5))
@pytest.mark.parametrize("sparse", ["some", "none"])
def test_write_scene_equals_per_row_format_writer(tmp_path, d_extra, sparse):
    rng = np.random.default_rng(d_extra)
    n = 40
    coords = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-300, 300, size=(n, 3))
    feats = rng.standard_normal((n, d_extra)) ** 3
    labels = rng.integers(-1, 4, size=n)
    labeled = np.flatnonzero(labels >= 0)
    indices = labeled[::3] if sparse == "some" else labeled[:0]
    scene = data.SceneBatch(
        coords, feats, labels, data.SparseLabels(indices, labels[indices]), 4
    )
    new, old = tmp_path / "new.dgn", tmp_path / "old.dgn"
    data.write_scene(str(new), scene)
    _hstack_write_scene(str(old), scene)
    assert new.read_bytes() == old.read_bytes()


def test_loadtxt_is_called_in_data_only():
    # data is the one reader and the one formatter of text tables
    package = Path(data.__file__).parent
    for name in ("loadtxt", "_format_rows"):
        callers = [path.name for path in sorted(package.glob("*.py"))
                   if name in path.read_text(encoding="utf-8")]
        assert callers == ["data.py"], name


def test_a_valid_scene_with_a_trailer_takes_two_loadtxt_calls(tmp_path, monkeypatch):
    # one for the rows and one for the trailer: before the first, line 1 is
    # checked only for its field count, and is parsed with the rest
    path = tmp_path / "scene.dgn"
    data.write_scene(str(path), data.gen_scene(_spec()))
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: calls.append(a) or loadtxt(*a, **kw))
    data.read_scene(str(path))
    assert len(calls) == 2


def test_truncated_file_parse_error(tmp_path):
    scene = data.gen_scene(_spec())
    path = tmp_path / "scene.dgn"
    data.write_scene(str(path), scene)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:5]) + "\n")
    with pytest.raises(ParseError) as err:
        data.read_scene(str(path))
    assert err.value.line == 6


def _with_field(index, token):
    def edit(line):
        toks = line.split()
        toks[index] = token
        return " ".join(toks)

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        lambda line: "not a number at all",
        lambda line: "",
        _with_field(0, "#"),
        _with_field(-1, "#"),
        _with_field(-1, "2.0"),
        _with_field(-1, "1e0"),
        _with_field(-1, "9"),
        lambda line: line + " 0",
        # digit-group underscores are not part of the format
        _with_field(0, "1_0"),
    ],
    ids=["words", "blank", "hash-coord", "hash-label", "label-2.0", "label-1e0",
         "label-range", "extra-field", "underscore"],
)
def test_malformed_line_names_line(tmp_path, edit):
    scene = data.gen_scene(_spec())
    path = tmp_path / "scene.dgn"
    data.write_scene(str(path), scene)
    lines = path.read_text().splitlines()
    lines[6] = edit(lines[6])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        data.read_scene(str(path))
    assert err.value.line == 7


def test_first_fault_wins_over_later_faults(tmp_path):
    scene = data.gen_scene(_spec())
    path = tmp_path / "scene.dgn"
    data.write_scene(str(path), scene)
    lines = path.read_text().splitlines()
    lines[4] = _with_field(-1, "9")(lines[4])
    lines[9] = "not a number at all"
    path.write_text("\n".join(lines[:20]) + "\n")
    with pytest.raises(ParseError, match="label 9 out of range") as err:
        data.read_scene(str(path))
    assert err.value.line == 5


@pytest.mark.parametrize("later_fault", [False, True], ids=["one-call", "scan"])
@pytest.mark.parametrize(
    "index, token",
    [(0, "nan"), (2, "inf"), (4, "-inf"), (6, "NaN"), (1, "1e999")],
    ids=["nan-coord", "inf-coord", "neg-inf-feat", "NaN-height", "overflow"],
)
def test_non_finite_number_names_line(tmp_path, index, token, later_fault):
    # a nan or inf point is rejected at its line, whether the one-call parse
    # succeeds or a later fault sends the parse to the line scan
    scene = data.gen_scene(_spec())
    path = tmp_path / "scene.dgn"
    data.write_scene(str(path), scene)
    lines = path.read_text().splitlines()
    lines[6] = _with_field(index, token)(lines[6])
    if later_fault:
        lines[9] = "not a number at all"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="non-finite number") as err:
        data.read_scene(str(path))
    assert err.value.line == 7


def test_non_finite_number_after_a_bad_label_names_the_label(tmp_path):
    scene = data.gen_scene(_spec())
    path = tmp_path / "scene.dgn"
    data.write_scene(str(path), scene)
    lines = path.read_text().splitlines()
    lines[4] = _with_field(-1, "9")(lines[4])
    lines[6] = _with_field(0, "nan")(lines[6])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="label 9 out of range") as err:
        data.read_scene(str(path))
    assert err.value.line == 5


@pytest.mark.parametrize(
    "cut, edit, line_from_end",
    [
        (2, None, 1),                     # short trailer: first missing line
        (0, lambda line: "5", 0),         # one field
        (0, lambda line: "5 x", 0),       # malformed number
        (0, lambda line: "", 0),          # blank line inside the trailer
    ],
    ids=["missing-lines", "one-field", "malformed", "blank"],
)
def test_sparse_trailer_fault_names_line(tmp_path, cut, edit, line_from_end):
    scene = data.gen_scene(_spec())
    path = tmp_path / "scene.dgn"
    data.write_scene(str(path), scene)
    lines = path.read_text().splitlines()
    if edit is not None:
        lines[-1] = edit(lines[-1])
    kept = lines[: len(lines) - cut]
    path.write_text("\n".join(kept) + "\n")
    with pytest.raises(ParseError) as err:
        data.read_scene(str(path))
    assert err.value.line == len(lines) - line_from_end


def test_negative_sparse_count_parse_error(tmp_path):
    scene = data.gen_scene(_spec())
    path = tmp_path / "scene.dgn"
    data.write_scene(str(path), scene)
    lines = path.read_text().splitlines()
    trailer = scene.num_points + 1
    lines[trailer] = "sparse -1"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        data.read_scene(str(path))
    assert err.value.line == trailer + 1


@pytest.mark.parametrize("token, want", [("0", 0), ("+7", 7), ("-12", -12), ("007", 7)])
def test_integer_reads_ascii_digits(token, want):
    assert data.integer(token) == want


@pytest.mark.parametrize("token", ["1_0", "\u0663", "\uff11", " 1", "1\n", "", "+", "2.0", "1e3"])
def test_integer_rejects_what_int_reads_beyond_the_grammar(token):
    with pytest.raises(ValueError):
        data.integer(token)


@pytest.mark.parametrize("token, want", [
    ("0", 0.0), ("-0.5", -0.5), ("+2.", 2.0), (".5", 0.5), ("1e3", 1e3), ("1E-3", 1e-3),
    ("0.003", 0.003), ("1e400", math.inf), ("-inf", -math.inf),
])
def test_real_reads_ascii_decimal(token, want):
    assert data.real(token) == want


@pytest.mark.parametrize("token", ["nan", "-nan"])
def test_real_reads_nan_for_the_caller_to_reject(token):
    assert math.isnan(data.real(token))


@pytest.mark.parametrize("token", ["0.00_3", "1_0", "\u0660.5", "\uff11", "\u0131nf", " 1",
                                   "1\n", "", ".", "e3", "1e", "+", "0x1", "1.2.3", "NaN",
                                   "Infinity"])
def test_real_rejects_what_float_reads_beyond_the_grammar(token):
    with pytest.raises(ValueError, match="^invalid float: "):
        data.real(token)


def _plain(token):
    # what the number grammars allow of a token: ASCII, no "_", no whitespace
    return token.isascii() and "_" not in token and token == "".join(token.split())


# text built mostly from the characters of numbers, and some arbitrary text
_NUMBER_TEXT = st.one_of(
    st.text(st.sampled_from("0123456789+-.eEinfaINFA_ \t\n\u0660\u0663\uff11"), max_size=12),
    st.text(max_size=8),
)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_real_reads_back_every_finite_repr(x):
    assert data.real(repr(x)) == x


@settings(max_examples=500)
@given(st.one_of(_NUMBER_TEXT, st.floats().map(repr)))
def test_real_is_float_on_the_tokens_it_accepts(token):
    try:
        value = data.real(token)
    except ValueError:
        return
    assert _plain(token)
    want = float(token)
    assert value == want or (math.isnan(value) and math.isnan(want))


@settings(max_examples=500)
@given(st.one_of(_NUMBER_TEXT, st.integers().map(str)))
def test_integer_is_int_on_the_tokens_it_accepts(token):
    try:
        value = data.integer(token)
    except ValueError:
        return
    assert _plain(token)
    assert value == int(token)


def _edited_scene(tmp_path, line_of, text):
    scene = data.gen_scene(_spec())
    path = tmp_path / "scene.dgn"
    data.write_scene(str(path), scene)
    lines = path.read_text().splitlines()
    index = line_of(scene)
    lines[index] = text(lines[index])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path, index + 1


@pytest.mark.parametrize("token", ["1_0", "\u0666"], ids=["underscore", "non-ascii-digit"])
def test_header_count_is_one_integer_grammar(tmp_path, token):
    path, line = _edited_scene(
        tmp_path, lambda scene: 0, lambda head: head.replace(head.split()[1], token)
    )
    with pytest.raises(ParseError, match="header counts must be integers") as err:
        data.read_scene(str(path))
    assert err.value.line == line and err.value.exit_code == 2


@pytest.mark.parametrize("token", ["2_9_3", "\u0666"], ids=["underscore", "non-ascii-digit"])
def test_sparse_count_is_one_integer_grammar(tmp_path, token):
    # int() reads "2_9_3" as 293 and loads that many labels
    path, line = _edited_scene(
        tmp_path, lambda scene: scene.num_points + 1, lambda trailer: f"sparse {token}"
    )
    with pytest.raises(ParseError, match="sparse count must be an integer") as err:
        data.read_scene(str(path))
    assert err.value.line == line and err.value.exit_code == 2


def _large_scene():
    # about 20k points, as many as a train-large scene
    scene = data.gen_scene(data.SceneSpec(num_classes=8, points_per_class=(2400, 2600), seed=3))
    return data.with_sparse(scene, data.sample_sparse_labels(scene, 0.1, seed=3))


def _scene_nbytes(scene):
    arrays = (scene.coords, scene.extra_feats, scene.gt_labels, scene.sparse.indices,
              scene.sparse.classes)
    return sum(array.nbytes for array in arrays)


def test_read_scene_holds_the_scene_and_not_its_text(tmp_path):
    # the file is read line by line: the traced peak stays within 1 MB of
    # the arrays of the scene it returns, well below its 2.8 MB of text
    path = str(tmp_path / "scene.dgn")
    data.write_scene(path, _large_scene())
    tracemalloc.start()
    try:
        scene = data.read_scene(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scene.num_points > 19_000
    assert peak < _scene_nbytes(scene) + 1e6


def test_write_scene_holds_its_table_and_not_its_text(tmp_path):
    # the rows and pairs are formatted 1024 to a string
    scene = _large_scene()
    table_nbytes = scene.num_points * (3 + scene.extra_feats.shape[1] + 1) * 8
    pairs_nbytes = scene.sparse.size * 2 * 8
    path = str(tmp_path / "scene.dgn")
    tracemalloc.start()
    try:
        data.write_scene(path, scene)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table_nbytes + pairs_nbytes + 1e6


def test_a_cr_only_scene_parses(tmp_path):
    # the CRLF case is test_crlf_file_parses
    scene = data.with_sparse(data.gen_scene(_spec()), data.SparseLabels([4, 1], [0, 0]))
    path = tmp_path / "scene.dgn"
    data.write_scene(str(path), scene)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r"))
    loaded = data.read_scene(str(path))
    for name in ("coords", "extra_feats", "gt_labels"):
        np.testing.assert_array_equal(getattr(loaded, name), getattr(scene, name))
    np.testing.assert_array_equal(loaded.sparse.indices, scene.sparse.indices)


@pytest.mark.parametrize("brk", ["\f", "\v", "\x85", "\u2028"],
                         ids=["form-feed", "vertical-tab", "next-line", "line-separator"])
def test_only_a_universal_newline_ends_a_scene_line(tmp_path, brk):
    # str.splitlines also breaks lines at these, a scene file does not: its
    # rows separated by one are all on line 2
    scene = data.gen_scene(_spec())
    path = tmp_path / "scene.dgn"
    data.write_scene(str(path), scene)
    head, *rows = path.read_text().splitlines()
    path.write_text(head + "\n" + brk.join(rows) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match="expected 8 fields") as err:
        data.read_scene(str(path))
    assert err.value.line == 2 and err.value.exit_code == 2


def test_an_integer_field_with_a_non_ascii_character_is_malformed(tmp_path):
    # numpy's integer parser reads out of bounds on a character past U+00FF
    # and often crashes the process on one, so the reads run in a child
    paths, want = [], []
    for i, char in enumerate(["\U000e0000", "\U0010ffff", "\U000dffff", "\u0663", "\xe9"]):
        for field, line_of in (("label", lambda scene: 1),
                               ("class", lambda scene: scene.num_points + 2)):
            directory = tmp_path / f"{field}{i}"
            directory.mkdir()
            path, line = _edited_scene(directory, line_of, lambda text: text + char)
            paths.append(str(path))
            want.append(f"{path}:{line}: malformed number")
    probe = ("import sys\n"
             "from dgn.data import read_scene\n"
             "from dgn.errors import ParseError\n"
             "for path in sys.argv[1:]:\n"
             "    try:\n"
             "        read_scene(path)\n"
             "    except ParseError as exc:\n"
             "        print(exc)\n")
    src = os.path.dirname(os.path.dirname(data.__file__))
    out = subprocess.run([sys.executable, "-c", probe, *paths], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert out.returncode == 0
    assert out.stdout.splitlines() == want


def test_crlf_file_parses(tmp_path):
    scene = data.gen_scene(_spec())
    path = tmp_path / "scene.dgn"
    data.write_scene(str(path), scene)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    loaded = data.read_scene(str(path))
    np.testing.assert_array_equal(loaded.coords, scene.coords)
    np.testing.assert_array_equal(loaded.extra_feats, scene.extra_feats)
    np.testing.assert_array_equal(loaded.gt_labels, scene.gt_labels)
    np.testing.assert_array_equal(loaded.sparse.indices, scene.sparse.indices)


def test_negative_label_excluded_from_sparse(tmp_path):
    path = tmp_path / "annot.dgn"
    path.write_text(
        "dgn/1 3 1 2\n"
        "0.0 0.0 0.0 1.0 0\n"
        "1.0 0.0 0.0 1.0 -1\n"
        "0.0 1.0 0.0 1.0 1\n"
    )
    scene = data.read_scene(str(path))
    assert scene.sparse.indices.tolist() == [0, 2]
    assert scene.sparse.classes.tolist() == [0, 1]
    assert scene.gt_labels.tolist() == [0, -1, 1]


def test_bad_header_parse_error(tmp_path):
    path = tmp_path / "x.dgn"
    path.write_text("dgn/2 1 1 2\n0 0 0 1 0\n")
    with pytest.raises(ParseError) as err:
        data.read_scene(str(path))
    assert err.value.line == 1


def test_empty_prediction_rejected():
    with pytest.raises(EmptyScene):
        data.miou(np.empty(0, dtype=int), np.empty(0, dtype=int), 2)


@pytest.mark.parametrize("text, line", [
    ("dgn/1 99999999999999999999 1 2\n1 2 3 4 0\n", 3),
    ("dgn/1 1 1 2\n1 2 3 4 0\nsparse 99999999999999999999\n0 0\n", 5),
], ids=["rows", "pairs"])
def test_a_count_past_the_largest_index_ends_at_the_end_of_the_file(tmp_path, text, line):
    # no file has sys.maxsize lines, the most itertools.islice reads
    path = tmp_path / "huge.dgn"
    path.write_text(text)
    with pytest.raises(ParseError, match="unexpected end of file") as err:
        data.read_scene(str(path))
    assert err.value.line == line


def test_a_header_width_is_not_allocated_before_a_line_has_it(tmp_path):
    # a 24-byte file that claims a million extra features per row
    path = tmp_path / "wide.dgn"
    path.write_text("dgn/1 1 1000000 2\n1 2 3\n")
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match=":2: expected 1000004 fields, got 3"):
            data.read_scene(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


_FIELD_TOKENS = st.sampled_from(
    ["0", "1", "-1", "0.5", "-2.5", "1e3"] * 20
    + ["nan", "inf", "1e999", "x", "1_0", "\u0663", "#", "sparse", "dgn/1", ""]
)
_LABEL_TOKENS = st.sampled_from(["0", "1", "2", "-1"] * 10 + ["3", "-2", "2.0", "x", ""])
_JUNK_LINES = st.one_of(st.lists(_FIELD_TOKENS, max_size=8).map(" ".join), st.text(max_size=4))


def _rows(width):
    fields = st.lists(_FIELD_TOKENS, min_size=width - 1, max_size=width - 1)
    return st.tuples(fields, _LABEL_TOKENS).map(lambda row: " ".join([*row[0], row[1]]))


def _mostly(common, rare):
    return st.integers(0, 9).flatmap(lambda i: rare if i == 0 else common)


def _counts(lo, hi):
    return _mostly(st.integers(lo, hi), st.integers(-1, hi + 1))


@st.composite
def _scene_texts(draw):
    """A dgn/1 file, mostly of the right shape, with faults drawn in."""
    n, d_extra, k = draw(_counts(1, 4)), draw(_counts(0, 3)), draw(_counts(2, 4))
    lines = [f"dgn/1 {n} {d_extra} {k}"]
    rows = _mostly(_rows(4 + max(d_extra, 0)), _JUNK_LINES)
    lines += draw(st.lists(rows, min_size=max(n - 1, 0), max_size=max(n + 1, 0)))
    if draw(st.booleans()):
        lines.append(f"sparse {draw(_counts(0, 3))}")
        lines += draw(st.lists(_mostly(_rows(2), _JUNK_LINES), max_size=4))
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(_mostly(_scene_texts(), st.lists(_JUNK_LINES, max_size=6).map("\n".join)))
def test_read_scene_raises_only_typed_errors(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("s") / "s.dgn"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    try:
        data.read_scene(str(path))
    except (DgnError, ValueError, OSError):
        pass
