import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgn import data
from dgn.errors import EmptyScene, LengthMismatch, ParseError


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
    with pytest.raises(ValueError):
        _spec(noise_sigma=-0.1)


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
