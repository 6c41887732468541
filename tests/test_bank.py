import numpy as np
import pytest

from conftest import random_unit_rows
from dgn import bank as bank_mod
from dgn.data import SparseLabels
from dgn.errors import DimensionMismatch
from dgn.movmf import unit_rows


def _labels(indices, classes):
    return SparseLabels(np.asarray(indices), np.asarray(classes))


def test_init_centers_normalized_labeled_mean():
    V = np.array([[1.0, 0.0], [0.0, 1.0]])
    bank = bank_mod.empty_bank(1, 2)
    out = bank_mod.init_centers(V, _labels([0, 1], [0, 0]), bank)
    np.testing.assert_allclose(out.centers, [[0.70711, 0.70711]], atol=1e-5)
    assert out.provenance == (bank_mod.PROVENANCE_SCENE,)


def test_init_centers_bank_for_missing_class():
    V = np.array([[1.0, 0.0, 0.0]])
    protos = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    bank = bank_mod.MemoryBank(protos, np.array([True, True]), 0.9)
    out = bank_mod.init_centers(V, _labels([0], [0]), bank)
    np.testing.assert_array_equal(out.centers[1], [0.0, 0.0, 1.0])
    assert out.provenance == (bank_mod.PROVENANCE_SCENE, bank_mod.PROVENANCE_BANK)


def test_init_centers_antipodal_falls_back_to_bank():
    V = np.array([[1.0, 0.0], [-1.0, 0.0]])
    protos = np.array([[0.0, 1.0]])
    bank = bank_mod.MemoryBank(protos, np.array([True]), 0.9)
    out = bank_mod.init_centers(V, _labels([0, 1], [0, 0]), bank)
    np.testing.assert_array_equal(out.centers[0], [0.0, 1.0])
    assert out.provenance == (bank_mod.PROVENANCE_BANK,)


def test_init_centers_antipodal_without_bank_uses_seeded_fallback():
    V = np.array([[1.0, 0.0], [-1.0, 0.0]])
    bank = bank_mod.empty_bank(1, 2)
    first = bank_mod.init_centers(V, _labels([0, 1], [0, 0]), bank, seed=5)
    second = bank_mod.init_centers(V, _labels([0, 1], [0, 0]), bank, seed=5)
    assert first.provenance == (bank_mod.PROVENANCE_FALLBACK,)
    np.testing.assert_array_equal(first.centers, second.centers)
    assert np.linalg.norm(first.centers[0]) == pytest.approx(1.0, abs=1e-12)


def test_init_centers_unit_rows_all_paths(rng):
    V = random_unit_rows(rng, 30, 5)
    protos = random_unit_rows(rng, 4, 5)
    bank = bank_mod.MemoryBank(protos, np.array([False, True, False, True]), 0.9)
    labels = _labels([0, 1, 2], [0, 0, 2])
    out = bank_mod.init_centers(V, labels, bank, seed=1)
    np.testing.assert_allclose(np.linalg.norm(out.centers, axis=1), 1.0, atol=1e-9)
    assert out.provenance == (
        bank_mod.PROVENANCE_SCENE,
        bank_mod.PROVENANCE_BANK,
        bank_mod.PROVENANCE_SCENE,
        bank_mod.PROVENANCE_BANK,
    )


def test_init_centers_never_reads_bank_when_all_labeled(rng):
    V = random_unit_rows(rng, 12, 3)
    bank = bank_mod.MemoryBank(
        random_unit_rows(rng, 3, 3), np.array([True, True, True]), 0.9
    )
    labels = _labels(np.arange(12), np.repeat([0, 1, 2], 4))
    out = bank_mod.init_centers(V, labels, bank)
    assert set(out.provenance) == {bank_mod.PROVENANCE_SCENE}


def test_init_centers_dim_mismatch(rng):
    with pytest.raises(DimensionMismatch):
        bank_mod.init_centers(
            random_unit_rows(rng, 4, 3), _labels([0], [0]), bank_mod.empty_bank(2, 5)
        )


# ---------------------------------------------------------------------------
# updates

def test_update_zero_momentum_adopts_mean():
    bank = bank_mod.MemoryBank(np.array([[1.0, 0.0]]), np.array([True]), 0.0)
    mean = np.array([[0.0, 1.0]])
    out = bank_mod.update_bank(bank, mean, [0])
    np.testing.assert_array_equal(out.prototypes, mean)


def test_update_first_sighting_adopts_mean():
    bank = bank_mod.empty_bank(2, 2, momentum=0.9)
    means = np.array([[0.6, 0.8], [1.0, 0.0]])
    out = bank_mod.update_bank(bank, means, [0])
    np.testing.assert_array_equal(out.prototypes[0], [0.6, 0.8])
    np.testing.assert_array_equal(out.prototypes[1], [0.0, 0.0])  # untouched
    assert out.seen.tolist() == [True, False]


def test_update_fixed_point():
    u = np.array([0.6, 0.8])
    bank = bank_mod.MemoryBank(u[None, :], np.array([True]), 0.9)
    out = bank_mod.update_bank(bank, u[None, :], [0])
    np.testing.assert_allclose(out.prototypes[0], u, atol=1e-15)


def test_update_momentum_blends_and_renormalizes():
    bank = bank_mod.MemoryBank(np.array([[1.0, 0.0]]), np.array([True]), 0.5)
    out = bank_mod.update_bank(bank, np.array([[0.0, 1.0]]), [0])
    expected = np.array([0.5, 0.5]) / np.linalg.norm([0.5, 0.5])
    np.testing.assert_allclose(out.prototypes[0], expected, atol=1e-12)
    assert np.linalg.norm(out.prototypes[0]) == pytest.approx(1.0, abs=1e-12)


def test_momentum_one_rejected():
    with pytest.raises(ValueError):
        bank_mod.MemoryBank(np.zeros((1, 2)), np.array([False]), 1.0)


def test_update_order_independent(rng):
    protos = random_unit_rows(rng, 4, 3)
    bank = bank_mod.MemoryBank(protos, np.ones(4, dtype=bool), 0.8)
    means = random_unit_rows(rng, 4, 3)
    forward = bank_mod.update_bank(bank, means, [0, 1, 2, 3])
    backward = bank_mod.update_bank(bank, means, [3, 2, 1, 0])
    np.testing.assert_array_equal(forward.prototypes, backward.prototypes)


def test_update_absent_classes_untouched(rng):
    protos = random_unit_rows(rng, 3, 4)
    bank = bank_mod.MemoryBank(protos, np.ones(3, dtype=bool), 0.9)
    means = random_unit_rows(rng, 3, 4)
    out = bank_mod.update_bank(bank, means, [1])
    np.testing.assert_array_equal(out.prototypes[0], protos[0])
    np.testing.assert_array_equal(out.prototypes[2], protos[2])


def test_update_antipodal_collapse_adopts_new_mean():
    bank = bank_mod.MemoryBank(np.array([[1.0, 0.0]]), np.array([True]), 0.5)
    out = bank_mod.update_bank(bank, np.array([[-1.0, 0.0]]), [0])
    np.testing.assert_array_equal(out.prototypes[0], [-1.0, 0.0])


def test_euclidean_init_means_from_given_norms_equals_computed(rng):
    # the norms unit_rows returns give the init that np.linalg.norm's give
    F = 3.0 * rng.standard_normal((200, 4))
    V, norms = unit_rows(F)
    labels = _labels([0, 5], [0, 2])
    fresh = bank_mod.empty_bank(4, 4)
    want = bank_mod.euclidean_init_means(F, V, labels, fresh, 3, np.linalg.norm(F, axis=1))
    assert np.array_equal(bank_mod.euclidean_init_means(F, V, labels, fresh, 3, norms), want)
