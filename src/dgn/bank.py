"""Per-class prototype memory for EM initialization on scenes with
missing classes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SparseLabels
from .errors import DimensionMismatch
from .movmf import ZERO_NORM, _has_unit_rows, unit_rows

PROVENANCE_SCENE = "scene_labeled"
PROVENANCE_BANK = "bank"
PROVENANCE_FALLBACK = "unseen_fallback"


@dataclass(frozen=True)
class MemoryBank:
    """Unit prototype directions per class with an EMA update.

    Rows of ``prototypes`` are zero until the class is first seen.
    """

    prototypes: np.ndarray  # (k, d)
    seen: np.ndarray        # (k,) bool
    momentum: float         # in [0, 1)

    def __post_init__(self):
        protos = np.asarray(self.prototypes, dtype=np.float64)
        seen = np.asarray(self.seen, dtype=bool)
        object.__setattr__(self, "prototypes", protos)
        object.__setattr__(self, "seen", seen)
        if protos.ndim != 2 or seen.shape != (protos.shape[0],):
            raise DimensionMismatch(
                f"prototypes {protos.shape} incompatible with seen {seen.shape}"
            )
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if not _has_unit_rows(protos[seen]):
            raise ValueError("seen prototypes must have unit rows")

    @property
    def num_classes(self) -> int:
        return self.prototypes.shape[0]

    @property
    def dim(self) -> int:
        return self.prototypes.shape[1]


def empty_bank(num_classes: int, dim: int, momentum: float = 0.9) -> MemoryBank:
    return MemoryBank(
        np.zeros((num_classes, dim)), np.zeros(num_classes, dtype=bool), momentum
    )


@dataclass(frozen=True)
class InitCenters:
    """EM initialization directions and where each one came from."""

    centers: np.ndarray          # (k, d) unit rows
    provenance: tuple[str, ...]  # per class


def init_centers(
    V: np.ndarray, labels: SparseLabels, bank: MemoryBank, seed: int = 0
) -> InitCenters:
    """One unit init direction per class.

    Each class takes the first of: the normalized sum of its labeled
    embeddings, the bank prototype if the bank has seen the class, a seeded
    random unit vector. A class without labels has a zero sum, so it passes
    on as a labeled sum that cancels to (near) zero does.
    """
    V = np.asarray(V, dtype=np.float64)
    k, d = bank.num_classes, bank.dim
    if V.ndim != 2 or V.shape[1] != d:
        raise DimensionMismatch(f"embeddings {V.shape} incompatible with bank dim {d}")
    if np.any(labels.indices >= V.shape[0]) or np.any(labels.classes >= k):
        raise DimensionMismatch("labels index outside the embeddings or classes")

    centers = np.empty((k, d))
    provenance = []
    for c in range(k):
        s = V[labels.indices[labels.classes == c]].sum(axis=0)
        norm = float(np.linalg.norm(s))
        if norm > ZERO_NORM:
            centers[c] = s / norm
            provenance.append(PROVENANCE_SCENE)
        elif bank.seen[c]:
            centers[c] = bank.prototypes[c]
            provenance.append(PROVENANCE_BANK)
        else:
            vec = np.random.default_rng([seed, c]).standard_normal(d)
            centers[c] = vec / np.linalg.norm(vec)
            provenance.append(PROVENANCE_FALLBACK)
    return InitCenters(centers, tuple(provenance))


def euclidean_init_means(
    F: np.ndarray, labels: SparseLabels, bank: MemoryBank, seed: int = 0
) -> np.ndarray:
    """Euclidean analogue of ``init_centers`` for the raw features F: the
    labeled raw mean where a class has labels, else its ``init_centers``
    direction (from the unit rows of F) scaled to the mean row norm of F."""
    F = np.asarray(F, dtype=np.float64)
    means = init_centers(unit_rows(F)[0], labels, bank, seed=seed).centers
    means *= float(np.mean(np.linalg.norm(F, axis=1)))
    for c in range(bank.num_classes):
        mask = labels.classes == c
        if np.any(mask):
            means[c] = F[labels.indices[mask]].mean(axis=0)
    return means


def update_bank(
    bank: MemoryBank, means: np.ndarray, present_classes
) -> MemoryBank:
    """EMA-update prototypes of the present classes toward the given unit
    means; absent classes are untouched. First sightings adopt the mean
    directly. Updates of distinct classes are independent, so the result
    does not depend on iteration order."""
    means = np.asarray(means, dtype=np.float64)
    if means.shape != bank.prototypes.shape:
        raise DimensionMismatch(
            f"means {means.shape} incompatible with bank {bank.prototypes.shape}"
        )
    present = sorted(int(c) for c in present_classes)
    if present and (present[0] < 0 or present[-1] >= bank.num_classes):
        raise DimensionMismatch("present class outside the bank")
    if not _has_unit_rows(means[present]):
        raise ValueError("means for present classes must have unit rows")

    protos = bank.prototypes.copy()
    seen = bank.seen.copy()
    for c in present:
        if not seen[c] or bank.momentum == 0.0:
            protos[c] = means[c]
        else:
            mixed = bank.momentum * protos[c] + (1.0 - bank.momentum) * means[c]
            norm = float(np.linalg.norm(mixed))
            # antipodal EMA collapse: adopt the new mean
            protos[c] = mixed / norm if norm > ZERO_NORM else means[c]
        seen[c] = True
    return MemoryBank(protos, seen, bank.momentum)
