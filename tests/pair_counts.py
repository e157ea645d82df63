"""The pair-batch contract tests' oracle: a batch's exact composition by
class and by class combination."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from oneshot_ids.pairgen import PairBatch


@dataclass(frozen=True)
class PairCounts:
    similar_by_class: dict[int, int]
    dissimilar_by_combination: dict[tuple[int, int], int]

    @property
    def n_similar(self) -> int:
        return sum(self.similar_by_class.values())

    @property
    def n_dissimilar(self) -> int:
        return sum(self.dissimilar_by_combination.values())

    @property
    def total(self) -> int:
        return self.n_similar + self.n_dissimilar


def pair_counts(batch: PairBatch, labels: np.ndarray) -> PairCounts:
    """Exact batch composition, each pair's classes read from `labels` (the
    split's `dataset.labels`); sums reconcile to len(batch)."""
    left, right = labels[batch.left_idx], labels[batch.right_idx]
    classes, n_similar = np.unique(left[batch.similar], return_counts=True)
    dis = ~batch.similar
    combos = np.sort(np.stack((left[dis], right[dis]), axis=1), axis=1)
    combos, n_dissimilar = np.unique(combos, axis=0, return_counts=True)
    return PairCounts(
        dict(zip(classes.tolist(), n_similar.tolist())),
        dict(zip(map(tuple, combos.tolist()), n_dissimilar.tolist())),
    )

