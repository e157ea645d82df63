"""Balanced similar/dissimilar pair batches for twin-network training.

A batch of size B holds floor(B/2) similar pairs (split evenly across the
training classes) and ceil(B/2) dissimilar pairs (split evenly across all
unordered class combinations). Pairs are unique within a batch, never pair
an instance with itself, and are drawn exclusively from training pools.
Sampling is exact: each bucket (a class, or a class combination) draws its
quota once, without replacement, from its numbered unique pairs, so there
is no rejection and no failure cap. Classes too small to fill their quota
contribute every unique pair they have; the remainder is redistributed
round-robin over the other buckets so the half-half contract survives
heavy class imbalance.

A batch is three columns: the dataset rows of each pair's left and right
instance and the bool `similar` mask, which the losses read as 1.0
(similar) or 0.0 (dissimilar). A pair's classes are the dataset's labels
at its rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import ExperimentSplit, write_csv

class PairGenerationError(ValueError):
    """Requested batch cannot be satisfied; message reports the achievable maximum."""


@dataclass
class PairBatch:
    """Columnar pair storage: dataset row indices and targets."""

    left_idx: np.ndarray           # (B,) int64 dataset row indices
    right_idx: np.ndarray
    similar: np.ndarray            # (B,) bool mask

    def __len__(self) -> int:
        return len(self.left_idx)

    def dump(self, path: str | Path, append: bool = False) -> None:
        """Audit dump: one ``left_idx,right_idx,target`` line per pair, under
        a header line that only a fresh file (`append` false) gets."""
        # Python ints format several times faster than numpy scalars
        targets = ["similar" if s else "dissimilar" for s in self.similar.tolist()]
        header = [] if append else [("left_idx", "right_idx", "target")]
        rows = zip(self.left_idx.tolist(), self.right_idx.tolist(), targets)
        write_csv(path, itertools.chain(header, rows), append)


def _spread(total: int, caps: list[int]) -> list[int]:
    """Split `total` evenly over buckets, remainders to the lowest-indexed,
    clamped to per-bucket capacities with round-robin redistribution."""
    n = len(caps)
    base, rem = divmod(total, n)
    quotas = [base + (1 if i < rem else 0) for i in range(n)]
    overflow = 0
    for i in range(n):
        if quotas[i] > caps[i]:
            overflow += quotas[i] - caps[i]
            quotas[i] = caps[i]
    while overflow > 0:
        placed = False
        for i in range(n):
            if overflow == 0:
                break
            if quotas[i] < caps[i]:
                quotas[i] += 1
                overflow -= 1
                placed = True
        if not placed:
            raise PairGenerationError("bucket capacities cannot absorb the requested quota")
    return quotas


def _draw_bucket(
    rng: np.random.Generator,
    pool_a: np.ndarray,
    pool_b: np.ndarray,
    quota: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw `quota` distinct pairs from one bucket, without replacement.

    A similar bucket passes one pool twice; pair k of its n(n-1)/2 is
    (i, (i + 1 + k // n) % n) with i = k % n: every offset below n/2 from
    each i, then for even n offset n/2 from the first n/2 positions. A
    dissimilar bucket numbers pool_a x pool_b row-major.
    """
    if pool_a is pool_b:
        n = len(pool_a)
        k = rng.choice(n * (n - 1) // 2, quota, replace=False)
        i = k % n
        return pool_a[i], pool_a[(i + 1 + k // n) % n]
    k = rng.choice(len(pool_a) * len(pool_b), quota, replace=False)
    return pool_a[k // len(pool_b)], pool_b[k % len(pool_b)]


def generate_training_batch(
    split: ExperimentSplit,
    batch_size: int,
    rng: int | np.random.Generator,
) -> PairBatch:
    """Draw a balanced batch of unique pairs from the training pools.

    Deterministic given (split, batch_size, seed). The similar block is
    built first, then the dissimilar block, then the assembled batch is
    shuffled once.
    """
    rng = np.random.default_rng(rng)   # a Generator passes through unchanged
    classes = split.training_classes
    k = len(classes)
    if k < 2:
        raise PairGenerationError(
            f"need at least 2 training classes, have {k}: with fewer, similarity "
            "degenerates to a coin flip"
        )
    if batch_size < 2 * k:
        raise PairGenerationError(f"batch_size {batch_size} < 2 x {k} training classes")

    pools = {c: split.training_pools[c] for c in classes}
    n_similar = batch_size // 2
    n_dissimilar = batch_size - n_similar

    combos = list(itertools.combinations(classes, 2))
    sim_caps = [len(pools[c]) * (len(pools[c]) - 1) // 2 for c in classes]
    dis_caps = [len(pools[a]) * len(pools[b]) for a, b in combos]

    sim_cap, dis_cap = sum(sim_caps), sum(dis_caps)
    if sim_cap < n_similar or dis_cap < n_dissimilar:
        achievable = 2 * min(sim_cap, dis_cap) + (1 if dis_cap > sim_cap else 0)
        raise PairGenerationError(
            f"batch of {batch_size} unsatisfiable: at most {achievable} pairs available "
            f"({sim_cap} unique similar, {dis_cap} unique dissimilar)"
        )

    # buckets are disjoint, so pairs distinct within each bucket are
    # distinct across the batch; _spread keeps every quota within capacity
    buckets = [(c, c) for c in classes] + combos
    quotas = _spread(n_similar, sim_caps) + _spread(n_dissimilar, dis_caps)
    drawn = [_draw_bucket(rng, pools[a], pools[b], q) for (a, b), q in zip(buckets, quotas)]
    left, right = (np.concatenate(side) for side in zip(*drawn))
    similar = np.arange(batch_size) < n_similar

    order = rng.permutation(batch_size)
    return PairBatch(
        np.asarray(left, dtype=np.int64)[order],
        np.asarray(right, dtype=np.int64)[order],
        similar[order],
    )
