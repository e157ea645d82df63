"""Balanced similar/dissimilar pair batches for twin-network training.

A batch of size B holds floor(B/2) similar pairs (split evenly across the
training classes) and ceil(B/2) dissimilar pairs (split evenly across all
unordered class combinations). Pairs are unique within a batch, never pair
an instance with itself, and are drawn exclusively from training pools.
Classes too small to fill their quota contribute every unique pair they
have; the remainder is redistributed round-robin over the other buckets so
the half-half contract survives heavy class imbalance.

A pair's target is its entry in the batch's bool `similar` mask; the
losses read it as 1.0 (similar) or 0.0 (dissimilar).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .dataset import ExperimentSplit

# Draws that hit the seen-set (or a self-pair) count as failures; a bucket
# is declared exhausted after 100 failures per requested pair.
FAILURE_CAP_FACTOR = 100
_DRAW_CHUNK = 256


class PairGenerationError(ValueError):
    """Requested batch cannot be satisfied; message reports the achievable maximum."""


@dataclass
class PairBatch:
    """Columnar pair storage; feature vectors resolve through the dataset."""

    dataset: object                # EncodedDataset (duck-typed: .matrix)
    left_idx: np.ndarray           # (B,) int64 dataset row indices
    right_idx: np.ndarray
    left_class: np.ndarray         # (B,) int64 class indices
    right_class: np.ndarray
    similar: np.ndarray            # (B,) bool mask

    def __len__(self) -> int:
        return len(self.left_idx)

    def target_values(self) -> np.ndarray:
        """Numeric targets for the losses: similar -> 1.0, dissimilar -> 0.0."""
        return self.similar.astype(float)

    def subset(self, start: int, stop: int) -> "PairBatch":
        return PairBatch(
            self.dataset,
            self.left_idx[start:stop],
            self.right_idx[start:stop],
            self.left_class[start:stop],
            self.right_class[start:stop],
            self.similar[start:stop],
        )

    def chunks(self, size: int) -> Iterator["PairBatch"]:
        for start in range(0, len(self), size):
            yield self.subset(start, start + size)

    def dump(self, path: str | Path) -> None:
        """Audit dump: one ``left_idx,right_idx,target`` line per pair."""
        with Path(path).open("w", encoding="utf-8") as fh:
            fh.write("left_idx,right_idx,target\n")
            for left, right, similar in zip(self.left_idx, self.right_idx, self.similar):
                target = "similar" if similar else "dissimilar"
                fh.write(f"{left},{right},{target}\n")


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


def pair_counts(batch: PairBatch) -> PairCounts:
    """Exact batch composition; sums reconcile to len(batch)."""
    similar: dict[int, int] = {}
    dissimilar: dict[tuple[int, int], int] = {}
    for k in range(len(batch)):
        if batch.similar[k]:
            c = int(batch.left_class[k])
            similar[c] = similar.get(c, 0) + 1
        else:
            combo = tuple(sorted((int(batch.left_class[k]), int(batch.right_class[k]))))
            dissimilar[combo] = dissimilar.get(combo, 0) + 1
    return PairCounts(similar, dissimilar)


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


def _draw_pairs(
    rng: np.random.Generator,
    pool_a: np.ndarray,
    pool_b: np.ndarray,
    quota: int,
    seen: set[tuple[int, int]],
) -> list[tuple[int, int]]:
    """Rejection-sample `quota` unique unordered pairs (pool_a x pool_b).

    Self-pairs and seen-set hits count as failed draws; gives up after
    FAILURE_CAP_FACTOR * quota failures and returns what it has.
    """
    got: list[tuple[int, int]] = []
    if quota <= 0:
        return got
    failures = 0
    cap = FAILURE_CAP_FACTOR * quota
    while len(got) < quota and failures <= cap:
        aa = rng.integers(0, len(pool_a), size=_DRAW_CHUNK)
        bb = rng.integers(0, len(pool_b), size=_DRAW_CHUNK)
        for ka, kb in zip(aa, bb):
            i, j = int(pool_a[ka]), int(pool_b[kb])
            if i == j:
                failures += 1
                continue
            key = (i, j) if i < j else (j, i)
            if key in seen:
                failures += 1
                if failures > cap:
                    break
                continue
            seen.add(key)
            got.append((i, j))
            if len(got) == quota:
                break
    return got


def _fill_side(
    rng: np.random.Generator,
    buckets: list[tuple[np.ndarray, np.ndarray]],
    caps: list[int],
    total: int,
    seen: set[tuple[int, int]],
) -> list[list[tuple[int, int]]]:
    """Fill one side (similar or dissimilar) to exactly `total` pairs,
    redistributing shortfalls over buckets with spare capacity."""
    quotas = _spread(total, caps)
    results = [
        _draw_pairs(rng, a, b, q, seen) for (a, b), q in zip(buckets, quotas)
    ]
    dead: set[int] = {i for i, (res, q) in enumerate(zip(results, quotas)) if len(res) < q}
    missing = total - sum(len(r) for r in results)
    while missing > 0:
        live = [
            i for i in range(len(buckets))
            if i not in dead and len(results[i]) < caps[i]
        ]
        if not live:
            raise PairGenerationError(
                f"pair generation exhausted at {total - missing} of {total} pairs for one side"
            )
        extras = _spread(missing, [caps[i] - len(results[i]) for i in live])
        for i, extra in zip(live, extras):
            more = _draw_pairs(rng, *buckets[i], extra, seen)
            results[i].extend(more)
            if len(more) < extra:
                dead.add(i)
        missing = total - sum(len(r) for r in results)
    return results


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
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    classes = split.training_classes
    k = len(classes)
    if k < 2:
        raise PairGenerationError(f"need at least 2 training classes, have {k}")
    if batch_size < 2 * k:
        raise PairGenerationError(f"batch_size {batch_size} < 2 x {k} training classes")

    pools = {c: split.training_pools[c] for c in classes}
    n_similar = batch_size // 2
    n_dissimilar = batch_size - n_similar

    sim_buckets = [(pools[c], pools[c]) for c in classes]
    sim_caps = [len(pools[c]) * (len(pools[c]) - 1) // 2 for c in classes]
    combos = list(itertools.combinations(classes, 2))
    dis_buckets = [(pools[a], pools[b]) for a, b in combos]
    dis_caps = [len(pools[a]) * len(pools[b]) for a, b in combos]

    sim_cap, dis_cap = sum(sim_caps), sum(dis_caps)
    if sim_cap < n_similar or dis_cap < n_dissimilar:
        achievable = 2 * min(sim_cap, dis_cap) + (1 if dis_cap > sim_cap else 0)
        raise PairGenerationError(
            f"batch of {batch_size} unsatisfiable: at most {achievable} pairs available "
            f"({sim_cap} unique similar, {dis_cap} unique dissimilar)"
        )

    seen: set[tuple[int, int]] = set()
    sim_results = _fill_side(rng, sim_buckets, sim_caps, n_similar, seen)
    dis_results = _fill_side(rng, dis_buckets, dis_caps, n_dissimilar, seen)

    left, right, lcls, rcls, similar = [], [], [], [], []
    for c, pairs in zip(classes, sim_results):
        for i, j in pairs:
            left.append(i)
            right.append(j)
            lcls.append(c)
            rcls.append(c)
            similar.append(True)
    for (a, b), pairs in zip(combos, dis_results):
        for i, j in pairs:
            left.append(i)
            right.append(j)
            lcls.append(a)
            rcls.append(b)
            similar.append(False)

    order = rng.permutation(batch_size)
    return PairBatch(
        split.dataset,
        np.asarray(left, dtype=np.int64)[order],
        np.asarray(right, dtype=np.int64)[order],
        np.asarray(lcls, dtype=np.int64)[order],
        np.asarray(rcls, dtype=np.int64)[order],
        np.asarray(similar, dtype=bool)[order],
    )
