from __future__ import annotations

import itertools

import numpy as np
import pytest

from oneshot_ids.network import LossConfig, batch_gradients, init_model
from oneshot_ids.pairgen import PairBatch, PairGenerationError, generate_training_batch

from conftest import build_split
from pair_counts import pair_counts


def all_unique_pairs(pool) -> set[tuple[int, int]]:
    """Brute-force enumeration oracle for a pool's unique unordered pairs."""
    return {tuple(sorted(p)) for p in itertools.combinations(pool.tolist(), 2)}


def counts_oracle(batch, labels) -> tuple[dict, dict]:
    """Per-pair reference for `pair_counts`: each pair's classes looked up
    in `labels` one pair at a time."""
    similar: dict[int, int] = {}
    dissimilar: dict[tuple[int, int], int] = {}
    for k in range(len(batch)):
        left, right = int(labels[batch.left_idx[k]]), int(labels[batch.right_idx[k]])
        if batch.similar[k]:
            similar[left] = similar.get(left, 0) + 1
        else:
            combo = tuple(sorted((left, right)))
            dissimilar[combo] = dissimilar.get(combo, 0) + 1
    return similar, dissimilar


def batch_pair_keys(batch) -> list[tuple[int, int]]:
    return [
        tuple(sorted((int(a), int(b))))
        for a, b in zip(batch.left_idx, batch.right_idx)
    ]


class TestQuotas:
    def test_alg2_arithmetic_30000(self):
        split = build_split({0: 260, 1: 260, 3: 260, 4: 260}, excluded_class=2)
        batch = generate_training_batch(split, 30000, rng=0)
        counts = pair_counts(batch, split.dataset.labels)
        assert counts.similar_by_class == {0: 3750, 1: 3750, 3: 3750, 4: 3750}
        assert counts.dissimilar_by_combination == {
            combo: 2500 for combo in itertools.combinations((0, 1, 3, 4), 2)
        }
        assert counts.total == 30000

    def test_minimal_batch(self):
        split = build_split({0: 3, 2: 3}, excluded_class=1)
        batch = generate_training_batch(split, 4, rng=1)
        counts = pair_counts(batch, split.dataset.labels)
        assert counts.n_similar == 2
        assert counts.n_dissimilar == 2
        assert counts.similar_by_class == {0: 1, 2: 1}
        assert len(set(batch_pair_keys(batch))) == 4

    def test_odd_batch_extra_dissimilar(self):
        split = build_split({0: 20, 2: 20}, excluded_class=1)
        batch = generate_training_batch(split, 41, rng=3)
        counts = pair_counts(batch, split.dataset.labels)
        assert counts.n_similar == 20
        assert counts.n_dissimilar == 21

    def test_remainder_to_lowest_indexed_classes(self):
        # 10 similar over 3 classes -> 4, 3, 3
        split = build_split({0: 30, 1: 30, 2: 30}, excluded_class=3, labelled=5, unlabelled=5)
        batch = generate_training_batch(split, 20, rng=5)
        assert pair_counts(batch, split.dataset.labels).similar_by_class == {0: 4, 1: 3, 2: 3}

    def test_small_pool_shortfall_redistributed(self):
        # pool of 26 caps its class at C(26,2)=325 unique similar pairs
        split = build_split({0: 400, 1: 26, 3: 400, 4: 400}, excluded_class=2)
        batch = generate_training_batch(split, 30000, rng=7)
        counts = pair_counts(batch, split.dataset.labels)
        assert counts.similar_by_class[1] == 325
        # 3750-325 redistributed round-robin: classes 0 and 3 get one extra
        assert counts.similar_by_class == {0: 4892, 1: 325, 3: 4892, 4: 4891}
        assert counts.n_similar == 15000
        # the starved class contributed every unique pair it has
        small_pool = split.training_pools[1]
        drawn = {
            key for key in batch_pair_keys(batch)
            if key[0] in set(small_pool.tolist()) and key[1] in set(small_pool.tolist())
        }
        assert drawn == all_unique_pairs(small_pool)


    @pytest.mark.parametrize("n", range(2, 10))
    def test_full_similar_quota_draws_every_pair_once(self, n):
        # similar capacity 2 * C(n,2) = n(n-1): both classes give up every pair
        split = build_split({0: n, 1: n}, excluded_class=2, labelled=2, unlabelled=2)
        batch = generate_training_batch(split, 2 * n * (n - 1), rng=n)
        keys = batch_pair_keys(batch)
        classes = split.dataset.labels[batch.left_idx]
        for c in (0, 1):
            drawn = sorted(
                key for key, cls, sim in zip(keys, classes, batch.similar)
                if sim and cls == c
            )
            assert drawn == sorted(all_unique_pairs(split.training_pools[c]))

class TestInvariants:
    @pytest.mark.parametrize("seed", range(6))
    def test_uniqueness_provenance_balance(self, seed):
        rng = np.random.default_rng(seed)
        sizes = {c: int(rng.integers(5, 40)) for c in (0, 1, 3)}
        split = build_split(sizes, excluded_class=2, labelled=4, unlabelled=4)
        b = int(rng.integers(6, 60))
        batch = generate_training_batch(split, b, rng=int(rng.integers(0, 2**31)))
        assert len(batch) == b
        keys = batch_pair_keys(batch)
        assert len(set(keys)) == len(keys)                      # uniqueness
        assert all(a != b2 for a, b2 in keys)                   # no self-pairs
        allowed = set(np.concatenate(list(split.training_pools.values())).tolist())
        assert set(batch.left_idx.tolist()) <= allowed          # provenance
        assert set(batch.right_idx.tolist()) <= allowed
        counts = pair_counts(batch, split.dataset.labels)
        assert counts.n_similar == b // 2                       # half-half
        assert counts.n_dissimilar == b - b // 2
        excluded = set(split.excluded_labelled.tolist()) | set(split.excluded_unlabelled.tolist())
        assert not (set(batch.left_idx.tolist()) | set(batch.right_idx.tolist())) & excluded

    def test_large_pools_sparse_draw(self):
        # 20k-row pools: each bucket draws a few thousand of ~2e8 pair numbers
        sizes = {0: 20000, 1: 20000, 3: 20000}
        split = build_split(sizes, excluded_class=2, labelled=2, unlabelled=2,
                            testing_sizes={c: 2 for c in sizes}, n_features=2)
        batch = generate_training_batch(split, 30000, rng=17)
        keys = batch_pair_keys(batch)
        assert len(set(keys)) == len(keys) == 30000
        assert all(a != b for a, b in keys)
        allowed = set(np.concatenate(list(split.training_pools.values())).tolist())
        assert set(batch.left_idx.tolist()) | set(batch.right_idx.tolist()) <= allowed
        counts = pair_counts(batch, split.dataset.labels)
        assert counts.similar_by_class == {0: 5000, 1: 5000, 3: 5000}
        assert counts.dissimilar_by_combination == {(0, 1): 5000, (0, 3): 5000, (1, 3): 5000}

    def test_similarity_matches_classes(self):
        for seed, sizes in itertools.product(range(4), (
            {0: 20, 1: 20, 3: 20}, {0: 3, 1: 40}, {0: 30, 1: 2, 3: 9, 4: 15},
        )):
            split = build_split(sizes, excluded_class=2, labelled=2, unlabelled=2)
            batch = generate_training_batch(split, 4 * len(sizes), rng=seed)
            labels = split.dataset.labels
            same = labels[batch.left_idx] == labels[batch.right_idx]
            assert np.array_equal(same, batch.similar)

    def test_determinism(self):
        split = build_split({0: 25, 1: 25, 3: 25}, excluded_class=2)
        b1 = generate_training_batch(split, 100, rng=99)
        b2 = generate_training_batch(split, 100, rng=99)
        assert np.array_equal(b1.left_idx, b2.left_idx)
        assert np.array_equal(b1.right_idx, b2.right_idx)
        assert np.array_equal(b1.similar, b2.similar)
        b3 = generate_training_batch(split, 100, rng=100)
        assert not np.array_equal(b1.left_idx, b3.left_idx)

    def test_batch_is_shuffled(self):
        split = build_split({0: 40, 1: 40, 3: 40}, excluded_class=2)
        batch = generate_training_batch(split, 200, rng=2)
        # similar block was assembled first; a shuffle must interleave it
        first_half = batch.similar[:100]
        assert 0 < int(first_half.sum()) < 100


class TestErrors:
    def test_unsatisfiable_reports_achievable_maximum(self):
        split = build_split({0: 2, 1: 2}, excluded_class=2, labelled=3, unlabelled=3)
        # similar capacity 1+1=2, dissimilar capacity 4 -> at most 5 pairs
        with pytest.raises(PairGenerationError, match="at most 5"):
            generate_training_batch(split, 8, rng=0)

    def test_batch_size_lower_bound(self):
        split = build_split({0: 10, 1: 10}, excluded_class=2, labelled=3, unlabelled=3)
        with pytest.raises(PairGenerationError, match="batch_size"):
            generate_training_batch(split, 3, rng=0)

    def test_single_training_class_rejected(self):
        split = build_split({0: 10}, excluded_class=1, labelled=3, unlabelled=3)
        with pytest.raises(PairGenerationError, match="at least 2 training classes"):
            generate_training_batch(split, 10, rng=0)


class TestPairBatchApi:
    def test_counts_empty_batch(self):
        empty = PairBatch(
            np.array([], dtype=np.int64),
            np.array([], dtype=np.int64),
            np.array([], dtype=bool),
        )
        labels = np.array([0, 1, 3], dtype=np.int64)
        counts = pair_counts(empty, labels)
        assert counts.total == 0
        assert counts.similar_by_class == {}
        assert (counts.similar_by_class, counts.dissimilar_by_combination) == counts_oracle(
            empty, labels
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_counts_match_per_pair_oracle(self, seed):
        # any indices and mask, consistent with the labels or not
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 5, size=50)
        n = int(rng.integers(1, 200))
        batch = PairBatch(
            rng.integers(0, 50, size=n), rng.integers(0, 50, size=n), rng.random(n) < 0.5
        )
        counts = pair_counts(batch, labels)
        assert (counts.similar_by_class, counts.dissimilar_by_combination) == counts_oracle(
            batch, labels
        )
        assert counts.total == n
        assert all(type(c) is int for c in counts.similar_by_class)
        assert all(type(c) is int for combo in counts.dissimilar_by_combination for c in combo)

    def test_features_resolve_through_dataset(self):
        split = build_split({0: 10, 1: 10}, excluded_class=2, labelled=2, unlabelled=2)
        batch = generate_training_batch(split, 8, rng=0)
        model = init_model([split.dataset.width, 3], activation="linear", rng=0)
        left = split.dataset.matrix[batch.left_idx]
        right = split.dataset.matrix[batch.right_idx]
        d = np.linalg.norm(left @ model.weights[0] - right @ model.weights[0], axis=1)
        expected = np.sum(np.where(batch.similar, d**2, np.maximum(1.0 - d, 0.0) ** 2))
        _, loss = batch_gradients(
            model, batch.left_idx, batch.right_idx, batch.similar, split.dataset.matrix, LossConfig()
        )
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_dump_format(self, tmp_path):
        split = build_split({0: 10, 1: 10}, excluded_class=2, labelled=2, unlabelled=2)
        batch = generate_training_batch(split, 10, rng=4)
        path = tmp_path / "pairs.txt"
        batch.dump(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "left_idx,right_idx,target"
        assert len(lines) == 11
        for k, line in enumerate(lines[1:]):
            target = "similar" if batch.similar[k] else "dissimilar"
            assert line == f"{batch.left_idx[k]},{batch.right_idx[k]},{target}"
