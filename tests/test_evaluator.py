from __future__ import annotations

import csv

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oneshot_ids import evaluator
from oneshot_ids.evaluator import (
    ConfusionMatrix,
    EvaluationError,
    VoteConfig,
    _majority_winner,
    _pair_distances,
    _round_votes,
    _vote_rounds,
    classify,
    evaluate,
    metrics,
    sweep_to_csv,
    vote_sweep,
)
from oneshot_ids.network import SiameseModel, embed, init_model
from oneshot_ids.seeding import EVAL_STREAM, stream_rng

from conftest import build_split
from published_cms import ALL_PUBLISHED, KDD_DOS_EXCLUDED


def identity_model(width):
    return SiameseModel((width, width), [np.eye(width)], [np.zeros(width)], "linear")


def published_cm(fixture):
    return ConfusionMatrix(np.array(fixture["counts"]), fixture["class_names"])


def separated_split(n_classes=4, excluded=1, pool=12):
    sizes = {c: pool for c in range(n_classes) if c != excluded}
    return build_split(sizes, excluded_class=excluded, labelled=pool, unlabelled=pool)


def whole_dataset_vote_rounds(x_emb, split, j, rng, all_emb, own=None):
    """Voting as it was done before the reference pools were embedded on
    their own: references are looked up in an embedding of every dataset
    row through a (q, j, n) table of row indices."""
    q, n = len(x_emb), split.n_classes
    ref_idx = np.empty((q, j, n), dtype=np.int64)
    for c in range(n):
        pool = split.reference_pool(c)
        if own is not None and own[0] == c:
            positions = rng.integers(0, len(pool) - 1, size=(q, j))
            positions += positions >= own[1][:, None]
        else:
            positions = rng.integers(0, len(pool), size=(q, j))
        ref_idx[:, :, c] = pool[positions]
    dist = np.linalg.norm(all_emb[ref_idx] - x_emb[:, None, None, :], axis=-1)   # (q, j, n)
    nearest = np.argmin(dist, axis=-1)
    votes = np.zeros((q, n), dtype=np.int64)
    for c in range(n):
        votes[:, c] = np.sum(nearest == c, axis=1)
    return _majority_winner(votes, dist.sum(axis=1))


def whole_dataset_evaluate(model, split, test_batch_size, j, rng):
    """Confusion counts from `whole_dataset_vote_rounds`, drawing in
    `evaluate`'s order."""
    rng = np.random.default_rng(rng)
    n = split.n_classes
    all_emb = embed(model, split.dataset.matrix)
    counts = np.zeros((n, n), dtype=np.int64)
    for c in range(n):
        pool = split.evaluation_pool(c)
        positions = rng.integers(0, len(pool), size=test_batch_size // n)
        own = None if c == split.excluded_class else (c, positions)
        preds = whole_dataset_vote_rounds(all_emb[pool[positions]], split, j, rng, all_emb, own)
        counts[c] = np.bincount(preds, minlength=n)
    return counts


def record_embedded_rows(monkeypatch, ds):
    """Dataset row index of every row the evaluator embeds, in call order
    (-1 for a vector that is no dataset row)."""
    row_of = {row.tobytes(): i for i, row in enumerate(ds.matrix)}
    assert len(row_of) == len(ds.matrix)
    embedded = []

    def recording_embed(model, x):
        embedded.extend(row_of.get(row.tobytes(), -1) for row in np.atleast_2d(x))
        return embed(model, x)

    monkeypatch.setattr(evaluator, "embed", recording_embed)
    return embedded


def record_table_builds(monkeypatch):
    """(evaluated rows, reference rows) of every distance table built."""
    built = []

    def recording_table(rows, pool):
        built.append((len(rows), len(pool)))
        return distance_table(rows, pool)

    distance_table = evaluator._distance_table
    monkeypatch.setattr(evaluator, "_distance_table", recording_table)
    return built


class TestPairDistances:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("width", [3, 16, 20])
    def test_bit_identical_to_norm(self, dtype, width):
        rng = np.random.default_rng(width)
        pool = rng.normal(size=(37, width)).astype(dtype)
        x = rng.normal(size=(11, width)).astype(dtype)
        positions = rng.integers(0, len(pool), size=(11, 7))
        expected = np.linalg.norm(pool[positions] - x[:, None, :], axis=-1)
        block = np.empty((11, 7, 3), dtype=dtype)   # write into one class's column
        got = _pair_distances(x, pool, positions, block[:, :, 1])
        assert got.dtype == expected.dtype == dtype
        assert got.tobytes() == expected.tobytes()
        assert block[:, :, 1].tobytes() == expected.tobytes()


class TestMetrics:
    def test_kdd_dos_rates_exact(self):
        report = metrics(published_cm(KDD_DOS_EXCLUDED), "DoS")
        assert report.overall_accuracy == pytest.approx(23000 / 30000)
        assert report.new_class_tpr == pytest.approx(2417 / 6000)
        assert report.new_class_fnr == pytest.approx(1583 / 6000)
        assert report.normal_tnr == pytest.approx(4562 / 6000)
        assert report.normal_fpr == pytest.approx(1438 / 6000)

    @pytest.mark.parametrize("fixture", ALL_PUBLISHED, ids=lambda f: f["excluded"])
    def test_published_percentages(self, fixture):
        report = metrics(published_cm(fixture), fixture["excluded"])
        expected = fixture["expected"]
        assert 100 * report.overall_accuracy == pytest.approx(expected["overall"], abs=0.01)
        assert 100 * report.new_class_tpr == pytest.approx(expected["new_tpr"], abs=0.01)
        if "tnr" in expected:
            assert 100 * report.normal_tnr == pytest.approx(expected["tnr"], abs=0.01)

    def test_identity_cm_is_perfect(self):
        cm = ConfusionMatrix(np.diag([10, 20, 30]), ("n", "a", "b"))
        report = metrics(cm, "a")
        assert report.overall_accuracy == 1.0
        assert report.normal_fpr == 0.0
        assert all(v == 0.0 for v in report.attack_fnr.values())
        assert all(v == 1.0 for v in report.attack_tpr.values())

    def test_zero_row_error_names_class(self):
        cm = ConfusionMatrix(np.array([[5, 0], [0, 0]]), ("n", "quiet"))
        with pytest.raises(EvaluationError, match="'quiet'"):
            metrics(cm, "quiet")

    def test_excluded_index_resolves_to_name(self):
        report = metrics(published_cm(KDD_DOS_EXCLUDED), 1)
        assert report.excluded_class == "DoS"

    @pytest.mark.parametrize(
        "excluded, message",
        [
            ("Normal", "cannot exclude benign class 'Normal'"),
            (0, "cannot exclude benign class 'Normal'"),
            ("Worm", "unknown class 'Worm'"),
            (5, "excluded class index 5 out of range"),
            (-1, "excluded class index -1 out of range"),
        ],
    )
    def test_rejects_excluded_class_that_is_no_attack(self, excluded, message):
        with pytest.raises(EvaluationError, match=message) as info:
            metrics(published_cm(KDD_DOS_EXCLUDED), excluded)
        assert "['Normal', 'DoS', 'Probe', 'R2L', 'U2R']" in str(info.value)

    @given(st.integers(0, 2**32 - 1))
    def test_rate_identities_on_random_cms(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        counts = rng.integers(0, 50, size=(n, n))
        counts[np.arange(n), np.arange(n)] += 1  # no zero rows
        cm = ConfusionMatrix(counts, tuple(f"c{i}" for i in range(n)))
        report = metrics(cm, 1)
        rows = cm.row_sums()
        assert report.normal_tnr + report.normal_fpr == pytest.approx(1.0)
        assert 0.0 <= report.overall_accuracy <= 1.0
        for i in range(1, n):
            name = cm.class_names[i]
            other = (rows[i] - counts[i, i] - counts[i, 0]) / rows[i]
            total = report.attack_tpr[name] + report.attack_fnr[name] + other
            assert total == pytest.approx(1.0)


class TestConfusionMatrixIO:
    def test_csv_roundtrip(self, tmp_path):
        cm = published_cm(KDD_DOS_EXCLUDED)
        path = tmp_path / "cm.csv"
        cm.to_csv(path)
        header, *rows = csv.reader(path.read_text(encoding="utf-8").splitlines())
        assert header == ["class", *cm.class_names]
        assert [row[0] for row in rows] == list(cm.class_names)
        assert np.array_equal([[int(v) for v in row[1:]] for row in rows], cm.counts)

    def test_text_table_has_counts_and_percentages(self):
        text = published_cm(KDD_DOS_EXCLUDED).to_text()
        assert "4562 (76.03%)" in text
        assert "2417 (40.28%)" in text
        assert text.splitlines()[0].endswith("U2R")

    def test_rejects_negative_counts(self):
        with pytest.raises(EvaluationError, match="nonnegative"):
            ConfusionMatrix(np.array([[1, -1], [0, 2]]), ("a", "b"))

    def test_rejects_non_square(self):
        with pytest.raises(EvaluationError, match="square"):
            ConfusionMatrix(np.ones((2, 3), dtype=int), ("a", "b"))

    def test_rejects_names_not_matching_size(self):
        with pytest.raises(EvaluationError, match="class name count does not match matrix size"):
            ConfusionMatrix(np.eye(3, dtype=int), ("a", "b"))

    def test_report_json(self, tmp_path):
        report = metrics(published_cm(KDD_DOS_EXCLUDED), "DoS")
        path = tmp_path / "metrics.json"
        report.to_json(path)
        import json

        payload = json.loads(path.read_text())
        assert payload["overall_accuracy"] == pytest.approx(23000 / 30000)
        assert payload["attacks"]["DoS"]["tpr"] == pytest.approx(2417 / 6000)
        assert payload["excluded_class"] == "DoS"


class TestMajorityWinner:
    def test_most_votes_wins(self):
        votes = np.array([[3, 5, 2]])
        cum = np.array([[0.1, 9.9, 0.2]])
        assert _majority_winner(votes, cum)[0] == 1

    def test_vote_tie_breaks_on_cumulative_distance(self):
        votes = np.array([[2, 2, 1]])
        cum = np.array([[0.8, 0.3, 0.1]])
        assert _majority_winner(votes, cum)[0] == 1

    def test_full_tie_breaks_on_lowest_index(self):
        votes = np.array([[2, 2, 2]])
        cum = np.array([[0.5, 0.5, 0.5]])
        assert _majority_winner(votes, cum)[0] == 0

    def test_vectorized_rows_independent(self):
        votes = np.array([[1, 3], [3, 1]])
        cum = np.array([[0.0, 0.0], [0.0, 0.0]])
        assert _majority_winner(votes, cum).tolist() == [1, 0]


def argmin_vote_rounds(pool, positions, refs, j, rng, own=None, tables=None):
    """`_vote_rounds` as it was before the class-major kernel: a (b, j, n)
    block per chunk, each round's nearest class by `argmin`, one
    `bincount` of the votes, and the cumulative distance as a sum over the
    round axis."""
    q, n = len(positions), len(refs)
    drawn = []
    for k, ref in enumerate(refs):
        if k == own:
            drawn_k = rng.integers(0, len(ref) - 1, size=(q, j))
            drawn_k += drawn_k >= positions[:, None]
        else:
            drawn_k = rng.integers(0, len(ref), size=(q, j))
        drawn.append(drawn_k)
    tables = tables or [None] * n
    predictions = np.empty(q, dtype=np.int64)
    buffer = np.empty((min(q, evaluator._CLASSIFY_CHUNK), j, n), dtype=pool.dtype)
    for start in range(0, q, evaluator._CLASSIFY_CHUNK):
        block = slice(start, start + evaluator._CLASSIFY_CHUNK)
        rows = positions[block]
        b = len(rows)
        dist = buffer[:b]
        x = pool[rows]
        for k, (ref, drawn_k, table) in enumerate(zip(refs, drawn, tables)):
            if table is None:
                _pair_distances(x, ref, drawn_k[block], dist[:, :, k])
            else:
                dist[:, :, k] = table.ravel()[rows[:, None] * len(ref) + drawn_k[block]]
        nearest = np.argmin(dist, axis=-1) + n * np.arange(b)[:, None]
        votes = np.bincount(nearest.ravel(), minlength=b * n).reshape(b, n)
        predictions[block] = _majority_winner(votes, dist.sum(axis=1))
    return predictions


class TestVoteKernel:
    """The class-major vote kernel against the argmin kernel it replaced:
    the same predictions, votes and cumulative distances, bit for bit."""

    @staticmethod
    def tied_refs(seed):
        # float32 embeddings, as the trainer returns them; classes 1 and 3
        # share their three rows, so a round that draws the same row from
        # both is an exact cross-class distance tie
        rng = np.random.default_rng(seed)
        refs = [rng.normal(size=(size, 3)).astype(np.float32) for size in (7, 3, 5, 3)]
        refs[3] = refs[1].copy()
        return refs

    @pytest.mark.parametrize("j", [1, 2, 5, 30])
    def test_round_votes_match_argmin_and_round_axis_sum(self, j):
        rng = np.random.default_rng(j)
        # few distinct values, so many rounds have their minimum in
        # several classes
        dist = rng.integers(0, 4, size=(5, 37, j)).astype(np.float32) / 3
        votes, cumdist = _round_votes(dist)
        block = np.ascontiguousarray(dist.transpose(1, 2, 0))   # (b, j, n)
        nearest = np.argmin(block, axis=-1)
        expected = np.stack([(nearest == k).sum(axis=1) for k in range(5)], axis=1)
        assert (np.sort(block, axis=-1)[..., 0] == np.sort(block, axis=-1)[..., 1]).any()
        assert votes.dtype == np.int64 and np.array_equal(votes, expected)
        assert cumdist.dtype == np.float32
        assert np.ascontiguousarray(cumdist).tobytes() == block.sum(axis=1).tobytes()

    @pytest.mark.parametrize("tabled", [True, False], ids=["table", "on-demand"])
    @pytest.mark.parametrize("own", [None, 1], ids=["excluded", "own-class"])
    @pytest.mark.parametrize("j", [1, 2, 5, 30])
    def test_predictions_match_argmin_kernel(self, j, own, tabled, monkeypatch):
        # chunks of 16 rows, the last one partial
        monkeypatch.setattr(evaluator, "_CLASSIFY_CHUNK", 16)
        refs = self.tied_refs(j)
        pool = refs[own] if own is not None else np.random.default_rng(100 + j).normal(
            size=(6, 3)).astype(np.float32)
        positions = np.random.default_rng(j + 1).integers(0, len(pool), size=45)
        tables = [evaluator._distance_table(pool, ref) for ref in refs] if tabled else None
        got = _vote_rounds(pool, positions, refs, j, np.random.default_rng(3), own, tables)
        expected = argmin_vote_rounds(
            pool, positions, refs, j, np.random.default_rng(3), own, tables
        )
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)
        # the shared rows took votes: some prediction is one of the tied classes
        assert np.isin(got, [1, 3]).any()


class TestEmbeddedPools:
    def test_retained_tables_built_once_each(self, monkeypatch):
        built = record_table_builds(monkeypatch)
        # the benign class and three retained attacks, attack1 withheld; the
        # pools differ in size, so each copied table has another shape than
        # the table it is the transpose of
        split = build_split(
            {0: 4, 2: 4, 3: 4, 4: 4}, excluded_class=1, labelled=5, unlabelled=6,
            testing_sizes={0: 7, 2: 3, 3: 9, 4: 5},
        )
        matrix = split.dataset.matrix
        matrix[:] = np.random.default_rng(5).uniform(size=matrix.shape)
        model = init_model([split.dataset.width, 5, 3], rng=5)
        # a budget of 100 instances x 30 votes tables every class pair
        pools = evaluator._embedded_pools(model, split, 500, 30)
        # of the 25 tables, the 6 pairs of distinct retained classes build one each
        assert len(built) == 25 - 6
        for c in range(5):
            for k in range(5):
                table = pools.tables[c][k]
                expected = evaluator._distance_table(pools.evals[c], pools.refs[k])
                assert table.flags.c_contiguous and table.dtype == expected.dtype
                assert table.shape == expected.shape
                assert table.tobytes() == expected.tobytes()


class TestClassify:
    def test_j1_equals_brute_force_nearest_neighbor(self):
        split = separated_split(pool=1)
        ds = split.dataset
        model = init_model([ds.width, 5, 3], rng=3)
        rng = np.random.default_rng(0)
        for query in rng.choice(len(ds.matrix), size=8):
            x = ds.matrix[query]
            # oracle: single reference per class is deterministic with pool size 1
            refs = [ds.matrix[split.reference_pool(c)[0]] for c in range(split.n_classes)]
            x_emb = embed(model, x)
            dists = [np.linalg.norm(x_emb - embed(model, r)) for r in refs]
            expected = int(np.argmin(dists))
            got = classify(model, x[None], split, VoteConfig(1), rng=7)
            assert got.tolist() == [expected]

    def test_collapsed_model_is_deterministic(self):
        split = separated_split()
        ds = split.dataset
        model = SiameseModel((ds.width, 3), [np.zeros((ds.width, 3))], [np.zeros(3)], "linear")
        preds = {
            int(classify(model, ds.matrix[i:i + 1], split, VoteConfig(5), rng=seed)[0])
            for i in range(4)
            for seed in (0, 1, 2)
        }
        assert preds == {0}  # all distances equal -> lowest class index every round

    def test_well_separated_clusters_classified(self):
        split = separated_split(excluded=2)
        ds = split.dataset
        model = identity_model(ds.width)
        rng = np.random.default_rng(5)
        for c in range(split.n_classes):
            pool = split.evaluation_pool(c)
            x = ds.matrix[pool[:1]]
            assert classify(model, x, split, VoteConfig(5), rng=rng).tolist() == [c]
        # and as one block, every evaluation row of every class
        rows = np.concatenate([split.evaluation_pool(c) for c in range(split.n_classes)])
        got = classify(model, ds.matrix[rows], split, VoteConfig(5), rng=rng)
        assert got.dtype == np.int64
        assert np.array_equal(got, ds.labels[rows])

    def test_empty_reference_pool_error(self):
        split = separated_split()
        split.testing_pools[0] = np.array([], dtype=np.int64)
        model = identity_model(split.dataset.width)
        with pytest.raises(EvaluationError, match="'normal'"):
            classify(model, split.dataset.matrix[:1], split, VoteConfig(1), rng=0)

    def test_vote_config_validation(self):
        with pytest.raises(ValueError, match="at least 1"):
            VoteConfig(0)

    def test_int_seed_and_generator_agree(self):
        split = separated_split()
        ds = split.dataset
        model = init_model([ds.width, 4, 3], rng=2)
        for i in range(6):
            x = ds.matrix[i:i + 1]
            first = classify(model, x, split, VoteConfig(3), rng=55)
            second = classify(model, x, split, VoteConfig(3), rng=np.random.default_rng(55))
            assert np.array_equal(first, second)

    def test_embeds_reference_pools_only(self, monkeypatch):
        split = separated_split(excluded=2)
        ds = split.dataset
        embedded = record_embedded_rows(monkeypatch, ds)
        x = np.full((1, ds.width), 0.5)
        classify(identity_model(ds.width), x, split, VoteConfig(5), rng=0)
        references = np.concatenate([split.reference_pool(c) for c in range(split.n_classes)])
        assert sorted(embedded) == [-1, *sorted(references)]

    @pytest.mark.parametrize("q", [0, 1, 7, 40])
    def test_embeds_each_reference_once_per_block(self, monkeypatch, q):
        split = separated_split(excluded=2)
        ds = split.dataset
        embedded = record_embedded_rows(monkeypatch, ds)
        queries = np.random.default_rng(q).choice(len(ds.matrix), size=q)
        got = classify(identity_model(ds.width), ds.matrix[queries], split, VoteConfig(5), rng=0)
        assert got.shape == (q,)
        references = np.concatenate([split.reference_pool(c) for c in range(split.n_classes)])
        assert sorted(embedded) == sorted([*references, *queries])


class TestEvaluate:
    def test_row_sums_equal_quota(self):
        split = separated_split()
        model = identity_model(split.dataset.width)
        cm = evaluate(model, split, 30, VoteConfig(3), rng=1)
        assert cm.row_sums().tolist() == [7, 7, 7, 7]

    def test_floor_rule_single_instance_per_class(self):
        split = separated_split(n_classes=5)
        model = identity_model(split.dataset.width)
        cm = evaluate(model, split, 7, VoteConfig(1), rng=1)
        assert cm.row_sums().tolist() == [1, 1, 1, 1, 1]
        assert cm.total() == 5

    def test_perfectly_separated_gives_diagonal(self):
        split = separated_split()
        model = identity_model(split.dataset.width)
        cm = evaluate(model, split, 40, VoteConfig(5), rng=2)
        assert np.array_equal(cm.counts, np.diag(cm.row_sums()))

    def test_deterministic_given_seed(self):
        split = separated_split()
        model = init_model([split.dataset.width, 4, 3], rng=11)
        cm1 = evaluate(model, split, 60, VoteConfig(5), rng=9)
        cm2 = evaluate(model, split, 60, VoteConfig(5), rng=9)
        assert np.array_equal(cm1.counts, cm2.counts)

    def test_too_small_batch_rejected(self):
        split = separated_split()
        model = identity_model(split.dataset.width)
        with pytest.raises(EvaluationError, match="too small"):
            evaluate(model, split, 3, VoteConfig(1), rng=0)

    def test_scaling_final_layer_leaves_cm_unchanged(self):
        split = separated_split()
        model = init_model([split.dataset.width, 5, 3], rng=21)
        cm1 = evaluate(model, split, 60, VoteConfig(5), rng=13)
        scaled = model.copy()
        scaled.weights[-1] *= 3.7
        scaled.biases[-1] *= 3.7
        cm2 = evaluate(scaled, split, 60, VoteConfig(5), rng=13)
        assert np.array_equal(cm1.counts, cm2.counts)


    def test_instance_never_its_own_reference(self):
        # class 0's two testing rows sit 1.0 apart and 0.5 from class 1's
        # references: only a self-reference (distance 0) could vote class 0
        split = separated_split(n_classes=3, excluded=2, pool=2)
        matrix = split.dataset.matrix
        matrix[:] = 10.0
        matrix[split.testing_pools[0], 0] = [0.0, 1.0]
        matrix[split.testing_pools[1], 0] = 0.5
        cm = evaluate(identity_model(matrix.shape[1]), split, 300, VoteConfig(1), rng=0)
        assert cm.counts[0].tolist() == [0, 100, 0]

    def test_single_row_testing_pool_rejected_before_any_draw(self):
        split = separated_split(n_classes=3, excluded=2, pool=2)
        split.testing_pools[1] = split.testing_pools[1][:1]
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(EvaluationError, match="'attack1' has 1 row"):
            evaluate(identity_model(split.dataset.width), split, 30, VoteConfig(1), rng=rng)
        assert rng.bit_generator.state == state

    def test_empty_labelled_pool_error(self):
        split = separated_split()
        split.excluded_labelled = np.array([], dtype=np.int64)
        with pytest.raises(EvaluationError, match="empty reference pool for class 'attack1'"):
            evaluate(identity_model(split.dataset.width), split, 40, VoteConfig(1), rng=0)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("j", [1, 5, 30])
    def test_matches_whole_dataset_reference(self, j, seed, monkeypatch):
        built = record_table_builds(monkeypatch)
        # pools this small are cheaper as distance tables than as 100 * j
        # draws per class; attack2's testing pool has 2 rows, so each of its
        # instances has exactly one own-class reference: the edge of the
        # own-row shift
        small = build_split(
            {0: 6, 2: 5, 3: 4}, excluded_class=1, labelled=3, unlabelled=5,
            testing_sizes={0: 7, 2: 2, 3: 5},
        )
        # pools of 30+ rows cost more as tables (900+ entries) than 20 * j
        # draws (at most 600), so every distance is computed on demand
        large = build_split(
            {0: 3, 2: 3, 3: 3}, excluded_class=1, labelled=31, unlabelled=30,
            testing_sizes={0: 34, 2: 30, 3: 32},
        )
        # the small split's 16 tables take 13 builds: a table between two
        # retained classes is built once and copied transposed for the other
        for split, test_batch_size, tables in ((small, 400, 13), (large, 80, 0)):
            # rows without class structure, so every vote turns on which
            # references were drawn
            matrix = split.dataset.matrix
            matrix[:] = np.random.default_rng(seed).uniform(size=matrix.shape)
            model = init_model([split.dataset.width, 5, 3], rng=seed)
            built.clear()
            cm = evaluate(model, split, test_batch_size, VoteConfig(j), rng=seed)
            assert len(built) == tables
            expected = whole_dataset_evaluate(model, split, test_batch_size, j, seed)
            assert np.array_equal(cm.counts, expected)

    def test_embeds_no_training_row_and_each_pool_row_once(self, monkeypatch):
        split = separated_split(excluded=2)
        ds = split.dataset
        embedded = record_embedded_rows(monkeypatch, ds)
        evaluate(identity_model(ds.width), split, 40, VoteConfig(5), rng=0)
        counts = np.bincount(embedded, minlength=len(ds.matrix))
        assert counts.max() == 1
        assert not counts[split.training_indices()].any()


class TestVoteSweep:
    def test_single_j(self):
        split = separated_split()
        model = identity_model(split.dataset.width)
        rows = vote_sweep(model, split, 20, (1,), seed=0)
        assert len(rows) == 1
        assert rows[0].report.votes == 1
        assert rows[0].report.to_dict()["votes"] == 1

    def test_full_sweep_shape(self):
        split = separated_split()
        model = identity_model(split.dataset.width)
        rows = vote_sweep(model, split, 20, (1, 5, 10, 15, 20, 25, 30), seed=0)
        assert [r.report.votes for r in rows] == [1, 5, 10, 15, 20, 25, 30]

    def test_perfect_separation_invariant_over_j(self):
        split = separated_split()
        model = identity_model(split.dataset.width)
        rows = vote_sweep(model, split, 40, (1, 5, 30), seed=3)
        overall = {r.report.overall_accuracy for r in rows}
        assert overall == {1.0}

    def test_deterministic(self):
        split = separated_split()
        model = init_model([split.dataset.width, 4, 3], rng=2)
        r1 = vote_sweep(model, split, 40, (1, 5), seed=8)
        r2 = vote_sweep(model, split, 40, (1, 5), seed=8)
        for a, b in zip(r1, r2):
            assert np.array_equal(a.cm.counts, b.cm.counts)

    @pytest.mark.parametrize("test_batch_size", [40, 400])
    def test_rows_equal_separate_evaluations(self, test_batch_size, monkeypatch):
        built = record_table_builds(monkeypatch)
        split = build_split(
            {0: 6, 2: 5, 3: 4}, excluded_class=1, labelled=9, unlabelled=11,
            testing_sizes={0: 20, 2: 2, 3: 15},
        )
        matrix = split.dataset.matrix
        matrix[:] = np.random.default_rng(4).uniform(size=matrix.shape)
        model = init_model([split.dataset.width, 5, 3], rng=4)
        js = (1, 5, 12)
        rows = vote_sweep(model, split, test_batch_size, js, seed=6)
        # a sweep of 18 votes per instance tables some class pairs at 40
        # instances and all 16 at 400, in 13 builds (3 are transposed copies)
        assert 0 < len(built) <= 13
        assert len(built) == 13 or test_batch_size == 40
        for row, j in zip(rows, js):
            cm = evaluate(model, split, test_batch_size, VoteConfig(j), stream_rng(6, EVAL_STREAM, j))
            assert row.report.votes == j
            assert np.array_equal(row.cm.counts, cm.counts)

    def test_embeds_each_pool_row_once_per_sweep(self, monkeypatch):
        split = separated_split(excluded=2)
        ds = split.dataset
        embedded = record_embedded_rows(monkeypatch, ds)
        vote_sweep(identity_model(ds.width), split, 40, (1, 5, 30), seed=0)
        counts = np.bincount(embedded, minlength=len(ds.matrix))
        assert counts.max() == 1
        assert not counts[split.training_indices()].any()
        pools = np.concatenate([split.reference_pool(c) for c in range(split.n_classes)])
        assert np.array_equal(np.flatnonzero(counts), np.sort(np.append(pools, split.excluded_unlabelled)))

    @pytest.mark.parametrize(
        "j_values, message",
        [
            ((0,), "0 is not positive"),
            ((5, -1), "-1 is not positive"),
            ((2.5,), "2.5 is not an integer"),
            (("3",), "'3' is not an integer"),
            ((True,), "True is not an integer"),
            ((1, 5, 5), "5 is repeated"),
        ],
    )
    def test_bad_j_rejected_before_embedding(self, j_values, message, monkeypatch):
        split = separated_split()
        embedded = record_embedded_rows(monkeypatch, split.dataset)
        with pytest.raises(EvaluationError, match=message):
            vote_sweep(identity_model(split.dataset.width), split, 20, j_values, seed=0)
        assert embedded == []

    def test_empty_j_values(self):
        split = separated_split()
        model = identity_model(split.dataset.width)
        with pytest.raises(EvaluationError, match="empty"):
            vote_sweep(model, split, 20, (), seed=0)

    def test_csv_emission(self, tmp_path):
        split = separated_split()
        model = identity_model(split.dataset.width)
        rows = vote_sweep(model, split, 20, (1, 5), seed=0)
        path = tmp_path / "sweep.csv"
        sweep_to_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "votes,overall_accuracy,new_class_tpr,new_class_fnr,normal_tnr,normal_fpr"
        assert len(lines) == 3
        assert lines[1].startswith("1,")
