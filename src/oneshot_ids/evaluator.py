"""N-way nearest-pair classification with majority voting, plus metrics.

Each voting round pairs the instance under test with one random reference
per class (retained classes reference their testing pools, the excluded
class its labelled pool; an instance is never its own reference) and
votes for the class at minimum embedding distance. The modal class over j
rounds wins; vote ties fall back to the lowest cumulative distance across
rounds, then the lowest class index.

The confusion matrix puts the benign class in row/column 0 followed by the
attack classes. Derived rates use full-row denominators: per attack class,
TPR is the diagonal cell over the row total and FNR the benign-column cell
over the row total; the benign row yields TNR (diagonal) and FPR (rest).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .dataset import ExperimentSplit, attack_index, is_integer, write_csv
from .network import SiameseModel, embed
from .seeding import EVAL_STREAM, stream_rng

DEFAULT_VOTE_SWEEP = (1, 5, 10, 15, 20, 25, 30)
_EMBED_CHUNK = 4096
_VOTE_CHUNK = 1024
_TABLE_BLOCK = 32768    # pairs per block while building a distance table


class EvaluationError(ValueError):
    pass


def _checked_votes(j_values) -> tuple[int, ...]:
    """The j rule: a non-empty sequence of distinct positive integers."""
    j_values = tuple(j_values)
    if not j_values:
        raise EvaluationError("the j values are empty")
    for i, j in enumerate(j_values):
        if not is_integer(j):
            raise EvaluationError(f"j {j!r} is not an integer")
        if j < 1:
            raise EvaluationError(f"j {j!r} is not positive: need at least 1 vote")
        if j in j_values[:i]:
            raise EvaluationError(f"j {j!r} is repeated")
    return tuple(int(j) for j in j_values)


@dataclass(frozen=True)
class VoteConfig:
    j: int = 5

    def __post_init__(self):
        _checked_votes((self.j,))


@dataclass
class ConfusionMatrix:
    """Rows are true classes, columns predicted classes, benign first."""

    counts: np.ndarray             # (N, N) int64
    class_names: tuple[str, ...]

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 2 or self.counts.shape[0] != self.counts.shape[1]:
            raise EvaluationError("confusion matrix must be square")
        if self.counts.shape[0] != len(self.class_names):
            raise EvaluationError("class name count does not match matrix size")
        if np.any(self.counts < 0):
            raise EvaluationError("confusion matrix counts must be nonnegative")

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def row_sums(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    def total(self) -> int:
        return int(self.counts.sum())

    def to_csv(self, path: str | Path) -> None:
        rows = zip(self.class_names, self.counts.tolist())
        write_csv(path, [("class", *self.class_names), *((name, *row) for name, row in rows)])

    def to_text(self) -> str:
        """Aligned table with per-cell counts and row percentages."""
        rows = self.row_sums()
        cells = []
        for i, row in enumerate(self.counts):
            denom = rows[i] if rows[i] > 0 else 1
            cells.append([f"{int(v)} ({100.0 * v / denom:.2f}%)" for v in row])
        name_w = max(len("true \\ predicted"), max(len(n) for n in self.class_names))
        col_ws = [
            max(len(self.class_names[c]), max(len(cells[r][c]) for r in range(self.n_classes)))
            for c in range(self.n_classes)
        ]
        header = "true \\ predicted".ljust(name_w) + "  " + "  ".join(
            n.rjust(w) for n, w in zip(self.class_names, col_ws)
        )
        lines = [header]
        for name, row in zip(self.class_names, cells):
            lines.append(name.ljust(name_w) + "  " + "  ".join(c.rjust(w) for c, w in zip(row, col_ws)))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class MetricsReport:
    overall_accuracy: float
    attack_tpr: dict[str, float]
    attack_fnr: dict[str, float]
    normal_tnr: float
    normal_fpr: float
    excluded_class: str
    votes: int | None = None

    @property
    def new_class_tpr(self) -> float:
        return self.attack_tpr[self.excluded_class]

    @property
    def new_class_fnr(self) -> float:
        return self.attack_fnr[self.excluded_class]

    def to_dict(self) -> dict:
        return {
            "overall_accuracy": self.overall_accuracy,
            "normal": {"tnr": self.normal_tnr, "fpr": self.normal_fpr},
            "attacks": {
                name: {"tpr": self.attack_tpr[name], "fnr": self.attack_fnr[name]}
                for name in self.attack_tpr
            },
            "excluded_class": self.excluded_class,
            "votes": self.votes,
        }

    def to_json(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )


def metrics(cm: ConfusionMatrix, excluded_class: int | str) -> MetricsReport:
    """Overall accuracy plus per-class rates from a confusion matrix;
    `excluded_class`, a name or an index, must be an attack class."""
    excluded_class = cm.class_names[attack_index(cm.class_names, excluded_class, EvaluationError)]
    rows = cm.row_sums()
    if np.any(rows == 0):
        zero = cm.class_names[int(np.argmin(rows))]
        raise EvaluationError(f"confusion matrix row for class {zero!r} is empty")
    overall = float(np.trace(cm.counts) / cm.total())
    tpr, fnr = {}, {}
    for i in range(1, cm.n_classes):
        name = cm.class_names[i]
        tpr[name] = float(cm.counts[i, i] / rows[i])
        fnr[name] = float(cm.counts[i, 0] / rows[i])
    tnr = float(cm.counts[0, 0] / rows[0])
    return MetricsReport(
        overall_accuracy=overall,
        attack_tpr=tpr,
        attack_fnr=fnr,
        normal_tnr=tnr,
        normal_fpr=1.0 - tnr,
        excluded_class=excluded_class,
    )


def _embed_all(model: SiameseModel, matrix: np.ndarray) -> np.ndarray:
    parts = [
        embed(model, matrix[start:start + _EMBED_CHUNK])
        for start in range(0, len(matrix), _EMBED_CHUNK)
    ]
    return np.vstack(parts)


def _majority_winner(votes: np.ndarray, cumdist: np.ndarray) -> np.ndarray:
    """Winner per row: most votes, then least cumulative distance, then
    lowest class index (lexsort is stable, so index order breaks ties)."""
    order = np.lexsort((cumdist, -votes), axis=-1)
    return order[..., 0]


def _pair_distances(
    x: np.ndarray, pool: np.ndarray, positions: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """out[i, r] = ||pool[positions[i, r]] - x[i]||, written in place.

    The same float operations as `np.linalg.norm(..., axis=-1)` (square,
    pairwise sum over the contiguous last axis, square root), so the
    distances are bit-identical to it, without its extra temporaries.
    """
    d = np.take(pool, positions, axis=0)
    d -= x[:, None, :]
    np.multiply(d, d, out=d)
    return np.sqrt(np.add.reduce(d, axis=-1), out=out)


def _distance_table(rows: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """Distance from every row of `rows` to every row of `pool`, computed by
    `_pair_distances` a block of at most `_TABLE_BLOCK` pairs at a time."""
    table = np.empty((len(rows), len(pool)), dtype=pool.dtype)
    every = np.arange(len(pool))
    step = max(1, _TABLE_BLOCK // len(pool))
    for start in range(0, len(rows), step):
        block = slice(start, start + step)
        x = rows[block]
        _pair_distances(x, pool, np.broadcast_to(every, (len(x), len(pool))), table[block])
    return table


@dataclass(frozen=True)
class _EmbeddedPools:
    """A split's pools embedded by one model, with the distance tables worth
    building for the votes that will be drawn.

    `refs[k]` is class k's embedded reference pool and `evals[c]` class c's
    embedded evaluation pool (the same array as `refs[c]` for a retained
    class). `tables[c][k]` holds the distance from every row of `evals[c]`
    to every row of `refs[k]`, or is None where drawing distances on
    demand evaluates fewer of them.
    """

    refs: list[np.ndarray]
    evals: list[np.ndarray]
    tables: list[list[np.ndarray | None]]


def _instances_per_class(split: ExperimentSplit, test_batch_size: int) -> int:
    """floor(test_batch_size / N), once every reference pool is non-empty and
    every evaluation pool can supply it."""
    n = split.n_classes
    per_class = test_batch_size // n
    if per_class < 1:
        raise EvaluationError(f"test_batch_size {test_batch_size} too small for {n} classes")
    for c, name in enumerate(split.dataset.class_names):
        if len(split.reference_pool(c)) == 0:
            raise EvaluationError(f"empty reference pool for class {name!r}")
        size = len(split.evaluation_pool(c))
        need = 1 if c == split.excluded_class else 2
        if size < need:
            raise EvaluationError(
                f"evaluation pool for class {name!r} has {size} row(s); need {need}"
            )
    return per_class


def _embedded_pools(
    model: SiameseModel, split: ExperimentSplit, test_batch_size: int, total_votes: int
) -> _EmbeddedPools:
    """Embed each pool once and build every distance table that costs no
    more distances than the evaluations will draw.

    `total_votes` is the number of votes per instance over all the
    evaluations that will share the pools (the sum of their j). Each
    instance draws that many references from each class, so class c's
    instances draw `(test_batch_size // N) * total_votes` distances to
    class k; the table (c, k) is built only when it has no more entries
    than that, which also bounds its memory.
    """
    per_class = _instances_per_class(split, test_batch_size)
    ds = split.dataset
    refs = [_embed_all(model, ds.matrix[split.reference_pool(c)]) for c in range(split.n_classes)]
    evals = [
        refs[c] if c != split.excluded_class
        else _embed_all(model, ds.matrix[split.evaluation_pool(c)])
        for c in range(split.n_classes)
    ]
    budget = per_class * total_votes
    tables: list[list[np.ndarray | None]] = [[None] * len(refs) for _ in evals]
    for c, rows in enumerate(evals):
        for k, ref in enumerate(refs):
            if len(rows) * len(ref) > budget:
                continue
            if k < c and split.excluded_class not in (c, k):
                # evals[c] is refs[c] for two retained classes, so (c, k) is
                # the table (k, c) transposed, to the bit
                tables[c][k] = np.ascontiguousarray(tables[k][c].T)
            else:
                tables[c][k] = _distance_table(rows, ref)
    return _EmbeddedPools(refs, evals, tables)


def _vote_rounds(
    pool: np.ndarray,
    positions: np.ndarray,
    refs: list[np.ndarray],
    j: int,
    rng: np.random.Generator,
    own: int | None,
    tables: list[np.ndarray | None],
) -> np.ndarray:
    """Classify the embedded instances `pool[positions]` with j voting
    rounds each.

    `refs[k]` holds class k's embedded reference pool. Reference draws
    consume the rng class by class so results are a pure function of
    (split, j, seed). `own` names the class whose reference pool `pool`
    is: each instance's references for that class are drawn from the
    pool's other rows, never itself. `tables[k]`, where not None, holds the
    distance from every row of `pool` to every row of `refs[k]`; the
    distances to other classes are computed on demand.
    """
    q = len(positions)
    n = len(refs)
    drawn = []
    # int32 draws hold the values, and leave the generator in the state, of
    # numpy's int64 default for bounds below 2**31, in half the memory
    for k, ref in enumerate(refs):
        if k == own:
            drawn_k = rng.integers(0, len(ref) - 1, size=(q, j), dtype=np.int32)
            drawn_k += drawn_k >= positions[:, None]
        else:
            drawn_k = rng.integers(0, len(ref), size=(q, j), dtype=np.int32)
        drawn.append(drawn_k)
    predictions = np.empty(q, dtype=np.int64)
    buffer = np.empty((n, min(q, _VOTE_CHUNK), j), dtype=pool.dtype)
    for start in range(0, q, _VOTE_CHUNK):
        block = slice(start, start + _VOTE_CHUNK)
        rows = positions[block]
        dist = buffer[:, :len(rows)]                     # (n, b, j), each class contiguous
        x = pool[rows]
        for k, (ref, drawn_k, table) in enumerate(zip(refs, drawn, tables)):
            if table is None:
                _pair_distances(x, ref, drawn_k[block], dist[k])
            else:
                # flat indices into the (len(pool), len(ref)) table
                np.take(table, rows[:, None] * len(ref) + drawn_k[block], out=dist[k])
        predictions[block] = _majority_winner(*_round_votes(dist))
    return predictions


def _round_votes(dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Votes and cumulative distance, each (b, n), from the class-major
    (n, b, j) distances of b instances' j rounds.

    A round's vote goes to the first class at the round's minimum, the
    class `argmin` over the classes would pick. The cumulative distance
    adds the rounds one at a time, in round order, which is the order in
    which a sum over the round axis of a (b, j, n) block adds them.
    """
    n, b, j = dist.shape
    at_min = dist == np.minimum.reduce(dist, axis=0)
    # at_min[k]: class k or an earlier class is at the round's minimum
    for k in range(1, n):
        np.logical_or(at_min[k - 1], at_min[k], out=at_min[k])
    # the rounds won by classes 0..k, counted by one matrix-vector product
    # (exact: a count of at most j is a whole number the dtype holds)
    upto = at_min.reshape(n * b, j).astype(dist.dtype) @ np.ones(j, dtype=dist.dtype)
    votes = np.diff(upto.reshape(n, b), axis=0, prepend=0).astype(np.int64)
    cumdist = dist[:, :, 0].copy()
    for r in range(1, j):
        cumdist += dist[:, :, r]
    return votes.T, cumdist.T


def evaluate(
    model: SiameseModel,
    split: ExperimentSplit,
    test_batch_size: int,
    vote: VoteConfig,
    rng: int | np.random.Generator,
    *,
    pools: _EmbeddedPools | None = None,
) -> ConfusionMatrix:
    """Confusion matrix over floor(test_batch_size / N) instances per class.

    Evaluation instances are drawn with replacement: retained classes from
    their testing pools, the excluded class from its unlabelled pool. A
    retained class's testing pool is also its reference pool, so an
    instance's own-class references come from the pool's other rows; the
    pool needs at least 2. Only the reference pools and the excluded
    class's unlabelled pool are embedded, each once.

    `pools` is what `_embedded_pools` built for this model, split and
    test_batch_size, shared by the evaluations of a sweep; without it they
    are built for this evaluation's j alone.
    """
    if pools is None:
        pools = _embedded_pools(model, split, test_batch_size, vote.j)
    rng = np.random.default_rng(rng)
    n = split.n_classes
    per_class = test_batch_size // n
    counts = np.zeros((n, n), dtype=np.int64)
    for c in range(n):
        positions = rng.integers(0, len(pools.evals[c]), size=per_class)
        own = None if c == split.excluded_class else c
        preds = _vote_rounds(
            pools.evals[c], positions, pools.refs, vote.j, rng, own, pools.tables[c]
        )
        counts[c] = np.bincount(preds, minlength=n)
    return ConfusionMatrix(counts, split.dataset.class_names)


@dataclass(frozen=True)
class SweepRow:
    cm: ConfusionMatrix
    report: MetricsReport


def vote_sweep(
    model: SiameseModel,
    split: ExperimentSplit,
    test_batch_size: int,
    j_values=DEFAULT_VOTE_SWEEP,
    seed: int = 0,
) -> list[SweepRow]:
    """One evaluation per j, each on its own stream of the same seed base.
    The pools are embedded, and the distance tables built, once for the
    whole sweep."""
    j_values = _checked_votes(j_values)
    pools = _embedded_pools(model, split, test_batch_size, sum(j_values))
    rows = []
    for j in j_values:
        rng = stream_rng(seed, EVAL_STREAM, j)
        cm = evaluate(model, split, test_batch_size, VoteConfig(j), rng, pools=pools)
        report = replace(metrics(cm, split.excluded_class), votes=j)
        rows.append(SweepRow(cm, report))
    return rows


def sweep_to_csv(rows: list[SweepRow], path: str | Path) -> None:
    """Vote-sweep table: overall accuracy, new-class TPR/FNR, benign TNR/FPR."""
    rates = ("overall_accuracy", "new_class_tpr", "new_class_fnr", "normal_tnr", "normal_fpr")
    reports = [row.report for row in rows]
    write_csv(path, [("votes", *rates),
                     *((r.votes, *(getattr(r, rate) for rate in rates)) for r in reports)])
