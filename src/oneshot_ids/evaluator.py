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

from .dataset import ExperimentSplit
from .network import SiameseModel, embed
from .seeding import EVAL_STREAM, stream_rng

DEFAULT_VOTE_SWEEP = (1, 5, 10, 15, 20, 25, 30)
_EMBED_CHUNK = 4096
_CLASSIFY_CHUNK = 1024


class EvaluationError(ValueError):
    pass


@dataclass(frozen=True)
class VoteConfig:
    j: int = 5

    def __post_init__(self):
        if self.j < 1:
            raise ValueError("need at least 1 vote per instance")


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
        with Path(path).open("w", encoding="utf-8") as fh:
            fh.write("class," + ",".join(self.class_names) + "\n")
            for name, row in zip(self.class_names, self.counts):
                fh.write(name + "," + ",".join(str(int(v)) for v in row) + "\n")

    @classmethod
    def from_csv(cls, path: str | Path) -> "ConfusionMatrix":
        lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines() if ln.strip()]
        if len(lines) < 2:
            raise EvaluationError(f"{path}: not a confusion matrix file")
        header = lines[0].split(",")
        names = tuple(h.strip() for h in header[1:])
        rows = []
        for ln in lines[1:]:
            parts = [p.strip() for p in ln.split(",")]
            if len(parts) != len(names) + 1:
                raise EvaluationError(f"{path}: malformed row {ln!r}")
            try:
                rows.append([int(p) for p in parts[1:]])
            except ValueError:
                raise EvaluationError(f"{path}: non-integer count in row {ln!r}") from None
        if len(rows) != len(names):
            raise EvaluationError(f"{path}: expected {len(names)} rows, got {len(rows)}")
        return cls(np.array(rows, dtype=np.int64), names)

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
    excluded_class: str | None = None
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

    def to_kv_lines(self) -> str:
        lines = [f"overall_accuracy {self.overall_accuracy!r}"]
        lines.append(f"normal_tnr {self.normal_tnr!r}")
        lines.append(f"normal_fpr {self.normal_fpr!r}")
        for name in self.attack_tpr:
            lines.append(f"tpr[{name}] {self.attack_tpr[name]!r}")
            lines.append(f"fnr[{name}] {self.attack_fnr[name]!r}")
        if self.excluded_class is not None:
            lines.append(f"excluded_class {self.excluded_class}")
        return "\n".join(lines) + "\n"


def metrics(cm: ConfusionMatrix, excluded_class: int | str | None = None) -> MetricsReport:
    """Overall accuracy plus per-class rates from a confusion matrix."""
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
    if isinstance(excluded_class, (int, np.integer)):
        excluded_class = cm.class_names[excluded_class]
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


def _reference_embeddings(model: SiameseModel, split: ExperimentSplit) -> list[np.ndarray]:
    """Each class's reference pool embedded once, in pool order."""
    refs = []
    for c in range(split.n_classes):
        pool = split.reference_pool(c)
        if len(pool) == 0:
            raise EvaluationError(
                f"empty reference pool for class {split.dataset.class_names[c]!r}"
            )
        refs.append(_embed_all(model, split.dataset.matrix[pool]))
    return refs


def _majority_winner(votes: np.ndarray, cumdist: np.ndarray) -> np.ndarray:
    """Winner per row: most votes, then least cumulative distance, then
    lowest class index (lexsort is stable, so index order breaks ties)."""
    order = np.lexsort((cumdist, -votes), axis=-1)
    return order[..., 0]


def _vote_rounds(
    x_emb: np.ndarray,
    refs: list[np.ndarray],
    j: int,
    rng: np.random.Generator,
    own: tuple[int, np.ndarray] | None = None,
) -> np.ndarray:
    """Classify a block of embedded instances with j voting rounds each.

    `refs[c]` holds class c's embedded reference pool. Reference draws
    consume the rng class by class so results are a pure function of
    (split, j, seed). `own` = (class, positions) names where each instance
    sits in that class's reference pool; its references for that class
    are drawn from the other rows of the pool, never itself.
    """
    q = len(x_emb)
    n = len(refs)
    drawn = []
    for c, pool in enumerate(refs):
        if own is not None and own[0] == c:
            positions = rng.integers(0, len(pool) - 1, size=(q, j))
            positions += positions >= own[1][:, None]
        else:
            positions = rng.integers(0, len(pool), size=(q, j))
        drawn.append(positions)
    predictions = np.empty(q, dtype=np.int64)
    for start in range(0, q, _CLASSIFY_CHUNK):
        block = slice(start, start + _CLASSIFY_CHUNK)
        x = x_emb[block, None, :]
        dist = np.stack(                                 # (b, j, n)
            [np.linalg.norm(pool[p[block]] - x, axis=-1) for pool, p in zip(refs, drawn)],
            axis=-1,
        )
        votes = np.sum(np.argmin(dist, axis=-1)[..., None] == np.arange(n), axis=1)
        predictions[block] = _majority_winner(votes, dist.sum(axis=1))
    return predictions


def classify_instance(
    model: SiameseModel,
    x: np.ndarray,
    split: ExperimentSplit,
    vote: VoteConfig,
    rng: int | np.random.Generator,
) -> int:
    """Predict the class of one feature vector by nearest-pair voting."""
    refs = _reference_embeddings(model, split)
    x_emb = embed(model, x)[None, :]
    return int(_vote_rounds(x_emb, refs, vote.j, np.random.default_rng(rng))[0])


def evaluate(
    model: SiameseModel,
    split: ExperimentSplit,
    test_batch_size: int,
    vote: VoteConfig,
    rng: int | np.random.Generator,
) -> ConfusionMatrix:
    """Confusion matrix over floor(test_batch_size / N) instances per class.

    Evaluation instances are drawn with replacement: retained classes from
    their testing pools, the excluded class from its unlabelled pool. A
    retained class's testing pool is also its reference pool, so an
    instance's own-class references come from the pool's other rows; the
    pool needs at least 2. Only the reference pools and the excluded
    class's unlabelled pool are embedded, each once.
    """
    refs = _reference_embeddings(model, split)
    rng = np.random.default_rng(rng)
    ds = split.dataset
    n = split.n_classes
    per_class = test_batch_size // n
    if per_class < 1:
        raise EvaluationError(f"test_batch_size {test_batch_size} too small for {n} classes")
    for c in range(n):
        size = len(split.evaluation_pool(c))
        need = 1 if c == split.excluded_class else 2
        if size < need:
            raise EvaluationError(
                f"evaluation pool for class {ds.class_names[c]!r} has {size} row(s); need {need}"
            )
    counts = np.zeros((n, n), dtype=np.int64)
    for c in range(n):
        retained = c != split.excluded_class
        # a retained class's evaluation pool is its reference pool
        pool_emb = refs[c] if retained else _embed_all(model, ds.matrix[split.evaluation_pool(c)])
        positions = rng.integers(0, len(pool_emb), size=per_class)
        own = (c, positions) if retained else None
        preds = _vote_rounds(pool_emb[positions], refs, vote.j, rng, own)
        counts[c] = np.bincount(preds, minlength=n)
    return ConfusionMatrix(counts, ds.class_names)


@dataclass(frozen=True)
class SweepRow:
    votes: int
    cm: ConfusionMatrix
    report: MetricsReport


def vote_sweep(
    model: SiameseModel,
    split: ExperimentSplit,
    test_batch_size: int,
    j_values=DEFAULT_VOTE_SWEEP,
    seed: int = 0,
) -> list[SweepRow]:
    """One evaluation per j, each on its own stream of the same seed base."""
    j_values = tuple(j_values)
    if not j_values:
        raise EvaluationError("j_values is empty")
    rows = []
    for j in j_values:
        rng = stream_rng(seed, EVAL_STREAM, j)
        cm = evaluate(model, split, test_batch_size, VoteConfig(j), rng)
        report = replace(metrics(cm, split.excluded_class), votes=j)
        rows.append(SweepRow(j, cm, report))
    return rows


def sweep_to_csv(rows: list[SweepRow], path: str | Path) -> None:
    """Vote-sweep table: overall accuracy, new-class TPR/FNR, benign TNR/FPR."""
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write("votes,overall_accuracy,new_class_tpr,new_class_fnr,normal_tnr,normal_fpr\n")
        for row in rows:
            r = row.report
            fh.write(
                f"{row.votes},{r.overall_accuracy!r},{r.new_class_tpr!r},"
                f"{r.new_class_fnr!r},{r.normal_tnr!r},{r.normal_fpr!r}\n"
            )
