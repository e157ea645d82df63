"""Dataset ingestion, feature encoding, and experiment splits.

CSV files are described by a small schema descriptor (see `load_schema`).
`load_dataset` reads a file in blocks of lines with numpy's C reader, and
reads a block with `csv.reader` and `float()` (the row path, the reference
for every edge case and the source of every error) wherever the C reader
could read it otherwise. A loaded dataset is stored by column: one float64
array per numeric feature and one str array per categorical feature.
Encoding works a whole column at a time into a `COMPUTE_DTYPE` (float32)
matrix: categorical features are one-hot encoded, numeric features min-max
scaled to [0, 1] in float64. Encoding statistics are fitted on a
caller-chosen subset of rows so that held-out and excluded-class instances
cannot influence the feature space. `prepare_experiment` is the only
builder of an `ExperimentSplit`: it splits every class first and fits the
encoder on the training pools, for the leave-one-attack-out protocol.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
from dataclasses import InitVar, dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Iterator, NoReturn, Sequence

import numpy as np

from .seeding import SPLIT_STREAM, stream_rng

NUMERIC = "numeric"
CATEGORICAL = "categorical"
LABEL = "label"
IGNORE = "ignore"

_COLUMN_KINDS = (NUMERIC, CATEGORICAL, LABEL, IGNORE)

# The dtype of the encoded matrix, and of every training step and every
# embedding of a trained model
COMPUTE_DTYPE = np.float32

# `load_dataset` reads the file this many lines at a time, which bounds the
# lines and Python objects alive at once
_LOAD_BLOCK_ROWS = 4096


class SchemaError(ValueError):
    """Raised for malformed schema descriptor files."""


class DatasetError(ValueError):
    """Raised for unreadable or malformed dataset files."""


@dataclass(frozen=True)
class Column:
    name: str
    kind: str
    # Optional fixed category inventory; when empty the vocabulary is
    # learned from the fitting rows.
    values: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in _COLUMN_KINDS:
            raise SchemaError(f"column {self.name!r}: unknown kind {self.kind!r}")
        if self.values and self.kind != CATEGORICAL:
            raise SchemaError(f"column {self.name!r}: only categorical columns take values")
        if "" in self.values:
            raise SchemaError(f"column {self.name!r}: empty category value")
        repeated = [v for i, v in enumerate(self.values) if v in self.values[:i]]
        if repeated:
            raise SchemaError(f"column {self.name!r}: duplicated category value {repeated[0]!r}")


@dataclass(frozen=True)
class Schema:
    """Ordered column descriptors plus label bookkeeping.

    `label_map` collapses raw label strings into class names (e.g. mapping
    individual attack signatures onto their attack family); unmapped labels
    pass through unchanged. `normal_label` designates the benign class and
    is required.
    """

    columns: tuple[Column, ...]
    normal_label: str
    label_map: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        labels = [c for c in self.columns if c.kind == LABEL]
        if len(labels) != 1:
            raise SchemaError(f"schema must declare exactly one label column, found {len(labels)}")
        if not self.feature_columns:
            raise SchemaError("schema declares no numeric or categorical column")
        if self.normal_label is None:
            raise SchemaError("schema does not designate the benign class (missing 'normal' directive)")

    @property
    def feature_columns(self) -> tuple[Column, ...]:
        return tuple(c for c in self.columns if c.kind in (NUMERIC, CATEGORICAL))

    @property
    def label_index(self) -> int:
        return next(i for i, c in enumerate(self.columns) if c.kind == LABEL)

    def map_label(self, raw: str) -> str:
        return self.label_map.get(raw, raw)


def bundled_schema_path(name: str) -> Path:
    """Path of a schema descriptor shipped with the package.

    Available: kddcup99, nslkdd, cicids2017.
    """
    path = Path(__file__).parent / "schemas" / f"{name}.schema"
    if not path.exists():
        available = sorted(p.stem for p in path.parent.glob("*.schema"))
        raise SchemaError(f"no bundled schema {name!r}; available: {available}")
    return path


def load_schema(path: str | Path) -> Schema:
    """Parse a schema descriptor file.

    Line format, one directive per line (`directive_lines` skips blank
    lines and ``#`` comments)::

        column <name> <kind> [v1|v2|...]   # kind: numeric|categorical|label|ignore
        normal <class name>
        map <raw label> <class name>

    `normal` must appear once, and `map` for any one raw label at most once.
    """
    path = Path(path)
    columns: list[Column] = []
    normal = None
    label_map: dict[str, str] = {}
    first_line: dict[str, int] = {}     # 'normal', or 'map <raw label>'
    for lineno, line in directive_lines(path, SchemaError):
        parts = line.split()
        key = parts[0]
        if key == "column":
            if len(parts) not in (3, 4):
                raise SchemaError(f"{path}:{lineno}: expected 'column <name> <kind> [values]'")
            values = tuple(parts[3].split("|")) if len(parts) == 4 else ()
            try:
                columns.append(Column(parts[1], parts[2], values))
            except SchemaError as exc:
                raise SchemaError(f"{path}:{lineno}: {exc}") from None
        elif (key, len(parts)) in (("normal", 2), ("map", 3)):
            directive = " ".join(parts[:-1])
            if directive in first_line:
                raise SchemaError(f"{path}:{lineno}: {directive!r} repeated "
                                  f"(first set on line {first_line[directive]})")
            first_line[directive] = lineno
            if key == "normal":
                normal = parts[1]
            else:
                label_map[parts[1]] = parts[2]
        else:
            raise SchemaError(f"{path}:{lineno}: unrecognised directive {line!r}")
    try:
        return Schema(tuple(columns), normal, label_map)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None


@dataclass
class RawDataset:
    """A parsed dataset in file order, stored by column.

    `columns` holds one array per schema feature column, in schema feature
    order: float64 for a numeric column, whose cells are finite
    (`load_dataset` rejects any other), str for a categorical one.
    `labels`, each row's raw label, is read once, here, and not kept: the
    schema's `label_map` is applied to its distinct values. The class
    inventory is decided here, once: `class_names` lists the observed
    classes, the schema's benign class first and then the attack classes
    alphabetically, and `codes` holds each row's int64 index into it. A
    benign class with no rows is an error.
    """

    schema: Schema
    columns: tuple[np.ndarray, ...]
    labels: InitVar[Sequence[str]]
    class_names: tuple[str, ...] = field(init=False)
    codes: np.ndarray = field(init=False)

    def __post_init__(self, labels):
        features = self.schema.feature_columns
        self.columns = tuple(
            np.asarray(values, dtype=np.float64 if col.kind == NUMERIC else np.str_)
            for col, values in zip(features, self.columns, strict=True)
        )
        raw, inverse = np.unique(np.asarray(labels, dtype=np.str_), return_inverse=True)
        if any(len(values) != len(inverse) for values in self.columns):
            raise DatasetError("every feature column needs one value per label")
        mapped = np.array([self.schema.map_label(label) for label in raw.tolist()], dtype=np.str_)
        observed, merged = np.unique(mapped, return_inverse=True)
        benign = self.schema.normal_label
        if benign not in observed:
            raise DatasetError(f"benign class {benign!r} has no instances")
        # a stable sort on "is not benign" keeps the attack classes alphabetical
        order = np.argsort(observed != benign, kind="stable")
        self.class_names = tuple(observed[order].tolist())
        self.codes = np.argsort(order)[merged][inverse]

    def __len__(self) -> int:
        return len(self.codes)


def is_integer(value: object) -> bool:
    """The rule for every count, index, width and seed: an int or a numpy
    integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value: object) -> bool:
    """The rule for every rate, coefficient and distance: an int, a float or
    a numpy real, not a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def attack_index(
    class_names: Sequence[str], excluded: int | str, error: type[ValueError] = DatasetError
) -> int:
    """Index into `class_names` (the benign class first) of a class that may
    be withheld: an unknown name, a value that is neither a name nor an
    integer (a bool included), an out-of-range index or the benign class
    raises `error`, naming the class and listing `class_names`."""
    have = list(class_names)
    if isinstance(excluded, str):
        if excluded not in have:
            raise error(f"unknown class {excluded!r}; have {have}")
        excluded = have.index(excluded)
    elif not is_integer(excluded):
        raise error(f"excluded class {excluded!r} is not a class name or index; have {have}")
    if not 0 <= excluded < len(have):
        raise error(f"excluded class index {excluded} out of range; have {have}")
    if excluded == 0:
        raise error(f"cannot exclude benign class {have[0]!r}; have {have}")
    return excluded


def load_dataset(path: str | Path, schema: Schema) -> RawDataset:
    """Read a comma-separated dataset file into columns.

    Row order is preserved. A first line whose numeric fields fail to parse,
    or whose fields are the schema's column names in order, is treated as a
    header and skipped; any later malformed row, and any non-finite numeric
    cell (``inf``, ``nan``), is an error naming its line number and column.
    The file must be UTF-8: a byte that is not is an error naming its line,
    the byte and its column.

    Line 1 and then each block of `_LOAD_BLOCK_ROWS` lines are read by one
    of two paths. numpy's C reader (`_c_block`) takes a block whose lines
    all hold one field per column, no quote, nothing it reads otherwise than
    Python does and no more characters than `csv.field_size_limit()`; the
    row path (`_row_block`: `csv.reader` and `float()`) reads every other
    block, and is the reference for what the file holds and the only source
    of errors. Quoted fields are therefore read as `csv.reader` reads them:
    a field may hold a quoted comma or line break, and a quote inside an
    unquoted field is a character.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"{path}: file not found")
    blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    lineno = 0      # the last csv record read, as the row path numbers rows
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            size = 1    # line 1 alone: the row path holds the header rule
            while lines := list(itertools.islice(fh, size)):
                block = _c_block(lines, schema) if lineno else None
                if block is None:
                    # a quoted line break may carry the last record past the block
                    reader = csv.reader(itertools.chain(lines, fh))
                    block, lineno = _row_block(path, schema, reader, len(lines), lineno)
                else:
                    lineno += len(lines)
                if len(block[2]):
                    blocks.append(block)
                size = _LOAD_BLOCK_ROWS
    except UnicodeDecodeError as exc:
        _not_utf8(path, exc)
    if not blocks:
        raise DatasetError(f"{path}: no records")
    numeric, categorical, labels = (np.concatenate(part, axis=-1) for part in zip(*blocks))
    numeric, categorical = iter(numeric), iter(_fitted(categorical))
    columns = tuple(
        next(numeric if col.kind == NUMERIC else categorical) for col in schema.feature_columns
    )
    return RawDataset(schema, columns, labels)


def _not_utf8(path: Path, exc: UnicodeDecodeError) -> NoReturn:
    """Raise the error for a file that is not UTF-8, naming its first line
    that does not decode and the byte that stops it. The file is read again
    in binary, so only a failed load pays for the search."""
    with path.open("rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            _decoded(path, lineno, line, DatasetError)
    raise DatasetError(f"{path}: {exc}") from None


def _decoded(path: Path, lineno: int, line: bytes, error: type[ValueError]) -> str:
    """Line `lineno` of `path` decoded from UTF-8; a byte that is not raises
    `error`, naming the file, the line, the byte and its column."""
    try:
        return line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(
            f"{path}: line {lineno}: byte 0x{line[exc.start]:02x} at column "
            f"{exc.start + 1} is not UTF-8"
        ) from None


def directive_lines(path: Path, error: type[ValueError]) -> Iterator[tuple[int, str]]:
    """(line number, stripped text) of each line of a settings file (a
    schema or a manifest) that is neither blank nor a ``#`` comment. Lines
    end at "\\n", "\\r\\n" or "\\r"; a line that is not UTF-8 raises `error`."""
    for lineno, line in enumerate(path.read_bytes().splitlines(), start=1):
        text = _decoded(path, lineno, line, error).strip()
        if text and not text.startswith("#"):
            yield lineno, text


def write_csv(path: str | Path, rows: Iterable[Sequence], append: bool = False) -> None:
    """Write `rows` to `path`, or add them to its end, in the program's one
    CSV format: UTF-8, each line ending in "\\n", and a cell quoted, its
    quotes doubled, only where it holds a comma, a quote or a line break."""
    with Path(path).open("a" if append else "w", encoding="utf-8", newline="") as fh:
        # the csv module quotes a cell for the line breaks of its terminator
        # alone (Python 3.11 leaves "\r" bare under "\n"), so it writes
        # "\r\n" and each line swaps that for "\n"
        lines = SimpleNamespace(write=lambda line: fh.write(line[:-2] + "\n"))
        csv.writer(lines, lineterminator="\r\n").writerows(rows)


def _positions(schema: Schema, kind: str) -> list[int]:
    return [i for i, c in enumerate(schema.columns) if c.kind == kind]


def _row_block(
    path: Path, schema: Schema, reader, n_lines: int, lineno: int
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], int]:
    """The records `reader` yields until it has read `n_lines` lines, as
    `_block` arrays, and the number of the last record read; record
    `lineno + 1` comes first."""
    numeric_cols = _positions(schema, NUMERIC)
    categorical_cols = _positions(schema, CATEGORICAL)
    names = [c.name for c in schema.columns]
    numbers: list[float] = []       # the block's cells, row-major
    words: list[str] = []
    labels: list[str] = []
    while reader.line_num < n_lines:
        lineno += 1
        try:
            record = next(reader)
        except csv.Error as exc:   # e.g. a field over csv.field_size_limit()
            raise DatasetError(f"{path}: row {lineno}: {exc}") from None
        if not record or (len(record) == 1 and not record[0].strip()):
            continue
        if len(record) != len(names):
            raise DatasetError(
                f"{path}: row {lineno}: expected {len(names)} fields, got {len(record)}"
            )
        if lineno == 1 and [f.strip() for f in record] == names:
            continue  # header line, even without a numeric column
        try:
            # float() ignores the blanks around a field
            parsed = [float(record[i]) for i in numeric_cols]
            # a finite sum proves every cell finite; only an overflowing
            # sum needs the test per cell
            finite = math.isfinite(sum(parsed)) or all(map(math.isfinite, parsed))
        except ValueError:
            if lineno == 1:
                continue  # header line
            finite = False
        if not finite:
            bad = next(i for i in numeric_cols if not _is_finite(record[i]))
            raise DatasetError(
                f"{path}: row {lineno}: column {schema.columns[bad].name!r}: "
                f"{record[bad]!r} is not a finite number"
            )
        numbers.extend(parsed)
        words.extend([record[i].strip() for i in categorical_cols])
        labels.append(record[schema.label_index].strip())
    rows = len(labels)
    block = _block(
        np.array(numbers, dtype=np.float64).reshape(rows, len(numeric_cols)),
        np.array(words, dtype=np.str_).reshape(rows, len(categorical_cols)),
        np.array(labels, dtype=np.str_),
    )
    return block, lineno


# Characters that send a block to the row path: a quote (csv.reader's
# quoting can change a line's field count), NUL (a str array drops it from
# the end of a cell) and \x1c-\x1f (the C reader strips them around a
# number, float() rejects them)
_ROW_PATH_CHARS = '"\x00\x1c\x1d\x1e\x1f'


def _c_block(lines: list[str], schema: Schema) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """`_row_block`'s arrays for `lines`, read by numpy's C reader, or None
    where only the row path reads them right or names the error.

    The C reader neither counts the fields of a row (`usecols` accepts extra
    ones and short rows missing an unread column) nor skips a whitespace-only
    line, so every line must hold one comma per column boundary (a schema
    has at least a feature and a label column). Its numbers are
    `float()`'s wherever both parse a cell, and a cell only `float()` parses
    (``1_000``) raises here.
    """
    commas = len(schema.columns) - 1
    # a line within the csv field limit, read at each call, holds no field over it
    limit = csv.field_size_limit()
    text = "".join(lines)
    if (
        any(char in text for char in _ROW_PATH_CHARS)
        or any(line.count(",") != commas or len(line) > limit for line in lines)
    ):
        return None
    numeric_cols = _positions(schema, NUMERIC)
    read = functools.partial(np.loadtxt, lines, delimiter=",", comments=None, ndmin=2)
    try:
        numbers = (
            read(usecols=numeric_cols, dtype=np.float64) if numeric_cols
            else np.empty((len(lines), 0))
        )
        cells = read(usecols=[*_positions(schema, CATEGORICAL), schema.label_index], dtype=np.str_)
    except ValueError:
        return None
    if not np.isfinite(numbers).all():
        return None
    cells = np.char.strip(cells)
    return _block(numbers, cells[:, :-1], cells[:, -1])


def _block(numbers: np.ndarray, words: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, ...]:
    """A block's (rows, columns) numeric and categorical cells as (columns,
    rows) arrays, in C order so that each column is contiguous, and its
    (rows,) labels."""
    return np.ascontiguousarray(numbers.T), np.ascontiguousarray(words.T), labels


def _fitted(cells: np.ndarray) -> np.ndarray:
    """`cells` in the narrowest str dtype that holds them, the one
    `np.array` picks for a list of str."""
    return cells.astype(f"<U{np.char.str_len(cells).max(initial=1)}", copy=False)


def _is_finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


@dataclass(frozen=True)
class FittedColumn:
    name: str
    kind: str
    lo: float = 0.0
    hi: float = 0.0
    values: tuple[str, ...] = ()

    @property
    def width(self) -> int:
        return 1 if self.kind == NUMERIC else len(self.values)


@dataclass(frozen=True)
class Encoder:
    """Fitted per-feature encoding statistics (frozen once fitted)."""

    columns: tuple[FittedColumn, ...]

    @property
    def width(self) -> int:
        return sum(c.width for c in self.columns)

    def transform(self, columns: Sequence[np.ndarray]) -> np.ndarray:
        """Encode feature columns, in schema feature order, into an (n, width)
        `COMPUTE_DTYPE` matrix; numeric columns are scaled in float64 and
        rounded once, when stored."""
        out = np.zeros((len(columns[0]), self.width), dtype=COMPUTE_DTYPE)
        offset = 0
        for col, values in zip(self.columns, columns, strict=True):
            if col.kind == NUMERIC:
                # a constant feature encodes as 0.0. The range is finite, so
                # a cell far outside it overflows to an infinity, which clips
                # to 0 or 1
                if col.hi > col.lo:
                    with np.errstate(over="ignore"):
                        scaled = (values - col.lo) / (col.hi - col.lo)
                    out[:, offset] = np.clip(scaled, 0.0, 1.0)
            else:
                # a declared vocabulary need not be sorted; an unseen
                # category encodes as an all-zeros group
                vocabulary = np.array(col.values)
                order = np.argsort(vocabulary)
                at = np.searchsorted(vocabulary, values, sorter=order)
                level = order[np.minimum(at, len(order) - 1)]
                seen = np.flatnonzero(vocabulary[level] == values)
                out[seen, offset + level[seen]] = 1.0
            offset += col.width
        return out


def fit_encoder(raw: RawDataset, fit_rows: Sequence[int]) -> Encoder:
    """Compute encoding statistics from `fit_rows` only.

    Numeric ranges and learned category vocabularies never see rows outside
    `fit_rows`; schema-declared vocabularies are taken as-is.
    """
    if len(fit_rows) == 0:
        raise DatasetError("fit_encoder: fit_rows is empty")
    fit_rows = np.asarray(fit_rows)
    fitted: list[FittedColumn] = []
    for col, values in zip(raw.schema.feature_columns, raw.columns):
        if col.kind == NUMERIC:
            lo, hi = float(values[fit_rows].min()), float(values[fit_rows].max())
            if not math.isfinite(hi - lo):
                raise DatasetError(
                    f"column {col.name!r}: fitted range {lo!r} to {hi!r} is wider than float64 holds"
                )
            fitted.append(FittedColumn(col.name, NUMERIC, lo=lo, hi=hi))
        elif col.values:
            fitted.append(FittedColumn(col.name, CATEGORICAL, values=col.values))
        else:
            seen = tuple(np.unique(values[fit_rows]).tolist())
            fitted.append(FittedColumn(col.name, CATEGORICAL, values=seen))
    return Encoder(tuple(fitted))


@dataclass
class EncodedDataset:
    """Encoded feature matrix plus integer class labels.

    Class index 0 is always the benign class; attack classes follow in
    alphabetical order.
    """

    matrix: np.ndarray            # (n, width) COMPUTE_DTYPE in [0, 1]
    labels: np.ndarray            # (n,) int64 class indices
    class_names: tuple[str, ...]
    encoder: Encoder

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @property
    def width(self) -> int:
        return self.matrix.shape[1]


def encode(raw: RawDataset, encoder: Encoder) -> EncodedDataset:
    """Transform every row of `raw` with a fitted encoder. Finite cells and
    finite fitted ranges encode into [0, 1]."""
    return EncodedDataset(encoder.transform(raw.columns), raw.codes, raw.class_names, encoder)


@dataclass
class ExperimentSplit:
    """Per-class instance pools for one leave-one-attack-out experiment.

    Retained classes are halved into a training pool (pair generation) and
    a testing pool (evaluation instances and comparison references). The
    excluded class is halved into a labelled pool (the few examples the
    classifier is allowed to see) and an unlabelled pool (the stream of
    unknown instances under test).
    """

    dataset: EncodedDataset
    excluded_class: int
    training_pools: dict[int, np.ndarray]
    testing_pools: dict[int, np.ndarray]
    excluded_labelled: np.ndarray
    excluded_unlabelled: np.ndarray

    @property
    def training_classes(self) -> tuple[int, ...]:
        return tuple(sorted(self.training_pools))

    @property
    def n_classes(self) -> int:
        return self.dataset.n_classes

    def reference_pool(self, class_index: int) -> np.ndarray:
        """Pool the classifier draws comparison references from."""
        if class_index == self.excluded_class:
            return self.excluded_labelled
        return self.testing_pools[class_index]

    def evaluation_pool(self, class_index: int) -> np.ndarray:
        """Pool evaluation instances of a class are drawn from."""
        if class_index == self.excluded_class:
            return self.excluded_unlabelled
        return self.testing_pools[class_index]


def _halve(indices: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    # odd counts: the extra instance goes to the first (training/labelled) half
    perm = rng.permutation(indices)
    cut = math.ceil(len(perm) / 2)
    return perm[:cut], perm[cut:]


def prepare_experiment(raw: RawDataset, excluded_class: int | str, seed: int) -> ExperimentSplit:
    """Shuffle and halve every class, then fit the encoder on training pools only.

    This is the leakage-free path: encoding statistics are computed from
    the union of the retained classes' training pools, so neither testing
    rows nor any excluded-class row can influence the feature space. The
    split is deterministic given the seed.
    """
    excluded_class = attack_index(raw.class_names, excluded_class)
    # a retained class's testing pool needs 2 rows (an instance is never its
    # own reference), the excluded class's unlabelled pool 1
    for c, count in enumerate(np.bincount(raw.codes, minlength=len(raw.class_names))):
        need = 2 if c == excluded_class else 4
        if count < need:
            raise DatasetError(
                f"class {raw.class_names[c]!r} has {count} instance(s); need at least {need}"
            )
    rng = stream_rng(seed, SPLIT_STREAM)
    training, testing = {}, {}
    for c in range(len(raw.class_names)):
        first, second = _halve(np.flatnonzero(raw.codes == c), rng)
        if c == excluded_class:
            labelled, unlabelled = first, second
        else:
            training[c], testing[c] = first, second
    fit_rows = np.sort(np.concatenate([training[c] for c in sorted(training)]))
    ds = encode(raw, fit_encoder(raw, fit_rows))
    return ExperimentSplit(ds, excluded_class, training, testing, labelled, unlabelled)
