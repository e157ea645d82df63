"""Benchmark workloads: the inputs each one writes and the run flags it uses.

Inputs are CSV + schema files generated here from the benchmark seed with
plain numpy. They deliberately do not go through `oneshot_ids.synthetic`,
so a change to the package cannot change its own benchmark inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

NORMAL = "normal"

# NSL-KDD connection flags; protocol and service mimic protocol_type/service.
PROTOCOLS = ("icmp", "tcp", "udp")
SERVICES = tuple(f"svc{i:02d}" for i in range(60))
FLAGS = ("OTH", "REJ", "RSTO", "RSTOS0", "RSTR", "S0", "S1", "S2", "S3", "SF", "SH")


def _write_csv(path: Path, header: list[str], columns: list[list[str]]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(cells) + "\n" for cells in zip(*columns))


GAUSSIAN_CLASSES = 5
GAUSSIAN_SEPARATION = 4.0


def gaussian_inputs(directory: Path, seed: int, per_class: int, n_features: int) -> tuple[Path, Path]:
    """Unit-variance Gaussian classes whose centers sit on a ring in a 2-D
    subspace, adjacent centers GAUSSIAN_SEPARATION standard deviations apart,
    so a withheld class lies on the manifold the retained classes span."""
    n_classes = GAUSSIAN_CLASSES
    rng = np.random.default_rng([seed, 1])
    radius = GAUSSIAN_SEPARATION / (2.0 * math.sin(math.pi / n_classes))
    angles = rng.uniform(0.0, 2.0 * math.pi) + 2.0 * math.pi * np.arange(n_classes) / n_classes
    centers = np.zeros((n_classes, n_features))
    centers[:, 0] = radius * np.cos(angles)
    centers[:, 1] = radius * np.sin(angles)
    labels = np.tile(np.arange(n_classes), per_class)
    x = centers[labels] + rng.standard_normal((len(labels), n_features))
    names = [NORMAL] + [f"attack{i}" for i in range(1, n_classes)]

    columns = [[repr(float(v)) for v in x[:, f]] for f in range(n_features)]
    columns.append([names[c] for c in labels])
    csv_path = directory / "gaussian.csv"
    _write_csv(csv_path, [f"f{i}" for i in range(n_features)] + ["label"], columns)
    schema_path = directory / "gaussian.schema"
    schema_path.write_text(
        "".join(f"column f{i} numeric\n" for i in range(n_features))
        + f"column label label\nnormal {NORMAL}\n",
        encoding="utf-8",
    )
    return csv_path, schema_path


# KDD-like class mix: one tiny class (like NSL-KDD U2R) so that pair
# generation has to redistribute its similar-pair shortfall.
KDD_CLASSES = (NORMAL, "dos", "probe", "r2l", "u2r")
KDD_SHARES = (0.53, 0.36, 0.09, 0.02)
KDD_TINY_ROWS = 40
KDD_NUMERIC = 34
# Class centers and level preferences are fixed; the seed draws the rows.
# With per-seed class structure the accuracy of this workload moved by
# tenths between seeds, too much for a quality guard.
KDD_STRUCTURE_SEED = 20_06_15343


def kdd_inputs(directory: Path, seed: int, n_rows: int) -> tuple[Path, Path]:
    """Mixed numeric/categorical CSV shaped like a KDD Cup 99 extract.

    34 numeric columns (durations and byte counts with heavy tails, small
    counts, two-decimal rates) and 3 categorical columns with 3, 60 and 11
    levels. Each class has its own feature centers and level preferences.
    """
    structure = np.random.default_rng(KDD_STRUCTURE_SEED)
    centers = structure.uniform(0.0, 1.0, size=(len(KDD_CLASSES), KDD_NUMERIC))
    prefs = [structure.dirichlet(np.full(len(levels), 0.3), size=len(KDD_CLASSES))
             for levels in (PROTOCOLS, SERVICES, FLAGS)]

    rng = np.random.default_rng([seed, 2])
    sizes = [int(share * (n_rows - KDD_TINY_ROWS)) for share in KDD_SHARES]
    sizes.append(KDD_TINY_ROWS)
    labels = rng.permutation(np.repeat(np.arange(len(KDD_CLASSES)), sizes))
    n = len(labels)

    base = np.clip(centers[labels] + 0.08 * rng.standard_normal((n, KDD_NUMERIC)), 0.0, 1.0)
    numeric: list[list[str]] = []
    for f in range(KDD_NUMERIC):
        kind = f % 3
        if kind == 0:      # durations / byte counts: log-normal integers
            values = np.floor(np.exp(9.0 * base[:, f] + 0.5 * rng.standard_normal(n)))
            numeric.append([str(int(v)) for v in values])
        elif kind == 1:    # connection counts: small Poisson integers
            values = rng.poisson(40.0 * base[:, f])
            numeric.append([str(int(v)) for v in values])
        else:              # rates in [0, 1] with two decimals
            numeric.append([f"{v:.2f}" for v in base[:, f]])

    categorical = []
    for levels, pref in zip((PROTOCOLS, SERVICES, FLAGS), prefs):
        # inverse-CDF draw of one level per row from its class's preferences
        draws = (rng.random((n, 1)) > pref[labels].cumsum(axis=1)).sum(axis=1)
        codes = np.minimum(draws, len(levels) - 1)
        categorical.append([levels[i] for i in codes])

    header = ["duration", "protocol_type", "service", "flag"] + [
        f"n{f}" for f in range(1, KDD_NUMERIC)
    ] + ["label"]
    columns = [numeric[0], *categorical, *numeric[1:], [KDD_CLASSES[c] for c in labels]]
    csv_path = directory / "mixed_wide.csv"
    _write_csv(csv_path, header, columns)
    schema_path = directory / "mixed_wide.schema"
    lines = [
        "column duration numeric",
        "column protocol_type categorical " + "|".join(PROTOCOLS),
        "column service categorical",  # learned from the fitting rows, as for NSL-KDD
        "column flag categorical " + "|".join(FLAGS),
    ]
    lines += [f"column n{f} numeric" for f in range(1, KDD_NUMERIC)]
    lines += ["column label label", f"normal {NORMAL}"]
    schema_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return csv_path, schema_path


# Smoke mode: tiny inputs and one epoch, to exercise the harness itself.
SMOKE_EPOCHS = 1
SMOKE_TEST_BATCH = 500
SMOKE_FLAGS = ("--epochs", str(SMOKE_EPOCHS), "--batch-size", "2048",
               "--test-batch-size", str(SMOKE_TEST_BATCH))


def acceptance_inputs(directory: Path, seed: int, smoke: bool) -> tuple[Path, Path]:
    if smoke:
        return gaussian_inputs(directory, seed, per_class=60, n_features=6)
    return gaussian_inputs(directory, seed, per_class=500, n_features=20)


def wide_inputs(directory: Path, seed: int, smoke: bool) -> tuple[Path, Path]:
    return kdd_inputs(directory, seed, n_rows=3_000 if smoke else 25_000)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_inputs: Callable[[Path, int, bool], tuple[Path, Path]]
    flags: tuple[str, ...]      # `oneshot-ids run` flags besides paths and seed
    experiments: int            # excluded classes the flags select
    epochs: int
    test_batch_size: int = 30000
    # designated-j overall accuracy a healthy run stays above, if any
    accuracy_floor: float | None = None

    def run_flags(self, smoke: bool) -> list[str]:
        common = ["--epochs", str(self.epochs), "--test-batch-size", str(self.test_batch_size)]
        return [*common, *self.flags, *(SMOKE_FLAGS if smoke else ())]

    def gate_params(self, smoke: bool) -> dict:
        return {
            "experiments": self.experiments,
            "epochs": SMOKE_EPOCHS if smoke else self.epochs,
            "test_batch_size": SMOKE_TEST_BATCH if smoke else self.test_batch_size,
            "accuracy_floor": None if smoke else self.accuracy_floor,
        }


WORKLOADS = (
    Workload(
        "train-acceptance",
        "acceptance layout, one fixed 30k-pair batch in 256-pair steps: time is the train step",
        acceptance_inputs,
        ("--exclude", "attack2", "--batch-size", "30000", "--minibatch", "256", "--votes", "1,5"),
        experiments=1,
        epochs=40,
        accuracy_floor=0.8,
    ),
    Workload(
        "fresh-sweep",
        "fresh pair batch every epoch, 1024-pair steps, 7-point vote sweep: pairgen and evaluation",
        acceptance_inputs,
        # lr scaled with the 4x larger minibatch, so 20 epochs converge on every seed
        ("--exclude", "attack2", "--fresh-batch", "--batch-size", "30000", "--minibatch", "1024",
         "--lr", "0.08"),
        experiments=1,
        epochs=20,
    ),
    Workload(
        "ingest-wide",
        "25k-row KDD-shaped mixed CSV, all four attacks withheld in turn: ingest and encoding",
        wide_inputs,
        # 10 epochs at lr 0.05 converge on every seed; ingest still dominates
        ("--exclude", "all-attacks", "--batch-size", "4000", "--votes", "5", "--lr", "0.05"),
        experiments=4,
        epochs=10,
    ),
)
