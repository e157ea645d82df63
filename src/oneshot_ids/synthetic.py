"""Synthetic Gaussian-cluster traffic: a desk-scale stand-in dataset.

Produces one benign class plus attack classes as unit-variance Gaussian
blobs whose centers sit on distinct feature axes with a configurable
minimum pairwise separation. Useful for smoke-testing the full pipeline
without any real capture data.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .dataset import LABEL, NUMERIC, Column, RawDataset, Schema, is_integer, write_csv

NORMAL_NAME = "normal"


def class_names(n_classes: int) -> list[str]:
    return [NORMAL_NAME] + [f"attack{i}" for i in range(1, n_classes)]


def _ring_centers(n_classes: int, n_features: int, separation: float) -> np.ndarray:
    # Centers sit on a circle in a 2-D subspace so every class, including a
    # withheld one, lies on the manifold spanned by the others; the radius
    # makes the minimum pairwise (adjacent) distance exactly `separation`.
    radius = separation / (2.0 * math.sin(math.pi / n_classes))
    centers = np.zeros((n_classes, n_features))
    angles = 2.0 * math.pi * np.arange(n_classes) / n_classes
    centers[:, 0] = radius * np.cos(angles)
    centers[:, 1] = radius * np.sin(angles)
    return centers


def gaussian_clusters(
    n_classes: int = 5,
    per_class: int = 500,
    n_features: int = 20,
    separation: float = 4.0,
    seed: int = 0,
) -> tuple[np.ndarray, list[str]]:
    """Sample rows (interleaved by class) and their label strings.

    The one place the synthetic layout's defaults are written. `separation`
    is the minimum pairwise distance between cluster centers in units of
    the within-cluster standard deviation. A count or seed that is not an
    integer (`dataset.is_integer`) or is below its least value raises a
    `ValueError` naming the argument.
    """
    for name, value, least in (
        ("n_classes", n_classes, 2), ("per_class", per_class, 1),
        ("n_features", n_features, 2), ("seed", seed, 0),
    ):
        if not is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
    if not (math.isfinite(separation) and separation > 0):
        raise ValueError(f"separation must be a finite positive number, got {separation}")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 90)))
    names = class_names(n_classes)
    centers = _ring_centers(n_classes, n_features, separation)
    classes = np.tile(np.arange(n_classes), per_class)
    # one draw for all rows reads the stream in the order row-by-row draws would
    rows = centers[classes] + rng.normal(size=(len(classes), n_features))
    return rows, [names[c] for c in classes]


def make_schema(n_features: int) -> Schema:
    columns = [Column(f"f{i}", NUMERIC) for i in range(n_features)] + [Column("label", LABEL)]
    return Schema(tuple(columns), normal_label=NORMAL_NAME)


def make_raw(**layout) -> RawDataset:
    """In-memory RawDataset of `gaussian_clusters(**layout)`, bypassing the
    CSV round trip."""
    rows, labels = gaussian_clusters(**layout)
    return RawDataset(make_schema(rows.shape[1]), tuple(rows.T.copy()), labels)


def write_files(directory: str | Path, **layout) -> tuple[Path, Path]:
    """Write the CSV and schema descriptor of `gaussian_clusters(**layout)`
    into `directory`; returns their paths."""
    rows, labels = gaussian_clusters(**layout)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    csv_path = directory / "synthetic.csv"
    write_csv(csv_path, ((*row.tolist(), label) for row, label in zip(rows, labels)))
    schema_path = directory / "synthetic.schema"
    with schema_path.open("w", encoding="utf-8") as fh:
        for i in range(rows.shape[1]):
            fh.write(f"column f{i} numeric\n")
        fh.write("column label label\n")
        fh.write(f"normal {NORMAL_NAME}\n")
    return csv_path, schema_path
