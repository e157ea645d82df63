from __future__ import annotations

import numpy as np
import pytest

from oneshot_ids.synthetic import _ring_centers, class_names, gaussian_clusters, make_raw, write_files


def row_by_row(n_classes, per_class, n_features, separation, seed):
    """The clusters drawn one row at a time, class by class within each round."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 90)))
    centers = _ring_centers(n_classes, n_features, separation)
    rows, labels = [], []
    for _ in range(per_class):
        for c in range(n_classes):
            rows.append(centers[c] + rng.normal(size=n_features))
            labels.append(class_names(n_classes)[c])
    return np.array(rows), labels


@pytest.mark.parametrize(
    "args",
    [(5, 500, 20, 4.0, 0), (3, 7, 2, 1.5, 9), (2, 1, 3, 4.0, 5),
     (np.int64(3), np.int32(7), np.int16(2), 1.5, np.uint8(9))],
)
def test_one_draw_gives_the_row_by_row_rows(args):
    rows, labels = gaussian_clusters(*args)
    want_rows, want_labels = row_by_row(*args)
    assert rows.dtype == want_rows.dtype and rows.shape == want_rows.shape
    assert rows.tobytes() == want_rows.tobytes()
    assert labels == want_labels


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"per_class": 0}, "per_class must be at least 1, got 0"),
        ({"per_class": -3}, "per_class must be at least 1, got -3"),
        ({"separation": float("nan")}, "separation must be a finite positive number, got nan"),
        ({"separation": float("inf")}, "separation must be a finite positive number, got inf"),
        ({"separation": 0.0}, "separation must be a finite positive number, got 0.0"),
        ({"separation": -1.0}, "separation must be a finite positive number, got -1.0"),
        ({"per_class": True}, "per_class must be an integer, got True"),
        ({"per_class": 2.0}, "per_class must be an integer, got 2.0"),
        ({"n_classes": 3.0}, "n_classes must be an integer, got 3.0"),
        ({"n_features": "4"}, "n_features must be an integer, got '4'"),
        ({"seed": False}, "seed must be an integer, got False"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"n_classes": 1}, "n_classes must be at least 2, got 1"),
        ({"n_features": 1}, "n_features must be at least 2, got 1"),
        ({"seed": -1}, "seed must be at least 0, got -1"),
    ],
)
def test_rejects_bad_size_or_separation_naming_the_argument(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        gaussian_clusters(**kwargs)


def test_the_writers_take_the_layout_of_gaussian_clusters(tmp_path):
    rows, labels = gaussian_clusters(per_class=3)
    raw = make_raw(per_class=3)
    assert raw.class_names == tuple(class_names(5)) and len(raw.columns) == 20
    assert np.array_equal(np.column_stack(raw.columns), rows)
    csv_path, schema_path = write_files(tmp_path, per_class=3)
    assert len(csv_path.read_text(encoding="utf-8").splitlines()) == len(labels) == 15
    assert schema_path.read_text(encoding="utf-8").count(" numeric\n") == 20
    with pytest.raises(ValueError, match="^seed must be at least 0, got -1$"):
        write_files(tmp_path / "refused", seed=-1)
    assert not (tmp_path / "refused").exists()
