from __future__ import annotations

import numpy as np
import pytest

from oneshot_ids.synthetic import _ring_centers, class_names, gaussian_clusters


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


@pytest.mark.parametrize("args", [(5, 500, 20, 4.0, 0), (3, 7, 2, 1.5, 9), (2, 1, 3, 4.0, 5)])
def test_one_draw_gives_the_row_by_row_rows(args):
    rows, labels = gaussian_clusters(*args)
    want_rows, want_labels = row_by_row(*args)
    assert rows.dtype == want_rows.dtype and rows.shape == want_rows.shape
    assert rows.tobytes() == want_rows.tobytes()
    assert labels == want_labels
