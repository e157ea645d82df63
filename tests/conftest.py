from __future__ import annotations

import numpy as np
import pytest

from oneshot_ids.dataset import EncodedDataset, Encoder, ExperimentSplit, FittedColumn


def build_encoded(class_sizes: dict[int, int], n_features: int = 6, seed: int = 0) -> EncodedDataset:
    """Directly assembled encoded dataset: class c clustered around axis c."""
    rng = np.random.default_rng(seed)
    rows, labels = [], []
    for c, size in sorted(class_sizes.items()):
        base = np.zeros(n_features)
        base[c % n_features] = 0.8
        for _ in range(size):
            rows.append(np.clip(base + 0.05 * rng.normal(size=n_features), 0.0, 1.0))
            labels.append(c)
    names = tuple(["normal"] + [f"attack{i}" for i in range(1, len(class_sizes))])
    encoder = Encoder(tuple(FittedColumn(f"f{i}", "numeric", 0.0, 1.0) for i in range(n_features)))
    return EncodedDataset(np.array(rows), np.array(labels, dtype=np.int64), names, encoder)


def build_split(
    training_sizes: dict[int, int],
    excluded_class: int = 1,
    labelled: int = 10,
    unlabelled: int = 10,
    testing_sizes: dict[int, int] | None = None,
    n_features: int = 6,
    seed: int = 0,
) -> ExperimentSplit:
    """Split with exactly-controlled pool sizes (pools tile the dataset rows)."""
    testing_sizes = testing_sizes or dict(training_sizes)
    class_sizes = {c: training_sizes[c] + testing_sizes[c] for c in training_sizes}
    class_sizes[excluded_class] = labelled + unlabelled
    ds = build_encoded(class_sizes, n_features=n_features, seed=seed)
    training, testing = {}, {}
    lab = unlab = None
    for c in sorted(class_sizes):
        members = np.flatnonzero(ds.labels == c)
        if c == excluded_class:
            lab, unlab = members[:labelled], members[labelled:]
        else:
            training[c] = members[: training_sizes[c]]
            testing[c] = members[training_sizes[c]:]
    return ExperimentSplit(ds, excluded_class, training, testing, lab, unlab)


def batch_recorder(seen: list):
    """An `on_epoch` hook for `run_training` that appends each generated
    pair batch to `seen`."""
    def on_epoch(epoch, model, loss, batch):
        if batch is not None:
            seen.append(batch)
    return on_epoch


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
