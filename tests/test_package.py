"""The package root is the pipeline a user runs and the errors it raises;
every other name is imported from its own module."""

from __future__ import annotations

import importlib

import pytest

import oneshot_ids

# the pipeline in the order a run calls it, then its errors
PUBLIC = [
    "load_schema",
    "load_dataset",
    "prepare_experiment",
    "TrainingConfig",
    "LossConfig",
    "run_training",
    "vote_sweep",
    "metrics",
    "ConfusionMatrix",
    "MetricsReport",
    "save_model",
    "SchemaError",
    "DatasetError",
    "ConfigError",
    "PairGenerationError",
    "EvaluationError",
]


def test_all_lists_the_pipeline_and_its_errors():
    assert oneshot_ids.__all__ == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_resolves(name):
    assert getattr(oneshot_ids, name) is not None


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from oneshot_ids import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(PUBLIC)


@pytest.mark.parametrize(
    "module, name",
    [
        ("network", "init_model"),
        ("network", "embed"),
        ("network", "batch_gradients"),
        ("network", "load_model"),
        ("pairgen", "PairBatch"),
        ("pairgen", "pair_counts"),
        ("evaluator", "classify"),
        ("evaluator", "VoteConfig"),
    ],
)
def test_other_names_stay_in_their_modules(module, name):
    assert hasattr(importlib.import_module(f"oneshot_ids.{module}"), name)
    assert name not in oneshot_ids.__all__
