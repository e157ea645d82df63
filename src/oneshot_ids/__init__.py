"""One-shot intrusion detection with twin-network similarity learning.

The package root holds the pipeline a user runs (load a capture, withhold
an attack class, train on pairs, score the new class by voting) and the
errors it raises. Every other name stays importable from its own module.
"""

from .dataset import DatasetError, SchemaError, load_dataset, load_schema, prepare_experiment
from .evaluator import ConfusionMatrix, EvaluationError, MetricsReport, metrics, vote_sweep
from .network import ConfigError, LossConfig, save_model
from .pairgen import PairGenerationError
from .trainer import TrainingConfig, run_training

__version__ = "0.1.0"

__all__ = [
    # the pipeline, in the order a run calls it
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
    # its errors
    "SchemaError",
    "DatasetError",
    "ConfigError",
    "PairGenerationError",
    "EvaluationError",
]
