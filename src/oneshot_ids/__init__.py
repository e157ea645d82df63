"""One-shot intrusion detection with twin-network similarity learning.

The package root holds the pipeline a user runs (load a capture, withhold
an attack class, train on pairs, score the new class by voting) and the
errors it raises. Every other name stays importable from its own module.

Importing the package sets each BLAS/OpenMP thread variable the user left
unset to 1, if numpy is not loaded yet: a run's only parallelism is its
lanes, one process per CPU (see `cli`).
"""

import os
import sys

# The variables the benchmark harness pins. Each BLAS or OpenMP library reads
# its own once, when numpy loads it. One thread gives every run the
# linear-algebra path, and so the checkpoint bytes, that tests and the
# benchmark check.
_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
if "numpy" not in sys.modules:
    os.environ.update({name: "1" for name in _THREAD_VARIABLES if name not in os.environ})

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
