"""The package root is the pipeline a user runs and the errors it raises;
every other name is imported from its own module. Importing it pins BLAS to
one thread unless the user, or an earlier numpy import, decided otherwise."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

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
        ("evaluator", "classify"),
        ("evaluator", "VoteConfig"),
    ],
)
def test_other_names_stay_in_their_modules(module, name):
    assert hasattr(importlib.import_module(f"oneshot_ids.{module}"), name)
    assert name not in oneshot_ids.__all__


RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"

# prints the thread count after a matmul large enough for BLAS to split, then
# each thread variable as the process sees it ("-" for unset)
THREAD_PROBE = """
import os
{first}
import oneshot_ids
import numpy as np
a = np.ones((512, 512))
a @ a
print(len(os.listdir("/proc/self/task")))
print(*(os.environ.get(name, "-") for name in oneshot_ids._THREAD_VARIABLES))
"""


def probe_threads(first: str = "", **env_set: str) -> tuple[int, list[str]]:
    """(thread count, thread variables) of a fresh process whose environment
    holds no thread variable but `env_set`."""
    env = {k: v for k, v in os.environ.items() if k not in oneshot_ids._THREAD_VARIABLES}
    src = str(Path(oneshot_ids.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(env_set)
    proc = subprocess.run(
        [sys.executable, "-c", THREAD_PROBE.format(first=first)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    threads, values = proc.stdout.splitlines()
    return int(threads), values.split()


def test_thread_variables_are_the_ones_the_benchmark_pins():
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    pinned = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "THREAD_VARS"
    )
    assert ast.literal_eval(pinned.generators[0].iter) == oneshot_ids._THREAD_VARIABLES


@pytest.mark.skipif(sys.platform != "linux", reason="counts threads in /proc/self/task")
class TestThreadDefault:
    @pytest.mark.skipif(
        len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
        reason="BLAS starts one thread per usable CPU, so one CPU shows nothing",
    )
    def test_unset_variables_give_one_thread(self):
        threads, values = probe_threads()
        assert threads == 1
        assert values == ["1"] * len(oneshot_ids._THREAD_VARIABLES)

    def test_a_value_the_user_set_wins(self):
        _, values = probe_threads(OPENBLAS_NUM_THREADS="2")
        named = dict(zip(oneshot_ids._THREAD_VARIABLES, values))
        assert named.pop("OPENBLAS_NUM_THREADS") == "2"
        assert set(named.values()) == {"1"}

    def test_numpy_imported_first_keeps_its_own_setting(self):
        _, values = probe_threads(first="import numpy")
        assert values == ["-"] * len(oneshot_ids._THREAD_VARIABLES)
