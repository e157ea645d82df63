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
from conftest import package_env

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
        ("evaluator", "VoteConfig"),
    ],
)
def test_other_names_stay_in_their_modules(module, name):
    assert hasattr(importlib.import_module(f"oneshot_ids.{module}"), name)
    assert name not in oneshot_ids.__all__


# names the package defines but never uses, each kept for a stated reason
UNREFERENCED_ALLOWED = {
    # README's way to locate a bundled schema
    "bundled_schema_path",
    # the `synthetic` module's in-memory entry point
    "make_raw",
    # the reader of the checkpoint a run writes
    "load_model",
}


def _defined_names(tree: ast.Module):
    """Module-level and class-level defs and classes, and module-level
    assignment targets."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
            if isinstance(node, ast.ClassDef):
                yield from (
                    member.name for member in node.body
                    if isinstance(member, (ast.FunctionDef, ast.ClassDef))
                )
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (
                leaf.id for target in targets for leaf in ast.walk(target)
                if isinstance(leaf, ast.Name)
            )


def _getattr_names(tree: ast.Module):
    """The strings `getattr` reads a definition by: a constant second
    argument, or an element of a literal tuple or list (written in place or
    assigned to a name) that a loop feeds to `getattr` as its second
    argument."""
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "getattr" and len(node.args) > 1
    ]
    looped = {call.args[1].id for call in calls if isinstance(call.args[1], ast.Name)}
    literals = [call.args[1] for call in calls]
    sequences = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.For, ast.comprehension)) and isinstance(node.target, ast.Name)
                and node.target.id in looped):
            if isinstance(node.iter, ast.Name):
                sequences.add(node.iter.id)
            elif isinstance(node.iter, (ast.Tuple, ast.List)):
                literals.extend(node.iter.elts)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.Tuple, ast.List))
                and any(isinstance(t, ast.Name) and t.id in sequences for t in node.targets)):
            literals.extend(node.value.elts)
    return [node.value for node in literals if isinstance(node, ast.Constant)]


def _referenced_names(tree: ast.Module):
    """Every name read, attribute read and import alias, the elements of
    `__all__`, and the strings `getattr` reads by. An attribute read counts
    by its bare name, so a definition that shares its name with an attribute
    read anywhere in the package passes."""
    yield from _getattr_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            yield from (element.value for element in node.value.elts if isinstance(element, ast.Constant))


def test_every_name_the_package_defines_is_used_in_it():
    # a name whose only callers are tests is deleted, or allowed above
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(oneshot_ids.__file__).parent.glob("*.py"))
    }
    used = {name for tree in trees.values() for name in _referenced_names(tree)}
    unused = {
        name for tree in trees.values() for name in _defined_names(tree)
        # dunders are called by Python itself
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    }
    assert unused == UNREFERENCED_ALLOWED


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
    env = package_env({k: v for k, v in os.environ.items() if k not in oneshot_ids._THREAD_VARIABLES})
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
