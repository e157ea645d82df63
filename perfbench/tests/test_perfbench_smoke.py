"""Each workload, at a tiny size, completes and prints every named metric."""

import json
import shutil
import subprocess
import sys

import layers
import pytest
import run
from workloads import WORKLOADS


def bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w.name for w in WORKLOADS])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace,
                 "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = [m.name for m in run.END_TO_END] if trace == "0" else list(layers.UNITS)
    assert sorted(result["metrics"]) == sorted(expected)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float)), name
        # the human-readable report names each metric with its sample count
        assert any(line.split()[:1] == [name] and "n=" in line for line in lines), name
    if trace == "0":
        assert any(line.split()[:1] == ["failed_ratio"] for line in lines)
    assert any(line.startswith("env {") for line in lines)


def test_without_the_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copyfile(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = bench("--workload", WORKLOADS[0].name, "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
    assert not (tmp_path / ".perfbench").exists()
