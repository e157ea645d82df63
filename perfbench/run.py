"""Leave-one-attack-out benchmark for `oneshot-ids run`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Load model: a closed loop with one client. Each sample is one fresh
`oneshot-ids run` process, started only after the previous one exited,
with BLAS/OpenMP pinned to one thread. Inputs are generated from `--seed`,
which is also the run seed. Every sample passes the correctness gate and
the determinism check or counts as failed, and its timings are dropped.

`--trace 0` reports the end-to-end metrics; `--trace 1` alternates traced
and untraced samples and reports the per-layer metrics. The last stdout
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
`--workload all` runs every workload both ways, prints each metric with its
unit and sample count, and rewrites BENCHMARK.json from the tables here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gate
import layers
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
RESULTS = ROOT / ".perfbench"

RUN_SECONDS = 40
CHILD_TIMEOUT_S = 150.0
THREAD_VARS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float


# Bounds come from the spread (IQR / median) of per-run medians over seeds
# on a shared 2-core VM. Timings spread 4-16% there, whatever the CPU
# pinning, so they get the largest bound; set-up time is at least as noisy.
# Peak memory repeats within a seed but is bimodal across seeds (129 or
# 149 MB on ingest-wide, as garbage collection happens to run), so it gets
# the largest bound too. The accuracies are deterministic per seed: their
# bounds cover their spread across seeds (about 1.5% overall, 5% new-class
# TPR).
END_TO_END = (
    Metric("run_s", "s", "lower", 0.25),
    Metric("experiment_s", "s", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("cpu_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.25),
    Metric("overall_accuracy", "fraction", "higher", 0.05),
    Metric("new_class_tpr", "fraction", "higher", 0.2),
)


def benchmark_spec() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": "higher" if unit.endswith("/s") else "lower"}
            for name, unit in layers.UNITS.items()
        ],
    }


@dataclass
class Sample:
    traced: bool
    run_s: float
    setup_s: float | None
    cpu_s: float
    peak_rss_mb: float
    check: gate.GateResult
    fingerprint: dict[str, str]
    layer: dict[str, float | None] = field(default_factory=dict)


def child_env() -> dict[str, str]:
    env = dict(os.environ, **THREAD_VARS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def environment() -> dict:
    """What a later comparison needs to know about this machine and tree."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = dirty = None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        commit = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
        status = subprocess.run([*git, "status", "--porcelain"], capture_output=True, text=True).stdout
        dirty = bool(status.strip())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_vars": THREAD_VARS,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "git_dirty": dirty,
    }


def invoke(workload: Workload, inputs: tuple[Path, Path], run_dir: Path, seed: int,
           traced: bool, smoke: bool) -> Sample:
    """One `oneshot-ids run` in a fresh process, gated and fingerprinted."""
    run_dir.mkdir(parents=True)
    out = run_dir / "out"
    marks, spans = run_dir / "marks.json", run_dir / "spans.json"
    args = ["run", "--dataset", str(inputs[0]), "--schema", str(inputs[1]), "--out", str(out),
            "--seed", str(seed), *workload.run_flags(smoke)]
    with (run_dir / "log.txt").open("wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), repr(t0), str(marks), str(spans) if traced else "-", *args],
            cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        run_s = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)

    check = gate.check_run(out, proc.returncode, **workload.gate_params(smoke))
    if proc.returncode != 0:
        tail = (run_dir / "log.txt").read_text(encoding="utf-8", errors="replace")[-2000:]
        check.problems.append(f"output tail: {tail}")
    first = json.loads(marks.read_text()).get("first_experiment") if marks.exists() else None
    sample = Sample(
        traced=traced,
        run_s=run_s,
        setup_s=None if first is None else first - t0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        check=check,
        fingerprint=gate.fingerprint(out),
    )
    if traced and spans.exists():
        dump = json.loads(spans.read_text(encoding="utf-8"))
        sample.layer = layers.layer_metrics(dump, check.artifact_bytes, run_s)
        shutil.copyfile(spans, RESULTS / f"{workload.name}.spans.json")
    return sample


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def measure(workload: Workload, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Run samples for about `seconds`; return metrics, counts and records."""
    RESULTS.mkdir(exist_ok=True)
    env_before = os.getloadavg()
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=RESULTS))
    samples: list[Sample] = []
    try:
        inputs = workload.make_inputs(work, seed, smoke)
        started = time.monotonic()
        while True:
            traced = trace and len(samples) % 2 == 1
            sample = invoke(workload, inputs, work / f"run{len(samples)}", seed, traced, smoke)
            if samples and sample.fingerprint != samples[0].fingerprint:
                differ = sorted(
                    k for k in set(sample.fingerprint) | set(samples[0].fingerprint)
                    if sample.fingerprint.get(k) != samples[0].fingerprint.get(k)
                )
                sample.check.problems.append(f"not byte-identical to the first run: {differ}")
            samples.append(sample)
            shutil.rmtree(work / f"run{len(samples) - 1}")
            typical = statistics.median(s.run_s for s in samples)
            enough = len(samples) >= (3 if trace else 2)
            if enough and time.monotonic() - started + typical > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ok = [s for s in samples if s.check.ok]
    plain = [s for s in ok if not s.traced]
    series: dict[str, list[float]] = {}
    if not trace:
        series["run_s"] = [s.run_s for s in plain]
        series["setup_s"] = [s.setup_s for s in plain if s.setup_s is not None]
        series["experiment_s"] = [
            (s.run_s - s.setup_s) / workload.experiments for s in plain if s.setup_s is not None
        ]
        series["cpu_s"] = [s.cpu_s for s in plain]
        series["peak_rss_mb"] = [s.peak_rss_mb for s in plain]
        # deterministic per seed: every passing sample agrees byte for byte
        series["overall_accuracy"] = [s.check.overall_accuracy for s in plain[:1]]
        series["new_class_tpr"] = [s.check.new_class_tpr for s in plain[:1]]
        units = {m.name: m.unit for m in END_TO_END}
    else:
        traced_ok = [s for s in ok if s.traced]
        for name in layers.UNITS:
            series[name] = [s.layer[name] for s in traced_ok if s.layer.get(name) is not None]
        base = _median([s.run_s for s in plain])
        if base and traced_ok:
            series["trace.overhead_ratio"] = [_median([s.run_s for s in traced_ok]) / base]
        units = layers.UNITS
    metrics = {}
    for name, values in series.items():
        if values:
            q1, _, q3 = _quartiles(values)
            metrics[name] = {"value": statistics.median(values), "unit": units[name],
                             "n": len(values), "q1": q1, "q3": q3}
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "attempted": len(samples),
        "failed": len(samples) - len(ok),
        "problems": [p for s in samples for p in s.check.problems],
        "samples": [
            {"traced": s.traced, "ok": s.check.ok, "run_s": s.run_s, "setup_s": s.setup_s,
             "cpu_s": s.cpu_s, "peak_rss_mb": s.peak_rss_mb}
            for s in samples
        ],
        "metrics": metrics,
        "missing": sorted(set(units) - set(metrics)),
        "environment": {**environment(), "loadavg_before": env_before,
                        "loadavg_after": os.getloadavg()},
    }


def print_report(result: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']} trace {int(result['trace'])}: "
          f"{result['attempted']} runs, {result['failed']} failed")
    for name, m in result["metrics"].items():
        print(f"  {name:30s} {m['value']:14.6g} {m['unit']:8s} "
              f"median of n={m['n']} (q1 {m['q1']:.6g}, q3 {m['q3']:.6g})")
    if not result["trace"]:
        ratio = result["failed"] / result["attempted"]
        print(f"  {'failed_ratio':30s} {ratio:14.6g} {'ratio':8s} "
              f"of n={result['attempted']} runs")
    for name in result["missing"]:
        print(f"  {name:30s} {'missing':>14s} (not exercised or its traced name is gone)")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")
    print("env " + json.dumps(result["environment"], sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    names = [w.name for w in WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one epoch: checks the harness, not the program")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "oneshot_ids" / "cli.py").is_file():
        print(f"error: no oneshot_ids sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    chosen = WORKLOADS if args.workload == "all" else [w for w in WORKLOADS if w.name == args.workload]
    modes = (False, True) if args.workload == "all" else (bool(args.trace),)
    results = []
    for workload in chosen:
        for trace in modes:
            result = measure(workload, args.seed, args.seconds, trace, args.smoke)
            (RESULTS / f"{workload.name}.trace{int(trace)}.json").write_text(
                json.dumps(result, indent=1) + "\n", encoding="utf-8")
            print_report(result)
            results.append(result)
    if any(r["attempted"] == r["failed"] for r in results):
        print("error: no run passed the correctness gate", file=sys.stderr)
        return 1
    if args.workload == "all":
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_spec(), indent=2) + "\n",
                                             encoding="utf-8")
        return 0 if all(r["failed"] == 0 for r in results) else 1

    (result,) = results
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in result["metrics"].items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
