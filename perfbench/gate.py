"""Correctness gate and determinism fingerprint for one `oneshot-ids run`.

A run that fails any check counts as failed and its timings are dropped.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

ARTIFACTS = ("cm.csv", "cm.txt", "metrics.json", "sweep.csv", "trace.csv", "checkpoint.json")
# trace.csv is left out: it carries wall-clock seconds per epoch.
DETERMINISTIC = ("metrics.json", "sweep.csv", "cm.csv", "checkpoint.json")


@dataclass
class GateResult:
    problems: list[str] = field(default_factory=list)
    overall_accuracy: float = math.nan   # mean over experiments, designated j
    new_class_tpr: float = math.nan
    artifact_bytes: dict[str, int] = field(default_factory=dict)   # name -> total

    @property
    def ok(self) -> bool:
        return not self.problems


def _read_cm(path: Path) -> list[list[int]]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return [[int(v) for v in row[1:]] for row in rows[1:] if row]


def _check_experiment(exp: Path, test_batch_size: int, epochs: int, out: GateResult) -> tuple[float, float] | None:
    missing = [name for name in ARTIFACTS if not (exp / name).is_file()]
    if missing:
        out.problems.append(f"{exp.name}: missing artifacts {missing}")
        return None
    for name in ARTIFACTS:
        out.artifact_bytes[name] = out.artifact_bytes.get(name, 0) + (exp / name).stat().st_size

    cm = _read_cm(exp / "cm.csv")
    per_class = test_batch_size // len(cm)
    bad_rows = [i for i, row in enumerate(cm) if sum(row) != per_class]
    if bad_rows:
        out.problems.append(f"{exp.name}: cm.csv rows {bad_rows} do not sum to {per_class}")
    total = sum(map(sum, cm))
    trace_ratio = sum(cm[i][i] for i in range(len(cm))) / total if total else math.nan

    report = json.loads((exp / "metrics.json").read_text(encoding="utf-8"))
    overall = report["overall_accuracy"]
    if not math.isclose(overall, trace_ratio, rel_tol=1e-12):
        out.problems.append(
            f"{exp.name}: metrics.json overall_accuracy {overall!r} != cm.csv trace/total {trace_ratio!r}"
        )

    with (exp / "trace.csv").open(newline="", encoding="utf-8") as fh:
        losses = [row["loss"] for row in csv.DictReader(fh)]
    if len(losses) != epochs:
        out.problems.append(f"{exp.name}: trace.csv has {len(losses)} epochs, expected {epochs}")
    if not all(math.isfinite(float(v)) for v in losses):
        out.problems.append(f"{exp.name}: trace.csv has a non-finite loss")
    return overall, report["attacks"][report["excluded_class"]]["tpr"]


def check_run(
    out_dir: Path,
    exit_code: int,
    experiments: int,
    test_batch_size: int,
    epochs: int,
    accuracy_floor: float | None,
) -> GateResult:
    """Check one run's exit code, summary and per-experiment artifacts."""
    result = GateResult()
    if exit_code != 0:
        result.problems.append(f"exit code {exit_code}")
    summary = out_dir / "summary.csv"
    if not summary.is_file():
        result.problems.append("summary.csv missing")
        return result
    with summary.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != experiments:
        result.problems.append(f"summary.csv has {len(rows)} rows, expected {experiments}")
    failed = [r["excluded_class"] for r in rows if r["status"] != "ok"]
    if failed:
        result.problems.append(f"experiments not ok: {failed}")

    scores = []
    for exp in sorted(out_dir.glob("exclude-*")):
        try:
            score = _check_experiment(exp, test_batch_size, epochs, result)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            result.problems.append(f"{exp.name}: unreadable artifact: {exc!r}")
            continue
        if score is not None:
            scores.append(score)
    if len(scores) != experiments:
        result.problems.append(f"{len(scores)} complete experiment directories, expected {experiments}")
    if scores:
        result.overall_accuracy = sum(s[0] for s in scores) / len(scores)
        result.new_class_tpr = sum(s[1] for s in scores) / len(scores)
    if accuracy_floor is not None and not result.overall_accuracy >= accuracy_floor:
        result.problems.append(
            f"overall accuracy {result.overall_accuracy:.4f} below floor {accuracy_floor}"
        )
    return result


def fingerprint(out_dir: Path) -> dict[str, str]:
    """sha256 of every deterministic artifact, keyed by its relative path."""
    return {
        str(path.relative_to(out_dir)): hashlib.sha256(path.read_bytes()).hexdigest()
        for name in DETERMINISTIC
        for path in sorted(out_dir.glob(f"exclude-*/{name}"))
    }
