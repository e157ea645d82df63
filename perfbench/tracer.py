"""Spans around calls into `oneshot_ids`, recorded from outside the package.

`install` replaces the names each caller imports (for example
`oneshot_ids.trainer.batch_gradients`, which `run_training` looks up in its
own module) with wrappers that record a span per call. Spans stay in memory
and `Tracer.dump` writes them out once the run has ended.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# Attribute extractors: (args, kwargs, result) -> extra span fields. They
# read only public attributes; if one is gone the span simply lacks it and
# the layer metric that needs it is reported as missing.


def _rows_of_result(args, kwargs, result):
    return {"rows": len(result)}


def _cells_of_raw(args, kwargs, result):
    raw = args[0]
    return {"cells": len(raw) * len(raw.schema.feature_columns)}


def _pairs_of_result(args, kwargs, result):
    return {"pairs": len(result)}


def _step_work(args, kwargs, result):
    model, chunk = args[0], args[1]
    sizes = model.layer_sizes
    rows = 2 * len(chunk)  # both twins
    # per layer: forward and weight-gradient matmuls; every layer but the
    # first also propagates the gradient to its input
    flops = sum(
        2 * rows * sizes[k] * sizes[k + 1] * (3 if k > 0 else 2) for k in range(len(sizes) - 1)
    )
    return {"pairs": len(chunk), "flops": flops}


def _votes_of_evaluate(args, kwargs, result):
    split, test_batch_size, vote = args[1], args[2], args[3]
    n = split.n_classes
    return {"votes": vote.j * (test_batch_size // n) * n}


def _rows_of_input(args, kwargs, result):
    x = args[1]
    return {"rows": len(x) if getattr(x, "ndim", 1) > 1 else 1}


# (module, attribute path, span name, extractor). Span names are
# "<layer>.<function>"; the layer prefix is what layers.py groups by.
TRACED: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("oneshot_ids.cli", "main", "cli.main", None),
    ("oneshot_ids.cli", "load_schema", "dataset.load_schema", None),
    ("oneshot_ids.cli", "load_dataset", "dataset.load_dataset", _rows_of_result),
    ("oneshot_ids.cli", "run_experiment", "cli.run_experiment", None),
    ("oneshot_ids.cli", "prepare_experiment", "dataset.prepare_experiment", _cells_of_raw),
    ("oneshot_ids.cli", "run_training", "trainer.run_training", None),
    ("oneshot_ids.trainer", "generate_training_batch", "pairgen.generate_training_batch",
     _pairs_of_result),
    ("oneshot_ids.trainer", "batch_gradients", "network.batch_gradients", _step_work),
    ("oneshot_ids.trainer", "apply_update", "network.apply_update", None),
    ("oneshot_ids.cli", "vote_sweep", "evaluator.vote_sweep", None),
    ("oneshot_ids.evaluator", "evaluate", "evaluator.evaluate", _votes_of_evaluate),
    ("oneshot_ids.evaluator", "embed", "network.embed", _rows_of_input),
    ("oneshot_ids.cli", "save_model", "artifact.save_model", None),
    ("oneshot_ids.cli", "sweep_to_csv", "artifact.sweep_to_csv", None),
    ("oneshot_ids.evaluator", "ConfusionMatrix.to_csv", "artifact.cm_csv", None),
    ("oneshot_ids.evaluator", "ConfusionMatrix.to_text", "artifact.cm_text", None),
    ("oneshot_ids.evaluator", "MetricsReport.to_json", "artifact.metrics_json", None),
    ("oneshot_ids.trainer", "TrainingTrace.to_csv", "artifact.trace_csv", None),
)

# Each call of this span starts a new experiment id for everything under it.
EXPERIMENT_SPAN = "cli.run_experiment"


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    experiment: int | None
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans on one thread with a monotonic clock shared by
    every process on the machine, so a span can start at the parent's spawn
    time."""

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self.clock = clock
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._experiments = 0

    def open(self, name: str, start: float | None = None) -> Span:
        parent = self._stack[-1] if self._stack else None
        experiment = parent.experiment if parent else None
        if name == EXPERIMENT_SPAN:
            experiment = self._experiments
            self._experiments += 1
        span = Span(len(self.spans), name, parent.id if parent else None, experiment,
                    self.clock() if start is None else start)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def wrap(self, owner, attribute: str, name: str, extract: Callable | None = None) -> bool:
        """Replace `owner.attribute` with a recording wrapper; False if absent."""
        fn = getattr(owner, attribute, None)
        if fn is None:
            self.missing.append(name)
            return False

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if extract is not None:
                try:
                    span.attrs.update(extract(args, kwargs, result))
                except (AttributeError, TypeError, IndexError, KeyError):
                    span.attrs["extract_failed"] = True
            return result

        setattr(owner, attribute, traced)
        return True

    def dump(self, path: str | Path) -> None:
        """One JSON object with one span per line, so the file also greps."""
        spans = ",\n".join(json.dumps(vars(s)) for s in self.spans)
        Path(path).write_text(
            f'{{"clock": "monotonic", "missing": {json.dumps(self.missing)},\n'
            f'"spans": [\n{spans}\n]}}\n',
            encoding="utf-8",
        )


def install(tracer: Tracer) -> None:
    """Wrap every name in TRACED that exists; record the rest as missing."""
    for module_name, path, span_name, extract in TRACED:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            tracer.missing.append(span_name)
            continue
        *owners, attribute = path.split(".")
        for part in owners:
            owner = getattr(owner, part, None)
        if owner is None:
            tracer.missing.append(span_name)
            continue
        tracer.wrap(owner, attribute, span_name, extract)


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    reached = lo
    for start, end in sorted(intervals):
        start, end = max(start, reached), min(end, hi)
        if end > start:
            total += end - start
            reached = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - covered(children.get(s["id"], []), s["start"], s["end"])
        for s in spans
    }
