"""Per-layer metrics derived from one traced run's span dump.

Times are per call or per experiment as each metric states; counts repeat
exactly for a given workload and seed. A metric whose spans or span fields
are missing (a wrapped name no longer exists) comes back as None.
"""

from __future__ import annotations

from tracer import EXPERIMENT_SPAN, self_times

# name -> unit, in the order they are reported
UNITS = {
    "dataset.load_s": "s",
    "dataset.load_rows_per_s": "rows/s",
    "dataset.prepare_s": "s",
    "dataset.prepare_cells_per_s": "cells/s",
    "dataset.prepare_calls": "count",
    "pairgen.batches": "count",
    "pairgen.batch_s": "s",
    "pairgen.pairs_per_s": "pairs/s",
    "network.steps": "count",
    "network.grad_us_per_step": "us",
    "network.update_us_per_step": "us",
    "network.grad_gflop_per_s": "GFLOP/s",
    "network.embed_rows": "count",
    "network.checkpoint_bytes": "bytes",
    "trainer.run_s": "s",
    "trainer.self_s": "s",
    "trainer.pair_visits_per_s": "pairs/s",
    "evaluator.sweep_s": "s",
    "evaluator.votes_per_s": "votes/s",
    "evaluator.embed_s": "s",
    "evaluator.self_s": "s",
    "cli.experiment_self_s": "s",
    "cli.artifacts_s": "s",
    "cli.artifact_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
    "trace.unspanned_s": "s",
}

class _Spans:
    def __init__(self, dump: dict):
        self.missing = set(dump["missing"])
        self.spans = dump["spans"]
        self.by_id = {s["id"]: s for s in self.spans}
        self.self = self_times(self.spans)

    def named(self, name: str) -> list[dict] | None:
        if name in self.missing:
            return None
        return [s for s in self.spans if s["name"] == name]

    def under(self, span: dict, prefix: str) -> bool:
        parent = span["parent"]
        while parent is not None:
            if self.by_id[parent]["name"].startswith(prefix):
                return True
            parent = self.by_id[parent]["parent"]
        return False


def _dur(spans):
    return sum(s["end"] - s["start"] for s in spans)


def _attr(spans, key):
    values = [s["attrs"].get(key) for s in spans]
    return None if any(v is None for v in values) else sum(values)


def _div(a, b):
    return None if a is None or b is None or b == 0 else a / b


def layer_metrics(dump: dict, artifact_bytes: dict[str, int], run_s: float) -> dict[str, float | None]:
    """Every name in UNITS except the overhead ratio, which compares runs.

    `artifact_bytes` maps artifact file name to its size summed over the
    run's experiments; `run_s` is the traced run's wall time.
    """
    t = _Spans(dump)
    out: dict[str, float | None] = {}
    experiments = t.named(EXPERIMENT_SPAN)
    n_exp = len(experiments) if experiments else None

    schema, loads = t.named("dataset.load_schema"), t.named("dataset.load_dataset")
    load_s = None if schema is None or loads is None else _dur(schema) + _dur(loads)
    out["dataset.load_s"] = load_s
    out["dataset.load_rows_per_s"] = _div(_attr(loads, "rows") if loads else None, load_s)

    prep = t.named("dataset.prepare_experiment")
    out["dataset.prepare_calls"] = None if prep is None else len(prep)
    out["dataset.prepare_s"] = _div(_dur(prep), len(prep)) if prep else None
    out["dataset.prepare_cells_per_s"] = _div(_attr(prep, "cells"), _dur(prep)) if prep else None

    batches = t.named("pairgen.generate_training_batch")
    out["pairgen.batches"] = None if batches is None else len(batches)
    out["pairgen.batch_s"] = _div(_dur(batches), len(batches)) if batches else None
    out["pairgen.pairs_per_s"] = _div(_attr(batches, "pairs"), _dur(batches)) if batches else None

    grads, updates = t.named("network.batch_gradients"), t.named("network.apply_update")
    out["network.steps"] = None if grads is None else len(grads)
    out["network.grad_us_per_step"] = _div(_dur(grads) * 1e6, len(grads)) if grads else None
    out["network.update_us_per_step"] = _div(_dur(updates) * 1e6, len(updates)) if updates else None
    flops = _attr(grads, "flops") if grads else None
    out["network.grad_gflop_per_s"] = _div(flops, _dur(grads) * 1e9) if grads else None

    embeds = t.named("network.embed")
    eval_embeds = None if embeds is None else [s for s in embeds if t.under(s, "evaluator.")]
    out["network.embed_rows"] = _attr(eval_embeds, "rows") if eval_embeds is not None else None
    saves = t.named("artifact.save_model")
    out["network.checkpoint_bytes"] = (
        _div(artifact_bytes.get("checkpoint.json"), len(saves)) if saves else None
    )

    training = t.named("trainer.run_training")
    out["trainer.run_s"] = _div(_dur(training), n_exp) if training else None
    out["trainer.self_s"] = (
        _div(sum(t.self[s["id"]] for s in training), n_exp) if training else None
    )
    visits = _attr(grads, "pairs") if grads else None
    out["trainer.pair_visits_per_s"] = _div(visits, _dur(training)) if training else None

    sweeps, evals = t.named("evaluator.vote_sweep"), t.named("evaluator.evaluate")
    out["evaluator.sweep_s"] = _div(_dur(sweeps), n_exp) if sweeps else None
    out["evaluator.votes_per_s"] = (
        _div(_attr(evals, "votes"), _dur(sweeps)) if sweeps and evals else None
    )
    out["evaluator.embed_s"] = _div(_dur(eval_embeds), n_exp) if eval_embeds else None
    out["evaluator.self_s"] = (
        _div(sum(t.self[s["id"]] for s in sweeps + evals), n_exp)
        if sweeps is not None and evals is not None else None
    )

    out["cli.experiment_self_s"] = (
        _div(sum(t.self[s["id"]] for s in experiments), n_exp) if experiments else None
    )
    artifact_spans = [s for s in t.spans if s["name"].startswith("artifact.")]
    artifacts_complete = not any(name.startswith("artifact.") for name in t.missing)
    out["cli.artifacts_s"] = _div(_dur(artifact_spans), n_exp) if artifacts_complete else None
    out["cli.artifact_bytes"] = _div(sum(artifact_bytes.values()), n_exp)

    # Self times of all spans add up to the root span, which starts at spawn;
    # the rest of the run is the span dump and interpreter exit.
    out["trace.unspanned_s"] = run_s - sum(t.self.values())
    return out
