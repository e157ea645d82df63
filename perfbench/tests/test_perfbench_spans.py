import math
import types

import layers
from tracer import Tracer, covered, self_times


def span(id, name, parent, start, end, **attrs):
    return {"id": id, "name": name, "parent": parent, "experiment": None,
            "start": start, "end": end, "attrs": attrs}


def test_covered_merges_overlaps_and_clips_to_parent():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (5.0, 6.0)], 0.0, 10.0) == 3.0
    assert covered([(1.0, 3.0), (2.0, 5.0)], 0.0, 10.0) == 4.0       # overlap counted once
    assert covered([(2.0, 5.0), (1.0, 3.0)], 0.0, 10.0) == 4.0       # order does not matter
    assert covered([(-2.0, 1.0), (8.0, 12.0)], 0.0, 10.0) == 3.0     # clipped to [lo, hi]
    assert covered([(1.0, 9.0), (2.0, 3.0)], 0.0, 10.0) == 8.0       # nested inside another


def test_self_time_is_parent_minus_covered_child_intervals():
    spans = [
        span(0, "root", None, 0.0, 10.0),
        span(1, "a", 0, 1.0, 3.0),
        span(2, "b", 0, 2.0, 5.0),
        span(3, "c", 0, 8.0, 12.0),
        span(4, "a.child", 1, 1.5, 2.5),
    ]
    got = self_times(spans)
    assert math.isclose(got[0], 10.0 - (4.0 + 2.0))
    assert math.isclose(got[1], 2.0 - 1.0)
    assert got[2] == 3.0 and got[3] == 4.0 and got[4] == 1.0


def test_self_times_of_properly_nested_spans_add_up_to_the_root():
    spans = [
        span(0, "process", None, 0.0, 9.0),
        span(1, "cli.main", 0, 0.5, 8.5),
        span(2, "x", 1, 1.0, 4.0),
        span(3, "y", 2, 2.0, 3.0),
        span(4, "z", 1, 5.0, 8.0),
    ]
    assert math.isclose(sum(self_times(spans).values()), 9.0)


def test_tracer_nests_spans_and_numbers_experiments():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    root = tracer.open("process")
    for _ in range(2):
        exp = tracer.open("cli.run_experiment")
        inner = tracer.open("trainer.run_training")
        tracer.close(inner)
        tracer.close(exp)
    tracer.close(root)
    by_name = [(s.name, s.parent, s.experiment) for s in tracer.spans]
    assert by_name == [
        ("process", None, None),
        ("cli.run_experiment", 0, 0), ("trainer.run_training", 1, 0),
        ("cli.run_experiment", 0, 1), ("trainer.run_training", 3, 1),
    ]
    assert all(s.end > s.start for s in tracer.spans)


def test_wrap_records_calls_and_reports_missing_names():
    module = types.SimpleNamespace(work=lambda n: list(range(n)))
    tracer = Tracer()
    assert tracer.wrap(module, "work", "pairgen.work", lambda a, k, r: {"pairs": len(r)})
    assert not tracer.wrap(module, "gone", "pairgen.gone")
    assert module.work(3) == [0, 1, 2]
    (recorded,) = tracer.spans
    assert recorded.name == "pairgen.work" and recorded.attrs == {"pairs": 3}
    assert tracer.missing == ["pairgen.gone"]


def _dump(missing=()):
    spans = [
        span(0, "process", None, 0.0, 10.0),
        span(1, "cli.main", 0, 0.1, 9.9),
        span(2, "dataset.load_schema", 1, 0.2, 0.3),
        span(3, "dataset.load_dataset", 1, 0.3, 0.5, rows=1000),
        span(4, "cli.run_experiment", 1, 1.0, 9.0),
        span(5, "dataset.prepare_experiment", 4, 1.0, 1.5, cells=20000),
        span(6, "trainer.run_training", 4, 1.5, 6.5),
        span(7, "pairgen.generate_training_batch", 6, 1.5, 2.0, pairs=100),
        span(8, "network.batch_gradients", 6, 2.0, 4.0, pairs=100, flops=4e9),
        span(9, "network.apply_update", 6, 4.0, 4.5),
        span(10, "evaluator.vote_sweep", 4, 6.5, 8.5),
        span(11, "evaluator.evaluate", 10, 6.5, 8.5, votes=500),
        span(12, "network.embed", 11, 6.5, 7.0, rows=250),
        span(13, "artifact.save_model", 4, 8.5, 8.75),
    ]
    return {"missing": list(missing), "spans": [s for s in spans if s["name"] not in missing]}


def test_layer_metrics_from_a_span_dump():
    got = layers.layer_metrics(_dump(), {"checkpoint.json": 300, "cm.csv": 100}, run_s=10.5)
    assert math.isclose(got["dataset.load_s"], 0.3)
    assert math.isclose(got["dataset.load_rows_per_s"], 1000 / 0.3)
    assert got["dataset.prepare_calls"] == 1
    assert math.isclose(got["dataset.prepare_cells_per_s"], 40000)
    assert got["network.steps"] == 1
    assert math.isclose(got["network.grad_us_per_step"], 2e6)
    assert math.isclose(got["network.grad_gflop_per_s"], 2.0)
    assert math.isclose(got["trainer.self_s"], 5.0 - 0.5 - 2.0 - 0.5)
    assert math.isclose(got["trainer.pair_visits_per_s"], 100 / 5.0)
    assert math.isclose(got["evaluator.votes_per_s"], 500 / 2.0)
    assert got["network.embed_rows"] == 250
    assert math.isclose(got["evaluator.self_s"], 2.0 - 0.5)
    assert math.isclose(got["cli.experiment_self_s"], 8.0 - 0.5 - 5.0 - 2.0 - 0.25)
    assert got["network.checkpoint_bytes"] == 300 and got["cli.artifact_bytes"] == 400
    assert math.isclose(got["trace.unspanned_s"], 0.5)


def test_layer_metrics_report_a_missing_name_as_missing():
    got = layers.layer_metrics(_dump(missing=("network.batch_gradients",)), {}, run_s=10.0)
    assert got["network.steps"] is None
    assert got["network.grad_gflop_per_s"] is None
    assert got["trainer.pair_visits_per_s"] is None
    assert got["network.update_us_per_step"] is not None
