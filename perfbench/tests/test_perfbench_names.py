import json
import re
from pathlib import Path

import layers
import run
from workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def emitted():
    yield from ((m.name, m.unit) for m in run.END_TO_END)
    yield from layers.UNITS.items()


def test_every_emitted_name_is_well_formed_and_has_a_unit():
    names = [name for name, _ in emitted()]
    assert len(names) == len(set(names))
    for name, unit in emitted():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), (name, unit)
    for w in WORKLOADS:
        assert NAME.fullmatch(w.name)
        assert w.why and len(w.why) <= 200 and "\n" not in w.why


def test_bounds_are_within_the_allowed_share():
    assert any(m.name == "setup_s" and m.unit == "s" and m.better == "lower" for m in run.END_TO_END)
    setup = next(m.bound for m in run.END_TO_END if m.name == "setup_s")
    for m in run.END_TO_END:
        assert 0 < m.bound <= 0.25 and m.better in ("lower", "higher")
        assert m.bound <= setup


def test_benchmark_json_matches_the_harness_tables():
    on_disk = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert on_disk == run.benchmark_spec()
    assert len(json.dumps(on_disk)) < 64 * 1024
    assert all(Path(p).parts and not Path(p).is_absolute() for p in on_disk["paths"])
