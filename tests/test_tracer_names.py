"""The benchmark tracer wraps package names by (module, attribute path) and
records a name it cannot find as missing instead of failing, so a renamed
or moved function would silently drop its span. Every traced name must
resolve in the package, and every span's extractor must read what the
call it wraps now takes and returns."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from oneshot_ids import cli
from oneshot_ids.synthetic import write_files

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    """perfbench/tracer.py as a module, loaded without writing anything next to it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.modules[spec.name] = module   # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules[spec.name]
    return module


def resolve(module_name: str, path: str):
    """(owner, attribute) that a TRACED entry names."""
    *owners, attribute = path.split(".")
    owner = importlib.import_module(module_name)
    for part in owners:
        owner = getattr(owner, part)
    return owner, attribute


@pytest.mark.parametrize(
    "module_name, path, span", [e[:3] for e in load_tracer().TRACED], ids=lambda v: str(v)
)
def test_traced_name_resolves(module_name, path, span):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        assert hasattr(owner, part), f"{span}: {module_name}.{path} does not exist"
        owner = getattr(owner, part)
    assert callable(owner), f"{span}: {module_name}.{path} is not callable"


def test_traced_run_extracts_every_span(tmp_path, monkeypatch):
    tracer_module = load_tracer()
    for module_name, path, _, _ in tracer_module.TRACED:
        owner, attribute = resolve(module_name, path)
        # setting the current value registers it to be put back afterwards
        monkeypatch.setattr(owner, attribute, getattr(owner, attribute))
    tracer = tracer_module.Tracer()
    tracer_module.install(tracer)

    csv_path, schema_path = write_files(tmp_path, n_classes=3, per_class=12, n_features=3, seed=1)
    code = cli.main([
        "run", "--dataset", str(csv_path), "--schema", str(schema_path),
        "--out", str(tmp_path / "out"), "--exclude", "attack1", "--epochs", "2",
        "--batch-size", "60", "--minibatch", "30", "--test-batch-size", "30", "--votes", "1,3",
    ])
    assert code == 0
    assert tracer.missing == []
    assert [s.name for s in tracer.spans if s.attrs.get("extract_failed")] == []
    extracted = {name for _, _, name, extract in tracer_module.TRACED if extract is not None}
    assert extracted <= {s.name for s in tracer.spans if s.attrs}
    # a step's pair count is the length of its argument 1, the left rows:
    # 2 epochs x 60 pairs in minibatches of at most 30
    pairs = [s.attrs["pairs"] for s in tracer.spans if s.name == "network.batch_gradients"]
    assert sum(pairs) == 2 * 60
    assert max(pairs) <= 30
