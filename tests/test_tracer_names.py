"""The benchmark tracer wraps package names by (module, attribute path) and
records a name it cannot find as missing instead of failing, so a renamed
or moved function would silently drop its span. Every traced name must
resolve in the package."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_names() -> list[tuple[str, str, str]]:
    """(module, attribute path, span name) of every TRACED entry, read from
    the tracer without writing anything next to it."""
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
    return [entry[:3] for entry in module.TRACED]


@pytest.mark.parametrize("module_name, path, span", traced_names(), ids=lambda v: str(v))
def test_traced_name_resolves(module_name, path, span):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        assert hasattr(owner, part), f"{span}: {module_name}.{path} does not exist"
        owner = getattr(owner, part)
    assert callable(owner), f"{span}: {module_name}.{path} is not callable"
