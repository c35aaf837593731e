"""Public names: every module's __all__, and the functions the benchmark traces.

The benchmark's tracer (bench/spans.py) looks each traced function up by
name in its home module, so renaming one breaks every traced run.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import opalg

MODULES = ["opalg"] + [f"opalg.{m.name}" for m in pkgutil.iter_modules(opalg.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_exist(module):
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", [])
    assert [name for name in names if not hasattr(mod, name)] == []


def test_traced_functions_exist():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{layer}.{name}"
        for layer, names in spans.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"opalg.{layer}"), name, None))
    ]
    assert missing == []
