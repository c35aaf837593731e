"""Public names: every module's __all__ exists and has a user, and the
functions the benchmark traces exist.

The benchmark's tracer (bench/spans.py) looks each traced function up by
name in its home module, and reads some attributes of their results, so
renaming either breaks every traced run.
"""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import opalg
from opalg import examples as ex

MODULES = ["opalg"] + [f"opalg.{m.name}" for m in pkgutil.iter_modules(opalg.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_exist(module):
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", [])
    assert [name for name in names if not hasattr(mod, name)] == []


def load_spans():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_functions_exist():
    spans = load_spans()
    missing = [
        f"{layer}.{name}"
        for layer, names in spans.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"opalg.{layer}"), name, None))
    ]
    assert missing == []


def test_tracer_reads_every_result_it_keeps():
    # per_layer reads notes and status of cb outcomes and certified of the
    # op-norm minimum; a renamed attribute must fail here, not in a traced run
    spans = load_spans()
    cb, tro = importlib.import_module("opalg.cb"), importlib.import_module("opalg.tro")
    # Tracer.install looks each traced layer up in sys.modules, cli included
    importlib.import_module("opalg.cli")
    closed = cb.AffineMatrixSet(np.diag([2.0, 0.0]).astype(complex), (np.eye(2, dtype=complex) / np.sqrt(2),), 0.0)
    # {diag(x, x_11)}: the envelope deletes the 1 x 1 block, decided by one
    # more min-norm solve; the exit counts below cover every cb decision
    unit = ex.matrix_unit
    space = opalg.linalg.orthonormalize([unit(3, 1, 1) + unit(3, 3, 3), unit(3, 1, 2), unit(3, 2, 1), unit(3, 2, 2)])
    tracer = spans.Tracer()
    tracer.install()
    try:
        cb.min_opnorm_affine(closed)
        cb.is_completely_contractive(opalg.linalg.identity_map(space))
        env = tro.injective_envelope(space)
    finally:
        tracer.uninstall()
    out = tracer.per_layer(1)
    assert out["cb.min_opnorm_affine.calls"] == 2 and out["cb.min_opnorm_affine.uncertified"] == 0
    assert out["cb.is_completely_contractive.calls"] >= 1
    assert sum(out[f"cb.exit.{e}.count"] for e in ("conjugation", "violation", "dykstra", "undecided")) \
        == out["cb.is_completely_contractive.calls"]
    assert env.deleted_blocks == (1,)


def test_tracer_counts_the_choi_block_certificate_as_a_conjugation():
    # 0.98 S o x on M_3, S PSD with unit diagonal, is settled by the factors
    # of its Choi block; the note "conjugation certificate of multiplicity 3"
    # counts under the conjugation exit, not as undecided
    from .test_cb import SEARCH_CASES

    spans = load_spans()
    cb = importlib.import_module("opalg.cb")
    importlib.import_module("opalg.cli")
    tracer = spans.Tracer()
    tracer.install()
    try:
        cb.is_completely_contractive(dict(SEARCH_CASES)["schur-0.98-M3"])
    finally:
        tracer.uninstall()
    out = tracer.per_layer(1)
    assert out["cb.exit.conjugation.count"] == 1
    assert out["cb.exit.dykstra.count"] == out["cb.exit.undecided.count"] == 0


# public names no module in src/opalg or bench/ uses: kept as library entry points
UNUSED_ALLOWED = {"hs_inner", "random_unitary", "common_eigenvector"}


def used_names(path):
    """Identifiers a file reads, imports or names as a string constant,
    the strings of its own __all__ list aside."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported.update(id(n) for n in ast.walk(node))
    names = set()
    for node in ast.walk(tree):
        if id(node) in exported:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_public_name_has_a_user():
    # a name in __all__ must be used in src/opalg (the package's re-exports
    # aside) or in bench/; anything else is public API that nothing calls
    root = Path(__file__).resolve().parents[1]
    src = [p for p in (root / "src" / "opalg").glob("*.py") if p.name != "__init__.py"]
    used = set().union(*(used_names(p) for p in src + list((root / "bench").rglob("*.py"))))
    public = {name for module in MODULES[1:] for name in getattr(importlib.import_module(module), "__all__", [])}
    assert sorted(public - used - UNUSED_ALLOWED) == []
    assert UNUSED_ALLOWED <= public - used
