"""The public names of the package resolve, including every one the
benchmark workloads call, so a deletion cannot silently break them."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import ptsphere

MODULES = [m.name for m in pkgutil.iter_modules(ptsphere.__path__)]
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = PERFBENCH / "workloads.py"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"ptsphere.{name}")
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert not missing, missing


def _workload_references():
    """(module, attribute) for every ptsphere name perfbench/workloads.py uses:
    names imported from ptsphere modules, and attributes read off the
    modules it imports from the ptsphere package."""
    tree = ast.parse(WORKLOADS.read_text())
    aliases, refs = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "ptsphere":
            for a in node.names:
                aliases[a.asname or a.name] = f"ptsphere.{a.name}"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ptsphere."):
            refs.update((node.module, a.name) for a in node.names)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            refs.add((aliases[node.value.id], node.attr))
    return sorted(refs)


def test_workload_references_exist():
    refs = _workload_references()
    # the workloads call into reduction, phase, masa, lie, spectral and cli
    assert {mod for mod, _ in refs} >= {
        "ptsphere.reduction", "ptsphere.phase", "ptsphere.masa", "ptsphere.cli",
    }
    missing = [
        f"{mod}.{attr}" for mod, attr in refs
        if not hasattr(importlib.import_module(mod), attr)
    ]
    assert not missing, missing


def _tracing_aliases():
    """The keys of perfbench/tracing.py's ALIASES, read without importing it."""
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "ALIASES" for t in node.targets
        ):
            return sorted(ast.literal_eval(node.value))
    raise AssertionError("perfbench/tracing.py defines no ALIASES")


def test_tracing_aliases_resolve():
    # each key is "<module>.<attribute path>"; one that no longer resolves
    # would silently read 0 in its per-layer metric
    keys = _tracing_aliases()
    assert keys
    missing = []
    for key in keys:
        mod, *path = key.split(".")
        obj = importlib.import_module(f"ptsphere.{mod}")
        for attr in path:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(key)
    assert not missing, missing
