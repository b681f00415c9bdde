"""The public names of the package resolve, including every one the
benchmark workloads call, so a deletion cannot silently break them; every
public name has a reader outside the tests; and the int parts of Exact are
read only where the layering allows."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import ptsphere
from ptsphere import cli

MODULES = [m.name for m in pkgutil.iter_modules(ptsphere.__path__)]
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = PERFBENCH / "workloads.py"
SRC = Path(ptsphere.__file__).resolve().parent


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


def _src_loads():
    """(name, module file, top-level def) for every name read in src/ptsphere:
    each loaded Name, and the attribute of each loaded Attribute; the def is
    None at module level."""
    loads = set()
    for path in SRC.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            where = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    loads.add((node.id, path.name, where))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    loads.add((node.attr, path.name, where))
    return loads


def test_every_public_name_has_a_reader():
    # a name in __all__ is read in src/ptsphere outside its own definition,
    # or by the benchmark workloads; one that only the tests read belongs in
    # the tests
    loads = _src_loads()
    workloads = {(mod.split(".")[-1], attr) for mod, attr in _workload_references()}
    unread = []
    for name in MODULES:
        mod = importlib.import_module(f"ptsphere.{name}")
        for attr in getattr(mod, "__all__", ()):
            readers = {(file, where) for read, file, where in loads if read == attr}
            if not readers - {(f"{name}.py", attr)} and (name, attr) not in workloads:
                unread.append(f"{name}.{attr}")
    assert not unread, unread


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


def _exact_internals(tree):
    """(top-level def, use) for each underscore name imported from .exact
    and each .int_parts() call in a module; the def is None at module level."""
    uses = []
    for top in tree.body:
        where = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.ImportFrom) and node.module in ("exact", "ptsphere.exact"):
                uses += [(where, a.name) for a in node.names if a.name.startswith("_")]
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "int_parts"):
                uses.append((where, "int_parts"))
    return uses


def test_int_parts_stay_in_their_kernels():
    # outside exact.py only the point sweeps and products of phase.py and
    # matrices.row_reduce read the storage format of an Exact
    found = {path.name: _exact_internals(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert "reduction.py" in found and "lie.py" in found
    outside = {name: uses for name, uses in found.items()
               if uses and name not in ("exact.py", "phase.py", "matrices.py")}
    assert not outside, outside
    assert {where for where, use in found["matrices.py"] if use == "int_parts"} == {"row_reduce"}


def test_one_finite_difference_path():
    # one function of src/ptsphere calls _dirichlet_pt, and one raise refuses
    # the couplings Dirichlet ends cannot select (BadCouplings):
    # solve_poschl_teller and solve_chi_equation share both
    callers, guards = set(), []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and ast.unparse(node.func) == "_dirichlet_pt":
                    callers.add((path.name, getattr(top, "name", None)))
                elif isinstance(node, ast.Raise) and "BadCouplings" in ast.unparse(node):
                    guards.append((path.name, getattr(top, "name", None)))
    assert len(callers) == 1, callers
    assert len(guards) == 1, guards


def _names_a_phase(node) -> bool:
    # a comparison of a .phase attribute with a string constant
    sides = [node.left, *node.comparators]
    return (any(isinstance(side, ast.Attribute) and side.attr == "phase" for side in sides)
            and any(isinstance(side, ast.Constant) and isinstance(side.value, str)
                    for side in sides))


def test_every_spectrum_model_is_one_row():
    # cmd_spectrum reads a model's flags and solver off its SPECTRUM_MODELS
    # row: it compares args.model with no model name; spectrum and scan judge
    # every report alike: no comparison in cli.py names a report's phase
    tree = ast.parse((SRC / "cli.py").read_text())
    phased = [ast.unparse(node) for node in ast.walk(tree)
              if isinstance(node, ast.Compare) and _names_a_phase(node)]
    assert not phased, phased
    (cmd,) = [node for node in tree.body if getattr(node, "name", None) == "cmd_spectrum"]
    named = [
        ast.unparse(node) for node in ast.walk(cmd) if isinstance(node, ast.Compare)
        and "args.model" in map(ast.unparse, [node.left, *node.comparators])
        and any(isinstance(c, ast.Constant) and isinstance(c.value, str)
                for side in [node.left, *node.comparators] for c in ast.walk(side))
    ]
    assert not named, named
    flags = set(cli.SPECTRUM_FLAGS.split())
    for model, (reads, needs, _) in cli.SPECTRUM_MODELS.items():
        assert set(needs.split()) <= set(reads.split()) <= flags, model
