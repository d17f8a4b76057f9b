"""Every name a module imports is used in that module, and every name the
benchmark's tracer binds still exists.

The package's `__init__.py` is left out of the import check: its imports are
re-exports. `perfbench/tracer.py` finds the public functions of its layers
when it runs, so a deleted function that no workload calls would pass the
benchmark's smoke check; the list below names them instead.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for path in (ROOT / "src" / "homaudit").glob("*.py")
                 if path.name != "__init__.py")
MODULES += sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every imported name that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os, sys\nfrom a.b import c as d\nsys.exit()\n")
    assert unused_imports(source) == [(2, "os"), (3, "d")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# the public functions of the traced layers, and the (class, method) pairs
# the tracer wraps by name; a name may be added, not dropped
TRACED_FUNCTIONS = {
    "cli": ("build_parser", "cmd_barcode", "cmd_betti", "cmd_morse_check", "cmd_mv_audit",
            "cmd_pair_audit", "load_complex", "load_membership", "main"),
    "morse": ("critical_cells", "filtration_from_morse", "is_perfect", "sublevel",
              "sublevel_filtration", "validate_morse"),
    "complexes": ("betti_numbers", "boundary_matrix", "close_under_faces", "intersect",
                  "is_subcomplex", "relative_basis", "relative_boundary_matrix"),
    "linalg": ("check_modulus", "dense_rank", "is_prime", "mat_mul", "row_reduce",
               "solve_matrix"),
    "persistence": ("barcode", "compute_persistence", "relative_persistence"),
    "sequences": ("audit", "check_squares", "induced_inclusion_map", "module_sequence",
                  "mv_connecting", "ordinary_sequence", "pair_connecting",
                  "persistent_sequence", "quotient_map"),
}
TRACED_METHODS = (("sequences", "MayerVietorisSystem", "__init__"),
                  ("sequences", "PairSystem", "__init__"),
                  ("sequences", "MayerVietorisSystem", "map_at"),
                  ("sequences", "PairSystem", "map_at"),
                  ("linalg", "Subspace", "__init__"))
RULE = ("ROADMAP: a PR that removes a name perfbench/tracer.py binds needs its own "
        "benchmark PR first")


def test_every_name_the_tracer_binds_exists():
    missing = []
    for layer, names in TRACED_FUNCTIONS.items():
        module = importlib.import_module(f"homaudit.{layer}")
        missing += [f"{layer}.{name}" for name in names
                    if not (inspect.isfunction(obj := getattr(module, name, None))
                            and obj.__module__ == module.__name__)]
    for layer, cls, method in TRACED_METHODS:
        holder = getattr(importlib.import_module(f"homaudit.{layer}"), cls, None)
        if holder is None or method not in vars(holder):
            missing.append(f"{layer}.{cls}.{method}")
    assert missing == [], RULE


# the F_2 column format, the kernel and the cycle table have one reader,
# persistence.py, and the filtration numbering two, morse.py and persistence.py;
# a function is ranked once, when it is built, and its ranks are read in morse.py
OWNED = {"_reduce": {"persistence.py"}, "_rows": {"persistence.py"},
         "_as_int": {"persistence.py"}, "_cycle_table": {"persistence.py"},
         "_numbering": {"morse.py", "persistence.py"}, "_ranks": {"morse.py"},
         "_rank": {"morse.py"}, "_distinct": {"morse.py"}}


def _read_names(tree) -> set[str]:
    """Every name a module reads: as a name, an attribute or an import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _modulus_compared_with_2(tree) -> list[int]:
    """The lines of every comparison of `p` or a `modulus` with the constant 2."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            named = {getattr(o, "id", None) or getattr(o, "attr", None) for o in operands}
            if named & {"p", "modulus"} and any(
                    isinstance(o, ast.Constant) and o.value == 2 for o in operands):
                lines.append(node.lineno)
    return lines


def test_columns_and_the_numbering_are_read_by_their_owners_only():
    package = ROOT / "src" / "homaudit"
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    readers = {name: sorted(module for module, tree in trees.items()
                            if name in _read_names(tree) and module not in owners)
               for name, owners in OWNED.items()}
    assert readers == dict.fromkeys(OWNED, [])
    assert _modulus_compared_with_2(trees["sequences.py"]) == []


def test_the_owner_guard_sees_a_reader():
    tree = ast.parse("from .persistence import _rows\n"
                     "def f(R, p):\n    return R._numbering() if p == 2 else R.modulus != 2\n")
    assert {"_rows", "_numbering"} <= _read_names(tree)
    assert _modulus_compared_with_2(tree) == [3, 3]
