"""The public API carries no name that only tests use.

Every name crcap exports must be used by the library itself (a
definition plus at least one use in src/crcap, outside __init__.py) or by
a demo or benchmark script; a helper that only the tests call belongs in
tests/oracles.py instead. Every module-level constant (an upper-case name
assigned at the top of a module) must be read somewhere in src/crcap, and
every private function or method (one leading underscore) must be used
there outside its own definition. The third-party modules src/crcap
imports are exactly pyproject.toml's dependencies.
"""

import ast
import re
import sys
import tokenize
from collections import Counter
from pathlib import Path

import pytest

import crcap

ROOT = Path(__file__).resolve().parent.parent


def _name_counts(paths):
    counts = Counter()
    for path in paths:
        with tokenize.open(path) as fh:
            counts.update(tok.string for tok in tokenize.generate_tokens(fh.readline)
                          if tok.type == tokenize.NAME)
    return counts


def test_every_exported_name_has_a_caller_outside_the_tests():
    package = ROOT / "src" / "crcap"
    in_src = _name_counts(p for p in sorted(package.glob("*.py"))
                          if p.name != "__init__.py")
    in_scripts = _name_counts(sorted((ROOT / "demos").glob("*.py"))
                              + sorted((ROOT / "benchmarks").glob("*.py")))
    exported = [n for n in crcap.__all__ if n != "__version__"]
    assert exported
    assert [n for n in exported if in_src[n] < 2 and in_scripts[n] < 1] == []


def test_every_module_constant_is_read_in_the_package():
    constant = re.compile(r"_?[A-Z][A-Z0-9_]*$")
    defined, read = set(), set()
    for path in sorted((ROOT / "src" / "crcap").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else (
                [node.target] if isinstance(node, ast.AnnAssign) else [])
            defined.update((path.stem, t.id) for t in targets
                           if isinstance(t, ast.Name) and constant.match(t.id))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert defined
    assert sorted(f"{module}.{name}" for module, name in defined if name not in read) == []


def test_every_private_function_is_used_in_the_package():
    private = re.compile(r"_[^_]")
    defs, uses = [], []
    for path in sorted((ROOT / "src" / "crcap").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and private.match(node.name):
                defs.append((path.stem, node.name, node.lineno, node.end_lineno))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                uses.append((path.stem, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.append((path.stem, node.attr, node.lineno))
    assert defs
    unused = [f"{module}.{name}" for module, name, first, last in defs
              if not any(n == name and not (m == module and first <= line <= last)
                         for m, n, line in uses)]
    assert unused == []


def _third_party_imports(paths, local=()):
    """Top-level names of the modules the files import, less the standard
    library, relative imports and the given local modules."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"crcap"} - set(local)


def _declared(requirements):
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_")
            for r in requirements}


def test_declared_dependencies_are_the_imported_ones():
    # the package needs exactly what src/crcap imports (numpy alone); the
    # test extra carries what only the tests and their oracles import
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    runtime = _declared(project["dependencies"])
    test = _declared(project["optional-dependencies"]["test"])
    assert _third_party_imports(sorted((ROOT / "src" / "crcap").glob("*.py"))) == runtime
    assert runtime == {"numpy"}
    local = {p.stem for p in [*(ROOT / "tests").glob("*.py"), *(ROOT / "benchmarks").glob("*.py")]}
    assert _third_party_imports(sorted((ROOT / "tests").glob("*.py")), local) <= runtime | test
    assert {"scipy", "mpmath", "hypothesis", "pytest"} <= test


def _definitions(tree):
    """(name, node) of each top-level function and each method of a
    top-level class, the method named Class.method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item) for item in node.body
                        if isinstance(item, ast.FunctionDef))


def _names(node):
    """Every name and attribute that node's code reads or writes."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _builds_level(node):
    return isinstance(node, ast.Call) and "_SlGrid" in _names(node.func)


def test_direct_link_levels_come_from_one_path():
    # one capacity path for every knowledge level and both regimes:
    # _sl_grid alone builds a direct-link level (_SlGrid), and the cap
    # table (_CapField) knows no level, no _sl_grid and no panel-doubling
    # loop (_refine) of its own
    builders, everywhere, cap_table = [], 0, []
    for path in sorted((ROOT / "src" / "crcap").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        everywhere += sum(map(_builds_level, ast.walk(tree)))
        for name, node in _definitions(tree):
            builders += [f"{path.stem}.{name}"] * sum(map(_builds_level, ast.walk(node)))
            if name.startswith("_CapField."):
                cap_table += [f"{name}: {n}" for n in
                              sorted(_names(node) & {"_SlGrid", "_sl_grid", "_refine"})]
    assert builders == ["power_allocation._sl_grid"]
    assert everywhere == len(builders)
    assert cap_table == []
