"""The package's public names: each export in ``__all__`` resolves, and
every public definition is reached by something besides the tests."""

import ast
from pathlib import Path

from conftest import trace_targets

import orbitscope


def test_every_export_resolves():
    missing = [name for name in orbitscope.__all__ if not hasattr(orbitscope, name)]
    assert missing == []
    assert len(set(orbitscope.__all__)) == len(orbitscope.__all__)


def test_star_import():
    namespace = {}
    exec("from orbitscope import *", namespace)
    assert set(orbitscope.__all__) <= namespace.keys()


def _names(node):
    """Every name a statement reads, imports or takes as an attribute."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name


def test_every_public_definition_is_reached():
    # a public module-level function or class must be referenced by other
    # library code (its own body and the package's __init__ do not count),
    # be exported, or be pinned by the benchmark's layer tracer
    defined, used = [], set()
    for path in sorted(Path(orbitscope.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            names = set(_names(stmt))
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
                defined.append((path.stem, stmt.name))
                names.discard(stmt.name)
            used |= names
    pinned = {(module, qualname.split(".")[0]) for module, qualname in trace_targets()}
    unreached = [
        f"{module}.{name}"
        for module, name in defined
        if name not in used and name not in orbitscope.__all__ and (module, name) not in pinned
    ]
    assert unreached == []
