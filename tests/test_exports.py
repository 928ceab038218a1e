"""The package's public names: each export in ``__all__`` resolves, and
every public definition is reached by something besides the tests."""

import ast
import re
from pathlib import Path

from conftest import trace_targets

import orbitscope

README = Path(__file__).resolve().parents[1] / "README.md"


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


def _readme_library_names() -> set:
    """The names read by the Python code blocks of the README's
    ``## Library`` section."""
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    return {name for block in blocks for name in _names(ast.parse(block))}


def _public(stmt) -> bool:
    return isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")


def test_every_public_definition_is_reached():
    # a public module-level function or class, or a public method or
    # property of a library class, must be referenced by other library code
    # (its own body and the package's __init__ do not count), by the README's
    # library example, or be pinned by the benchmark's layer tracer; being
    # in __all__ is not reach
    defined, used = [], set()
    for path in sorted(Path(orbitscope.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            if not isinstance(stmt, ast.ClassDef):
                names = set(_names(stmt))
                if _public(stmt):
                    defined.append((path.stem, stmt.name))
                    names.discard(stmt.name)
                used |= names
                continue
            if _public(stmt):
                defined.append((path.stem, stmt.name))
            names = set()
            for node in stmt.body:
                if _public(node) and isinstance(node, ast.FunctionDef):
                    defined.append((path.stem, f"{stmt.name}.{node.name}"))
                    names |= set(_names(node)) - {node.name}
                else:
                    names |= set(_names(node))
            for node in stmt.decorator_list + stmt.bases + stmt.keywords:
                names |= set(_names(node))
            used |= names - {stmt.name}
    used |= _readme_library_names()
    pinned = set(trace_targets())
    pinned |= {(module, qualname.split(".")[0]) for module, qualname in pinned}
    unreached = [
        f"{module}.{qualname}"
        for module, qualname in defined
        if qualname.split(".")[-1] not in used and (module, qualname) not in pinned
    ]
    assert unreached == []
