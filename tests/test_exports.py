"""The package's public names: each export in ``__all__`` resolves."""

import orbitscope


def test_every_export_resolves():
    missing = [name for name in orbitscope.__all__ if not hasattr(orbitscope, name)]
    assert missing == []
    assert len(set(orbitscope.__all__)) == len(orbitscope.__all__)


def test_star_import():
    namespace = {}
    exec("from orbitscope import *", namespace)
    assert set(orbitscope.__all__) <= namespace.keys()
