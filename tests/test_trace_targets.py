"""The layer tracer of ``perfbench`` times orbitscope callables by name.

``perfbench/run.py --trace 1`` fails when one of them is renamed or
deleted, so every name it lists must resolve.
"""

import importlib

from conftest import trace_targets


def test_every_traced_callable_resolves():
    missing = []
    for module_name, qualname in trace_targets():
        obj = importlib.import_module(f"orbitscope.{module_name}")
        for part in qualname.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module_name}.{qualname}")
    assert missing == []
