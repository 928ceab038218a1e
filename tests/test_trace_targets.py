"""The layer tracer of ``perfbench`` times orbitscope callables by name.

``perfbench/run.py --trace 1`` fails when one of them is renamed or
deleted, so every name it lists must resolve.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_callable_resolves():
    missing = []
    for module_name, qualname in _targets():
        obj = importlib.import_module(f"orbitscope.{module_name}")
        for part in qualname.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module_name}.{qualname}")
    assert missing == []
