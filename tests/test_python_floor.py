"""The package parses under the oldest Python that pyproject.toml declares."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "orbitscope").glob("*.py"))
FLOOR = tuple(int(v) for v in re.search(
    r'^requires-python = ">=(\d+)\.(\d+)"$', (ROOT / "pyproject.toml").read_text(), re.M
).groups())


def test_floor_is_python_3_10():
    assert FLOOR == (3, 10)
    assert {p.stem for p in SOURCES} >= {"cli", "landau", "polynomials"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_at_the_floor(path):
    # feature_version rejects grammar added after the floor, such as the
    # except* of 3.11
    ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)
