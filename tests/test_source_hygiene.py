"""Source rules that no behavioural test would catch.

``python -O`` strips ``assert`` statements, so an invariant written as
one silently stops being checked.  The library raises typed
``EnergiaError``s instead; this test keeps it that way.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "energia"
MODULES = sorted(SRC.glob("*.py"))


def test_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "decomposer.py", "precision.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements at lines {lines}; raise an EnergiaError"
