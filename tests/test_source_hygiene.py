"""Source rules that no behavioural test would catch.

``python -O`` strips ``assert`` statements, so an invariant written as
one silently stops being checked, and a bare ``AssertionError`` escapes
the CLI's ``EnergiaError`` handling.  The library raises typed
``EnergiaError``s instead; these tests keep it that way.
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


def _raises_assertion_error(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_raise_assertion_error(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [
        node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise) and node.exc and _raises_assertion_error(node)
    ]
    assert not lines, f"{path.name} raises AssertionError at lines {lines}; raise an EnergiaError"
