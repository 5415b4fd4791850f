"""Source rules that no behavioural test would catch.

``python -O`` strips ``assert`` statements, so an invariant written as
one silently stops being checked, and a bare ``AssertionError`` escapes
the CLI's ``EnergiaError`` handling.  The library raises typed
``EnergiaError``s instead; these tests keep it that way.  They also
keep the independent oracles independent: ``energy_oracle``,
``_numpy_oracle`` and ``tests/fiber_oracle.py`` may not name the
convolution kernel or the exponent-key module they cross-check; and
they keep the kernel one (value, multiplicity) semiring, with exponent
keys held by ``energy.RepFunction``.
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


# The independent oracles must not reach the fast paths they check: the
# convolution kernel and the exponent keys.
FAST_PATHS = {"_kernel", "_keys"}
ORACLE_FUNCTIONS = ("energy_oracle", "_numpy_oracle")
FIBER_ORACLE = Path(__file__).resolve().parent / "fiber_oracle.py"


def _names(tree):
    """Every identifier a tree mentions: names, attributes, parameters,
    definitions and imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield from node.module.split(".")


def test_oracles_name_no_fast_path():
    tree = ast.parse((SRC / "energy.py").read_text())
    found = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    scopes = {name: found[name] for name in ORACLE_FUNCTIONS}
    scopes[FIBER_ORACLE.name] = ast.parse(FIBER_ORACLE.read_text())
    for name, scope in scopes.items():
        assert not FAST_PATHS & set(_names(scope)), f"{name} names {sorted(FAST_PATHS & set(_names(scope)))}"


def test_kernel_names_no_key_form():
    names = set(_names(ast.parse((SRC / "_kernel.py").read_text())))
    key_form = {"_keys", "codec", "products", "_factors", "_keyset", "_vkeys", "_keyed_pair"}
    assert not key_form & names, f"_kernel.py names {sorted(key_form & names)}"
