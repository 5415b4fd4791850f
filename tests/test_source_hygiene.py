"""Source rules that no behavioural test would catch.

``python -O`` strips ``assert`` statements, so an invariant written as
one silently stops being checked, and a bare ``AssertionError`` escapes
the CLI's ``EnergiaError`` handling.  The library raises typed
``EnergiaError``s instead; these tests keep it that way.  They also
keep the independent oracles independent: ``energy_oracle``,
``_numpy_oracle``, ``_python_oracle`` and ``tests/fiber_oracle.py`` may
not name the convolution kernel or the exponent-key module they
cross-check, and the three oracle functions may not sort or count by
value; and
they keep the kernel one (value, multiplicity) semiring, with exponent
keys held by ``energy.RepFunction`` and decoded only in ``_keys``;
they keep every comparison of
mpf values inside ``precision.py``, with ``bsg.py`` free of mpmath; they
keep the choice between int64 and object arrays in ``_kernel.py``; they
keep the sort that merges equal values of a grid, the dedup of a sorted
grid and, but for ``sets``' quotients, every grid handed to its merge in
``_kernel.py``; they keep one caller of the sumset writer, on a fold's
arrays; and
they keep every class in ``errors.py`` raised somewhere in the library,
each declaring its own exit code, as README's exit-code table lists it.
"""

import ast
import re
from pathlib import Path

import pytest

from energia import errors

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
ORACLE_FUNCTIONS = ("energy_oracle", "_numpy_oracle", "_python_oracle")
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


def _oracle_scopes(source):
    """The definitions of ``ORACLE_FUNCTIONS`` in the source of energy.py."""
    found = {node.name: node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.FunctionDef)}
    return {name: found[name] for name in ORACLE_FUNCTIONS}


def test_oracles_name_no_fast_path():
    scopes = _oracle_scopes((SRC / "energy.py").read_text())
    scopes[FIBER_ORACLE.name] = ast.parse(FIBER_ORACLE.read_text())
    for name, scope in scopes.items():
        assert not FAST_PATHS & set(_names(scope)), f"{name} names {sorted(FAST_PATHS & set(_names(scope)))}"


# The oracles stay literal: every (s-tuple, s-tuple) pair is compared on
# its own.  They may not sort, count by value, take running sums or
# convolve, which is how the fast paths they check get their speed.
COUNTING_NAMES = {
    "sort",
    "sorted",
    "argsort",
    "unique",
    "bincount",
    "searchsorted",
    "convolve",
    "cumsum",
    "reduceat",
    "at",
    "Counter",
}


@pytest.mark.parametrize("name", ORACLE_FUNCTIONS)
def test_oracles_stay_literal(name):
    scope = _oracle_scopes((SRC / "energy.py").read_text())[name]
    assert not COUNTING_NAMES & set(_names(scope)), f"{name} names {sorted(COUNTING_NAMES & set(_names(scope)))}"


def test_counting_oracle_is_found():
    source = (SRC / "energy.py").read_text()
    literal = "count += int(np.count_nonzero(block[:, None] == sums[None, :]))"
    assert literal in source
    # the right count, from the multiplicity of each s-fold sum
    mutant = source.replace(literal, "count = int(np.square(np.unique(sums, return_counts=True)[1]).sum())")
    scope = _oracle_scopes(mutant)["_numpy_oracle"]
    assert COUNTING_NAMES & set(_names(scope)) == {"unique"}


# One dense path: the kernel's exact big-integer product.  No module keeps
# np.convolve beside it as a fallback.
@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_names_convolve(path):
    assert "convolve" not in set(_names(ast.parse(path.read_text()))), f"{path.name} names convolve"


def test_kernel_names_no_key_form():
    names = set(_names(ast.parse((SRC / "_kernel.py").read_text())))
    key_form = {"_keys", "codec", "products", "_factors", "_keyset", "_vkeys", "_keyed_pair"}
    assert not key_form & names, f"_kernel.py names {sorted(key_form & names)}"


# Exponent keys are decoded in one place, ``_keys.Codec.values``, which
# multiplies back g**t, the t-th power of the gcd ``codec_for`` divides
# out.  A decoder outside ``_keys`` would drop it, so no library module
# or test calls a ``.decode``.
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def _decode_calls(tree):
    """Line numbers of the calls of a ``.decode`` attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "decode"
    )


@pytest.mark.parametrize("path", [p for p in MODULES + TESTS if p.name != "_keys.py"], ids=lambda p: p.name)
def test_keys_are_decoded_only_in_keys(path):
    lines = _decode_calls(ast.parse(path.read_text()))
    assert not lines, f"{path.name} calls .decode at lines {lines}; read values with Codec.values"


def test_decode_calls_are_found():
    src = "a = codec.decode(S, object)\nb = codec.values(S, s)\nc = self.codec.decode(k, t)[0]\n# x.decode(\n"
    assert _decode_calls(ast.parse(src)) == [1, 3]


# Outside precision.py no comparison operator may touch an mpf: a raw
# ``<`` on two values rounded at some precision decides a verdict that
# no margin guards.  An operand is an mpf when it calls into mpmath,
# precision.mpf or precision.log2, or names a variable assigned from such
# an expression in the same function (nested functions included).  The
# result of any other call (int(), guarded_cmp, ...) is not an mpf.
MPF_SOURCES = {("precision", "mpf"), ("precision", "log2")}


def _is_mpf_call(node):
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    while isinstance(func, ast.Attribute):
        if isinstance(func.value, ast.Name) and (func.value.id == "mpmath" or (func.value.id, func.attr) in MPF_SOURCES):
            return True
        func = func.value
    return False


def _builds_mpf(expr, tainted):
    if _is_mpf_call(expr):
        return True
    if isinstance(expr, ast.Name):
        return expr.id in tainted
    if isinstance(expr, ast.Call):  # an mpf only through a method of one
        return _builds_mpf(expr.func, tainted)
    return any(_builds_mpf(child, tainted) for child in ast.iter_child_nodes(expr))


def _raw_mpf_comparisons(tree):
    """Line numbers of the comparisons with an mpf operand, taking each
    top-level function or class, and the rest of the module, as one
    scope."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    scopes = [[node] for node in tree.body if isinstance(node, defs)]
    scopes.append([node for node in tree.body if not isinstance(node, defs)])
    lines = set()
    for scope in scopes:
        nodes = [node for top in scope for node in ast.walk(top)]
        tainted, grew = set(), True
        while grew:
            grew = False
            for node in nodes:
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.NamedExpr)) and node.value is not None:
                    if _builds_mpf(node.value, tainted):
                        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                        new = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)} - tainted
                        tainted |= new
                        grew = grew or bool(new)
        lines |= {
            node.lineno
            for node in nodes
            if isinstance(node, ast.Compare) and any(_builds_mpf(op, tainted) for op in [node.left, *node.comparators])
        }
    return sorted(lines)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "precision.py"], ids=lambda p: p.name)
def test_no_raw_mpf_comparison(path):
    lines = _raw_mpf_comparisons(ast.parse(path.read_text()))
    assert not lines, f"{path.name} compares mpf values raw at lines {lines}; use precision.guarded_cmp"


def test_raw_mpf_comparisons_are_found():
    src = (
        "def f(x):\n"
        "    a = precision.mpf(x)\n"
        "    b = 2 * a\n"
        "    def g(y):\n"
        "        return y <= b\n"
        "    c = precision.guarded_cmp(a, b)\n"
        "    d = c == 0 or int(a) < 2 or x < 3\n"
        "    return mpmath.log(x, 2) > 1, a.sqrt() >= d\n"
        "t = precision.log2(3)\n"
        "u = 1 < t\n"
    )
    assert _raw_mpf_comparisons(ast.parse(src)) == [5, 8, 10]


def test_bsg_does_not_import_mpmath():
    names = set(_names(ast.parse((SRC / "bsg.py").read_text())))
    assert "mpmath" not in names


def test_experiments_import_nothing_from_the_cli():
    # the CLI imports the experiments, so they cannot import it back
    tree = ast.parse((SRC / "experiments.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports and "cli" not in {name for node in imports for name in _names(node)}


# Whether an array holds int64 or Python ints is decided by one rule,
# ``_kernel.exact_dtype``.  No other module may pass ``object`` to a
# call, as a dtype or inside an expression that picks one.
DTYPE_OWNERS = {"_kernel.py"}


def _object_arguments(tree):
    """Line numbers of the calls with an argument that names ``object``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            args = [*node.args, *(kw.value for kw in node.keywords)]
            if any(isinstance(n, ast.Name) and n.id == "object" for arg in args for n in ast.walk(arg)):
                lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in DTYPE_OWNERS], ids=lambda p: p.name)
def test_no_object_dtype_outside_the_kernel(path):
    lines = _object_arguments(ast.parse(path.read_text()))
    assert not lines, f"{path.name} passes object as a dtype at lines {lines}; use _kernel.exact_dtype"


def test_object_arguments_are_found():
    src = (
        "a = np.array(x, dtype=object)\n"
        "b = np.ones(3, object)\n"
        "c = x.astype(np.int64 if big else object)\n"
        "d = np.array(x, dtype=_kernel.exact_dtype(bound))\n"
        "object.__setattr__(self, 'k', 1)\n"
        "e = x.dtype == object\n"
    )
    assert _object_arguments(ast.parse(src)) == [1, 2, 3]


# Sorting a grid and reducing the weights of equal values is
# ``_kernel._merge_equal``'s job (through ``merge_blocks``): it alone
# packs (value, weight) keys and reduces runs.  No other module may
# shift a key into place with ``<<=`` or call a ``.reduceat``.
MERGE_OWNER = "_kernel.py"


def _packs_or_reduces(tree):
    """Line numbers of ``<<=`` augmented assignments and of ``.reduceat``
    attributes."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.LShift):
            lines.add(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "reduceat":
            lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != MERGE_OWNER], ids=lambda p: p.name)
def test_only_the_kernel_packs_keys_or_reduces_runs(path):
    lines = _packs_or_reduces(ast.parse(path.read_text()))
    assert not lines, f"{path.name} packs keys or reduces runs at lines {lines}; use _kernel.merge_blocks"


def test_packing_and_reducing_are_found():
    src = (
        "key <<= bits\n"
        "key = key << bits\n"
        "out = np.add.reduceat(w, starts)\n"
        "red = reduce.reduceat\n"
        "x >>= 1\n"
    )
    assert _packs_or_reduces(ast.parse(src)) == [1, 3, 4]


# Keeping one cell per distinct value of a sorted grid is
# ``_kernel.merge_blocks``' job too: no other module may find where runs of
# equal sorted values start by comparing ``x[1:]`` with ``x[:-1]``.
def _finds_runs(tree):
    """Line numbers of comparisons between an ``[1:]`` and a ``[:-1]``
    subscript."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            slices = {ast.unparse(n.slice) for n in [node.left, *node.comparators] if isinstance(n, ast.Subscript)}
            if {"1:", ":-1"} <= slices:
                lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != MERGE_OWNER], ids=lambda p: p.name)
def test_only_the_kernel_dedups_sorted_grids(path):
    lines = _finds_runs(ast.parse(path.read_text()))
    assert not lines, f"{path.name} dedups a sorted grid at lines {lines}; use _kernel.merge_blocks"


def test_run_finding_is_found():
    src = (
        "new = keys[1:] != keys[:-1]\n"
        "same = v[:-1] == v[1:]\n"
        "gaps = x[1:] - x[:-1]\n"
        "head = x[1:] != x[0]\n"
        "starts = np.flatnonzero(np.concatenate(([True], a[1:] != a[:-1])))\n"
    )
    assert _finds_runs(ast.parse(src)) == [1, 2, 5]


# Building and merging a grid is the kernel's job: ``_kernel.least_levels``
# serves the BSG stage's nested spans, so only ``sets._quotient_arrays``,
# whose keys are no sum or product, hands a grid to ``merge_blocks``, and
# no module outside the kernel sizes a block with ``block_cells``.
GRID_OWNERS = {"merge_blocks": {"_kernel.py", "sets.py"}, "block_cells": {"_kernel.py"}}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_kernel_builds_and_merges_grids(path):
    names = {name for name, owners in GRID_OWNERS.items() if path.name not in owners}
    found = names & set(_names(ast.parse(path.read_text())))
    assert not found, f"{path.name} names {sorted(found)}; use a _kernel grid such as least_levels"


def test_grid_helper_names_are_found():
    named = "_, entry = _kernel.merge_blocks(blocks(), np.minimum)\nrows = max(1, block_cells(np.int64) // n)\n"
    mentioned = "# merge_blocks keeps each sum's least level\ndoc = 'block_cells'\n"
    assert set(GRID_OWNERS) <= set(_names(ast.parse(named)))
    assert not set(GRID_OWNERS) & set(_names(ast.parse(mentioned)))


# ``cli._json_strings`` trusts a fold's arrays (sorted, distinct integers,
# or reduced quotients sorted by value) and checks none of it, so it has
# one call site: ``cmd_sumset``'s, on a fold's ``arrays``.  A new caller
# fails here, so that review can check it meets that contract.
WRITER = "_json_strings"


def _writer_uses(tree):
    """(line, whether it is a call on ``*x.arrays``) of each use of
    ``WRITER`` but its definition: names, attributes and imports."""
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    uses = []
    for node in ast.walk(tree):
        if (
            (isinstance(node, ast.Name) and node.id == WRITER)
            or (isinstance(node, ast.Attribute) and node.attr == WRITER)
            or (isinstance(node, ast.alias) and WRITER in (node.name, node.asname))
        ):
            call = calls.get(id(node))
            args = [] if call is None or call.keywords else call.args
            spread = len(args) == 1 and isinstance(args[0], ast.Starred) and args[0].value
            uses.append((node.lineno, isinstance(spread, ast.Attribute) and spread.attr == "arrays"))
    return sorted(uses)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_call_site_for_the_sumset_writer(path):
    uses = _writer_uses(ast.parse(path.read_text()))
    want = [True] if path.name == "cli.py" else []
    assert [on_arrays for _, on_arrays in uses] == want, f"{path.name} uses {WRITER} at {uses}"


def test_sumset_writer_uses_are_found():
    src = (
        "def _json_strings(num, den=None):\n"
        "    return ''\n"
        "text = _json_strings(*out.arrays)\n"
        "again = _json_strings(num, den)\n"
        "alias = cli._json_strings\n"
        "from .cli import _json_strings as w\n"
        "spread = _json_strings(*pairs)\n"
        "# _json_strings in a comment is no use\n"
    )
    assert _writer_uses(ast.parse(src)) == [(3, True), (4, False), (5, False), (6, False), (7, False)]


# An error class that no module raises, and that is no base of one that
# is raised, is a dead member: nothing can catch it.
def _unraised_errors(errors_tree, trees):
    """The classes of ``errors_tree`` that no ``raise`` in ``trees`` names,
    directly or through a subclass."""
    bases = {
        node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
        for node in errors_tree.body
        if isinstance(node, ast.ClassDef)
    }
    pending = [
        exc.id
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc
        for exc in [node.exc.func if isinstance(node.exc, ast.Call) else node.exc]
        if isinstance(exc, ast.Name)
    ]
    live = set()
    while pending:
        name = pending.pop()
        if name in bases and name not in live:
            live.add(name)
            pending += bases[name]
    return sorted(set(bases) - live)


def test_every_error_class_is_raised():
    dead = _unraised_errors(ast.parse((SRC / "errors.py").read_text()), [ast.parse(p.read_text()) for p in MODULES])
    assert not dead, f"errors.py defines {dead}, which nothing raises"


def test_unraised_errors_are_found():
    errors = (
        "class Base(Exception): pass\n"
        "class Mid(Base): pass\n"
        "class Leaf(Mid): pass\n"
        "class Dead(Base): pass\n"
        "class Named(Base): pass\n"
        "class Other(Exception): pass\n"
    )
    module = "def f(x):\n    if x:\n        raise Leaf('no')\n    raise Named\n\nOther('built, not raised')\n"
    assert _unraised_errors(ast.parse(errors), [ast.parse(module)]) == ["Dead", "Other"]


# The CLI's exit status is the ``code`` of the error class it caught, so
# every class declares its own: an inherited code would silently give a
# new class its base's meaning.
EXIT_CODES = {1, 2, 3}
README = SRC.parent.parent / "README.md"


def _error_classes():
    return [cls for cls in vars(errors).values() if isinstance(cls, type) and cls.__module__ == errors.__name__]


def _uncoded(classes):
    """The names of the classes that do not declare a ``code`` of their own
    in ``EXIT_CODES``."""
    return [cls.__name__ for cls in classes if cls.__dict__.get("code") not in EXIT_CODES]


def test_every_error_class_declares_its_exit_code():
    classes = _error_classes()
    assert len(classes) >= 18 and errors.EnergiaError in classes
    assert not _uncoded(classes), f"errors.py classes without their own exit code: {_uncoded(classes)}"


def test_uncoded_errors_are_found():
    class Base(Exception):
        code = 2

    class Inherits(Base):
        pass

    class Zero(Base):
        code = 0

    assert _uncoded([Base, Inherits, Zero]) == ["Inherits", "Zero"]


def test_readme_exit_code_table_names_every_class():
    rows = re.findall(r"^\| (\d) \|(.*)$", README.read_text(), re.M)
    named = {int(code): set(re.findall(r"`(\w+Error)`", rest)) for code, rest in rows}
    assert set(named) == {0} | EXIT_CODES
    for code in EXIT_CODES:
        assert named[code] == {cls.__name__ for cls in _error_classes() if cls.code == code}, f"exit {code}"
