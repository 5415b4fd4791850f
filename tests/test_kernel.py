"""Every backend of the exact convolution kernel against the Python path.

Each backend is forced through the whole driver by replacing
``_kernel.choose``; the Python backend (dict / set convolution over
Python ints) is the reference.  Pairs whose values could leave int64 stay on Python
even when a numpy backend is forced; a separate group checks that the
natural choice falls back to Python exactly at the value and count
bounds.  Positive sets whose products could pass 2^62 run on exponent
keys on both sides, so there the backends are compared on keys;
``test_keys.py`` compares keys with values.
"""

import inspect
import math
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from energia import _kernel, bsg
from energia.energy import (
    ADDITIVE,
    MULTIPLICATIVE,
    _numpy_oracle,
    _python_oracle,
    energy,
    energy_oracle,
    mixed_energy,
    rep_function,
)
from energia.sets import IntSet, _quotient_arrays, interval, iterated_product_set, iterated_sumset

BACKENDS = {"python": _kernel._python, "dense": _kernel._dense, "sort-count": _kernel._sort_count}
MODES = (ADDITIVE, MULTIPLICATIVE)

small_sets = st.lists(st.integers(-60, 60), min_size=1, max_size=9, unique=True)
wide_sets = st.lists(st.integers(-(10**9), 10**9), min_size=1, max_size=9, unique=True)
any_small = st.one_of(small_sets, wide_sets, st.lists(st.integers(-3, 3), min_size=1, max_size=1))


def prop(examples):
    # monkeypatch is undone per test, not per example; each example sets what it needs
    return settings(max_examples=examples, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def _short_lines(f, g):
    step = math.gcd(f.step(), g.step()) or 1
    return max(f.hi - f.lo, g.hi - g.lo) // step < 10**4


def force(monkeypatch, name):
    """Route every pair product to one backend, size regardless.  Pairs
    whose values could leave int64 still go to Python, as in the real
    choice; dense serves only sums, and only where its indicator lines
    stay short (wide sets would need lines of ~10^9 cells), so other pairs
    go to sort-and-count."""
    backend = BACKENDS[name]

    def choose(f, g, additive):
        bound = f.magnitude() + g.magnitude() if additive else f.magnitude() * g.magnitude()
        if bound >= _kernel._VALUE_LIMIT:
            return _kernel._python
        if backend is _kernel._dense and not (additive and _short_lines(f, g)):
            return _kernel._sort_count
        return backend

    monkeypatch.setattr(_kernel, "choose", choose)


def reference(monkeypatch, fn):
    with monkeypatch.context() as m:
        force(m, "python")
        return fn()


def chunked(monkeypatch):
    # tiny blocks, so the sort-and-count merge runs on every input
    monkeypatch.setattr(_kernel, "_CHUNK", 5)


@pytest.mark.parametrize("name", sorted(BACKENDS))
@pytest.mark.parametrize("mode", MODES)
@prop(60)
@given(vals=any_small, s=st.integers(1, 4))
def test_rep_function_and_energy(monkeypatch, name, mode, vals, s):
    A = IntSet(vals)
    chunked(monkeypatch)
    want = reference(monkeypatch, lambda: rep_function(A, s, mode))
    force(monkeypatch, name)
    got = rep_function(A, s, mode)
    assert got.support == want.support
    assert got.total() == want.total() == len(A) ** s
    assert got.sup() == want.sup()
    assert energy(A, s, mode).count == want.energy_count() == got.energy_count()


@pytest.mark.parametrize("name", sorted(BACKENDS))
@pytest.mark.parametrize("mode", MODES)
@prop(40)
@given(sets=st.integers(1, 2).flatmap(lambda s: st.lists(any_small, min_size=2 * s, max_size=2 * s)))
def test_mixed_energy(monkeypatch, name, mode, sets):
    sets = [IntSet(v) for v in sets]
    chunked(monkeypatch)
    want = reference(monkeypatch, lambda: mixed_energy(sets, mode).count)
    force(monkeypatch, name)
    assert mixed_energy(sets, mode).count == want


@pytest.mark.parametrize("name", sorted(BACKENDS))
@prop(60)
@given(vals=any_small, m=st.integers(0, 3), n=st.integers(0, 2))
def test_iterated_sumset(monkeypatch, name, vals, m, n):
    if m == n == 0:
        return
    A = IntSet(vals)
    chunked(monkeypatch)
    want = reference(monkeypatch, lambda: iterated_sumset(A, m, n))
    force(monkeypatch, name)
    got = iterated_sumset(A, m, n)
    assert got == want
    assert list(got.elements) == sorted(set(got.elements))


@pytest.mark.parametrize("name", sorted(BACKENDS))
@prop(60)
@given(vals=any_small, m=st.integers(0, 3), n=st.integers(0, 2))
def test_iterated_product_set(monkeypatch, name, vals, m, n):
    if m == n == 0 or (n and 0 in vals):
        return
    A = IntSet(vals)
    chunked(monkeypatch)
    want = reference(monkeypatch, lambda: iterated_product_set(A, m, n))
    force(monkeypatch, name)
    assert iterated_product_set(A, m, n) == want


# -- self-pairs ---------------------------------------------------------------


def _operand(vals, kind, counts):
    """A fresh Weighted over ``vals``: plain, unit or weighted by ``counts``."""
    vals = sorted(vals)
    if kind != "weighted":
        return _kernel.Weighted.indicator(tuple(vals), kind == "unit")
    cnts = np.array(counts[: len(vals)], dtype=np.int64)
    return _kernel.Weighted(np.array(vals, dtype=np.int64), cnts, int(cnts.sum()))


def _content(w):
    cnts = None if w.cnts is None else (w.cnts.dtype, w.cnts.tolist())
    return w.size, w.lo, w.hi, w.total, w.vals.dtype, w.vals.tolist(), cnts


# Operands whose grid keys need 31, 32, 33, 63 and 64 bits: offset bits
# alone for plain and unit grids, and with 4 weight bits (largest count 3)
# for weighted ones, which also reach 65 bits, where the values and
# weights sort apart.  The products take signed sets holding 0.  Each
# example runs in every mode and kind, at the edge in its own.
_THREE = [3] + [1] * 8
KEY_WIDTH_EDGES = {
    # (additive, weighted): (vals, counts, chunk) for 31, 32, 33, 63, 64 (and 65) bits
    (True, False): [
        ([-3, 0, 5, 2**30 - 4], [1] * 9, 5),
        ([-3, 0, 5, 2**31 - 4], [1] * 9, 5),
        ([-3, 0, 5, 2**31 - 2], [1] * 9, 1 << 19),
        ([-(2**61), 5, 2**61 - 1], [1] * 9, 5),
        ([-(2**62) + 1, 5, 2**62 - 1], [1] * 9, 5),
    ],
    (True, True): [
        ([-3, 0, 2**26 - 4], _THREE, 5),
        ([-3, 0, 2**27 - 4], _THREE, 1 << 19),
        ([-3, 0, 2**27 - 2], _THREE, 5),
        ([-(2**57), 5, 2**57 - 1], _THREE, 5),
        ([-(2**58), 5, 2**58 - 1], _THREE, 5),
        ([-(2**58), 5, 2**58], _THREE, 5),
    ],
    (False, False): [
        ([-(2**15), 0, 3, 2**15 - 1], [1] * 9, 5),
        ([-46340, 0, 46339], [1] * 9, 5),
        ([-46341, 0, 46341], [1] * 9, 1 << 19),
        ([-(2**31), 0, 2**31 - 1], [1] * 9, 5),
        ([-3 * 10**9, 0, 3 * 10**9 - 1], [1] * 9, 5),
    ],
    (False, True): [
        ([-8192, 0, 8191], _THREE, 5),
        ([-8292, 0, 8292], _THREE, 1 << 19),
        ([-16383, 0, 16383], _THREE, 5),
        ([-(2**29) + 1, 0, 2**29 - 1], _THREE, 5),
        ([-(2**29), 0, 2**29], _THREE, 5),
        ([-(2**30), 0, 2**29], _THREE, 5),
    ],
}


@pytest.mark.parametrize("additive, weighted", sorted(KEY_WIDTH_EDGES))
def test_key_width_edges_are_reached(additive, weighted):
    # offset bits plus weight bits of each grid's keys, as _sort_count packs them
    bits = []
    for vals, counts, _ in KEY_WIDTH_EDGES[additive, weighted]:
        lo, hi = _kernel.grid_bounds(vals[0], vals[-1], vals[0], vals[-1], additive)
        wbits = (max(counts[: len(vals)]) ** 2).bit_length() if weighted else 0
        bits.append((hi - lo).bit_length() + wbits)
    assert bits == [31, 32, 33, 63, 64] + [65] * weighted
    assert [_kernel.key_dtype(2 ** (b - 1), 0) for b in bits] == [np.uint32, np.uint32] + [np.uint64] * 3 + [None] * weighted


def _at_key_width_edges(test):
    for edges in KEY_WIDTH_EDGES.values():
        for vals, counts, chunk in edges:
            test = example(vals=vals, counts=counts, chunk=chunk)(test)
    return test


@pytest.mark.parametrize("name", sorted(BACKENDS))
@pytest.mark.parametrize("additive", (True, False))
@pytest.mark.parametrize("kind", ("plain", "unit", "weighted"))
@prop(60)
@given(
    vals=st.one_of(any_small, st.lists(st.integers(-4, 4), min_size=1, max_size=9, unique=True)),
    counts=st.lists(st.integers(1, 5), min_size=9, max_size=9),
    chunk=st.sampled_from([5, 1 << 19]),
)
@example(vals=[-3, -2, 0, 2, 3], counts=[1] * 9, chunk=5)  # x * x = (-x) * (-x): diagonal cells share values
@_at_key_width_edges
def test_self_pair_equals_pair_with_a_copy(monkeypatch, name, additive, kind, vals, counts, chunk):
    # f * f skips the symmetric half; f * (a copy of f) sorts the whole grid
    monkeypatch.setattr(_kernel, "_CHUNK", chunk)
    f, g = _operand(vals, kind, counts), _operand(vals, kind, counts)
    if name == "dense" and not (additive and _short_lines(f, g)):
        return
    bound = f.magnitude() + g.magnitude() if additive else f.magnitude() * g.magnitude()
    if name != "python" and bound >= _kernel._INT64_LIMIT:  # numpy results hold int64 values
        return
    backend = BACKENDS[name]
    want = _content(_kernel._python(f, g, additive))
    assert _content(backend(f, g, additive)) == want
    assert _content(backend(f, f, additive)) == want
    assert _content(_kernel.pair(f, f, additive)) == want


def _cells(blocks, lo, wbits):
    """The (value, weight) of every cell of ``blocks``: packed keys for a
    layout (lo, wbits), else values with their weights apart (None for 0)."""
    if lo is None:
        return Counter(
            (v, w) for k, ws in blocks for v, w in zip(k.tolist(), [0] * len(k) if ws is None else ws.tolist())
        )
    keys = np.concatenate([k for k, _ in blocks]).astype(object)
    return Counter(zip(((keys >> wbits) + lo).tolist(), (keys & ((1 << wbits) - 1)).tolist()))


def _triangle(f, op):
    """The literal upper triangle of f x f with its diagonal, as (value,
    weight) cells: c_i c_j on every cell, 0 unweighted."""
    v = f.vals.tolist()
    c = f.cnts.tolist() if f.counted and f.total != f.size else [0] * f.size
    return Counter((op(v[i], v[j]), c[i] * c[j]) for i in range(f.size) for j in range(i, f.size))


def _block_rows(blocks):
    """The rows of each block of a triangle whose row r holds r + 1 cells,
    the diagonal last, from the blocks' sizes.  A block must end where a
    row ends."""
    rows, r = [], 0
    for keys, _ in blocks:
        first, size = r, len(keys)
        while size > 0:
            r += 1
            size -= r
        assert size == 0, f"a block of {len(keys)} cells ends inside row {r - 1}"
        rows.append(r - first)
    return rows


def test_triangle_blocks_stay_within_chunk(monkeypatch):
    # rows of 1, 2, ..., 14 cells, diagonal included.  The keys are 32-bit,
    # so a block takes whole rows up to 2 * _CHUNK = 40 cells, two at a time
    # at _GROUP = 2: the blocks of 3 rows end mid-group.
    monkeypatch.setattr(_kernel, "_CHUNK", 20)
    monkeypatch.setattr(_kernel, "_GROUP", 2)
    f = _operand(range(-20, 22, 3), "weighted", [1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 2, 3, 4, 5])
    wbits = (9 * 9).bit_length()
    for additive, op in ((True, lambda a, b: a + b), (False, lambda a, b: a * b)):
        lo, hi = _kernel.grid_bounds(f.lo, f.hi, f.lo, f.hi, additive)
        dtype = _kernel.key_dtype(hi - lo, wbits)
        assert dtype is np.uint32 and _kernel.block_cells(dtype) == 40
        blocks = list(_kernel._row_blocks(f, f, additive, np.multiply, dtype, lo, wbits))
        assert [len(k) for k, _ in blocks] == [1 + 2 + 3 + 4 + 5 + 6 + 7 + 8, 9 + 10 + 11, 12 + 13 + 14]
        assert _block_rows(blocks) == [8, 3, 3]
        assert all(k.dtype == dtype and w is None for k, w in blocks)
        assert _cells(blocks, lo, wbits) == _triangle(f, op)


# Each self-pair's extremes -S and S set its key width: 32 bits, 64, or
# (weighted, 4 weight bits) 65 and more, where the values and weights of
# int64 cells go apart; unweighted grids stay at 64 there.
_TRIANGLE_EXTREMES = {True: {32: 1000, 64: 2**40, 65: 2**60}, False: {32: 1000, 64: 2**25, 65: 2**30}}


@pytest.mark.parametrize("rows", (3, 4, 5, 11))  # _GROUP - 1, _GROUP, _GROUP + 1, 2 _GROUP + 3
@pytest.mark.parametrize("chunk", (3, 12))
@pytest.mark.parametrize("kind", ("plain", "unit", "weighted"))
@pytest.mark.parametrize("additive", (True, False))
@pytest.mark.parametrize("width", (32, 64, 65))
def test_grouped_triangle(monkeypatch, rows, chunk, kind, additive, width):
    # groups of 4 rows, row r of r + 1 cells; at _CHUNK = 3 every triangle's
    # first block ends mid-group (of 2 or 3 rows) and its long rows are
    # blocks of one row past the budget, at 12 a block of 6 rows (32-bit
    # keys) holds a whole group and part of the next
    monkeypatch.setattr(_kernel, "_GROUP", 4)
    monkeypatch.setattr(_kernel, "_CHUNK", chunk)
    S = _TRIANGLE_EXTREMES[additive][width]
    f = _operand([-S, 0, S] + [3 * k * (-1) ** k for k in range(1, rows - 2)], kind, [1, 2, 3] * 4)
    weighted = kind == "weighted"
    lo, hi = _kernel.grid_bounds(f.lo, f.hi, f.lo, f.hi, additive)
    wbits = (3 * 3).bit_length() if weighted else 0
    dtype = _kernel.key_dtype(hi - lo, wbits)
    assert dtype is {32: np.uint32, 64: np.uint64, 65: None if weighted else np.uint64}[width]
    layout = (lo, wbits)
    if dtype is None:
        dtype, lo, wbits, layout = np.int64, 0, 0, (None, 0)
    blocks = list(_kernel._row_blocks(f, f, additive, np.multiply if weighted else None, dtype, lo, wbits))
    budget = _kernel.block_cells(dtype)
    assert all(len(k) <= budget or r == 1 for (k, _), r in zip(blocks, _block_rows(blocks)))
    assert sum(_block_rows(blocks)) == rows
    assert _cells(blocks, *layout) == _triangle(f, (lambda a, b: a + b) if additive else (lambda a, b: a * b))
    assert _content(_kernel._sort_count(f, f, additive)) == _content(_kernel._python(f, f, additive))


def _shape(name, n):
    """(first, ends) of ``_rows``' n-row shapes: a rectangle of 5 columns,
    the self-pair triangle, or the multiset rows of arity s = 2..5 (row k
    the (s - 1)-multisets of greatest index below k, then those of
    greatest index k)."""
    if name == "rectangle":
        return np.full(n, 5), np.full(n, 5)
    if name == "triangle":
        return np.arange(n), np.arange(1, n + 1)
    ends = _kernel._partials(np.arange(n), int(name[-1]) - 1, True)[2]
    return np.concatenate(([0], ends[:-1])), ends


def _literal_rows(planes, first, ends):
    """The cells of row k = 0, 1, ... of the planes (op, x, y, z), each as
    the tuple of its planes' values: op(x_k, y_j) for j < first[k], then
    op(x_k, z_j) for first[k] <= j < ends[k], cell by cell.  A plane's
    column weights (wy, wz), when it has them, are or-ed into its cells."""
    cells = [[] for _ in planes]
    for k in range(len(ends)):
        for plane, (op, x, y, z, *marks) in zip(cells, planes):
            wy, wz = marks or ([0] * len(y), [0] * len(z))
            plane += [op(x[k], y[j]) | wy[j] for j in range(first[k])]
            plane += [op(x[k], z[j]) | wz[j] for j in range(first[k], ends[k])]
    return Counter(zip(*(map(int, c) for c in cells)))


@pytest.mark.parametrize("group", (2, 3, 4))
@pytest.mark.parametrize("budget", (1, 3, 8, 40))
@pytest.mark.parametrize("shape", ("rectangle", "triangle", "multisets-2", "multisets-3", "multisets-4", "multisets-5"))
def test_rows_write_the_literal_cells(monkeypatch, group, budget, shape):
    # 9 rows; at a budget of 8 or 40 cells a block holds several groups of
    # 2-4 rows, at 1 or 3 the long rows are blocks of one row each
    monkeypatch.setattr(_kernel, "_GROUP", group)
    first, ends = _shape(shape, 9)
    width = ends[-1]
    rng = np.random.default_rng(group * 100 + budget)
    x, y, z = (np.int64(10**6) * rng.integers(1, 100, size) for size in (9, width, width))
    x += np.arange(9)  # a cell's key names its row and column: x_k + y_j
    y += np.arange(width) * 1000
    z += np.arange(width) * 1000 + 500
    planes = [(np.add, x, y, z), (np.multiply, *(rng.integers(1, 50, size) for size in (9, width, width)))]
    blocks = list(_kernel._rows(planes, first, ends, budget, 0))
    rows, r = [], 0  # the rows of each block, from its size
    for keys, weights in blocks:
        start, size = r, len(keys)
        while size > 0:
            size -= ends[r]
            r += 1
        assert size == 0 and len(weights) == len(keys)
        assert len(keys) <= budget or r - start == 1
        rows.append(r - start)
    assert sum(rows) == 9
    got = Counter(zip(*(np.concatenate(p).tolist() for p in zip(*blocks))))
    assert got == _literal_rows(planes, first, ends)
    # packed: unsigned keys less a base, and the weights of a second plane,
    # or a plane's column weights, or-ed into their low bits
    keys = [v.astype(np.uint64) << np.uint64(8) for v in (x, y, z)]
    marks = [rng.integers(0, 256, width).astype(np.uint64) for _ in "yz"]
    paired = (np.bitwise_or, *(v.astype(np.uint64) for v in planes[1][1:]))
    for packed in ([(np.add, *keys), paired], [(np.add, *keys, *marks)]):
        cells = _literal_rows(packed, first, ends).elements()
        want = Counter((c[0] - (3 << 8)) | (c[1] if len(c) > 1 else 0) for c in cells)
        packed_blocks = list(_kernel._rows(packed, first, ends, budget, np.uint64(3 << 8)))
        assert [len(k) for k, w in packed_blocks if w is None] == [len(k) for k, _ in blocks]
        assert Counter(np.concatenate([k for k, _ in packed_blocks]).tolist()) == want


@pytest.mark.parametrize("group", (2, 3, 4))
@pytest.mark.parametrize("chunk", (2, 16))
@pytest.mark.parametrize("s", (2, 3, 4, 5))
@pytest.mark.parametrize("additive", (True, False))
def test_multiset_rows_are_the_literal_tuples(monkeypatch, group, chunk, s, additive):
    # every unordered s-tuple of 8 values once, with weight s!/prod(m!), in
    # blocks of at most 2 * _CHUNK 32-bit keys (or one row) and groups of
    # at most _GROUP rows, several groups to a block at _CHUNK = 16
    vals = [-7, -3, -2, 1, 4, 5, 9, 11]
    base = _kernel.Weighted.indicator(vals, counted=True)
    monkeypatch.setattr(_kernel, "_MULTISET_FLOOR", 0)
    monkeypatch.setattr(_kernel, "_power_cells", lambda base, s, additive: math.inf)
    grid = _kernel.multisets(base, s, additive)
    monkeypatch.setattr(_kernel, "_GROUP", group)
    monkeypatch.setattr(_kernel, "_CHUNK", chunk)
    assert grid.dtype is np.uint32
    blocks = [keys for keys, _ in grid.blocks()]
    assert len(blocks) > 1 and all(k.dtype == np.uint32 for k in blocks)
    want = Counter()
    for t in combinations_with_replacement(vals, s):
        cell = sum(t) if additive else math.prod(t)
        want[cell, math.factorial(s) // math.prod(math.factorial(t.count(v)) for v in set(t))] += 1
    assert _cells([(k, None) for k in blocks], grid.lo, grid.wbits) == want
    assert grid.sum_squares() == _kernel.power(base, s, additive).sum_squares()


class _NeverNegative(np.ndarray):
    """int64 counts that fail the test the moment a ufunc leaves one of
    them negative: a count that passed 2^63 and wrapped.  Wrapping is
    exact modulo 2^64, so only the counts between steps can show it."""

    def __array_ufunc__(self, ufunc, method, *inputs, out=(), **kwargs):
        plain = [x.view(np.ndarray) if isinstance(x, _NeverNegative) else x for x in (*inputs, *out)]
        if out:
            kwargs["out"] = tuple(plain[len(inputs) :])
        result = getattr(ufunc, method)(*plain[: len(inputs)], **kwargs)
        for x in (*inputs, *out):
            if isinstance(x, _NeverNegative):
                assert x.view(np.ndarray).min() >= 0, f"{ufunc.__name__}.{method} wrapped a count"
        return out[0] if out else result


@pytest.mark.parametrize("additive", (True, False))
def test_self_pair_rule_stays_within_int64(monkeypatch, additive):
    # one count of 2^31: its diagonal cell weighs 2^62, while the total
    # 2^31 + 16 keeps total^2 below 2^63.  Doubling the count at 3 + 3 (or
    # 3 * 3 = -3 * -3) before its squares come off would pass 2^63.
    counts = [1] * 17
    counts[11] = 2**31
    f = _operand(range(-8, 9), "weighted", counts)
    assert f.max_count() ** 2 >= 2**62 and f.total**2 < _kernel._INT64_LIMIT
    merge = _kernel.merge_blocks

    def watched(*args):
        vals, cnts = merge(*args)
        return vals, cnts.view(_NeverNegative)

    monkeypatch.setattr(_kernel, "merge_blocks", watched)
    assert _content(_kernel._sort_count(f, f, additive)) == _content(_kernel._python(f, f, additive))


@pytest.mark.parametrize("self_pair", (False, True))
@pytest.mark.parametrize("wide", (False, True))
def test_block_budget_is_in_bytes(monkeypatch, self_pair, wide):
    # 120 cells against _CHUNK = 64: 32-bit keys merge them as one block,
    # with no merge of runs after it; 64-bit keys take two blocks or more
    monkeypatch.setattr(_kernel, "_CHUNK", 64)
    seen = []
    merge = _kernel._merge_equal
    monkeypatch.setattr(_kernel, "_merge_equal", lambda keys, *rest: seen.append(len(keys)) or merge(keys, *rest))
    base = (lambda i: 7**i) if wide else (lambda i: i * i)
    f = _operand([base(i) for i in range(15 if self_pair else 10)], "unit", None)
    g = f if self_pair else _operand([-(11**i if wide else 3 * i) for i in range(12)], "unit", None)
    out = _kernel._sort_count(f, g, True)
    assert _content(out) == _content(_kernel._python(f, _operand(g.vals.tolist(), "unit", None), True))
    if wide:
        assert len(seen) >= 2 and seen[0] <= 64
    else:
        assert seen == [120]


def _merge_reference(cells, reduce):
    """(sorted distinct values, the sum or the least of each one's weights)."""
    out = {}
    for v, w in cells:
        out[v] = w if v not in out else (out[v] + w if reduce is np.add else min(out[v], w))
    return sorted(out), [out[v] for v in sorted(out)]


_cell_values = st.one_of(st.integers(-50, 50), st.integers(-(2**62), 2**62 - 1))
_cell_weights = st.one_of(st.integers(0, 8), st.integers(0, 2**40))


@prop(300)
@given(
    cells=st.lists(st.tuples(_cell_values, _cell_weights), min_size=1, max_size=30),
    reduce=st.sampled_from((np.add, np.minimum)),
    unit=st.booleans(),
)
def test_merge_equal_sums_weights(cells, reduce, unit):
    # narrow spans with small weights sort 32- or 64-bit packed keys; the
    # rest argsort; weights None count the cells of each value, a sum of
    # unit weights
    unit = unit and reduce is np.add
    if unit:
        cells = [(v, 1) for v, _ in cells]
    keys, want = _merge_reference(cells, reduce)
    values, weights = (np.array(col, dtype=np.int64) for col in zip(*cells))
    vals, cnts = _kernel._merge_cells([values], [None if unit else weights], reduce)
    assert vals.tolist() == keys
    assert cnts.tolist() == want


@pytest.mark.parametrize("reduce", (np.add, np.minimum))
@pytest.mark.parametrize("wide", (False, True))
@prop(100)
@given(
    blocks=st.lists(st.lists(st.tuples(_cell_values, _cell_weights), min_size=1, max_size=6), min_size=1, max_size=40),
    unit=st.booleans(),
)
def test_merge_blocks_across_many_parts(monkeypatch, reduce, wide, blocks, unit):
    # int64 values, or (wide) object values past 2^64; no merge may hold
    # more than about twice the result and one block
    unit = unit and reduce is np.add
    if unit:
        blocks = [[(v, 1) for v, _ in b] for b in blocks]
    if wide:
        blocks = [[(v + 2**64, w) for v, w in b] for b in blocks]
    keys, want = _merge_reference([cell for b in blocks for cell in b], reduce)
    seen = []
    merge = _kernel._merge_cells
    monkeypatch.setattr(_kernel, "_merge_cells", lambda vals, *rest: seen.append(sum(map(len, vals))) or merge(vals, *rest))
    dtype = _kernel.exact_dtype(max(abs(v) for b in blocks for v, _ in b))
    arrays = (
        (np.array([v for v, _ in b], dtype=dtype), None if unit else np.array([w for _, w in b], dtype=np.int64))
        for b in blocks
    )
    vals, cnts = _kernel.merge_blocks(arrays, reduce)
    assert vals.tolist() == keys and cnts.tolist() == want
    assert vals.dtype == dtype and cnts.dtype == np.int64
    assert max(seen) <= 2 * len(keys) + max(map(len, blocks))


@pytest.mark.parametrize("self_pair", (False, True))
def test_sort_count_merges_stay_near_the_result(monkeypatch, self_pair):
    # blocks of a few cells over 24 x 24 (or 24 x 15) sums: 14 cells of
    # 32-bit keys, or 7 of 64-bit ones
    monkeypatch.setattr(_kernel, "_CHUNK", 7)
    seen = []
    merge = _kernel._merge_equal
    monkeypatch.setattr(_kernel, "_merge_equal", lambda keys, *rest: seen.append(len(keys)) or merge(keys, *rest))
    f = _operand([3**i for i in range(12)] + [-(5**i) for i in range(12)], "unit", None)
    g = f if self_pair else _operand([7**i for i in range(15)], "unit", None)
    out = _kernel._sort_count(f, g, True)
    assert _content(out) == _content(_kernel._python(f, _operand(g.vals.tolist(), "unit", None), True))
    assert len(seen) > 10 and max(seen) <= 2 * out.size + 14


# -- least levels over a self-pair grid ----------------------------------------

# (least, greatest) magnitude of the two extremes -a and b of each route's
# values, and the bound on the others: packed keys; int64 cells whose
# span and level bits pass 64 bits; cells past 2^63, Python ints.
_LEVEL_ROUTES = {
    (True, "packed"): (0, 1000),
    (False, "packed"): (0, 1000),
    (True, "unpacked"): (2**61, 2**62 - 1),
    (False, "unpacked"): (2**31, math.isqrt(2**63 - 1)),
    (True, "python"): (2**62, 2**70),
    (False, "python"): (2**32, 2**70),
}
_ROUTE_DTYPES = {"packed": (np.uint32, np.uint64), "unpacked": (np.int64,), "python": (object,)}


def _least_levels_reference(values, levels, op):
    """{x op y: least max(level_i, level_j)} over the literal triangle i <= j."""
    out = {}
    for i in range(len(values)):
        for j in range(i, len(values)):
            v, level = op(values[i], values[j]), max(levels[i], levels[j])
            out[v] = min(out.get(v, level), level)
    return out


@pytest.mark.parametrize("additive, route", sorted(_LEVEL_ROUTES))
@prop(80)
@given(data=st.data(), chunk=st.sampled_from([3, 1 << 19]))
def test_least_levels_match_the_triangle(monkeypatch, additive, route, data, chunk):
    monkeypatch.setattr(_kernel, "_CHUNK", chunk)
    least, most = _LEVEL_ROUTES[additive, route]
    ends = [-data.draw(st.integers(least, most)), data.draw(st.integers(least, most))]
    values = data.draw(st.permutations(ends + data.draw(st.lists(st.integers(-most, most), max_size=14))))
    k = data.draw(st.sampled_from([1, 2, 5, 200]))  # one level, ties, or mostly distinct ones
    levels = data.draw(st.lists(st.integers(0, k - 1), min_size=len(values), max_size=len(values)))
    seen, row_blocks = [], _kernel._row_blocks
    monkeypatch.setattr(_kernel, "_row_blocks", lambda *args: seen.append(args[4]) or row_blocks(*args))
    got = _kernel.least_levels(_array(values), np.array(levels, dtype=np.int64), additive)
    want = _least_levels_reference(values, levels, (lambda a, b: a + b) if additive else (lambda a, b: a * b))
    assert seen[0] in _ROUTE_DTYPES[route]
    assert got[0].tolist() == sorted(want)
    assert got[1].dtype == np.int64 and got[1].tolist() == [want[v] for v in sorted(want)]


# -- the keyed quotient arrays ------------------------------------------------


def _array(values):
    return np.array(values, dtype=_kernel.exact_dtype(max(map(abs, values))))


def _pairs(num, den):
    return list(zip(num.tolist(), den.tolist()))


def _reduced(fractions):
    return [(f.numerator, f.denominator) for f in fractions]


def _fold_fractions(A, m, n):
    num = [math.prod(t) for t in product(A, repeat=m)]
    den = [math.prod(t) for t in product(A, repeat=n)]
    return sorted({Fraction(p, q) for p in num for q in den})


near_2_62 = st.integers(2**62 - 40, 2**62 + 40)
quotient_values = st.one_of(
    st.integers(-50, 50), near_2_62, near_2_62.map(lambda v: -v), st.integers(-(2**70), 2**70)
)


@settings(max_examples=300, deadline=None)
@given(
    num=st.lists(quotient_values, min_size=1, max_size=12, unique=True),
    den=st.lists(quotient_values.filter(bool), min_size=1, max_size=12, unique=True),
)
@example(num=[0], den=[2**63])  # zero keys, yet a denominator past int64
@example(num=[0], den=[-(2**63) - 1, 5])
def test_quotients_match_fraction_reference(num, den):
    num, den = sorted(num), sorted(den)
    want = sorted({Fraction(p, q) for p in num for q in den})
    assert _pairs(*_quotient_arrays(_array(num), _array(den))) == _reduced(want)


def test_quotients_separate_farey_neighbours():
    # (q-1)/q and q/(q+1) differ by 1/(q(q+1)), just above 2^(-2b) for b = 63
    q = 2**63 - 2
    A = IntSet([q - 1, q, q + 1])
    got = _pairs(*iterated_product_set(A, 1, 1).arrays)
    want = sorted({Fraction(p, r) for p in A for r in A})
    assert got == _reduced(want) and (q - 1, q) in got and (q, q + 1) in got


@pytest.mark.parametrize("m, n", [(0, 1), (0, 2), (1, 1), (2, 1), (1, 2)])
def test_product_set_quotients_against_fractions(m, n):
    A = IntSet([-(2**63) - 5, -9, -2, 3, 7, 2**61 + 1, 2**62 + 3])
    assert list(iterated_product_set(A, m, n).elements) == _fold_fractions(A, m, n)


# signed, with +-(2^63 - 1): int64 values whose keys pass 2^63
@pytest.mark.parametrize("A", [[-9, -4, -1, 2, 3, 8], [1, 2, 3, 4, 6], [-(2**63 - 1), -3, 2, 2**63 - 1]])
@pytest.mark.parametrize("m, n", [(1, 0), (2, 0), (0, 1), (0, 2), (1, 1), (2, 1), (1, 2)])
def test_product_set_arrays_against_fractions(A, m, n):
    p, q = iterated_product_set(IntSet(A), m, n).arrays
    assert _pairs(p, q) == _reduced(_fold_fractions(A, m, n))


@settings(max_examples=150, deadline=None)
@given(
    A=st.lists(st.integers(-40, 40).filter(bool), min_size=1, max_size=7, unique=True),
    m=st.integers(0, 2),
    n=st.integers(0, 2),
)
def test_product_set_arrays_of_signed_sets(A, m, n):
    if m == n == 0:
        return
    assert _pairs(*iterated_product_set(IntSet(A), m, n).arrays) == _reduced(_fold_fractions(A, m, n))


def _key_dtypes(monkeypatch):
    """The (bound, dtype) of every choice ``_quotient_arrays`` makes."""
    seen, exact_dtype = [], _kernel.exact_dtype
    monkeypatch.setattr(_kernel, "exact_dtype", lambda bound: seen.append((bound, exact_dtype(bound))) or seen[-1][1])
    return seen


@pytest.mark.parametrize("top, dtype", [(2**61 - 1, np.int64), (2**61, object)])
def test_quotient_keys_switch_to_python_ints_at_2_63(monkeypatch, top, dtype):
    # den = {-1, 1} has bit length 1, so every key is p << 2: max |p| << 2
    # is 2^63 - 4, one step below 2^63, or 2^63 itself
    num, den = [-top, -5, 0, 3, top], [-1, 1]
    seen = _key_dtypes(monkeypatch)
    got = _quotient_arrays(np.array(num, dtype=np.int64), np.array(den, dtype=np.int64))
    assert seen == [(top << 2, dtype)]
    assert _pairs(*got) == _reduced(sorted({Fraction(p, q) for p in num for q in den}))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(b=st.integers(1, 5), data=st.data())
def test_quotient_keys_near_the_switch(monkeypatch, b, data):
    # with den of bit length b, max |p| = 2^(63 - 2b) is where the keys leave int64
    edge = 2 ** (63 - 2 * b)
    den = data.draw(st.lists(st.integers(-(2**b - 1), 2**b - 1).filter(bool), max_size=4, unique=True))
    den = sorted(set(den) | {data.draw(st.sampled_from([2**b - 1, -(2**b - 1)]))})
    near = st.integers(edge - 3, edge + 3)
    num = data.draw(st.lists(st.one_of(near, near.map(lambda v: -v), st.integers(-50, 50)), min_size=1, max_size=6, unique=True))
    num.sort()
    with monkeypatch.context() as patch:
        seen = _key_dtypes(patch)
        got = _quotient_arrays(np.array(num, dtype=np.int64), np.array(den, dtype=np.int64))
    assert seen[-1][1] == (np.int64 if max(map(abs, num)) < edge else object)
    assert _pairs(*got) == _reduced(sorted({Fraction(p, q) for p in num for q in den}))


# -- the natural choice -------------------------------------------------------


def _indicator(vals, counted=True):
    return _kernel.Weighted.indicator(tuple(sorted(vals)), counted)


def test_small_operands_stay_on_python():
    f = _indicator(range(16))
    assert _kernel.choose(f, f, True) is _kernel._python


def test_dense_and_sparse_choices():
    ap = _indicator(range(-500, 500, 3))
    sparse = _indicator([7**i for i in range(1, 22)])
    assert _kernel.choose(ap, ap, True) is _kernel._dense
    assert _kernel.choose(_indicator(range(-500, 500, 3), counted=False), ap, True) is _kernel._dense
    assert _kernel.choose(ap, ap, False) is _kernel._sort_count
    assert _kernel.choose(sparse, sparse, True) is _kernel._sort_count


@pytest.mark.parametrize(
    "top, additive, backend",
    [
        (2**61 - 1, True, "numpy"),
        (2**61, True, "python"),
        (2**31 - 1, False, "numpy"),
        (2**31, False, "python"),
    ],
)
def test_value_bound(top, additive, backend):
    # 2 * top (sums) or top * top (products) against 2**62
    vals = [-top] + [3**i for i in range(20)] + [top]
    f = _indicator(vals)
    chosen = _kernel.choose(f, f, additive)
    assert (chosen is _kernel._python) == (backend == "python")
    mode = ADDITIVE if additive else MULTIPLICATIVE
    op = (lambda a, b: a + b) if additive else (lambda a, b: a * b)
    assert rep_function(IntSet(vals), 2, mode).support == Counter(op(a, b) for a in vals for b in vals)


def test_count_bound():
    f = _indicator(range(0, 120, 3))
    f.total = 2**32
    assert _kernel.choose(f, f, True) is _kernel._python
    assert _kernel.choose(f, _indicator(range(40)), True) is not _kernel._python


@prop(40)
@given(
    vals=st.one_of(
        st.lists(st.integers(0, 120), min_size=20, max_size=40, unique=True),
        st.lists(st.integers(-(10**12), 10**12), min_size=20, max_size=40, unique=True),
    ),
    s=st.integers(2, 3),
)
def test_natural_choice_agrees_with_python(monkeypatch, vals, s):
    A = IntSet(vals)
    for mode in MODES:
        want = reference(monkeypatch, lambda: rep_function(A, s, mode))
        assert rep_function(A, s, mode).support == want.support
    want = reference(monkeypatch, lambda: iterated_sumset(A, 2, 1))
    assert iterated_sumset(A, 2, 1) == want


# the least int64 has no int64 negation; its neighbours and 2^63 itself
EDGES = (-(2**63) - 1, -(2**63), -(2**63) + 1, 2**63 - 1, 2**63)


@settings(max_examples=200, deadline=None)
@given(
    edges=st.lists(st.sampled_from(EDGES), min_size=1, max_size=3, unique=True),
    small=st.lists(st.integers(-9, 9), max_size=3, unique=True),
    m=st.integers(0, 2),
    n=st.integers(0, 2),
)
def test_sumsets_at_the_int64_edges(edges, small, m, n):
    if m == n == 0:
        return
    A = sorted(set(edges) | set(small))
    plus = {sum(t) for t in product(A, repeat=m)}
    minus = {sum(t) for t in product(A, repeat=n)}
    assert list(iterated_sumset(IntSet(A), m, n).elements) == sorted({p - q for p in plus for q in minus})


@pytest.mark.parametrize("vals", [[-(2**63) + 1, 2**63 - 1], [-(2**63), 0], [0, 2**63], [-(2**70), 2**70]])
def test_indicator_is_int64_exactly_below_magnitude_2_63(vals):
    w = _kernel.Weighted.indicator(vals, counted=True)
    assert w.vals.tolist() == vals and w.cnts.tolist() == [1, 1]
    assert w.vals.dtype == (np.int64 if max(map(abs, vals)) < 2**63 else object)


@pytest.mark.parametrize("bound, dtype", [(0, np.int64), (2**63 - 1, np.int64), (2**63, object), (2**200, object)])
def test_exact_dtype(bound, dtype):
    assert _kernel.exact_dtype(bound) is dtype


def test_sum_squares_beyond_int64():
    cnts = np.array([2**40, 3, 2**35], dtype=np.int64)
    w = _kernel.Weighted(np.arange(3, dtype=np.int64), cnts, int(cnts.sum()))
    assert w.sum_squares() == 2**80 + 9 + 2**70
    assert w.max_count() == 2**40


@pytest.mark.parametrize("n, s", [(100, 10), (30, 13)])
def test_mixed_energy_of_intervals_past_int64(n, s):
    # n^s >= 2^63 tuples a side: the halves' counts leave int64 on the Python
    # backend and ``inner`` sums their products.  The closed form counts the
    # 2s-tuples of [0, n) with x_1 + ... + x_s + (n-1-y_1) + ... = s(n-1).
    top = s * (n - 1)
    terms = ((-1) ** j * math.comb(2 * s, j) * math.comb(top - j * n + 2 * s - 1, 2 * s - 1) for j in range(top // n + 1))
    want = sum(terms)
    assert n**s >= 2**63
    assert mixed_energy([interval(n)] * (2 * s)).count == want


def test_python_counts_past_int64_are_objects():
    # 2^32 * 2^32 tuples: the Python backend's counts reach 2^63 and are held as Python ints
    f = _indicator([0, 1])
    f.total = 2**32
    f.cnts = np.array([2**31, 2**31], dtype=np.int64)
    out = _kernel.pair(f, f, True)
    assert out.total == 2**64 and out.cnts.dtype == object
    assert out.vals.tolist() == [0, 1, 2] and out.cnts.tolist() == [2**62, 2**63, 2**62]
    assert out.sum_squares() == 2 * 2**124 + 2**126 and out.max_count() == 2**63
    assert _kernel.inner(out, out) == out.sum_squares()


def test_support_is_built_lazily_and_equal():
    r = rep_function(IntSet(range(0, 600, 3)), 2)
    assert "support" not in vars(r)
    assert r.energy_count() == sum(c * c for c in r.support.values())
    assert r.support == Counter(a + b for a in range(0, 600, 3) for b in range(0, 600, 3))


def test_chain_r_s_is_rep_function():
    # signed, holding 0, and past 2^62, where q_s runs on exponent keys
    keyed = IntSet(7**25 * 2**i * 3**j for i in range(3) for j in range(3))
    for A in (IntSet([-4, 0, 1, 5, 9, 30]), IntSet([-7, -2, 0, 3, 11]), keyed):
        for mode in MODES:
            for s in (4, 6, 8):
                _, half, r_s = bsg._chain(A, s, mode)
                want = rep_function(A, s, mode)
                assert (r_s.s, half.s, r_s.codec) == (s, s // 2, half.codec)
                assert r_s.support == want.support
                assert (r_s.total(), r_s.energy_count(), r_s.sup()) == (want.total(), want.energy_count(), want.sup())
    assert bsg._chain(keyed, 4, MULTIPLICATIVE)[2].codec is not None


# -- the dense backend's slots ------------------------------------------------
#
# The dense product packs each line into one int, a coefficient to a slot of
# 8, 16, 32 or 64 bits.  A slot one bit too narrow carries into the next, so
# each case sits just below or at 2^8, 2^16 or 2^32: at 2^k the bound, and
# where marked the largest coefficient, is 2^k itself.


def _counted(vals, cnts):
    return _kernel.Weighted(np.array(vals, dtype=np.int64), np.array(cnts, dtype=np.int64), sum(cnts))


def _twin(w):
    """An operand equal to ``w`` that is not ``w``, so no self-pair rule applies."""
    return _kernel.Weighted(w.vals.copy(), None if w.cnts is None else w.cnts.copy(), w.total)


def _slot_cases(bits):
    """(name, f, g, bound, attained) for counted pairs whose coefficient bound
    is 2^bits - 1 or 2^bits."""
    half = bits // 2
    for bound in (2**bits - 1, 2**bits):
        # one point against a counted g: its coefficients are g's counts
        g = _counted([-4, 2, 11, 14], [1, bound, 2, 1])
        yield "point", _counted([5], [1]), g, bound, True
    # total * max = (2^half + 1)(2^half - 1); the diagonal cell holds max²
    below = _counted([-3, 0, 6], [2**half - 1, 1, 1])
    # four points of an AP, each 2^(half-1): total * max = 2^bits, the middle coefficient
    at = _counted([-6, -3, 0, 3], [2 ** (half - 1)] * 4)
    for f, bound, attained in ((below, 2**bits - 1, False), (at, 2**bits, True)):
        yield "self", f, f, bound, attained
        yield "twin", f, _twin(f), bound, attained


def _same_as_python(f, g):
    want, got = _kernel._python(f, g, True), _kernel._dense(f, g, True)
    assert got.vals.dtype == want.vals.dtype and got.vals.tolist() == want.vals.tolist()
    assert (got.total, got.lo, got.hi) == (want.total, want.lo, want.hi)
    if want.cnts is None:
        assert got.cnts is None
    else:
        assert got.cnts.dtype == want.cnts.dtype and got.cnts.tolist() == want.cnts.tolist()
    return got


@pytest.mark.parametrize("bits", [8, 16, 32])
def test_dense_counted_slot_boundaries(bits):
    for name, f, g, bound, attained in _slot_cases(bits):
        width = bits if bound < 2**bits else 2 * bits
        assert _kernel._slot_dtype(bound).itemsize * 8 == width, name
        got = _same_as_python(f, g)
        assert max(got.cnts.tolist()) <= bound
        if attained:
            assert max(got.cnts.tolist()) == bound, name


@pytest.mark.parametrize("n", [2**8 - 1, 2**8])
def test_dense_plain_slot_boundary_at_2_8(n):
    # plain lines bound a coefficient by the smaller size, attained in the middle of [0, n) + [0, n)
    f = _indicator(range(0, 3 * n, 3), counted=False)
    for g in (f, _twin(f), _indicator(range(-5, 3 * n - 5, 3), counted=False)):
        _same_as_python(f, g)
    assert _kernel._slot_dtype(n).itemsize == (1 if n < 2**8 else 2)


@pytest.mark.parametrize("n", [2**16 - 1, 2**16])
def test_dense_plain_slot_boundary_at_2_16(n):
    # the Python pass would take 2^32 pairs: an interval's sumset is known
    f = _indicator(range(n), counted=False)
    for g in (f, _twin(f)):
        got = _kernel._dense(f, g, True)
        assert got.cnts is None and got.vals.dtype == np.int64
        assert np.array_equal(got.vals, np.arange(2 * n - 1))
    assert _kernel._slot_dtype(n).itemsize == (2 if n < 2**16 else 4)


def test_dense_slots_at_2_63():
    # the widest count choose lets through: total * total just below 2^63
    f = _counted([0, 1], [2**30, 2**30 + 1])
    g = _counted([0, 5, 7], [2**31 - 2, 1, 2])
    assert f.total * g.total < 2**63
    assert _kernel._slot_dtype(min(f.total * g.max_count(), g.total * f.max_count())) == np.dtype("<u8")
    _same_as_python(f, g)
    _same_as_python(f, f)


# -- the oracle stays independent ---------------------------------------------


def test_oracle_does_not_use_the_kernel(monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("the kernel was called")

    for name in ("power", "pair", "choose", "inner"):
        monkeypatch.setattr(_kernel, name, broken)
    with pytest.raises(AssertionError):
        energy(IntSet([1, 2, 3]), 2)
    assert energy_oracle(IntSet([1, 2, 3]), 2).count == 19
    assert energy_oracle(IntSet([1, 2, 4]), 2, MULTIPLICATIVE).count == 19
    # int64 sums of any size take the numpy batches; past 2^62, the nested loop
    A = list(range(1, 9))
    hand = sum(1 for t in product(A, repeat=6) if sum(t[:3]) == sum(t[3:]))
    assert energy_oracle(IntSet(A), 3).count == hand
    assert energy_oracle(IntSet([-(2**62), 0, 2**62]), 2).count == 19
    for fn in (energy_oracle, _numpy_oracle, _python_oracle):
        assert "_kernel" not in inspect.getsource(fn)
