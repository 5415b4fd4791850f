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
from itertools import product

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
from energia.sets import (
    IntSet,
    interval,
    iterated_product_set,
    iterated_sumset,
    product_set_arrays,
    quotient_arrays,
)

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
def test_self_pair_equals_pair_with_a_copy(monkeypatch, name, additive, kind, vals, counts, chunk):
    # f * f skips the symmetric half; f * (a copy of f) sorts the whole grid
    monkeypatch.setattr(_kernel, "_CHUNK", chunk)
    f, g = _operand(vals, kind, counts), _operand(vals, kind, counts)
    if name == "dense" and not (additive and _short_lines(f, g)):
        return
    backend = BACKENDS[name]
    want = _content(_kernel._python(f, g, additive))
    assert _content(backend(f, g, additive)) == want
    assert _content(backend(f, f, additive)) == want
    assert _content(_kernel.pair(f, f, additive)) == want


def test_triangle_blocks_stay_within_chunk(monkeypatch):
    # rows of 14, 13, ..., 1 cells, diagonal included; a block takes whole
    # rows up to 20 cells
    monkeypatch.setattr(_kernel, "_CHUNK", 20)
    f = _operand(range(0, 40, 3), "weighted", [1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 2, 3, 4, 5])
    blocks = list(_kernel._row_blocks(f, f, True, True))
    assert [len(v) for v, _ in blocks] == [14, 13, 12, 11, 10 + 9, 8 + 7, 6 + 5 + 4 + 3 + 2, 1]
    # an off-diagonal cell weighs 2 c_i c_j, a diagonal one c_i^2
    v, c = f.vals.tolist(), f.cnts.tolist()
    want = Counter((v[i] + v[j], (1 + (i < j)) * c[i] * c[j]) for i in range(14) for j in range(i, 14))
    cells = zip(np.concatenate([v for v, _ in blocks]).tolist(), np.concatenate([w for _, w in blocks]).tolist())
    assert Counter(cells) == want


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
    # narrow spans with small weights sort packed keys; the rest argsort;
    # weights None count the cells of each value, a sum of unit weights
    unit = unit and reduce is np.add
    if unit:
        cells = [(v, 1) for v, _ in cells]
    keys, want = _merge_reference(cells, reduce)
    values, weights = (np.array(col, dtype=np.int64) for col in zip(*cells))
    vals, cnts = _kernel._merge_equal(values, None if unit else weights, True, reduce)
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
    merge = _kernel._merge_equal
    monkeypatch.setattr(_kernel, "_merge_equal", lambda values, *rest: seen.append(len(values)) or merge(values, *rest))
    dtype = _kernel.exact_dtype(max(abs(v) for b in blocks for v, _ in b))
    arrays = (
        (np.array([v for v, _ in b], dtype=dtype), None if unit else np.array([w for _, w in b], dtype=np.int64))
        for b in blocks
    )
    vals, cnts = _kernel.merge_blocks(arrays, True, reduce)
    assert vals.tolist() == keys and cnts.tolist() == want
    assert vals.dtype == dtype and cnts.dtype == np.int64
    assert max(seen) <= 2 * len(keys) + max(map(len, blocks))


@pytest.mark.parametrize("self_pair", (False, True))
def test_sort_count_merges_stay_near_the_result(monkeypatch, self_pair):
    # blocks of a few cells over 24 x 24 (or 24 x 15) sums
    monkeypatch.setattr(_kernel, "_CHUNK", 7)
    seen = []
    merge = _kernel._merge_equal
    monkeypatch.setattr(_kernel, "_merge_equal", lambda values, *rest: seen.append(len(values)) or merge(values, *rest))
    f = _operand([3**i for i in range(12)] + [-(5**i) for i in range(12)], "unit", None)
    g = f if self_pair else _operand([7**i for i in range(15)], "unit", None)
    out = _kernel._sort_count(f, g, True)
    assert _content(out) == _content(_kernel._python(f, _operand(g.vals.tolist(), "unit", None), True))
    assert len(seen) > 10 and max(seen) <= 2 * out.size + 7


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
    assert _pairs(*quotient_arrays(_array(num), _array(den))) == _reduced(want)


def test_quotients_separate_farey_neighbours():
    # (q-1)/q and q/(q+1) differ by 1/(q(q+1)), just above 2^(-2b) for b = 63
    q = 2**63 - 2
    A = IntSet([q - 1, q, q + 1])
    got = _pairs(*product_set_arrays(A, 1, 1))
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
    p, q = product_set_arrays(IntSet(A), m, n)
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
    assert _pairs(*product_set_arrays(IntSet(A), m, n)) == _reduced(_fold_fractions(A, m, n))


def _key_dtypes(monkeypatch):
    """The (bound, dtype) of every choice ``quotient_arrays`` makes."""
    seen, exact_dtype = [], _kernel.exact_dtype
    monkeypatch.setattr(_kernel, "exact_dtype", lambda bound: seen.append((bound, exact_dtype(bound))) or seen[-1][1])
    return seen


@pytest.mark.parametrize("top, dtype", [(2**61 - 1, np.int64), (2**61, object)])
def test_quotient_keys_switch_to_python_ints_at_2_63(monkeypatch, top, dtype):
    # den = {-1, 1} has bit length 1, so every key is p << 2: max |p| << 2
    # is 2^63 - 4, one step below 2^63, or 2^63 itself
    num, den = [-top, -5, 0, 3, top], [-1, 1]
    seen = _key_dtypes(monkeypatch)
    got = quotient_arrays(np.array(num, dtype=np.int64), np.array(den, dtype=np.int64))
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
        got = quotient_arrays(np.array(num, dtype=np.int64), np.array(den, dtype=np.int64))
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
