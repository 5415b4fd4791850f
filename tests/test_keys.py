"""Exponent keys (``energia._keys``) against the value path.

Multiplicative work on a positive set whose products could reach 2^62
(``_keys.codec_for``) runs on int64 exponent keys over a coprime base:
a ``RepFunction`` with a codec holds its counts over keys, and the
pipeline grids add keys.  Each test here runs the same computation a
second time with ``_keys.encode`` replaced by a function that always
declines, which sends it down the value path, and asks for identical
results.  The sets are small random bases times
cofactors: 1, generators that share prime factors, and dilations that
push every product past 2^62.  ``encode`` itself, an array pass, is
checked against ``keys_reference.encode``, the pass over the elements in
turn, ``Codec`` for ``Codec``.
"""

import math
import sys
from itertools import combinations_with_replacement
from math import prod

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from energia import _kernel, _keys, bsg
from energia.decomposer import DecomposeConfig, decompose
from energia.energy import MULTIPLICATIVE, energy, energy_oracle, rep_function
from energia.sets import IntSet
import keys_reference

# 4, 6, 10, 12, 15 and 35 share primes with 2, 3, 5 and 7; 2^31 - 1 is
# prime and 2^32 + 1 = 641 * 6700417
GENERATORS = (2, 3, 4, 5, 6, 7, 10, 12, 15, 35, 2**31 - 1, 2**32 + 1)
# 7^25 > 2^70 and 3^40 > 2^63 take every product past 2^62; 6 and 35
# share primes with the generators
DILATIONS = (1, 6, 35, 7**25, 3**40, 2**64 + 13)


PRIMES = [p for p in range(3, 20000, 2) if all(p % q for q in range(3, int(p**0.5) + 1, 2))]


@st.composite
def keyed_sets(draw, max_size=7):
    gens = draw(st.lists(st.sampled_from(GENERATORS), min_size=1, max_size=3, unique=True))
    c = draw(st.sampled_from(DILATIONS))
    exps = st.tuples(*[st.integers(0, 4) for _ in gens])
    vals = {c * prod(g**e for g, e in zip(gens, ex)) for ex in draw(st.lists(exps, min_size=1, max_size=max_size))}
    if draw(st.booleans()):
        vals.add(1)
    return sorted(vals)


def prop(examples):
    return settings(max_examples=examples, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def by_value(monkeypatch, fn):
    """fn() with the key form declined everywhere."""
    with monkeypatch.context() as m:
        m.setattr(_keys, "encode", lambda elements, arity: None)
        return fn()


# -- the codec ----------------------------------------------------------------


@prop(300)
@given(vals=keyed_sets(), arity=st.integers(1, 6))
def test_base_is_coprime_and_keys_decode(vals, arity):
    codec = _keys.encode(vals, arity)
    if codec is None:
        return
    assert all(p > 1 for p in codec.base)
    assert all(math.gcd(p, q) == 1 for i, p in enumerate(codec.base) for q in codec.base[i + 1 :])
    assert prod(codec.radices) < 2**62
    assert codec.values(codec.keys, 1).tolist() == vals
    keys = dict(zip(vals, codec.keys.tolist()))
    for r in range(2, arity + 1):  # every product of up to ``arity`` elements
        for tup in list(combinations_with_replacement(vals, r))[:50]:
            key = np.array([sum(keys[x] for x in tup)], dtype=np.int64)
            assert codec.values(key, r)[0] == prod(tup)


def test_refinement_splits_a_shared_factor():
    vals = sorted({6 * 2**i * 3**j for i in range(5) for j in range(5)} | {6 * v for v in range(1, 17)})
    codec = _keys.encode(vals, 4)
    assert sorted(codec.base) == [2, 3, 5, 7, 11, 13]
    assert codec.values(codec.keys, 1).tolist() == vals
    assert _keys.encode([1], 3).keys.tolist() == [0]


def test_radix_product_refuses_after_the_pass():
    # ten primes keep (arity + 1)^|base| = 9^10 below 2^62 through the pass,
    # but p^40 sets every radix to 8 * 40 + 1, and 321^10 >= 2^62
    P = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert 9 ** len(P) < _kernel._VALUE_LIMIT <= 321 ** len(P)
    assert _keys.encode(sorted(set(P) | {p**40 for p in P}), 8) is None


def test_wide_base_falls_back_within_linear_gcds(monkeypatch):
    calls = []

    def counting_gcd(a, b):
        calls.append(1)
        return math.gcd(a, b)

    monkeypatch.setattr(_keys, "gcd", counting_gcd)
    primes = [p for p in range(3, 20000, 2) if all(p % q for q in range(3, int(p**0.5) + 1, 2))]
    counts = []
    for n in (200, 400, 800):
        calls.clear()
        assert _keys.encode([2**40 * p for p in primes[:n]], 4) is None
        counts.append(len(calls))
    # after k elements the base is {2^40, p_1, ..., p_k}, each of radix 5, so
    # the span 5^(k+1) passes 2^62 at the 26th element, whatever the length
    # of the set, and each element costs about one gcd per base element
    assert counts[0] == counts[1] == counts[2] <= 26 * 27
    assert rep_function(IntSet(2**40 * p for p in primes[:30]), 4, MULTIPLICATIVE).codec is None


def test_wide_base_divides_as_many_remainders_whatever_the_length(monkeypatch):
    divided = []
    exponents = _keys._exponents
    monkeypatch.setattr(_keys, "_exponents", lambda values, p: divided.append(values.size) or exponents(values, p))
    counts = []
    for n in (200, 400, 800):
        divided.clear()
        assert _keys.encode([2**40 * p for p in PRIMES[:n]], 4) is None
        counts.append(sum(divided))
    # the pass stops at the 26th element, within the first block, and each
    # refinement divides at most that block's remainders by its new pieces:
    # three at the second element (2^40, 3 and 5), one at each other
    assert counts[0] == counts[1] == counts[2] <= 28 * _keys._BLOCK


# -- the array pass against the pass over the elements in turn -------------------


def same_codec(got, want):
    if got is None or want is None:
        return got is want
    fields = lambda c: (c.base, c.radices, c.places, c.hi, c.keys.dtype, c.keys.tolist())
    return fields(got) == fields(want)


@st.composite
def grids(draw):
    """{c 2^(64+i) 3^j : i < ni, j < nj}, the M2-grid sets of the benchmark."""
    ni, nj, shift = draw(st.integers(1, 20)), draw(st.integers(1, 20)), draw(st.integers(0, 32))
    c = draw(st.integers(1, 10**6))
    return sorted(c * 2 ** (64 + shift + i) * 3**j for i in range(ni) for j in range(nj))


@st.composite
def prime_sets(draw):
    """A dilation of up to 80 odd primes, a base wide enough to stop the pass."""
    c = draw(st.sampled_from(DILATIONS + (2**40,)))
    return sorted(c * p for p in draw(st.lists(st.sampled_from(PRIMES[:120]), min_size=1, max_size=80, unique=True)))


# up to 125 elements: past the first block, so later blocks replay the pieces
@prop(300)
@given(vals=st.one_of(keyed_sets(), keyed_sets(max_size=150), grids(), prime_sets()), arity=st.integers(1, 8))
def test_encode_matches_the_pass_over_the_elements_in_turn(vals, arity):
    assert same_codec(_keys.encode(vals, arity), keys_reference.encode(vals, arity))


# the benchmark's M2-grid shapes and decompose inputs (p, q, ni, nj, m)
@pytest.mark.parametrize("arity", (2, 4))
@pytest.mark.parametrize("c", (1, 7919, 11964 * 2**80))
@pytest.mark.parametrize(
    "p, q, ni, nj, m",
    [(2, 3, 16, 16, 0), (2, 3, 20, 20, 0)] + [(2, 3, 5, 5, 16), (2, 7, 5, 5, 16), (3, 5, 5, 4, 16)]
    + [(2, 3, 5, 4, 24), (2, 5, 4, 5, 20), (2, 5, 5, 5, 16)],
)
def test_encode_matches_the_reference_on_benchmark_shapes(p, q, ni, nj, m, c, arity):
    vals = sorted({c * p**i * q**j for i in range(ni) for j in range(nj)} | {c * v for v in range(1, m + 1)})
    assert same_codec(_keys.encode(vals, arity), keys_reference.encode(vals, arity))


# values of four small primes, times a cofactor past 2^64 prime to them, and
# pieces p of the same primes: p may divide a value, or share only some of
# its factors with it (6 and 10)
smooth = st.tuples(*[st.integers(0, 12)] * 4).map(lambda ex: prod(q**e for q, e in zip((2, 3, 5, 7), ex)))


@prop(300)
@given(values=st.lists(smooth, min_size=1, max_size=40), p=smooth.filter(lambda p: p > 1), big=st.booleans())
def test_exponents_match_division_in_turn(values, p, big):
    if big:
        values = [v * (2**64 + 13) for v in values]
    e, rest = _keys._exponents(np.array(values, dtype=_kernel.exact_dtype(max(values))), p)
    want = [_keys._divide(v, [p]) for v in values]
    assert e.tolist() == [vec.get(p, 0) for vec, _ in want]
    assert rest.tolist() == [r for _, r in want]


# -- q_s and M_s ---------------------------------------------------------------


@prop(120)
@given(vals=keyed_sets(), s=st.integers(1, 6))
def test_q_s_and_M_s_match_the_value_path(monkeypatch, vals, s):
    A = IntSet(vals)
    got = rep_function(A, s, MULTIPLICATIVE)
    want = by_value(monkeypatch, lambda: rep_function(A, s, MULTIPLICATIVE))
    assert want.codec is None
    if s > 1 and vals[-1] ** s >= 2**62 and _keys.encode(vals, s) is not None:
        assert got.codec is not None
    assert got.energy_count() == want.energy_count() == energy(A, s, MULTIPLICATIVE).count
    assert got.sup() == want.sup()
    assert got.support == want.support
    assert got.by_value[0].tolist() == sorted(want.support)


@prop(60)
@given(vals=keyed_sets(max_size=4), s=st.integers(1, 3))
def test_M_s_matches_the_oracle_past_2_62(vals, s):
    A = IntSet([7**25 * v for v in vals])
    if len(A) ** (2 * s) > 20000:
        return
    assert energy(A, s, MULTIPLICATIVE).count == energy_oracle(A, s, MULTIPLICATIVE).count


# -- dilations ------------------------------------------------------------------

# 2^31 + 11 is prime, and 3037000493 < 2^31.5 < 3037000507 are the primes
# on either side of sqrt(2^63): over {1}, their squares sit just below
# and just above 2^63
NEAR_2_63 = (3037000493, 3037000507)
dilations = st.one_of(
    st.sampled_from((2, 3, 5, 7, 11)),
    st.sampled_from((2**31 + 11,) + NEAR_2_63),
    st.integers(1, 10**6).map(lambda c: c << 64),
)


@prop(200)
@given(vals=st.sets(st.integers(1, 60), min_size=1, max_size=6).map(sorted), lam=dilations, s=st.integers(1, 4))
@example(vals=[1], lam=NEAR_2_63[0], s=2)
@example(vals=[1], lam=NEAR_2_63[1], s=2)
@example(vals=[1, 2], lam=2**31 + 11, s=2)
def test_dilations_share_keys_and_energies(vals, lam, s):
    # M_s(lam A) = M_s(A); A stays on values, and lam A moves to keys once
    # its s-fold products could reach 2^62
    dilated = [lam * v for v in vals]
    keyed = s > 1 and dilated[-1] ** s >= 2**62
    codec, g = _keys.codec_for(dilated, s), math.gcd(*vals)
    assert (codec is not None) == keyed
    if keyed:
        want = _keys.encode([v // g for v in vals], s)
        assert (codec.base, codec.radices, codec.keys.tolist()) == (want.base, want.radices, want.keys.tolist())
        assert (codec.g, codec.hi) == (lam * g, dilated[-1])
    A, lamA = IntSet(vals), IntSet(dilated)
    assert energy(lamA, s, MULTIPLICATIVE).count == energy(A, s, MULTIPLICATIVE).count
    # q_s(lam A) is q_s(A) at lam^s times the values, in int64 while they fit
    got, want = rep_function(lamA, s, MULTIPLICATIVE), rep_function(A, s, MULTIPLICATIVE)
    assert (got.codec is not None) == keyed and want.codec is None
    (gv, gc, _), (wv, wc, _) = got.by_value, want.by_value
    assert gv.tolist() == [lam**s * v for v in wv.tolist()] and gc.tolist() == wc.tolist()
    assert gv.dtype == (np.int64 if dilated[-1] ** s < 2**63 else object)


# -- the pipeline grids -------------------------------------------------------


def _pieces(vals, data):
    """The q_2 support of vals and q_4 = q_2 * q_2, on keys, as the
    pipeline builds them, with a random subset of each: (values, keys)
    pairs."""
    _, half, full = bsg._chain(IntSet(vals), 4, MULTIPLICATIVE)
    pick = lambda n: sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n)))
    X, Y = pick(half.counts.size), pick(half.counts.size)
    S = np.array(pick(full.counts.size))
    hv, _, hk = half.by_value
    return (hv[X], hk[X]), (hv[Y], hk[Y]), (full.values_at(S), full.counts.vals[S])


@prop(100)
@given(vals=keyed_sets(), data=st.data())
def test_membership_on_keys_matches_values(vals, data):
    if _keys.codec_for(vals, 4) is None:
        return
    (xv, xk), (yv, yk), (sv, sk) = _pieces(vals, data)
    want = bsg._membership(xv.tolist(), yv.tolist(), sorted(sv.tolist()), False)
    assert np.array_equal(bsg._membership(xk, yk, sk, True), want)


@prop(100)
@given(vals=keyed_sets(), data=st.data())
def test_nested_spans_on_keys_match_values(vals, data):
    if _keys.codec_for(vals, 4) is None:
        return
    (pv, pk), _, _ = _pieces(vals, data)
    k = data.draw(st.integers(1, len(pv)))  # levels 0..k-1, each taken
    extra = data.draw(st.lists(st.integers(0, k - 1), min_size=len(pv) - k, max_size=len(pv) - k))
    level = np.array(data.draw(st.permutations(list(range(k)) + extra)))
    assert bsg._nested_spans(pk, level, True) == bsg._nested_spans(pv.tolist(), level, False)


def _run(A, s, mode):
    res = bsg.kp_pipeline(A, s, 0.05, mode=mode, energy_mode=MULTIPLICATIVE)
    return res.branch, str(res.nu), res.A_prime, res.anchor_sum, res.trace, res.checks, res.stage_stats


@prop(40)
@given(vals=keyed_sets(max_size=9), s=st.sampled_from((4, 6)), mode=st.sampled_from((bsg.CALIBRATED, bsg.PAPER)))
def test_kp_pipeline_on_keys_matches_values(monkeypatch, vals, s, mode):
    if len(vals) < 2:
        return
    A = IntSet(vals)
    assert _run(A, s, mode) == by_value(monkeypatch, lambda: _run(A, s, mode))


@pytest.mark.parametrize("s", (4, 6))
def test_kp_pipeline_takes_the_key_path(monkeypatch, s):
    A = IntSet(sorted({35 * 3**i * 5**j for i in range(4) for j in range(4)} | {35 * v for v in range(1, 9)}))
    seen = []
    chain = bsg._chain
    monkeypatch.setattr(bsg, "_chain", lambda *args: seen.append(chain(*args)) or seen[-1])
    got = _run(A, s, bsg.CALIBRATED)
    shifts, half, r_s = seen[0]
    assert half.codec is not None
    assert shifts.codec is half.codec is r_s.codec
    assert got == by_value(monkeypatch, lambda: _run(A, s, bsg.CALIBRATED))


# (p, q, ni, nj, m): the decompose inputs {c p^i q^j} | c [m] of the
# benchmark's certify-mix workload, whose q_4 values pass 2^63
@pytest.mark.parametrize("p, q, ni, nj, m", [(2, 3, 5, 5, 16), (2, 7, 5, 5, 16), (3, 5, 5, 4, 16)])
def test_decompose_pipeline_grids_stay_int64(monkeypatch, p, q, ni, nj, m):
    c = 7919
    A = IntSet({c * p**i * q**j for i in range(ni) for j in range(nj)} | {c * v for v in range(1, m + 1)})
    dtypes = []
    exact = _kernel.exact_dtype

    def spy(bound):
        # the grids, not the values decoded from keys, which may be Python ints
        if sys._getframe(1).f_globals["__name__"] != _keys.__name__:
            dtypes.append(np.dtype(exact(bound)))
        return exact(bound)

    monkeypatch.setattr(_kernel, "exact_dtype", spy)
    d = decompose(A, DecomposeConfig(k=1.5, s=2, q=4))
    assert d.iterations_used >= 1
    assert dtypes and set(dtypes) == {np.dtype(np.int64)}


# the same inputs and three more of the workload; at c = 7919 the last
# two build grids whose S spans more key values than bsg._TABLE
@pytest.mark.parametrize(
    "p, q, ni, nj, m, wide",
    [
        (2, 3, 5, 5, 16, False),
        (2, 7, 5, 5, 16, False),
        (3, 5, 5, 4, 16, False),
        (2, 5, 5, 5, 16, False),
        (2, 3, 5, 4, 24, True),
        (2, 5, 4, 5, 20, True),
    ],
)
def test_decompose_membership_tables_stay_under_the_cap(monkeypatch, p, q, ni, nj, m, wide):
    # a membership table costs a byte per value of S's span: the cap keeps
    # the decompose pipeline's peak memory where the searches had it
    c = 7919
    A = IntSet({c * p**i * q**j for i in range(ni) for j in range(nj)} | {c * v for v in range(1, m + 1)})
    spans, tables = [], []
    membership, table = bsg._membership, bsg._table

    def spy(X, Y, S, add):
        spans.append(int(S[-1]) - int(S[0]))
        return membership(X, Y, S, add)

    monkeypatch.setattr(bsg, "_membership", spy)
    monkeypatch.setattr(bsg, "_table", lambda S: tables.append(table(S)) or tables[-1])
    decompose(A, DecomposeConfig(k=1.5, s=2, q=4))
    assert spans and all(len(t) <= bsg._TABLE + 2 for t in tables)
    # every grid below the cap reads a table, and no wider one does
    assert len(tables) == sum(span < bsg._TABLE for span in spans)
    assert any(span >= bsg._TABLE for span in spans) == wide
