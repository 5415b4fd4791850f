"""Exponent keys (``energia._keys``) against the value path.

Multiplicative work on a positive set whose products could reach 2^62
(``_keys.codec_for``) runs on int64 exponent keys over a coprime base:
a ``RepFunction`` with a codec holds its counts over keys, and the
pipeline grids add keys.  Each test here runs the same computation a
second time with ``_keys.encode`` replaced by a function that always
declines, which sends it down the value path, and asks for identical
results.  The sets are small random bases times
cofactors: 1, generators that share prime factors, and dilations that
push every product past 2^62.
"""

import math
import sys
from itertools import combinations_with_replacement
from math import prod

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from energia import _kernel, _keys, bsg
from energia.decomposer import DecomposeConfig, decompose
from energia.energy import MULTIPLICATIVE, energy, energy_oracle, rep_function
from energia.sets import IntSet

# 4, 6, 10, 12, 15 and 35 share primes with 2, 3, 5 and 7; 2^31 - 1 is
# prime and 2^32 + 1 = 641 * 6700417
GENERATORS = (2, 3, 4, 5, 6, 7, 10, 12, 15, 35, 2**31 - 1, 2**32 + 1)
# 7^25 > 2^70 and 3^40 > 2^63 take every product past 2^62; 6 and 35
# share primes with the generators
DILATIONS = (1, 6, 35, 7**25, 3**40, 2**64 + 13)


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
    assert codec.decode(codec.keys, object).tolist() == vals
    keys = dict(zip(vals, codec.keys.tolist()))
    for r in range(2, arity + 1):  # every product of up to ``arity`` elements
        for tup in list(combinations_with_replacement(vals, r))[:50]:
            key = np.array([sum(keys[x] for x in tup)], dtype=np.int64)
            assert codec.decode(key, object)[0] == prod(tup)


def test_refinement_splits_a_shared_factor():
    vals = sorted({6 * 2**i * 3**j for i in range(5) for j in range(5)} | {6 * v for v in range(1, 17)})
    codec = _keys.encode(vals, 4)
    assert sorted(codec.base) == [2, 3, 5, 7, 11, 13]
    assert codec.decode(codec.keys, object).tolist() == vals
    assert _keys.encode([1], 3).keys.tolist() == [0]


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
    assert spans and all(len(t) <= bsg._TABLE + 1 for t in tables)
    # every grid below the cap reads a table, and no wider one does
    assert len(tables) == sum(span < bsg._TABLE for span in spans)
    assert any(span >= bsg._TABLE for span in spans) == wide
