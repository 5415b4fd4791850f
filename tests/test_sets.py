import json
import random
from fractions import Fraction
from itertools import product
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from energia import _kernel, cli
from energia.errors import (
    BadParamsError,
    DivisionByZeroElementError,
    EmptySetError,
    ZeroArityError,
)
from energia.sets import (
    IntSet,
    RatSet,
    ap,
    generate,
    gp,
    interval,
    iterated_product_set,
    iterated_sumset,
    mixed,
    poly_image,
    powers,
)

small_sets = st.sets(st.integers(-30, 30), min_size=1, max_size=6)


def brute_sumset(A, m, n):
    out = set()
    for plus in product(A, repeat=m) if m else [()]:
        for minus in product(A, repeat=n) if n else [()]:
            out.add(sum(plus) - sum(minus))
    return out


def brute_prodset(A, m, n):
    out = set()
    for num in product(A, repeat=m) if m else [(1,)]:
        for den in product(A, repeat=n) if n else [(1,)]:
            p = Fraction(1)
            for x in num:
                p *= x
            for x in den:
                p /= x
            out.add(p)
    return out


class TestIntSet:
    def test_dedup_and_sort(self):
        assert list(IntSet([3, 1, 2, 1])) == [1, 2, 3]

    def test_membership(self):
        A = IntSet([5, 1, 9])
        assert 5 in A and 2 not in A

    def test_type_check(self):
        with pytest.raises(BadParamsError):
            IntSet([1, 2.5])

    @pytest.mark.parametrize("values", [[True, 2], [1, False], [True]])
    def test_booleans_are_refused(self, values):
        # True == 1, but its repr, and every digest over the set, would differ
        with pytest.raises(BadParamsError, match="got bool"):
            IntSet(values)

    @pytest.mark.parametrize("bad, name", [(True, "bool"), (2.5, "float"), ("7", "str"), (np.int64(7), "int64"), (None, "NoneType")])
    @pytest.mark.parametrize("at", (0, 2, 3))
    def test_refusals_name_the_offender_wherever_it_stands(self, bad, name, at):
        values = [3, 1, 2]
        values.insert(at, bad)
        with pytest.raises(BadParamsError, match=f"^IntSet elements must be int, got {name}$"):
            IntSet(values)

    def test_the_first_offender_is_named(self):
        with pytest.raises(BadParamsError, match="got str$"):
            IntSet([1, "x", 2.5, None])

    def test_int_subclasses_are_accepted(self):
        class Tagged(int):
            pass

        A = IntSet([Tagged(5), 2, Tagged(3)])
        assert list(A) == [2, 3, 5] and A == IntSet([2, 3, 5])

    def test_equality_hash(self):
        assert IntSet([1, 2]) == IntSet([2, 1])
        assert hash(IntSet([1, 2])) == hash(IntSet([2, 1]))

    def test_ratset_reduces(self):
        R = RatSet([Fraction(2, 4), Fraction(1, 2), 3])
        assert len(R) == 2


class TestFoldArrays:
    """A fold's set holds the fold's arrays; its length reads them, and its
    elements are built from them on first use."""

    def test_length_builds_no_elements(self):
        A = IntSet([-4, 1, 9, 30])
        for S, m, n in ((iterated_sumset(A, 2, 1), 2, 1), (iterated_product_set(A, 1, 1), 1, 1)):
            assert len(S) == len(S.arrays[0]) and S._elements is None
        assert len(iterated_sumset(A, 2, 1)) == len(brute_sumset(list(A), 2, 1))
        assert len(iterated_product_set(A, 1, 1)) == len(brute_prodset(list(A), 1, 1))

    def test_elements_match_sets_built_from_values(self):
        A = IntSet([-4, 1, 9, 30])
        S, P = iterated_sumset(A, 2, 1), iterated_product_set(A, 2, 1)
        assert S == IntSet(brute_sumset(list(A), 2, 1)) and hash(S) == hash(IntSet(S.elements))
        assert P == RatSet(brute_prodset(list(A), 2, 1)) and hash(P) == hash(RatSet(P.elements))
        assert all(type(x) is int for x in S) and all(type(x) is Fraction for x in P)
        assert 2 * 30 - 1 in S and Fraction(-4, 30) in P and Fraction(1, 7) not in P

    def test_sets_built_from_values_hold_no_arrays(self):
        assert IntSet([3, 1]).arrays is None and RatSet([Fraction(1, 2)]).arrays is None


# small values, the int64 ends and values past int64 (object arrays)
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
contract_values = st.one_of(
    st.integers(-50, 50),
    st.integers(-(10**6), 10**6),
    st.sampled_from([INT64_MIN, INT64_MIN + 1, -(2**32), 2**32, INT64_MAX - 1, INT64_MAX]),
    st.integers(-(2**70), 2**70),
)


@st.composite
def fold_args(draw):
    """(A, m, n) with signs, 0 only where n = 0, and folds up to 3 deep."""
    m, n = draw(st.sampled_from([(m, n) for m in range(3) for n in range(3) if 0 < m + n <= 3]))
    values = draw(st.sets(contract_values.filter(lambda v: v or not n), min_size=1, max_size=5))
    return IntSet(values), m, n


class TestFoldContract:
    """What ``cli._json_strings`` trusts of a fold's arrays: sorted,
    distinct integers, or reduced quotients over positive denominators
    sorted by value."""

    @given(fold_args())
    @settings(max_examples=150, deadline=None)
    def test_sumset_values_strictly_increase(self, args):
        (vals,) = iterated_sumset(*args).arrays
        values = vals.tolist()
        assert all(a < b for a, b in zip(values, values[1:]))
        assert cli._json_strings(vals) == json.dumps([str(v) for v in values])

    @given(fold_args())
    @settings(max_examples=150, deadline=None)
    def test_quotients_are_reduced_and_strictly_increase(self, args):
        num, den = iterated_product_set(*args).arrays
        pairs = list(zip(num.tolist(), den.tolist()))
        assert all(q > 0 and gcd(p, q) == 1 for p, q in pairs)
        assert all(p1 * q2 < p2 * q1 for (p1, q1), (p2, q2) in zip(pairs, pairs[1:]))
        assert cli._json_strings(num, den) == json.dumps([str(Fraction(p, q)) for p, q in pairs])


def _two_powers(A, m, n):
    """mA - nA as mA + n(-A), each fold its own ``power``."""
    plus = _kernel.power(_kernel.Weighted.indicator(A.elements, counted=False), m, additive=True)
    neg = _kernel.Weighted.indicator([-a for a in reversed(A.elements)], counted=False)
    return _kernel.pair(plus, _kernel.power(neg, n, additive=True), additive=True).vals


class TestReflectedSumsets:
    """At n = m, -nA is the reflection of mA, and mA is built once."""

    @given(
        st.sets(st.one_of(st.integers(-50, 50), contract_values), min_size=1, max_size=5),
        st.integers(1, 3),
        st.integers(1, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_two_powers(self, values, m, n):
        A = IntSet(values | {0})
        (got,) = iterated_sumset(A, m, n).arrays
        want = _two_powers(A, m, n)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_one_power_at_equal_arity(self, monkeypatch, m):
        calls, power = [], _kernel.power
        monkeypatch.setattr(_kernel, "power", lambda *args, **kw: calls.append(args[1]) or power(*args, **kw))
        A = IntSet([-7, 0, 2, 9, 40])
        assert set(iterated_sumset(A, m, m)) == brute_sumset(list(A), m, m)
        assert calls == [m]


class TestSumsets:
    @given(small_sets, st.integers(0, 3), st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, vals, m, n):
        if m == 0 and n == 0:
            return
        A = IntSet(vals)
        assert set(iterated_sumset(A, m, n)) == brute_sumset(vals, m, n)

    def test_zero_arity(self):
        with pytest.raises(ZeroArityError):
            iterated_sumset(IntSet([1]), 0, 0)

    def test_empty(self):
        with pytest.raises(EmptySetError):
            iterated_sumset(IntSet([]), 1, 0)

    def test_ap_growth(self):
        # mA of an AP is an AP: |m A| = m(|A|-1)+1
        A = ap(0, 3, 10)
        for m in (1, 2, 3):
            assert len(iterated_sumset(A, m, 0)) == m * 9 + 1

    def test_difference_symmetric(self):
        A = IntSet([1, 4, 6])
        D = iterated_sumset(A, 1, 1)
        assert 0 in D and set(D) == {-x for x in D}


class TestProductSets:
    @given(
        st.sets(st.integers(1, 12), min_size=1, max_size=5),
        st.integers(0, 2),
        st.integers(0, 2),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, vals, m, n):
        if m == 0 and n == 0:
            return
        A = IntSet(vals)
        assert set(iterated_product_set(A, m, n)) == brute_prodset(vals, m, n)

    def test_zero_divisor_guard(self):
        with pytest.raises(DivisionByZeroElementError):
            iterated_product_set(IntSet([0, 2]), 1, 1)

    def test_zero_ok_without_quotient(self):
        P = iterated_product_set(IntSet([0, 2]), 2, 0)
        assert set(P) == {0, 4}

    def test_gp_is_multiplicative_ap(self):
        G = gp(1, 3, 8)
        assert len(iterated_product_set(G, 2, 0)) == 15


class TestGenerators:
    def test_ap(self):
        assert list(ap(2, 5, 3)) == [2, 7, 12]

    def test_interval(self):
        assert list(interval(4)) == [1, 2, 3, 4]

    def test_powers(self):
        assert list(powers(2, 4)) == [1, 4, 9, 16]

    def test_mixed(self):
        assert list(mixed(3)) == [1, 2, 3, 9, 27]

    def test_poly_image(self):
        # p(x) = x^2 + 1
        assert list(poly_image([1, 0, 1], interval(3))) == [2, 5, 10]

    def test_generate_dispatch(self):
        assert generate("interval", n=3) == interval(3)
        with pytest.raises(BadParamsError):
            generate("nope", n=3)

    @pytest.mark.parametrize(
        "kind, params", [("ap", {"n": 3}), ("interval", {"n": 3, "step": 1}), ("powers", {"k": 2}), ("mixed", {})]
    )
    def test_generate_refuses_parameters_its_kind_does_not_take(self, kind, params):
        with pytest.raises(BadParamsError, match="argument"):
            generate(kind, **params)

    def test_bad_params(self):
        with pytest.raises(BadParamsError):
            ap(0, 0, 5)
        with pytest.raises(BadParamsError):
            gp(0, 3, 5)


def test_dilation_preserves_sumset_size():
    rng = random.Random(0)
    for _ in range(20):
        vals = rng.sample(range(1, 200), rng.randint(2, 7))
        A = IntSet(vals)
        B = IntSet(7 * v for v in vals)
        assert len(iterated_sumset(A, 2, 1)) == len(iterated_sumset(B, 2, 1))
