import random
from fractions import Fraction

import pytest

from energia.checks import (
    check_convex_growth,
    check_csref,
    check_holder_mixed,
    check_mixed_cs,
    check_pluennecke,
    check_union_bound,
    check_war2,
    check_young,
)
from energia.energy import ADDITIVE, MULTIPLICATIVE
from energia.errors import (
    BadArityError,
    BadParamsError,
    NotDisjointError,
    TooLargeError,
    ZeroElementError,
)
from energia.sets import IntSet, interval, powers


def rand_set(rng, lo=-30, hi=30, max_size=7, positive=False):
    size = rng.randint(2, max_size)
    vals = set()
    while len(vals) < size:
        vals.add(rng.randint(1 if positive else lo, hi))
    return IntSet(vals)


class TestCauchySchwarz:
    def test_random_battery(self):
        rng = random.Random(11)
        for _ in range(100):
            A = rand_set(rng)
            assert check_csref(A, rng.choice([2, 3])).holds

    def test_multiplicative(self):
        rng = random.Random(12)
        for _ in range(50):
            assert check_csref(rand_set(rng, positive=True), 2, MULTIPLICATIVE).holds


class TestYoung:
    def test_random_battery(self):
        rng = random.Random(13)
        for _ in range(60):
            A = rand_set(rng)
            first, second = check_young(A, 4, rng.choice([1, 2, 3]))
            assert first.holds and second.holds

    def test_odd_s_rejected(self):
        with pytest.raises(BadArityError):
            check_young(interval(4), 3, 1)

    def test_bad_l(self):
        with pytest.raises(BadParamsError):
            check_young(interval(4), 4, 4)


class TestHolderMixed:
    def test_additive(self):
        rng = random.Random(14)
        for _ in range(40):
            sets = [rand_set(rng, max_size=5) for _ in range(4)]
            assert check_holder_mixed(sets, ADDITIVE).holds

    def test_multiplicative(self):
        rng = random.Random(15)
        for _ in range(40):
            sets = [rand_set(rng, max_size=5, positive=True) for _ in range(4)]
            assert check_holder_mixed(sets, MULTIPLICATIVE).holds

    def test_zero_guard(self):
        sets = [IntSet([0, 1]), IntSet([1, 2]), IntSet([1, 2]), IntSet([1, 2])]
        with pytest.raises(ZeroElementError):
            check_holder_mixed(sets, MULTIPLICATIVE)

    def test_odd_count_rejected(self):
        with pytest.raises(BadArityError):
            check_holder_mixed([interval(3)] * 3)


class TestUnionBound:
    def test_random_battery(self):
        rng = random.Random(16)
        for _ in range(40):
            A = rand_set(rng, max_size=8)
            elems = list(A)
            cut = rng.randint(1, len(elems) - 1)
            parts = [IntSet(elems[:cut]), IntSet(elems[cut:])]
            assert check_union_bound(parts, 2).holds

    def test_multiplicative_extra_factor(self):
        parts = [IntSet([1, 2, 3]), IntSet([5, 7])]
        assert check_union_bound(parts, 2, MULTIPLICATIVE).holds

    def test_overlap_rejected(self):
        with pytest.raises(NotDisjointError):
            check_union_bound([IntSet([1, 2]), IntSet([2, 3])], 2)


class TestPluennecke:
    def test_random_battery(self):
        rng = random.Random(17)
        for _ in range(60):
            A = rand_set(rng)
            assert check_pluennecke(A, rng.choice([1, 2, 3]), rng.choice([0, 1])).holds

    def test_ap_tight_direction(self):
        r = check_pluennecke(interval(10), 2, 1)
        assert r.holds and r.slack is not None


class TestMixedCS:
    def test_random_battery(self):
        rng = random.Random(18)
        for _ in range(60):
            B, C = rand_set(rng, max_size=5), rand_set(rng, max_size=5)
            assert check_mixed_cs(B, C, 2).holds

    def test_multiplicative(self):
        rng = random.Random(19)
        for _ in range(30):
            B = rand_set(rng, max_size=5, positive=True)
            C = rand_set(rng, max_size=5, positive=True)
            assert check_mixed_cs(B, C, 2, MULTIPLICATIVE).holds


class TestConvexGrowth:
    def test_squares_grow(self):
        A = powers(2, 12)
        r = check_convex_growth(A, 2, Fraction(2))
        assert r.holds

    def test_float_K_is_its_decimal_value(self):
        # 0.1 is 1/10, as every other float parameter, not its binary value
        A = powers(2, 12)
        assert check_convex_growth(A, 2, 0.1) == check_convex_growth(A, 2, Fraction(1, 10))

    def test_cap(self):
        with pytest.raises(TooLargeError):
            check_convex_growth(powers(2, 40), 3, Fraction(2))

    def test_bad_k(self):
        with pytest.raises(BadParamsError):
            check_convex_growth(powers(2, 8), 4, Fraction(2))

    @pytest.mark.parametrize("K", [0, -2])
    def test_K_must_be_positive(self, K):
        # K = 0 would divide by zero; K < 0 is outside the bound (at k = 2 the target is negative)
        with pytest.raises(BadParamsError, match="K must be positive"):
            check_convex_growth(interval(10), 2, K)


class TestWar2:
    def test_headline_instance(self):
        r = check_war2(2, 2, 20)
        assert r.holds
        assert r.lhs == 20**4

    def test_small_cases(self):
        for k in (1, 2):
            for n in (4, 8, 12):
                assert check_war2(k, 2, n).holds

    def test_size_cap(self):
        # N^(2s) = 10^16 is the largest instance run; one past it is refused, exit 3
        assert check_war2(1, 8, 10).holds
        with pytest.raises(TooLargeError, match="war2 instance too large") as exc:
            check_war2(1, 8, 11)
        assert exc.value.code == 3
        with pytest.raises(TooLargeError):
            check_war2(1, 2, 10**4 + 1)
