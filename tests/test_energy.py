import importlib
import random
from math import comb
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from energia.energy import (
    ADDITIVE,
    MULTIPLICATIVE,
    energy,
    energy_oracle,
    mixed_energy,
    rep_function,
    sup_rep,
)
from energia.errors import (
    BadArityError,
    EmptySetError,
    OverflowGuardError,
    TooLargeError,
)
from energia.sets import IntSet, ap, gp, interval

small_sets = st.sets(st.integers(-20, 20), min_size=1, max_size=6)
positive_sets = st.sets(st.integers(1, 25), min_size=1, max_size=6)


def interval_energy(n, s):
    """E_s({1, ..., n}) in closed form: the 2s-tuples of [0, n) with
    x_1 + ... + x_s + (n-1-y_1) + ... + (n-1-y_s) = s(n-1), by
    inclusion-exclusion over the coordinates that pass n - 1."""
    top = s * (n - 1)
    return sum((-1) ** j * comb(2 * s, j) * comb(top - j * n + 2 * s - 1, 2 * s - 1) for j in range(top // n + 1))


class TestRepFunction:
    def test_r2_of_123(self):
        r = rep_function(IntSet([1, 2, 3]), 2)
        assert r.support == {2: 1, 3: 2, 4: 3, 5: 2, 6: 1}

    @given(small_sets, st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_total_is_size_power(self, vals, s):
        r = rep_function(IntSet(vals), s)
        assert r.total() == len(vals) ** s

    @given(small_sets, st.integers(1, 3))
    @settings(max_examples=50, deadline=None)
    def test_energy_is_squared_mass(self, vals, s):
        A = IntSet(vals)
        r = rep_function(A, s)
        assert r.energy_count() == energy(A, s).count

    def test_empty(self):
        with pytest.raises(EmptySetError):
            rep_function(IntSet([]), 2)

    def test_overflow_guard(self):
        with pytest.raises(OverflowGuardError):
            rep_function(interval(3), 64)


class TestKnownValues:
    def test_E2_123(self):
        assert energy(IntSet([1, 2, 3]), 2).count == 19

    def test_M2_124(self):
        assert energy(IntSet([1, 2, 4]), 2, MULTIPLICATIVE).count == 19

    def test_sidon_four_set(self):
        # {1,2,5,11} has all pairwise sums distinct
        A = IntSet([1, 2, 5, 11])
        assert energy(A, 2).count == 2 * 16 - 4 == 28

    def test_sidon_identity_on_gp(self):
        # any Sidon set: E_2 = 2|A|^2 - |A|
        G = gp(1, 3, 16)
        assert energy(G, 2).count == 2 * 256 - 16 == 496

    def test_ap16(self):
        assert energy(interval(16), 2).count == 2736
        assert energy(interval(16), 4).count == 128912240

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_intervals_match_the_closed_form(self, s):
        for n in range(1, 61):
            want = interval_energy(n, s)
            assert energy(interval(n), s).count == want, n
            # the exponent keys of {3^i} are [0, n): this runs on the dense backend too
            assert energy(gp(1, 3, n), s, MULTIPLICATIVE).count == want, n

    @pytest.mark.parametrize("n", [500, 3000])
    @pytest.mark.parametrize("s", [2, 3])
    def test_long_intervals_match_the_closed_form(self, n, s):
        want = interval_energy(n, s)
        assert energy(interval(n), s).count == want
        assert energy(gp(1, 3, n), s, MULTIPLICATIVE).count == want

    def test_gp_mult_equals_ap_add(self):
        # q_s on a GP is r_s on the exponent AP
        G = gp(1, 3, 10)
        E = IntSet(range(10))
        for s in (2, 3):
            assert energy(G, s, MULTIPLICATIVE).count == energy(E, s).count


class TestOracle:
    @given(small_sets, st.integers(1, 2))
    @settings(max_examples=40, deadline=None)
    def test_additive_agreement(self, vals, s):
        A = IntSet(vals)
        assert energy(A, s).count == energy_oracle(A, s).count

    @given(positive_sets, st.integers(1, 2))
    @settings(max_examples=40, deadline=None)
    def test_multiplicative_agreement(self, vals, s):
        A = IntSet(vals)
        assert (
            energy(A, s, MULTIPLICATIVE).count
            == energy_oracle(A, s, MULTIPLICATIVE).count
        )

    def test_numpy_and_python_paths_agree(self):
        A = interval(7)
        fast = energy(A, 3).count
        assert energy_oracle(A, 3, guard=10**8).count == fast
        # force the pure-python loop on the same input
        count = 0
        for tup in product(A.elements, repeat=6):
            if sum(tup[:3]) == sum(tup[3:]):
                count += 1
        assert count == fast

    def test_guard(self):
        with pytest.raises(TooLargeError):
            energy_oracle(interval(8), 4, guard=10**6)

    def test_big_values_fall_back_to_python(self):
        A = IntSet([1, 10**30, 10**30 + 7])
        assert energy(A, 2).count == energy_oracle(A, 2).count


energy_module = importlib.import_module("energia.energy")


def _taken(monkeypatch):
    """The names of the oracle branches that run, in call order."""
    taken = []
    for name in ("_numpy_oracle", "_python_oracle"):

        def spy(A, s, mode, name=name, fn=getattr(energy_module, name)):
            taken.append(name)
            return fn(A, s, mode)

        monkeypatch.setattr(energy_module, name, spy)
    return taken


CUBE_ROOT_2_62 = 1664510  # the largest m with m^3 < 2^62


class TestOracleBranch:
    """int64 inputs of any size take the numpy batches; the nested loop
    runs only once an s-fold sum or product could reach 2**62."""

    @pytest.mark.parametrize(
        "vals, s",
        [
            ([5], 1),
            ([0], 3),
            ([-7], 4),
            ([-1, 3], 1),
            ([-1, 3], 2),
            ([0, 2], 3),
            ([1, -2], 4),
            (range(-3, 4), 1),
            (range(12), 2),
            (range(-4, 4), 3),
            ([-9, -2, 0, 1, 4, 6], 3),
        ],
    )
    @pytest.mark.parametrize("mode", [ADDITIVE, MULTIPLICATIVE])
    def test_int64_inputs_of_every_size_take_numpy(self, monkeypatch, vals, s, mode):
        A = IntSet(vals)
        taken = _taken(monkeypatch)
        assert energy_oracle(A, s, mode).count == energy(A, s, mode).count
        assert taken == ["_numpy_oracle"]

    @pytest.mark.parametrize(
        "mode, s, m, fits",
        [
            (ADDITIVE, 1, 2**62 - 1, True),
            (ADDITIVE, 1, 2**62, False),
            (ADDITIVE, 3, (2**62 - 1) // 3, True),
            (ADDITIVE, 2, 2**61, False),
            (ADDITIVE, 3, (2**62 - 1) // 3 + 1, False),
            (MULTIPLICATIVE, 1, 2**62 - 1, True),
            (MULTIPLICATIVE, 1, 2**62, False),
            (MULTIPLICATIVE, 2, 2**31 - 1, True),
            (MULTIPLICATIVE, 2, 2**31, False),
            (MULTIPLICATIVE, 3, CUBE_ROOT_2_62, True),
            (MULTIPLICATIVE, 3, CUBE_ROOT_2_62 + 1, False),
        ],
    )
    def test_switch_at_2_62(self, monkeypatch, mode, s, m, fits):
        bound = m * s if mode == ADDITIVE else m**s
        assert (bound < 2**62) == fits
        taken = _taken(monkeypatch)
        # signed values, with 0, and max|a| reached by -m as well as m
        for A in (IntSet([-m, -1, 0, 2, m]), IntSet([-m, 3, 5]), IntSet([0, 1, m])):
            taken.clear()
            assert energy_oracle(A, s, mode).count == energy(A, s, mode).count
            assert taken == ["_numpy_oracle" if fits else "_python_oracle"]

    @given(
        st.sets(st.integers(-20, 20), min_size=1, max_size=5),
        st.integers(1, 3),
        st.sampled_from([ADDITIVE, MULTIPLICATIVE]),
    )
    @settings(max_examples=60, deadline=None)
    def test_loop_matches_numpy_batches(self, vals, s, mode):
        A = IntSet(vals)
        assert energy_module._python_oracle(A, s, mode) == energy_module._numpy_oracle(A, s, mode)


class TestMixedEnergy:
    def test_equal_factors_reduce_to_energy(self):
        A = interval(5)
        assert mixed_energy([A, A, A, A]).count == energy(A, 2).count

    def test_multiplicative_with_zero(self):
        A = IntSet(range(0, 11))
        # 21 ordered pairs multiply to 0, so the zero fiber alone gives 441
        assert mixed_energy([A, A, A, A], MULTIPLICATIVE).count >= 121

    def test_odd_arity_rejected(self):
        A = interval(3)
        with pytest.raises(BadArityError):
            mixed_energy([A, A, A])

    def test_literal_count(self):
        B, C = IntSet([1, 2]), IntSet([2, 3])
        expect = sum(
            1
            for a in B
            for b in C
            for c in B
            for d in C
            if a + b == c + d
        )
        assert mixed_energy([B, C, B, C]).count == expect


def test_sup_rep():
    assert sup_rep(IntSet([1, 2, 3]), 2) == 3
    assert sup_rep(interval(16), 2) == 16


def test_dilation_invariance():
    rng = random.Random(3)
    for _ in range(10):
        vals = rng.sample(range(1, 100), 5)
        A, B = IntSet(vals), IntSet(13 * v for v in vals)
        assert energy(A, 2).count == energy(B, 2).count
        assert (
            energy(A, 2, MULTIPLICATIVE).count == energy(B, 2, MULTIPLICATIVE).count
        )
