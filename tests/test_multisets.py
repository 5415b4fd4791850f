"""Energies over s-multisets against binary powering, the oracles and the
trivial count.

``_kernel.multisets`` lists each unordered s-tuple once with its weight
s!/∏m! and squares straight from the sorted keys.  Here it is checked
against the r_s route (``counts.sum_squares()`` of binary powering), the
brute-force oracle, and T_s(n) = (s!)² [z^s] (Σ_m z^m/(m!)²)^n, which a
B_s[1] set attains exactly in either mode.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from energia import _kernel
from energia.energy import ADDITIVE, MULTIPLICATIVE, energy, energy_oracle, guard_counts, rep_function
from energia.errors import OverflowGuardError
from energia.sets import IntSet, interval

MODES = (ADDITIVE, MULTIPLICATIVE)


def prop(examples):
    return settings(max_examples=examples, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def trivial_count(n, s):
    """(s!)² [z^s] (Σ_{m<=s} z^m/(m!)²)^n by a plain power series."""
    series = [Fraction(1, math.factorial(m) ** 2) for m in range(s + 1)]
    power = [Fraction(1)] + [Fraction(0)] * s
    for _ in range(n):
        power = [sum(power[i] * series[k - i] for i in range(k + 1)) for k in range(s + 1)]
    count = power[s] * math.factorial(s) ** 2
    assert count.denominator == 1
    return int(count)


def primes(n):
    out, k = [], 2
    while len(out) < n:
        if all(k % p for p in out):
            out.append(k)
        k += 1
    return out


def multisets_always(monkeypatch):
    """Take the multiset route wherever its keys fit, whatever it costs."""
    monkeypatch.setattr(_kernel, "_MULTISET_FLOOR", 0)
    monkeypatch.setattr(_kernel, "_power_cells", lambda base, s, additive: math.inf)


def powering(monkeypatch):
    monkeypatch.setattr(_kernel, "multisets", lambda base, s, additive: None)


def routes(monkeypatch, fn):
    """``fn()`` on the multiset route and on binary powering."""
    with monkeypatch.context() as m:
        multisets_always(m)
        grid = fn()
    with monkeypatch.context() as m:
        powering(m)
        return grid, fn()


# sizes where the oracles stop (|A|^(2s) > 10^8) but a grid stays small
GROUND = [(n, s) for s in range(1, 9) for n in (1, 2, 3, 5, 8, 13, 21, 30) if math.comb(n + s - 1, s) <= 60000]


@pytest.mark.parametrize("n, s", GROUND)
def test_trivial_count_is_met_by_sidon_like_sets(monkeypatch, n, s):
    try:
        guard_counts(n, s)
    except OverflowGuardError:
        pytest.skip("past the count guard")
    want = trivial_count(n, s)
    assert _kernel.trivial_count(n, s) == want
    # sums of s powers of r > s, and products of s primes, are equal only when rearranged
    sets = ((IntSet((s + 1) ** i for i in range(n)), ADDITIVE), (IntSet(primes(n)), MULTIPLICATIVE))
    for A, mode in sets:
        assert energy(A, s, mode).count == want
        with monkeypatch.context() as m:
            multisets_always(m)
            assert energy(A, s, mode).count == want


def test_trivial_count_small_cases():
    assert [trivial_count(n, 2) for n in range(1, 6)] == [2 * n * n - n for n in range(1, 6)]
    assert [_kernel.trivial_count(n, 1) for n in range(6)] == list(range(6))


signed = st.lists(st.integers(-40, 40), min_size=1, max_size=7, unique=True)
wide = st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=7, unique=True)
# positive sets whose products pass 2^62 at small s, so q_s runs on exponent keys
keyed = st.lists(st.integers(0, 6), min_size=2, max_size=6, unique=True).map(lambda e: [7**20 * 2**i * 3 ** (6 - i) for i in e])


@pytest.mark.parametrize("mode", MODES)
@prop(80)
@given(vals=st.one_of(signed, wide, keyed), s=st.integers(1, 8))
def test_multisets_match_powering_and_the_oracle(monkeypatch, mode, vals, s):
    A = IntSet(vals)
    try:
        guard_counts(len(A), s)
    except OverflowGuardError:
        return
    grid, power = routes(monkeypatch, lambda: rep_function(A, s, mode))
    assert grid.energy_count() == power.counts.sum_squares()
    assert grid.support == power.support
    assert grid.total() == power.total() == len(A) ** s
    if len(A) ** (2 * s) <= 2 * 10**5:
        assert grid.energy_count() == energy_oracle(A, s, mode).count


@pytest.mark.parametrize("additive", (True, False))
@prop(60)
@given(
    data=st.data(),
    s=st.integers(2, 5),
    chunk=st.integers(1, 64),
)
def test_multi_block_grids_with_runs_across_blocks(monkeypatch, additive, data, s, chunk):
    # an AP with a few extra points: most sums repeat, so runs of equal
    # values straddle the tiny blocks and every merge reduces them
    n = data.draw(st.integers(2, 9))
    step = data.draw(st.integers(1, 5))
    extra = data.draw(st.lists(st.integers(-30, 30), max_size=3))
    zero = data.draw(st.booleans())
    vals = sorted({step * i + (0 if additive or zero else 1) for i in range(n)} | set(extra))
    if not additive and not zero:
        vals = [v for v in vals if v] or [1]
    base = _kernel.Weighted.indicator(vals, counted=True)
    with monkeypatch.context() as m:
        multisets_always(m)
        grid = _kernel.multisets(base, s, additive)
    assert grid is not None
    want = _kernel.power(base, s, additive)
    with monkeypatch.context() as m:
        m.setattr(_kernel, "_CHUNK", chunk)
        assert len(list(grid.blocks())) > 1 or math.comb(len(vals) + s - 1, s) <= _kernel.block_cells(grid.dtype)
        assert grid.sum_squares() == want.sum_squares()
        counts = grid.counts()
    assert np.array_equal(counts.vals, want.vals) and np.array_equal(counts.cnts, want.cnts)
    assert counts.total == want.total


def test_square_runs_past_int64():
    # one value with weight 2^40 in 2^24 cells: its square passes 2^63
    keys = np.full(1 << 4, (5 << 41) | (1 << 40), dtype=np.uint64)
    keys[0] = 1 << 40
    total = len(keys) << 40
    assert _kernel._square_runs(keys, 41, total) == 2**80 + (15 * 2**40) ** 2


def _takes_multisets(vals, s, mode):
    A = IntSet(vals)
    coords, adds = A.elements, mode == ADDITIVE
    return _kernel.multisets(_kernel.Weighted.indicator(coords, counted=True), s, adds) is not None


@pytest.mark.parametrize("mode", MODES)
def test_route_leaves_small_sets_intervals_and_aps_alone(mode):
    rng = random.Random(7)
    for n in range(1, 41):
        for s in (1, 2, 3):
            lo, hi = (1, 10**6) if mode == MULTIPLICATIVE else (-(10**6), 10**6)
            assert not _takes_multisets(rng.sample(range(lo, hi), n), s, mode)
    if mode == ADDITIVE:
        for n, s in ((200, 2), (1000, 2), (200, 4), (60, 6), (300, 3)):
            assert not _takes_multisets(list(interval(n).elements), s, mode)
            assert not _takes_multisets([7 + 12 * i for i in range(n)], s, mode)


def test_route_takes_sparse_grids():
    rng = random.Random(7)
    assert _takes_multisets(sorted(rng.sample(range(10**6), 50)), 4, ADDITIVE)
    assert _takes_multisets(sorted(rng.sample(range(10**6), 20)), 6, ADDITIVE)
    assert _takes_multisets(sorted(rng.sample(range(10**6), 1000)), 2, ADDITIVE)
    assert _takes_multisets(sorted(rng.sample(range(1, 10**6), 600)), 2, MULTIPLICATIVE)
    # past 2^62 on values, and past 64 key bits, binary powering keeps them
    assert not _takes_multisets(sorted(rng.sample(range(2**62), 1000)), 2, ADDITIVE)
    assert not _takes_multisets(sorted(rng.sample(range(2**40), 1000)), 2, MULTIPLICATIVE)
    assert not _takes_multisets(sorted(rng.sample(range(-(2**59), 2**59), 50)), 4, ADDITIVE)


def test_energy_reads_no_counts_on_the_multiset_route():
    rng = random.Random(3)
    A = IntSet(rng.sample(range(10**6), 40))
    r = rep_function(A, 4)
    assert isinstance(r._source, _kernel.Multisets)
    count = r.energy_count()
    assert "counts" not in vars(r) and "support" not in vars(r)
    assert r.counts.sum_squares() == count == sum(c * c for c in r.support.values())
    assert r.sup() == max(r.support.values()) and r.total() == 40**4
