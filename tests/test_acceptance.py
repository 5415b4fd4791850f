"""Acceptance gate: one test per criterion, one pass/fail line each
under pytest -v.  Tolerances and corpus seeds are pinned; every
comparison is exact unless stated otherwise."""

import random
import time
from collections import Counter
from fractions import Fraction

import mpmath
import pytest

from energia import precision
from energia.bsg import (
    CALIBRATED,
    PopularSumGraph,
    SUBSET_BRANCH,
    bsg_extract,
    kp_pipeline,
    kp_verify,
)
from energia.checks import (
    check_csref,
    check_holder_mixed,
    check_mixed_cs,
    check_pluennecke,
    check_union_bound,
    check_war2,
    check_young,
)
from energia.constants import eric_params, gemn_params, rtp_constants, thrt_trace
from energia.decomposer import (
    DecomposeConfig,
    com2_budget,
    com2_simulate,
    decompose,
    minimal_adversary,
)
from energia.energy import (
    ADDITIVE,
    MULTIPLICATIVE,
    energy,
    energy_oracle,
    mixed_energy,
    rep_function,
)
from energia.errors import ZeroElementError
from energia.sets import IntSet, gp, interval, iterated_sumset, mixed
from fiber_oracle import tuple_oracle


def _corpus(seed, count, max_size=8, positive=False):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        size = rng.randint(2, max_size)
        lo = 1 if positive else -50
        vals = set()
        while len(vals) < size:
            vals.add(rng.randint(lo, 50))
        out.append(IntSet(vals))
    return out


def test_criterion_01_oracle_equivalence():
    # 500 random sets, |A| <= 8, s in {2,3,4}, both modes, < 60 s
    t0 = time.monotonic()
    rng = random.Random(101)
    add_sets = _corpus(101, 250)
    mult_sets = _corpus(102, 250, positive=True)
    for A in add_sets:
        s = rng.choice([2, 3, 4])
        assert energy(A, s, ADDITIVE).count == energy_oracle(A, s, ADDITIVE).count
    for A in mult_sets:
        s = rng.choice([2, 3, 4])
        assert (
            energy(A, s, MULTIPLICATIVE).count
            == energy_oracle(A, s, MULTIPLICATIVE).count
        )
    assert time.monotonic() - t0 < 60


def test_criterion_02_identity_suite():
    for A in _corpus(202, 60, max_size=6):
        for s in (2, 3):
            r = rep_function(A, s)
            assert r.total() == len(A) ** s
            assert r.energy_count() == energy(A, s).count
    assert energy(IntSet([1, 2, 3]), 2).count == 19
    assert energy(IntSet([1, 2, 4]), 2, MULTIPLICATIVE).count == 19
    assert energy(IntSet([1, 2, 5, 11]), 2).count == 28  # Sidon 4-set


def test_criterion_03_inequality_battery():
    t0 = time.monotonic()
    rng = random.Random(303)
    n = 1000
    for _ in range(n):
        A = _rand(rng)
        assert check_csref(A, rng.choice([2, 3])).holds
    for _ in range(n):
        first, second = check_young(_rand(rng), 4, rng.choice([1, 2, 3]))
        assert first.holds and second.holds
    for _ in range(n):
        assert check_holder_mixed([_rand(rng, 5) for _ in range(4)], ADDITIVE).holds
    for _ in range(n):
        sets = [_rand(rng, 5, positive=True) for _ in range(4)]
        assert check_holder_mixed(sets, MULTIPLICATIVE).holds
    for _ in range(n):
        A = _rand(rng)
        elems = list(A)
        cut = rng.randint(1, len(elems) - 1)
        assert check_union_bound([IntSet(elems[:cut]), IntSet(elems[cut:])], 2).holds
    for _ in range(n):
        assert check_pluennecke(_rand(rng), rng.choice([1, 2]), rng.choice([0, 1])).holds
    for _ in range(n):
        assert check_mixed_cs(_rand(rng, 5), _rand(rng, 5), 2).holds
    assert time.monotonic() - t0 < 300


def _rand(rng, max_size=7, positive=False):
    size = rng.randint(2, max_size)
    vals = set()
    while len(vals) < size:
        vals.add(rng.randint(1 if positive else -40, 40))
    return IntSet(vals)


def test_criterion_04_counterexample_reproductions():
    # (a) A_N = {1..N} u {N^2..N^N}: both energies near-maximal at s = 2
    for N in range(4, 9):
        A = mixed(N)
        assert 16 * energy(A, 2, ADDITIVE).count >= len(A) ** 3
        assert 32 * energy(A, 2, MULTIPLICATIVE).count >= len(A) ** 3
    # (b) zero obstruction: the zero fiber inflates the mixed product count
    Z = IntSet(range(0, 11))
    assert mixed_energy([Z, Z, Z, Z], MULTIPLICATIVE).count >= 121
    with pytest.raises(ZeroElementError):
        check_holder_mixed([Z, Z, Z, Z], MULTIPLICATIVE)
    # (c) squares instance at (k,s,N) = (2,2,20)
    r = check_war2(2, 2, 20)
    assert r.holds and r.lhs == 20**4


def test_criterion_05_fiber_oracle_equivalence():
    rng = random.Random(505)
    for _ in range(50):
        A = IntSet(rng.sample(range(1, 50), rng.randint(3, 6)))
        expected, A_prime, collapse = tuple_oracle(A, 4)
        res = kp_pipeline(A, 4, 0.05, mode=CALIBRATED)
        assert collapse is None and res.branch == SUBSET_BRANCH
        assert res.anchor_sum == expected.pop("anchor_sum")
        for stage, card in expected.items():
            assert res.stage_stats[stage] == card, (A, stage)
        assert res.A_prime == A_prime


def test_criterion_06_constructive_bsg():
    for seed in range(20):
        rng = random.Random(seed)
        rand_vals = set()
        while len(rand_vals) < 32:
            v = rng.randint(33, 10**6)
            rand_vals.add(v)
        U = IntSet(list(range(1, 33)) + sorted(rand_vals))
        reps = Counter()
        el = list(U)
        for i in range(len(el)):
            for j in range(i, len(el)):
                reps[el[i] + el[j]] += 1
        filt = frozenset(s for s, c in reps.items() if c >= 2)
        n = max(len(U), len(filt))
        edges = sum(1 for u in U for v in U if u + v in filt)
        G = PopularSumGraph(U, U, filt, Fraction(edges, n * n))
        A_prime, report = bsg_extract(U, U, G)
        assert len(iterated_sumset(A_prime, 2, 0)) <= 4 * len(A_prime), seed
        assert len(A_prime) >= len(U) // 8, seed
        assert report.holds, seed


def test_criterion_07_kp_pipeline():
    A = interval(16)
    res = kp_pipeline(A, 4, 0.05, mode=CALIBRATED)
    assert res.branch == SUBSET_BRANCH
    assert len(res.A_prime) >= 8
    assert len(iterated_sumset(res.A_prime, 2, 1)) <= 10 * len(res.A_prime)
    for rep in kp_verify(res, A, [(1, 1), (2, 1), (2, 2)]):
        assert rep.holds


def test_criterion_08_decomposer_end_to_end():
    cfg = DecomposeConfig(k=Fraction(6, 5), s=2, q=4, mode=CALIBRATED)
    exp = Fraction(14, 5)  # 2s - k = 2.8
    A = IntSet(list(range(1, 33)) + [3**i for i in range(16)])
    d = decompose(A, cfg)
    assert set(d.B) | set(d.C) == set(A) and not (set(d.B) & set(d.C))
    assert d.iterations_used <= d.budget
    if len(d.B):
        assert precision.cmp_count_power(energy(d.B, 2).count, len(d.B), exp) <= 0
    assert (
        precision.cmp_count_power(
            energy(d.C, 2, MULTIPLICATIVE).count, len(d.C), exp
        )
        <= 0
    )
    # pure AP: zero iterations, everything stays in C
    dap = decompose(interval(32), cfg)
    assert len(dap.B) == 0 and dap.iterations_used == 0
    # pure GP: the C-side certificate holds immediately on what remains
    dgp = decompose(gp(1, 3, 16), cfg)
    assert dgp.stop_report is not None and dgp.stop_report.holds


def test_criterion_09_constants_reproduction():
    t0 = time.monotonic()
    assert rtp_constants(2)["T_k"] == 2412
    assert rtp_constants(3)["T_k"] == 4988
    with mpmath.workprec(120):
        exact = mpmath.log(mpmath.mpf(2413) / 2412, 2)
        assert abs(rtp_constants(2)["eta_k"] - exact) < mpmath.mpf(2) ** -50
    g = gemn_params(1, 2)
    log2_s2 = eric_params(30, 2)["log2_s2"]
    assert g["Lambda"] == 31 and g["l"] == 37200 and log2_s2 == 246
    assert all(isinstance(v, (int, Fraction)) for v in (g["Lambda"], g["l"], log2_s2))
    for k in (2, 3):
        assert thrt_trace(k, Fraction(1, 2), 16).growth == Fraction(
            rtp_constants(k)["T_k"] + 1, rtp_constants(k)["T_k"]
        )
    assert time.monotonic() - t0 < 5


def test_criterion_10_com2_bound():
    for n in (16, 64, 256):
        for c in (Fraction(1, 4), Fraction(1, 2)):
            steps = com2_simulate(n, c, 1, minimal_adversary(c, 1))
            assert steps <= com2_budget(n, c, 1), (n, c)
