import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from energia import bsg
from energia.bsg import (
    CALIBRATED,
    ENERGY_BRANCH,
    PAPER,
    SUBSET_BRANCH,
    PopularSumGraph,
    bsg_extract,
    kp_pipeline,
    kp_verify,
    popular_sums,
)
from energia.checks import CheckReport
from energia.energy import ADDITIVE, MULTIPLICATIVE, rep_function
from fiber_oracle import reference_bsg_extract, tuple_oracle
from energia.errors import (
    BadParamsError,
    EmptyResultError,
    EnergiaError,
    WrongBranchError,
)
from energia.sets import IntSet, interval, iterated_sumset


class TestPopularSums:
    def test_threshold_three(self):
        r = rep_function(IntSet([1, 2, 3]), 2)
        assert list(popular_sums(r, 3)) == [4]

    def test_threshold_one_full_support(self):
        A = IntSet([1, 5, 9])
        r = rep_function(A, 2)
        assert set(popular_sums(r, 1)) == set(iterated_sumset(A, 2, 0))

    def test_above_total_mass(self):
        r = rep_function(IntSet([1, 2, 3]), 2)
        with pytest.raises(EmptyResultError):
            popular_sums(r, 3**2 + 1)

    def test_rational_threshold(self):
        r = rep_function(IntSet([1, 2, 3]), 2)
        assert list(popular_sums(r, Fraction(5, 2))) == [4]


class TestBsgExtract:
    def _graph(self, U, V, filt):
        n = max(len(U), len(V), len(filt))
        edges = sum(1 for u in U for v in V if u + v in filt)
        return PopularSumGraph(U, V, frozenset(filt), Fraction(edges, n * n))

    def test_complete_filter(self):
        U = IntSet(range(16))
        filt = set(iterated_sumset(U, 2, 0))
        Ap, rep = bsg_extract(U, U, self._graph(U, U, filt))
        assert set(Ap) == set(U)
        assert len(iterated_sumset(Ap, 2, 0)) == 31
        assert rep.holds

    def test_single_edge(self):
        U, V = IntSet([3]), IntSet([4])
        Ap, rep = bsg_extract(U, V, self._graph(U, V, {7}))
        assert list(Ap) == [3]
        assert rep.holds

    def test_ap_plus_random_filter(self):
        rng = random.Random(1)
        vals = list(range(1, 33)) + rng.sample(range(1000, 10**6), 32)
        U = IntSet(vals)
        reps = Counter()
        el = list(U)
        for i in range(len(el)):
            for j in range(i, len(el)):
                reps[el[i] + el[j]] += 1
        filt = {s for s, c in reps.items() if c >= 2}
        Ap, rep = bsg_extract(U, U, self._graph(U, U, filt))
        assert len(iterated_sumset(Ap, 2, 0)) <= 4 * len(Ap)
        assert len(Ap) >= len(U) // 8
        assert rep.holds


def _outcome(extract, U, V, G):
    try:
        return extract(U, V, G)
    except EnergiaError as exc:
        return type(exc)


# small value ranges make many codegrees tie
vertex_sets = st.lists(st.integers(-12, 25), min_size=1, max_size=20, unique=True)


def _natural_graph(U, V, filt, mode):
    """The graph on U, V and filt whose alpha is its edge count over n^2,
    as kp_pipeline builds it (1 / n^2 when it has no edge)."""
    op = (lambda a, b: a + b) if mode == ADDITIVE else (lambda a, b: a * b)
    edges = sum(1 for u in U for v in V if op(u, v) in filt)
    n = max(len(U), len(V), len(filt))
    return PopularSumGraph(U, V, frozenset(filt), Fraction(max(edges, 1), n * n), mode)


class TestBsgExtractAgainstReference:
    """bsg_extract scores every candidate of a seed in one pass; the
    oracle's extractor rebuilds each candidate's doubling with Python sets."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        U=vertex_sets,
        V=st.lists(st.integers(-12, 25), min_size=1, max_size=12, unique=True),
        data=st.data(),
        scale=st.sampled_from((1, 7, 2**31 + 11, 2**61 + 3)),
        mode=st.sampled_from((ADDITIVE, MULTIPLICATIVE)),
        chunk=st.sampled_from((None, 7)),
    )
    def test_matches_reference(self, U, V, data, scale, mode, chunk):
        # scale 2^61 + 3 takes sums past 2^62, 2^31 + 11 products
        U, V = IntSet(scale * u for u in U), IntSet(scale * v for v in V)
        op = (lambda a, b: a + b) if mode == ADDITIVE else (lambda a, b: a * b)
        reach = sorted({op(u, v) for u in U for v in V})
        filt = data.draw(st.lists(st.sampled_from(reach), max_size=len(reach)))
        G = _natural_graph(U, V, filt, mode)
        with pytest.MonkeyPatch.context() as mp:
            if chunk is not None:  # adjacency and spans in blocks of a few rows
                mp.setattr(bsg, "_BLOCK", chunk)
            assert _outcome(bsg_extract, U, V, G) == _outcome(reference_bsg_extract, U, V, G)

    def test_failed_verification_raises(self, monkeypatch):
        U = IntSet(range(1, 9))
        G = _natural_graph(U, U, range(2, 17), ADDITIVE)
        calls = []

        def never(members, span, G):
            calls.append(members)
            return CheckReport("balbsg", span, None, False, None, "")

        monkeypatch.setattr(bsg, "_balbsg_report", never)
        with pytest.raises(EnergiaError, match="failed its verification"):
            bsg_extract(U, U, G)
        assert len(calls) == 1  # no other candidate, no subset is tried


@pytest.mark.parametrize("n, holds", [(109226, True), (109227, False)])
def test_verification_bound_at_full_density(n, holds):
    # alpha <= 1 on every graph whose alpha counts its edges; at alpha = 1
    # the size bound 3 n / (5 2^16) of a one-element candidate first
    # passes 1 at n = 109227, so a pipeline graph below 109227^2 edges
    # cannot fail the verification
    G = PopularSumGraph(IntSet(range(n)), IntSet([0]), frozenset([0]), Fraction(1))
    report = bsg._balbsg_report((0,), 1, G)
    assert report.holds == holds


class TestKpPipeline:
    def test_ap16_calibrated(self):
        res = kp_pipeline(interval(16), 4, 0.05, mode=CALIBRATED)
        assert res.branch == SUBSET_BRANCH
        assert len(res.A_prime) >= 8
        assert set(res.A_prime) <= set(interval(16))
        span = len(iterated_sumset(res.A_prime, 2, 1))
        assert span <= 10 * len(res.A_prime)

    def test_ap16_paper_takes_energy_branch(self):
        # E_2 = 2736 > 16^(4 - nu + 0.05): the energy condition literally fires
        res = kp_pipeline(interval(16), 4, 0.05, mode=PAPER)
        assert res.branch == ENERGY_BRANCH
        assert res.checks[0].holds

    def test_paper_full_stages_when_energy_branch_impossible(self):
        # huge delta pushes the energy threshold past the maximal energy,
        # so paper mode must run the stages; its absolute thresholds are
        # then trivially cleared
        res = kp_pipeline(interval(16), 4, 3.0, mode=PAPER)
        assert res.branch == SUBSET_BRANCH
        assert len(res.A_prime) >= 1

    def test_stage_stats_keys(self):
        res = kp_pipeline(interval(16), 4, 0.05, mode=CALIBRATED)
        for key in ("S", "G", "Y", "Y1", "Y2", "U", "V", "Sprime", "Uprime", "Y3", "Aprime"):
            assert key in res.stage_stats

    def test_monotone_pruning(self):
        res = kp_pipeline(interval(16), 4, 0.05, mode=CALIBRATED)
        st = res.stage_stats
        assert st["Y2"] <= st["Y1"] <= st["Y"]

    def test_determinism(self):
        r1 = kp_pipeline(interval(12), 4, 0.05, mode=CALIBRATED)
        r2 = kp_pipeline(interval(12), 4, 0.05, mode=CALIBRATED)
        assert r1.trace == r2.trace
        assert r1.A_prime == r2.A_prime

    def test_multiplicative_on_gp(self):
        from energia.sets import gp, iterated_product_set

        res = kp_pipeline(gp(1, 3, 16), 4, 0.05, mode=CALIBRATED, energy_mode=MULTIPLICATIVE)
        assert res.branch == SUBSET_BRANCH
        span = len(iterated_product_set(res.A_prime, 2, 0))
        assert span <= 4 * len(res.A_prime)

    def test_bad_params(self):
        with pytest.raises(BadParamsError):
            kp_pipeline(interval(8), 3, 0.05)
        with pytest.raises(BadParamsError):
            kp_pipeline(interval(8), 4, 0)
        with pytest.raises(BadParamsError):
            kp_pipeline(IntSet([1]), 4, 0.05)

    def test_verify_wrong_branch(self):
        res = kp_pipeline(interval(16), 4, 0.05, mode=PAPER)
        with pytest.raises(WrongBranchError):
            kp_verify(res, interval(16), [(1, 1)])


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    values=st.lists(st.integers(-60, 60) | st.integers(-(10**18), 10**18), min_size=2, max_size=8, unique=True),
    with_zero=st.booleans(),
    s=st.sampled_from((4, 6)),
    energy_mode=st.sampled_from((ADDITIVE, MULTIPLICATIVE)),
)
@example(values=[0, 2**21], with_zero=False, s=6, energy_mode=MULTIPLICATIVE)  # q_3 reaches 2^63
def test_calibrated_pipeline_always_extracts(values, with_zero, s, energy_mode):
    # no stage empties on a real input, so calibrated mode never takes
    # the energy branch (signed sets, 0, values past 2^62 included)
    A = IntSet(values + [0] if with_zero else values)
    res = kp_pipeline(A, s, 0.05, mode=CALIBRATED, energy_mode=energy_mode)
    assert res.branch == SUBSET_BRANCH
    assert len(res.A_prime) >= 1 and set(res.A_prime) <= set(A)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    values=st.lists(st.integers(-40, 40) | st.integers(-(10**18), 10**18), min_size=2, max_size=8, unique=True),
    with_zero=st.booleans(),
    s=st.sampled_from((4, 6)),
    mode=st.sampled_from((CALIBRATED, PAPER)),
    energy_mode=st.sampled_from((ADDITIVE, MULTIPLICATIVE)),
)
def test_pipeline_verifies_each_extraction_once(values, with_zero, s, mode, energy_mode):
    # every graph kp_pipeline builds has alpha <= 1, so its one
    # verification holds; paper mode at delta 3 clears its stages
    A = IntSet(values + [0] if with_zero else values)
    extractions, reports = [], []
    balbsg_report = bsg._balbsg_report

    def extract(*args):
        extractions.append(args)
        return bsg_extract(*args)

    def verify(*args):
        reports.append(balbsg_report(*args))
        return reports[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bsg, "bsg_extract", extract)
        mp.setattr(bsg, "_balbsg_report", verify)
        res = kp_pipeline(A, s, 3.0 if mode == PAPER else 0.05, mode=mode, energy_mode=energy_mode)
    assert len(extractions) == len(reports) == (res.branch == SUBSET_BRANCH)
    assert all(r.holds for r in reports)


class TestFiberOracle:
    def test_fifty_random_sets(self):
        rng = random.Random(42)
        for _ in range(50):
            size = rng.randint(3, 6)
            A = IntSet(rng.sample(range(1, 40), size))
            expected, A_prime, collapse = tuple_oracle(A, 4)
            res = kp_pipeline(A, 4, 0.05, mode=CALIBRATED)
            assert collapse is None and res.branch == SUBSET_BRANCH
            anchor_expected = expected.pop("anchor_sum")
            assert res.anchor_sum == anchor_expected
            for stage, card in expected.items():
                assert res.stage_stats[stage] == card, (A, stage)
            assert res.A_prime == A_prime

    def test_ap16_against_oracle(self):
        A = interval(6)
        expected, A_prime, collapse = tuple_oracle(A, 4)
        res = kp_pipeline(A, 4, 0.05, mode=CALIBRATED)
        assert collapse is None and res.branch == SUBSET_BRANCH
        expected.pop("anchor_sum")
        for stage, card in expected.items():
            assert res.stage_stats[stage] == card
        assert res.A_prime == A_prime
