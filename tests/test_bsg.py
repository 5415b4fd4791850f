import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from energia import _kernel, _keys, bsg
from energia.bsg import (
    CALIBRATED,
    ENERGY_BRANCH,
    PAPER,
    SUBSET_BRANCH,
    PopularSumGraph,
    bsg_extract,
    kp_pipeline,
    kp_verify,
)
from energia.checks import CheckReport
from energia.energy import ADDITIVE, MULTIPLICATIVE
from fiber_oracle import reference_bsg_extract, tuple_oracle
from energia.errors import (
    BadParamsError,
    EmptyGraphError,
    EnergiaError,
    OverflowGuardError,
    WrongBranchError,
)
from energia.sets import IntSet, gp, interval, iterated_sumset


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

    @pytest.mark.parametrize("empty", ["U", "V"])
    def test_empty_side_has_no_edges(self, empty):
        side = IntSet([1, 2, 3])
        U, V = (IntSet([]), side) if empty == "U" else (side, IntSet([]))
        with pytest.raises(EmptyGraphError):
            bsg_extract(U, V, PopularSumGraph(U, V, frozenset({3, 4}), Fraction(1, 9)))


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

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        U=vertex_sets,
        V=st.lists(st.integers(-12, 25), min_size=1, max_size=12, unique=True),
        data=st.data(),
        scale=st.sampled_from((1, 7, 2**31 + 11, 2**61 + 3, 2**64 + 13)),
        mode=st.sampled_from((ADDITIVE, MULTIPLICATIVE)),
    )
    def test_stage_grid_matches_the_graph(self, U, V, data, scale, mode):
        # the value arrays kp_pipeline passes on its value path give the
        # same extraction as the graph alone; 2^64 + 13 puts every nonzero
        # value past 2^63, so the arrays hold Python ints
        U, V = IntSet(scale * u for u in U), IntSet(scale * v for v in V)
        op = (lambda a, b: a + b) if mode == ADDITIVE else (lambda a, b: a * b)
        reach = sorted({op(u, v) for u in U for v in V})
        filt = sorted(set(data.draw(st.lists(st.sampled_from(reach), max_size=len(reach)))))
        G = _natural_graph(U, V, filt, mode)
        X, Y, S = (np.array(v, dtype=_kernel.exact_dtype(max(map(abs, v), default=0))) for v in (list(U), list(V), filt))
        grid = X, Y, S, mode == ADDITIVE
        assert _outcome(lambda *args: bsg_extract(*args, grid), U, V, G) == _outcome(bsg_extract, U, V, G)

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


def _full_mask_choice(U, V, G):
    """bsg_extract's additive candidate ranking with one bool mask per
    candidate, each size counted from its mask: (members, span, number
    of distinct candidates tied with the winner on (rank, size))."""
    elems = list(U)
    X = np.array(elems, dtype=_kernel.exact_dtype(bsg._reach(elems)))
    adj = bsg._membership(X, V.elements, sorted(G.sum_filter), True)
    deg = adj.sum(axis=1)
    by_degree = np.argsort(-deg, kind="stable")
    candidates = []
    for seed in by_degree[deg[by_degree] > 0][:4].tolist():
        codeg = adj[:, adj[seed]].sum(axis=1)
        inside = np.flatnonzero(codeg)
        taus = np.unique(codeg[inside])
        level = len(taus) - 1 - np.searchsorted(taus, codeg[inside])
        spans = bsg._nested_spans(X[inside], level, True)
        candidates.extend((codeg >= tau, span) for tau, span in zip(taus[::-1].tolist(), spans))
    shift = 2 * max(span for _, span in candidates).bit_length() + 1

    def rank(candidate):
        mask, span = candidate
        size = int(np.count_nonzero(mask))
        return (size * size << shift) // span, size

    mask, span = max(candidates, key=rank)
    ties = len({m.tobytes() for m, sp in candidates if rank((m, sp)) == rank((mask, span))})
    return tuple(elems[k] for k in np.flatnonzero(mask).tolist()), span, ties


def _square_spans(P, level, additive):
    """Spans |C_j|^2, which tie every candidate at ratio 1."""
    return [int(np.count_nonzero(level <= j)) ** 2 for j in range(int(level.max()) + 1)]


@pytest.mark.parametrize("spans", ["measured", "square"])
def test_ranking_matches_full_masks_on_tied_graphs(monkeypatch, spans):
    # few vertices in a short range and a fifth of their sums: distinct
    # candidates often tie on (rank, size), and the first of them must
    # win; with square spans every ratio ties, and the largest must win
    if spans == "square":
        monkeypatch.setattr(bsg, "_nested_spans", _square_spans)
    rng = random.Random(5)
    tied = 0
    for _ in range(300):
        U = IntSet(rng.sample(range(40), rng.randint(1, 10)))
        V = IntSet(rng.sample(range(40), rng.randint(1, 4)))
        sums = sorted({u + v for u in U for v in V})
        G = _natural_graph(U, V, rng.sample(sums, max(1, len(sums) // 5)), ADDITIVE)
        members, span, ties = _full_mask_choice(U, V, G)
        A_prime, report = bsg_extract(U, V, G)
        assert tuple(A_prime) == members and report == bsg._balbsg_report(members, span, G)
        tied += ties > 1
    assert tied >= 30


@pytest.mark.parametrize("n, holds", [(109226, True), (109227, False)])
def test_verification_bound_at_full_density(n, holds):
    # alpha <= 1 on every graph whose alpha counts its edges; at alpha = 1
    # the size bound 3 n / (5 2^16) of a one-element candidate first
    # passes 1 at n = 109227, so a pipeline graph below 109227^2 edges
    # cannot fail the verification
    G = PopularSumGraph(IntSet(range(n)), IntSet([0]), frozenset([0]), Fraction(1))
    report = bsg._balbsg_report((0,), 1, G)
    assert report.holds == holds


# -- the direct-indexed grid paths against the searches they replace ---------

EDGE = 2**63 - 1
_OPS = {True: lambda a, b: a + b, False: lambda a, b: a * b}


def _search_path(fn, cap, *args):
    """``fn(*args)`` with the cap of its direct-indexed path set to 0, so
    that it takes the searchsorted or ``np.unique`` path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bsg, cap, 0)
        return fn(*args)


def _grid_operands(add, place, xs, ys):
    """X and Y whose cells lie near 0 ("middle") or within a few units of
    +-(2^63 - 1) ("top", "bottom"), with an int64 grid either way."""
    if place == "middle":
        return xs, ys
    sign = 1 if place == "top" else -1
    if add:  # each operand at most 2^62 - 1 in size, so every cell fits
        return [sign * (2**62 - 7 + x) for x in xs], [sign * (2**62 - 7 + y) for y in ys]
    # products: one operand in {-1, 0, 1}, so the other bounds every cell
    return [(x > 0) - (x < 0) for x in xs], [sign * (EDGE - 6 + y) for y in ys]


class TestDirectIndexedPaths:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        add=st.booleans(),
        place=st.sampled_from(("middle", "top", "bottom")),
        xs=st.lists(st.integers(-6, 6), min_size=1, max_size=9),
        ys=st.lists(st.integers(-6, 6), min_size=1, max_size=9),
        data=st.data(),
        cap=st.sampled_from((None, 1, 4, 30)),
        block=st.sampled_from((None, 1, 3, 7)),
    )
    def test_membership_table_matches_search(self, add, place, xs, ys, data, cap, block):
        X, Y = _grid_operands(add, place, xs, ys)
        cells = sorted({_OPS[add](x, y) for x in X for y in Y})
        lo, hi = cells[0], cells[-1]
        picked = data.draw(st.lists(st.sampled_from(cells), max_size=6))
        # values around the cells leave some cells below min S and above max S
        near = data.draw(st.lists(st.integers(max(lo - 9, -EDGE), min(hi + 9, EDGE)), max_size=4))
        # a far value widens S past the cap, either side of it, or across
        # int64, where cell - min S wraps
        far = data.draw(st.sampled_from((None, 0, EDGE - 2, -EDGE + 2, lo + 2**21 - 1, lo + 2**21)))
        S = sorted(set(picked + near + ([] if far is None or abs(far) > EDGE else [far])))
        with pytest.MonkeyPatch.context() as mp:
            if cap is not None:
                mp.setattr(bsg, "_TABLE", cap)
            if block is not None:
                mp.setattr(bsg, "_BLOCK", block)
            got = bsg._membership(X, Y, S, add)
            want = _search_path(bsg._membership, "_TABLE", X, Y, S, add)
        assert np.array_equal(got, want)
        members = set(S)
        assert got.tolist() == [[_OPS[add](x, y) in members for y in Y] for x in X]

    @pytest.mark.parametrize("add", [True, False])
    @pytest.mark.parametrize("place, S", [("top", [-EDGE, -EDGE + 3]), ("bottom", [EDGE - 3, EDGE])])
    def test_membership_table_wraps_to_its_end_slots(self, monkeypatch, add, place, S):
        # cells at one end of int64 against an S at the other: cell - min S + 1
        # wraps, past the end (cells below S) or below 0 (cells above S)
        built = []
        make = bsg._table
        monkeypatch.setattr(bsg, "_table", lambda S: built.append(make(S)) or built[-1])
        X, Y = _grid_operands(add, place, [-3, 0, 5], [-6, 1, 6])
        got = bsg._membership(X, Y, S, add)
        assert [len(t) for t in built] == [S[1] - S[0] + 3]
        assert got.tolist() == [[_OPS[add](x, y) in S for y in Y] for x in X]

    @pytest.mark.parametrize("span, table", [(2**21 - 1, True), (2**21, False)])
    def test_membership_table_below_the_cap_only(self, monkeypatch, span, table):
        built = []
        make = bsg._table
        monkeypatch.setattr(bsg, "_table", lambda S: built.append(make(S)) or built[-1])
        S = [-5, -5 + span]
        got = bsg._membership([-9, -5, 0], [0, span, span + 1], S, True)
        assert got.tolist() == [[False, False, False], [True, True, False], [False, False, False]]
        assert [len(t) for t in built] == ([span + 3] if table else [])

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        add=st.booleans(),
        bits=st.integers(0, 9),
        extra=st.integers(0, 12),
        scale=st.sampled_from(("small", "edge", "over", "wide")),
        seed=st.integers(0, 2**32),
        block=st.sampled_from((None, 1, 5, 64)),
    )
    def test_nested_spans_match_sets(self, add, bits, extra, scale, seed, block):
        rng = random.Random(seed)
        # k levels, every one taken, need ``bits`` bits for the top level
        k = 1 if bits == 0 else rng.randint(2 ** (bits - 1) + 1, 2**bits)
        level = rng.sample(list(range(k)) + [rng.randrange(k) for _ in range(extra)], k + extra)
        # "edge": sums or products within a few units of 2^63 - 1, int64;
        # "over": just past it, and "wide": far past it, object arrays
        edge = EDGE // 2 if add else math.isqrt(EDGE)
        mag = {"small": 40, "edge": edge - rng.randint(0, 3), "over": edge + 1, "wide": 2**70}[scale]
        near = mag if scale == "small" else 4
        P = [rng.choice((-mag, mag))] + [rng.choice((-1, 1)) * (mag - rng.randint(0, near)) for _ in range(k + extra - 1)]
        with pytest.MonkeyPatch.context() as mp:
            if block is not None:
                mp.setattr(_kernel, "_CHUNK", block)
            got = bsg._nested_spans(P, np.array(level), add)
        assert got == _nested_span_sets(P, level, add)

    @pytest.mark.parametrize("add", (True, False))
    @pytest.mark.parametrize("bits", (1, 5, 9))
    def test_nested_spans_pack_up_to_the_cap(self, monkeypatch, add, bits):
        # with levels in ``bits`` bits, (sum - min sum) << bits | level fits
        # a 64-bit key up to the first magnitude and argsorts from the
        # second; sums or products reach +-(2^63 - 1) at the third and pass
        # it (object arrays) at the fourth.  One element a level, blocks of
        # a few rows.
        monkeypatch.setattr(_kernel, "_CHUNK", 3 * 2**bits)
        top = 2 ** (64 - bits) - 1  # the widest span of packed sums
        cap = top // 4 if add else math.isqrt(top // 2)
        edge = EDGE // 2 if add else math.isqrt(EDGE)
        k = 2**bits
        for mag in (cap, cap + 1, edge, edge + 1):
            P = [mag - i for i in range(k - 1)] + [-mag]
            level = list(range(k))[::-1]
            assert bsg._nested_spans(P, np.array(level), add) == _nested_span_sets(P, level, add)


def _nested_span_sets(P, level, add):
    """|C_j + C_j| (or |C_j * C_j|) for each j, C_j = {P_i : level_i <= j},
    from one growing Python set of sums."""
    seen, sums, spans = [], set(), []
    for j in range(max(level) + 1):
        for x in (p for p, l in zip(P, level) if l == j):
            seen.append(x)
            sums.update(_OPS[add](x, y) for y in seen)
        spans.append(len(sums))
    return spans


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

    @pytest.mark.parametrize("delta", (float("nan"), float("inf")))
    def test_non_finite_delta_is_refused_before_the_chain(self, monkeypatch, delta):
        calls = []
        chain = bsg._chain
        monkeypatch.setattr(bsg, "_chain", lambda *args: calls.append(args) or chain(*args))
        with pytest.raises(BadParamsError, match="delta must be finite"):
            kp_pipeline(interval(12), 4, delta)
        assert calls == []

    def test_guard_runs_before_any_kernel_work(self, monkeypatch):
        # 235^4 passes the count guard and 235^8 does not: the pipeline
        # refuses s = 8 before building r_1, r_{s/2} or r_s
        calls = []
        for name in ("power", "pair"):
            fn = getattr(_kernel, name)
            monkeypatch.setattr(_kernel, name, lambda *args, fn=fn: calls.append(fn) or fn(*args))
        with pytest.raises(OverflowGuardError):
            kp_pipeline(interval(235), 8, 0.05)
        assert calls == []
        kp_pipeline(interval(235), 4, 0.05)
        assert calls

    @pytest.mark.parametrize(
        "A, energy_mode, keyed",
        [
            (IntSet([-5, 0, 1, 2, 4, 9, 30]), ADDITIVE, False),
            (interval(16), MULTIPLICATIVE, False),
            (gp(7**25, 3, 12), MULTIPLICATIVE, True),
        ],
    )
    def test_extraction_gets_the_stage_grid(self, monkeypatch, A, energy_mode, keyed):
        # on values, the grid holds U, V and the sorted popular sums; on
        # exponent keys, their keys, which add
        grids, extract = [], bsg.bsg_extract

        def spy(U, V, G, grid=None):
            grids.append((U, V, G, grid))
            return extract(U, V, G, grid)

        monkeypatch.setattr(bsg, "bsg_extract", spy)
        kp_pipeline(A, 4, 0.05, energy_mode=energy_mode)
        [(U, V, G, grid)] = grids
        X, Y, S, add = grid
        assert add == (keyed or energy_mode == ADDITIVE)
        assert (len(X), len(Y), len(S)) == (len(U), len(V), len(G.sum_filter))
        if not keyed:
            assert (X.tolist(), Y.tolist(), S.tolist()) == (list(U), list(V), sorted(G.sum_filter))

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


def _blocked_matvec(M, v, block=1 << 12):
    """M @ v by an int64 matmul over row blocks of about ``block`` cells."""
    rows = max(1, block // M.shape[1])
    return np.concatenate([M[i : i + rows] @ v for i in range(0, len(M), rows)])


class TestExactReductions:
    """``_matvec`` (degrees, scores, overlaps, z sizes and codegrees) sums
    the bool grid in int64 through ``einsum``, with no int64 copy of it."""

    @given(st.integers(1, 40), st.integers(1, 40), st.floats(0, 1), st.integers(0, 2**32), st.integers(0, 2**31))
    @settings(max_examples=80, deadline=None)
    def test_matches_blocked_matmul(self, rows, cols, density, top, seed):
        rng = np.random.default_rng(seed)
        M = rng.random((rows, cols)) < density
        v = rng.integers(0, top + 1, cols)
        got = bsg._matvec(M, v)
        assert got.dtype == np.int64 and got.tolist() == _blocked_matvec(M, v, 16).tolist()
        # a bool vector counts, as a codegree does
        assert bsg._matvec(M, M[0]).tolist() == _blocked_matvec(M, M[0].astype(np.int64)).tolist()

    @given(st.integers(2, 60), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_views_match_blocked_matmul(self, n, seed):
        rng = np.random.default_rng(seed)
        M = rng.random((n, n)) < 0.4
        h = rng.integers(1, 10**6, n)
        R_x = np.flatnonzero(M[0]) if M[0].any() else np.arange(1)
        Y = np.sort(rng.choice(n, rng.integers(1, n + 1), replace=False))
        for grid, v in ((M[:, R_x], h[R_x]), (M[np.ix_(R_x, Y)], h[Y]), (M[::2, ::3], h[::3]), (M.T, h)):
            assert bsg._matvec(grid, v).tolist() == _blocked_matvec(grid, v).tolist()

    def test_row_summing_to_the_int64_limit(self):
        M = np.zeros((3, 5), dtype=bool)
        M[0] = True
        M[1, :2] = True
        v = np.array([2**62, 2**62 - 2, 1, 0, 0], dtype=np.int64)
        assert int(v.sum()) == 2**63 - 1
        want = [2**63 - 1, 2**63 - 2, 0]
        assert bsg._matvec(M, v).tolist() == _blocked_matvec(M, v).tolist() == want

    def test_no_int64_copy_of_the_grid(self):
        rng = np.random.default_rng(7)
        M = rng.random((2000, 2000)) < 0.3  # 4 MB of bool; an int64 copy is 32 MB
        h = rng.integers(1, 1000, 2000)
        tracemalloc.start()
        try:
            deg = bsg._matvec(M, h)
            codeg = bsg._matvec(M, M[3])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert deg.tolist() == (M.astype(np.int64) @ h).tolist()
        assert codeg.tolist() == M[:, M[3]].sum(axis=1).tolist()


def _sorted_top(pos, mass, k, values=None):
    """``_top`` by a full sort: the k positions of largest mass, ties to
    the least value (the position itself when ``values`` is None)."""
    key = (lambda p: p) if values is None else (lambda p: values(np.array([p]))[0])
    return sorted(sorted(pos.tolist(), key=lambda p: (-int(mass[p]), key(p)))[:k])


class TestCutsAndLevels:
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=40), st.integers(1, 45), st.data())
    @settings(max_examples=150, deadline=None)
    @example([2, 2, 2, 1, 0], 2, None)  # the cut splits three ties
    @example([3, 3, 1, 1], 2, None)  # all ties at the cut are taken
    def test_top_matches_a_sort(self, masses, k, data):
        mass = np.array(masses, dtype=np.int64)
        pos = np.flatnonzero(mass >= 0)
        assert bsg._top(pos, mass, k).tolist() == _sorted_top(pos, mass, k)
        # values in another order than positions, as exponent keys decode
        perm = np.array(data.draw(st.permutations(range(len(mass)))) if data is not None else range(len(mass)))
        values = lambda idx: perm[idx]
        assert bsg._top(pos, mass, k, values).tolist() == _sorted_top(pos, mass, k, values)
        if k < len(pos):
            assert bsg._top_mass(mass, values).tolist() == _sorted_top(
                np.flatnonzero(mass > 0), mass, (np.count_nonzero(mass) + 1) // 2, values
            )

    def test_values_are_looked_up_only_when_the_cut_splits_ties(self):
        mass = np.array([5, 3, 3, 1], dtype=np.int64)
        calls = []
        values = lambda idx: calls.append(idx.tolist()) or -idx
        assert bsg._top(np.arange(4), mass, 3, values).tolist() == [0, 1, 2]
        assert calls == []
        assert bsg._top(np.arange(4), mass, 2, values).tolist() == [0, 2]
        assert calls == [[1, 2]]

    @given(st.lists(st.integers(1, 30), min_size=1, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_levels_match_unique(self, codeg):
        c = np.array(codeg, dtype=np.int64)
        taus, counts, level = bsg._levels(c)
        want_taus, at, want_counts = np.unique(c, return_inverse=True, return_counts=True)
        assert taus.tolist() == want_taus.tolist() and counts.tolist() == want_counts.tolist()
        assert level.tolist() == (len(want_taus) - 1 - at).tolist()


class TestGraphSums:
    """A pipeline graph holds the sums' coordinates and decodes them only
    when ``sum_filter`` is read."""

    def test_keyed_sums_are_decoded_on_read(self, monkeypatch):
        decoded, graphs, values, extract = [], [], _keys.Codec.values, bsg.bsg_extract

        def spy_values(codec, keys, factors):
            decoded.append(np.array(keys))
            return values(codec, keys, factors)

        def spy_extract(U, V, G, grid=None):
            graphs.append((G, grid))
            return extract(U, V, G, grid)

        monkeypatch.setattr(_keys.Codec, "values", spy_values)
        monkeypatch.setattr(bsg, "bsg_extract", spy_extract)
        A = gp(7**25, 3, 12)  # products past 2^62: exponent keys
        res = kp_pipeline(A, 4, 0.05, energy_mode=MULTIPLICATIVE)
        [(G, (_, _, S, add))] = graphs
        assert add and G.values_of is not None and G.bound_n() == max(len(G.left), len(G.right), len(S))
        assert not any(np.array_equal(keys, S) for keys in decoded)
        before = len(decoded)
        sums = sorted(G.sum_filter)
        assert len(decoded) == before + 1 and np.array_equal(decoded[-1], S)
        G.sum_filter
        assert len(decoded) == before + 1  # decoded once
        assert all(type(x) is int for x in sums)
        # the value form's graph holds the same sums
        monkeypatch.setattr(_keys, "encode", lambda elements, arity: None)
        assert kp_pipeline(A, 4, 0.05, energy_mode=MULTIPLICATIVE).A_prime == res.A_prime
        (G_vals, (_, _, S_vals, add)), = graphs[1:]
        assert not add and G_vals.values_of(S_vals) is S_vals
        assert sorted(G_vals.sum_filter) == S_vals.tolist() == sums

    @pytest.mark.parametrize("sums", [frozenset({3, 4, 5}), {3, 4, 5}])
    def test_hand_built_graphs(self, sums):
        U = IntSet([1, 2])
        G = PopularSumGraph(U, U, sums, Fraction(1, 2))
        assert G.sum_filter == frozenset({3, 4, 5}) and G.bound_n() == 3
        assert bsg_extract(U, U, G)[0] == U
