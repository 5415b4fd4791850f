import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from energia import decomposer, precision
from energia.decomposer import (
    DecomposeConfig,
    certificates,
    com2_budget,
    com2_simulate,
    decompose,
    decompose_eric,
    min_deletion,
    minimal_adversary,
    sign_split,
)
from energia.energy import ADDITIVE, MULTIPLICATIVE, energy
from energia.errors import (
    BadAdversaryError,
    BadParamsError,
    ExtractorFailedError,
    InvariantError,
    ParameterTooLargeError,
    TooLargeError,
)
from energia.sets import IntSet, ap, gp, interval


MIX = IntSet(list(range(1, 33)) + [3**i for i in range(16)])
CFG = DecomposeConfig(k=Fraction(6, 5), s=2, q=4, mode="calibrated")


class TestSignSplit:
    def test_mixed(self):
        pos, neg, zero = sign_split(IntSet([-2, 0, 3]))
        assert list(pos) == [3] and list(neg) == [-2] and list(zero) == [0]

    def test_all_positive(self):
        A = interval(5)
        pos, neg, zero = sign_split(A)
        assert pos == A and len(neg) == 0 and len(zero) == 0

    def test_all_negative(self):
        A = IntSet([-1, -2, -3])
        pos, neg, zero = sign_split(A)
        assert neg == A and len(pos) == 0


class TestConfig:
    def test_defaults_valid(self):
        cfg = DecomposeConfig()
        assert cfg.k == 1

    def test_k_below_one(self):
        with pytest.raises(BadParamsError):
            DecomposeConfig(k=Fraction(1, 2))

    def test_odd_arity(self):
        with pytest.raises(BadParamsError):
            DecomposeConfig(s=3)

    def test_astronomical_arity(self):
        with pytest.raises(ParameterTooLargeError):
            DecomposeConfig(s=2**10)

    @pytest.mark.parametrize("name", ["bogus", "kp-additive", ""])
    def test_unknown_extractor(self, name):
        with pytest.raises(BadParamsError, match="unknown extractor"):
            DecomposeConfig(extractor=name)


class TestCom2:
    def test_budget_16(self):
        assert com2_budget(16, Fraction(1, 2), 1) == 21

    def test_budget_256(self):
        assert com2_budget(256, Fraction(1, 2), 1) == 58

    def test_budget_n1(self):
        assert com2_budget(1, Fraction(1, 2), 1) >= 4
        assert com2_simulate(1, Fraction(1, 2), 1, lambda s: s) == 0

    def test_minimal_simulation_within_budget(self):
        for n in (16, 64, 256):
            for c in (Fraction(1, 4), Fraction(1, 2)):
                steps = com2_simulate(n, c, 1, minimal_adversary(c, 1))
                assert steps <= com2_budget(n, c, 1)

    def test_greedy_adversary(self):
        assert com2_simulate(100, Fraction(1, 2), 1, lambda s: s) == 1

    def test_bad_adversary(self):
        with pytest.raises(BadAdversaryError):
            com2_simulate(100, Fraction(1, 2), 1, lambda s: 1)

    def test_min_deletion_exact(self):
        # ceil(1 * 16^(1/2)) = 4, ceil(16^(3/4)) = 8
        assert min_deletion(16, Fraction(1, 2), 1) == 4
        assert min_deletion(16, Fraction(1, 4), 1) == 8
        assert min_deletion(10, Fraction(1, 2), 1) == 4  # ceil(sqrt(10))

    @staticmethod
    def _scan(size, c, Cc):
        """The least d >= 1 with (d / Cc)^q >= size^p, 1 - c = p/q, by trying
        d = 1, 2, ...: exact, but d comparisons of q-th powers."""
        e = 1 - c
        p, q = e.numerator, e.denominator
        rhs = Cc.numerator**q * size**p
        d = 1
        while d**q * Cc.denominator**q < rhs:
            d += 1
        return d

    PAIRS = [(Fraction(1, 2), Fraction(1)), (Fraction(1, 3), Fraction(1)), (Fraction(3, 4), Fraction(1, 2)),
             (Fraction(2, 5), Fraction(3, 2)), (Fraction(9, 10), Fraction(7, 3))]

    @pytest.mark.parametrize("c, Cc", PAIRS)
    def test_min_deletion_matches_the_scan(self, c, Cc):
        assert [min_deletion(size, c, Cc) for size in range(1, 2001)] == [self._scan(size, c, Cc) for size in range(1, 2001)]

    def test_min_deletion_past_float_estimates(self):
        # sizes past 2^53, which no float holds exactly
        assert min_deletion(2**100, Fraction(1, 2), 1) == 2**50
        assert min_deletion(2**100 + 1, Fraction(1, 2), 1) == 2**50 + 1
        assert min_deletion(2**60, Fraction(1, 3), 3) == 3 * 2**40

    def test_min_deletion_near_c_0(self):
        # 1 - c = 999999999/10^9: the scan would raise each d to the 10^9th power
        assert min_deletion(16, 1e-9, 1) == 16
        assert com2_simulate(16, 1e-9, 1, minimal_adversary(1e-9, 1)) == 1

    @pytest.mark.parametrize("c, Cc", [(0, 1), (1, 1), (Fraction(-1, 2), 1), (Fraction(1, 2), 0)])
    def test_min_deletion_params(self, c, Cc):
        with pytest.raises(BadParamsError):
            min_deletion(16, c, Cc)

    def test_budget_params(self):
        with pytest.raises(BadParamsError):
            com2_budget(10, Fraction(3, 2), 1)

    @pytest.mark.parametrize("c, Cc", PAIRS)
    def test_simulate_admits_exactly_the_least_deletion(self, c, Cc):
        # the first step deletes d at size n; every later one deletes the rest
        first = lambda n, d: lambda size: d if size == n else 10**6
        for n in range(2, 301):
            least = self._scan(n, c, Cc)
            assert com2_simulate(n, c, Cc, first(n, least)) == (1 if n - least <= 1 else 2)
            with pytest.raises(BadAdversaryError, match=f"deleted {least - 1} < minimum at size {n}"):
                com2_simulate(n, c, Cc, first(n, least - 1))

    @pytest.mark.parametrize("c, Cc", [(0, 1), (1, 1), (Fraction(1, 2), 0)])
    def test_simulate_refuses_params_before_any_step(self, c, Cc):
        def adversary(size):
            raise AssertionError("no step may run")

        with pytest.raises(BadParamsError, match="need 0 < c < 1 and Cc > 0"):
            com2_simulate(16, c, Cc, adversary)
        with pytest.raises(BadParamsError, match="need n >= 1"):  # n is refused first
            com2_simulate(0, c, Cc, adversary)

    @pytest.mark.parametrize("d", [0, -1])
    def test_simulate_refuses_no_deletion(self, d):
        with pytest.raises(BadAdversaryError, match=f"deleted {d} < minimum at size 16"):
            com2_simulate(16, Fraction(1, 2), 1, lambda size: d)

    def test_constants_com2_computes_one_budget(self, monkeypatch, capsys):
        from energia import cli

        calls = {"com2_budget": 0, "min_deletion": 0}

        def spy(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)

            return counted

        budget = spy("com2_budget", com2_budget)
        monkeypatch.setattr(cli, "com2_budget", budget)
        monkeypatch.setattr(decomposer, "com2_budget", budget)
        monkeypatch.setattr(decomposer, "min_deletion", spy("min_deletion", min_deletion))
        assert cli.main(["constants", "com2"]) == 0
        values = json.loads(capsys.readouterr().out)["results"]["values"]
        assert values["simulated"] == 5 and calls == {"com2_budget": 1, "min_deletion": 5}
        assert not {"com2_budget", "min_deletion"} & set(com2_simulate.__code__.co_names)


class TestDecompose:
    def test_mix_partitions_exactly(self):
        d = decompose(MIX, CFG)
        assert set(d.B) | set(d.C) == set(MIX)
        assert not (set(d.B) & set(d.C))
        assert d.iterations_used <= d.budget

    def test_mix_certificates(self):
        d = decompose(MIX, CFG)
        exp = Fraction(14, 5)  # 2s - k = 2.8
        if len(d.B):
            eb = energy(d.B, 2, ADDITIVE).count
            assert precision.cmp_count_power(eb, len(d.B), exp) <= 0
        mc = energy(d.C, 2, MULTIPLICATIVE).count
        assert precision.cmp_count_power(mc, len(d.C), exp) <= 0

    def test_pure_ap_zero_iterations(self):
        d = decompose(interval(16), CFG)
        assert d.iterations_used == 0
        assert len(d.B) == 0 and d.C == interval(16)
        assert d.stop_report.holds

    def test_pure_gp_extracts(self):
        G = gp(1, 3, 16)
        d = decompose(G, CFG)
        assert d.iterations_used >= 1
        assert len(d.B) >= 14  # nearly all of the GP moves to B
        for D, rep, _ in d.trace:
            assert rep.holds

    def test_mixed_signs(self):
        A = IntSet([-3, -9, -27, 0, 2, 4, 8, 16])
        d = decompose(A, CFG)
        assert set(d.B) | set(d.C) == set(A)
        assert not (set(d.B) & set(d.C))

    def test_mixed_signs_keep_the_positive_stop_report(self):
        A = IntSet([-3, -9, -27, 0, 2, 4, 8, 16])
        pos, neg = decompose(IntSet([2, 4, 8, 16]), CFG), decompose(IntSet([3, 9, 27]), CFG)
        assert pos.stop_report.holds and neg.stop_report.holds and pos.stop_report != neg.stop_report
        assert decompose(A, CFG).stop_report == pos.stop_report

    def test_dilation_invariance(self):
        G = gp(1, 3, 12)
        G7 = IntSet(7 * g for g in G)
        d1, d2 = decompose(G, CFG), decompose(G7, CFG)
        assert [r.lhs for _, r, _ in d1.trace] == [r.lhs for _, r, _ in d2.trace]
        assert d1.iterations_used == d2.iterations_used

    def test_exhaustive_extractor(self):
        cfg = DecomposeConfig(k=Fraction(6, 5), s=2, q=4, extractor="exhaustive")
        d = decompose(gp(1, 2, 10), cfg)
        assert set(d.B) | set(d.C) == set(gp(1, 2, 10))
        assert d.iterations_used <= d.budget

    def test_empty_rejected(self):
        with pytest.raises(BadParamsError):
            decompose(IntSet([]), CFG)

    @pytest.mark.parametrize(
        "A",
        [MIX, gp(1, 3, 16), interval(16), IntSet([-3, -9, -27, 0, 2, 4, 8, 16]), IntSet([-16, -8, -4, -2, -1]), IntSet([7])],
        ids=["mix", "gp", "interval", "signed", "negative", "singleton"],
    )
    def test_certificates_count_each_part(self, A):
        # a certificate read from the stop report equals a fresh count
        d = decompose(A, CFG)
        certs = certificates(A, d, CFG)
        for label, part, mode in (("B", d.B, ADDITIVE), ("C", d.C, MULTIPLICATIVE)):
            count = energy(part, 2, mode).count if len(part) else 0
            assert certs[label]["count"] == str(count) and certs[label]["size"] == len(part)
            holds = not len(part) or precision.cmp_count_power(count, len(part), Fraction(14, 5)) <= 0
            assert certs[label]["holds"] == holds

    def test_immediate_stop_takes_one_energy(self, monkeypatch):
        # the stop certificate of a residual is decided once, and reported
        calls = []

        def counted(*args):
            calls.append(args)
            return energy(*args)

        monkeypatch.setattr(decomposer, "energy", counted)
        A = IntSet(random.Random(3).sample(range(1, 10**6 + 1), 20))
        d = decompose(A, DecomposeConfig(k=Fraction(6, 5), s=2, q=4))
        assert d.iterations_used == 0 and d.C == A
        assert d.stop_report.holds and d.stop_report.rhs == "|C|^14/5"
        assert len(calls) == 1


def _all_masks_exhaustive(A_i, cert_mode, arity_half):
    """The exhaustive extractor as it was first written: every subset of
    at least the extraction size, least (energy, size, members) first."""
    min_size = max(1, min_deletion(len(A_i), Fraction(1, 2), Fraction(1)))
    elems = list(A_i)
    best = None
    for mask in range(1, 1 << len(elems)):
        members = tuple(elems[i] for i in range(len(elems)) if mask >> i & 1)
        if len(members) < min_size:
            continue
        e = energy(IntSet(members), arity_half, cert_mode).count
        key = (e, len(members), members)
        if best is None or key < best:
            best = key
    return IntSet(best[2])


class TestExhaustiveExtractor:
    @settings(max_examples=100, deadline=None)
    @given(
        st.sets(st.integers(-30, 30), min_size=1, max_size=10),
        st.sampled_from([ADDITIVE, MULTIPLICATIVE]),
        st.sampled_from([1, 2]),
    )
    # energies tie here, and the least members tuple breaks the tie
    @example({-22, -11, -2, 0, 7, 8, 9, 10, 11, 12}, ADDITIVE, 2)
    def test_matches_all_masks(self, values, mode, arity_half):
        A = IntSet(values)
        assert decomposer._extract_exhaustive(A, mode, arity_half) == _all_masks_exhaustive(A, mode, arity_half)

    def test_scores_only_the_minimum_size(self, monkeypatch):
        # 16 elements: the C(16, 4) subsets of size ceil(sqrt(16)) = 4, no others
        calls = []

        def counted(*args):
            calls.append(len(args[0]))
            return energy(*args)

        monkeypatch.setattr(decomposer, "energy", counted)
        A = IntSet(random.Random(5).sample(range(-10**4, 10**4), 16))
        D = decomposer._extract_exhaustive(A, MULTIPLICATIVE, 1)
        assert len(calls) == math.comb(16, 4) == 1820 and set(calls) == {4} and len(D) == 4

    def test_over_cap_refused(self):
        with pytest.raises(TooLargeError):
            decomposer._extract_exhaustive(interval(17), ADDITIVE, 1)


class TestDecomposeEric:
    ECFG = DecomposeConfig(k=1, s1=2, s2=2, mode="calibrated")

    def test_gp_zero_iterations(self):
        d = decompose_eric(gp(1, 3, 16), self.ECFG)
        assert d.iterations_used == 0 and len(d.B) == 0
        assert d.stop_report.holds

    def test_ap_run(self):
        d = decompose_eric(interval(16), self.ECFG)
        assert set(d.B) | set(d.C) == set(interval(16))
        assert d.stop_report.holds
        for D, rep, _ in d.trace:
            assert rep.holds

    def test_singleton_small_set_guard(self):
        d = decompose_eric(IntSet([5]), self.ECFG)
        assert d.iterations_used == 0 and list(d.C) == [5]

    # (A, s1) -> (B, C, |D_i| of each extraction, stop report lhs), with
    # k = 3/2, s2 = 2 and the pipeline extractor
    KP_CASES = {
        "ap-union": (
            list(ap(1, 3, 16)) + list(ap(1000, 7, 16)),
            2,
            list(ap(1, 3, 16)) + list(ap(1000, 7, 16)),
            [],
            [16, 16],
            0,
        ),
        "ap-gp": (
            list(range(1, 25)) + [3**i for i in range(1, 10)],
            2,
            list(range(1, 25)) + [27],
            [3**i for i in range(4, 10)],
            [25],
            66,
        ),
        "interval-s1-4": (list(range(1, 21)), 4, list(range(1, 21)), [], [20], 0),
    }

    @pytest.mark.parametrize("name", sorted(KP_CASES))
    def test_kp_extractor(self, name):
        A, s1, B, C, sizes, stop_lhs = self.KP_CASES[name]
        d = decompose_eric(IntSet(A), DecomposeConfig(k=Fraction(3, 2), s1=s1, s2=2))
        assert list(d.B) == B and list(d.C) == C
        assert d.iterations_used == len(sizes) and not d.failed
        assert [(len(D), rep.name, rep.rhs, rep.holds) for D, rep, _ in d.trace] == [
            (n, "eric", "|D|^5/2", True) for n in sizes
        ]
        assert d.stop_report.holds and d.stop_report.lhs == stop_lhs

    def test_certified_extractions_multiplicative(self):
        cfg = DecomposeConfig(k=1, s1=2, s2=2, extractor="exhaustive")
        A = IntSet(list(range(1, 13)))
        d = decompose_eric(A, cfg)
        exp = Fraction(3)  # 2*s2 - k
        for D, rep, _ in d.trace:
            if D is not None and rep.holds:
                m = energy(D, 1, MULTIPLICATIVE).count
                assert precision.cmp_count_power(m, len(D), exp) <= 0


class TestInvariantErrors:
    """The budget and partition checks raise typed errors, which
    ``python -O`` does not strip.  A stand-in for ``_loop`` forces each
    violation: it puts the first element in B and the rest (or, with
    ``overlap``, all of it) in C."""

    @staticmethod
    def fake_loop(iterations, overlap=False):
        def loop(A_pos, cfg, *args):
            first = A_pos.elements[:1]
            C = A_pos if overlap else IntSet(A_pos.elements[1:])
            return list(first), C, [], iterations, None, False

        return loop

    # each run extracts at least once, and its loop stops at the budget
    @pytest.mark.parametrize(
        "run",
        [
            lambda: decompose(gp(1, 3, 16), CFG),
            lambda: decompose_eric(IntSet(list(range(1, 25)) + [3**i for i in range(1, 10)]), DecomposeConfig(k=Fraction(3, 2))),
        ],
    )
    def test_budget_exceeded(self, monkeypatch, run):
        monkeypatch.setattr(decomposer, "com2_budget", lambda n, c, Cc: 0)
        with pytest.raises(ExtractorFailedError, match="iteration budget exceeded"):
            run()

    @staticmethod
    def one_at_a_time(monkeypatch):
        """Each extraction takes the least element; at k = 4 the stop
        exponent 2s - k is 0, so a part of n elements stops only at one
        element, after n - 1 extractions.  Returns the list the extracted
        elements are appended to, and the config."""
        taken = []

        def extract(A_i, *args):
            taken.append(A_i.elements[0])
            return IntSet(taken[-1:])

        monkeypatch.setattr(decomposer, "_extract_kp", extract)
        return taken, DecomposeConfig(k=4, s=2, q=4)

    def test_sign_parts_share_the_budget_of_A(self, monkeypatch):
        # A+ needs 128 extractions, more than budget(|A+|) = 127 but within budget(|A|)
        taken, cfg = self.one_at_a_time(monkeypatch)
        budget = lambda n: com2_budget(n, decomposer._FRAC_C, decomposer._FRAC_CC)
        A = IntSet(list(range(1, 130)) + [-1])
        assert budget(129) < 128 <= budget(130)
        d = decompose(A, cfg)
        assert d.budget == budget(130) and d.iterations_used == len(taken) == 128
        assert list(d.C) == [-1, 129]

    def test_second_loop_gets_what_the_first_left(self, monkeypatch):
        # each part of 100 needs 99 <= budget(100) extractions; together they pass budget(200)
        taken, cfg = self.one_at_a_time(monkeypatch)
        budget = com2_budget(200, decomposer._FRAC_C, decomposer._FRAC_CC)
        assert 99 + 99 > budget >= 99 and com2_budget(100, decomposer._FRAC_C, decomposer._FRAC_CC) >= 99
        with pytest.raises(ExtractorFailedError, match="iteration budget exceeded"):
            decompose(IntSet(list(range(-100, 0)) + list(range(1, 101))), cfg)
        # the first loop took 99; the second raised on passing the 'budget - 99' left to it
        assert len(taken) == budget + 1 and taken[98:100] == [99, 1]

    @pytest.mark.parametrize("run", [lambda: decompose(MIX, CFG), lambda: decompose_eric(MIX, DecomposeConfig())])
    def test_parts_overlap(self, monkeypatch, run):
        monkeypatch.setattr(decomposer, "_loop", self.fake_loop(0, overlap=True))
        with pytest.raises(InvariantError, match="partition"):
            run()

    def test_fake_loop_partitions(self, monkeypatch):
        monkeypatch.setattr(decomposer, "_loop", self.fake_loop(0))
        d = decompose(MIX, CFG)
        assert set(d.B) | set(d.C) == set(MIX) and not set(d.B) & set(d.C)


class TestFailedCertificate:
    """An extraction whose additive certificate fails ends the loop: the
    piece is traced but not taken into B, no stop report is kept, and the
    CLI exits 1.  At k = 2 the stop exponent 2s - k is 2, and M_2(C) >=
    |C|^2, so the loop extracts until a certificate fails."""

    CFG = DecomposeConfig(k=2, s=2, q=8)

    @staticmethod
    def extract(monkeypatch):
        # {16} holds E_4 = 1 <= 1^6; then {1..10} fails: E_4 = 4816030 > 10^6 = |D|^(q - q/4)
        pieces = iter([IntSet([16]), interval(10)])
        monkeypatch.setattr(decomposer, "_extract_kp", lambda A_i, *args: next(pieces))

    def test_failed_certificate_ends_the_loop(self, monkeypatch):
        self.extract(monkeypatch)
        d = decompose(interval(16), self.CFG)
        assert d.failed and d.stop_report is None and d.iterations_used == 1
        assert [(list(D), r.holds, t) for D, r, t in d.trace] == [([16], True, 6), (list(range(1, 11)), False, 6)]
        report = d.trace[-1][1]
        assert report.name == "gemn" and report.lhs == energy(interval(10), 4).count == 4816030
        assert list(d.B) == [16] and list(d.C) == list(range(1, 16))

    def test_cli_exits_1(self, monkeypatch, capsys, tmp_path):
        from energia.cli import main

        self.extract(monkeypatch)
        p = tmp_path / "interval.txt"
        p.write_text(" ".join(str(v) for v in range(1, 17)))
        assert main(["decompose", "--k", "2", "--q", "8", str(p)]) == 1
        res = json.loads(capsys.readouterr().out)["results"]
        assert res["failed"] and res["stop_report"] is None
        assert [t["report"]["holds"] for t in res["trace"]] == [True, False]


def test_random_partition_property():
    rng = random.Random(9)
    for _ in range(10):
        vals = rng.sample(range(1, 400), rng.randint(4, 12))
        A = IntSet(vals)
        d = decompose(A, CFG)
        assert set(d.B) | set(d.C) == set(A)
        assert not (set(d.B) & set(d.C))
        assert d.iterations_used <= d.budget
