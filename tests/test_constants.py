from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from energia import constants
from energia.constants import (
    bta_eta,
    eric_params,
    gemn_params,
    rtp_constants,
    rtp_exponent_bound,
    thrt_trace,
)
from energia.errors import BadParamsError


def _is_exact(x):
    return isinstance(x, (int, Fraction))


def _ceil_log2_loop(k):
    e, p = 0, Fraction(1)
    while p < k:
        p *= 2
        e += 1
    return e


@settings(max_examples=300, deadline=None)
@given(st.fractions(min_value=1, max_value=2**70, max_denominator=10**6))
@example(Fraction(1))
@example(Fraction(2))
@example(Fraction(2**40))
@example(Fraction(2**40 + 1, 1))
@example(Fraction(2**40 + 1, 2**40))
@example(Fraction(2**40 - 1, 2**39))
def test_ceil_log2_matches_doubling(k):
    assert constants._ceil_log2(k) == _ceil_log2_loop(k)


class TestGemnParams:
    def test_k1_q2(self):
        g = gemn_params(1, 2)
        assert all(_is_exact(g[key]) for key in ("Lambda", "l", "log2_m"))
        assert g["Lambda"] == 31
        assert g["l"] == g["log2_m"] == 37200

    def test_k1_q4(self):
        g = gemn_params(1, 4)
        assert all(_is_exact(g[key]) for key in ("Lambda", "l", "log2_m"))
        assert g["Lambda"] == 56
        assert g["l"] == 600 * 4 * 56

    def test_lambda_q6_is_irrational(self):
        Lambda = gemn_params(1, 6)["Lambda"]
        assert isinstance(Lambda, mpmath.mpf)
        with mpmath.workprec(300):
            assert abs(Lambda - (6 + 25 * mpmath.log(6, 2))) < mpmath.mpf(2) ** -200

    def test_log2_U_follows_the_precision_bits(self, monkeypatch):
        monkeypatch.setenv("ENERGIA_PRECISION_BITS", "1024")
        log2_U = gemn_params(1, 2)["log2_U"]
        with mpmath.workprec(1100):
            assert abs(log2_U - (mpmath.log(120, 2) + 37200)) < mpmath.mpf(2) ** -900

    def test_tower_representable(self):
        g = gemn_params(1, 2)
        # s = 2^(5 + (1 + 120*2^37200) * 1): only its log2 is materializable
        log2_s = g["log2_s"]
        assert isinstance(log2_s, mpmath.mpf)
        assert mpmath.log(log2_s, 2) > 37200

    def test_validation(self):
        with pytest.raises(BadParamsError):
            gemn_params(Fraction(1, 2), 2)
        with pytest.raises(BadParamsError):
            gemn_params(1, 3)


class TestEricParams:
    def test_b30_m2(self):
        e = eric_params(30, 2)
        assert e["k"] == 1
        assert e["log2_s2"] == 246 and _is_exact(e["log2_s2"])

    def test_k_formula(self):
        assert eric_params(60, 1)["k"] == 2

    def test_validation(self):
        with pytest.raises(BadParamsError):
            eric_params(29, 1)


class TestRtp:
    def test_T2(self):
        assert rtp_constants(2)["T_k"] == 2412

    def test_T3(self):
        assert rtp_constants(3)["T_k"] == 4988

    def test_growth_budget_matches_a_term_by_term_derivation(self):
        # T_k re-derived one term at a time, against transcription slips
        for k in range(2, 65):
            doubling_terms = 2**k
            t = 82 * k
            t += 82 * (doubling_terms - k - 1)
            t += 240 * doubling_terms
            assert constants._growth_budget(k) == t + t == rtp_constants(k)["T_k"]

    def test_eta2_to_50_bits(self):
        eta = rtp_constants(2)["eta_k"]
        with mpmath.workprec(120):
            exact = mpmath.log(mpmath.mpf(2413) / 2412, 2)
            assert abs(eta - exact) < mpmath.mpf(2) ** -50

    def test_exponent_bound_monotone_in_s(self):
        b8 = rtp_exponent_bound(2, 8)
        b16 = rtp_exponent_bound(2, 16)
        # 2s - k dominates; the correction shrinks
        assert b16 - b8 > 15.9


class TestThrt:
    def test_growth_ratio_exact(self):
        t = thrt_trace(2, Fraction(1, 2), 8)
        assert t.growth == Fraction(2413, 2412)

    def test_values_are_exact_geometric(self):
        t = thrt_trace(2, Fraction(1, 2), 32)
        for i in range(1, len(t.values)):
            assert t.values[i] == t.values[i - 1] * t.growth

    def test_crossing_detected(self):
        t = thrt_trace(2, Fraction(3, 2), 8)
        assert t.crossing_index == 0  # already >= k - 1 = 1

    def test_power_of_two_required(self):
        with pytest.raises(BadParamsError):
            thrt_trace(2, Fraction(1, 2), 12)


class TestBta:
    def test_fixed_point_k4(self):
        target = gemn_params(4, 40)["log2_s"]
        assert bta_eta(target)["k"] == 4

    def test_recovers_k5(self):
        target = gemn_params(5, 50)["log2_s"]
        assert bta_eta(target)["k"] == 5

    def test_too_small(self):
        with pytest.raises(BadParamsError):
            bta_eta(10)

    def test_certificate_chain(self):
        cert = bta_eta(gemn_params(4, 40)["log2_s"])["certificate"]
        assert cert["q"] == 40
