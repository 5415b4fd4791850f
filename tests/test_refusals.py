"""Refusals that no other test reaches: each call, its error class and the
exit code the CLI maps that class to."""

from fractions import Fraction

import pytest

from energia import precision
from energia.bsg import kp_pipeline
from energia.checks import check_convex_growth, check_pluennecke, check_union_bound, check_war2
from energia.constants import eric_params, rtp_exponent_bound, thrt_trace
from energia.decomposer import DecomposeConfig, decompose_eric
from energia.energy import MULTIPLICATIVE, mixed_energy, rep_function
from energia.errors import BadParamsError, EmptySetError, EnergiaError, ZeroElementError
from energia.sets import IntSet, interval, mixed, poly_image, powers

A = IntSet([1, 2, 3, 5])

REFUSALS = [
    ("union of no parts", lambda: check_union_bound([], 2), BadParamsError, 2),
    (
        "multiplicative union with 0",
        lambda: check_union_bound([IntSet([0, 1]), IntSet([2, 3])], 2, MULTIPLICATIVE),
        ZeroElementError,
        2,
    ),
    ("pluennecke at m = n = 0", lambda: check_pluennecke(A, 0, 0), BadParamsError, 2),
    ("convex growth under 4 elements", lambda: check_convex_growth(IntSet([1, 2, 3]), 2, Fraction(1)), BadParamsError, 2),
    ("war2 at k = 0", lambda: check_war2(0, 2, 5), BadParamsError, 2),
    ("powers at k = 0", lambda: powers(0, 5), BadParamsError, 2),
    ("interval(0)", lambda: interval(0), BadParamsError, 2),
    ("mixed(0)", lambda: mixed(0), BadParamsError, 2),
    ("poly_image of no coefficients", lambda: poly_image([], A), BadParamsError, 2),
    ("poly_image over an empty base", lambda: poly_image([1], IntSet([])), EmptySetError, 2),
    ("eric_params at m = 0", lambda: eric_params(30, 0), BadParamsError, 2),
    ("rtp_exponent_bound at k = 1", lambda: rtp_exponent_bound(1, 4), BadParamsError, 2),
    ("thrt_trace at k = 1", lambda: thrt_trace(1, 1, 8), BadParamsError, 2),
    ("thrt_trace at Lambda0 = 0", lambda: thrt_trace(2, 0, 8), BadParamsError, 2),
    ("rep_function in an unknown mode", lambda: rep_function(A, 2, "x"), BadParamsError, 2),
    ("mixed_energy in an unknown mode", lambda: mixed_energy([A, A], "x"), BadParamsError, 2),
    ("mixed_energy over an empty factor", lambda: mixed_energy([A, IntSet([])]), EmptySetError, 2),
    ("kp_pipeline in an unknown mode", lambda: kp_pipeline(A, 4, 0.05, mode="x"), BadParamsError, 2),
    ("DecomposeConfig in an unknown mode", lambda: DecomposeConfig(mode="x"), BadParamsError, 2),
    ("decompose_eric of the empty set", lambda: decompose_eric(IntSet([]), DecomposeConfig()), BadParamsError, 2),
    ("decompose_eric with a negative element", lambda: decompose_eric(IntSet([-1, 2, 3]), DecomposeConfig()), BadParamsError, 2),
]


@pytest.mark.parametrize("call, error, code", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
def test_refusal_class_and_exit_code(call, error, code):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error and isinstance(caught.value, EnergiaError)
    assert caught.value.code == code


def test_cmp_count_power_refuses_negative_counts_and_takes_integer_exponents():
    with pytest.raises(ValueError):
        precision.cmp_count_power(-1, 2, 1)
    assert precision.cmp_count_power(9, 3, 2) == 0
