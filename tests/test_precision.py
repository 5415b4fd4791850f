from fractions import Fraction

import mpmath
import pytest

from energia import precision
from energia.cli import main
from energia.errors import BadParamsError, PrecisionError


def test_precision_bits_from_environment(monkeypatch):
    monkeypatch.delenv(precision.PRECISION_ENV, raising=False)
    assert precision.precision_bits() == precision.DEFAULT_PRECISION_BITS
    monkeypatch.setenv(precision.PRECISION_ENV, "100")
    assert precision.precision_bits() == 100
    with precision.working():
        assert mpmath.mp.prec == 100
    monkeypatch.setenv(precision.PRECISION_ENV, "8")
    assert precision.precision_bits() == 64


@pytest.mark.parametrize("raw", ["abc", "12.5", ""])
def test_malformed_precision_bits_fail_loudly(monkeypatch, raw):
    monkeypatch.setenv(precision.PRECISION_ENV, raw)
    with pytest.raises(BadParamsError) as exc:
        precision.precision_bits()
    assert precision.PRECISION_ENV in str(exc.value)
    assert repr(raw) in str(exc.value)


def test_malformed_precision_bits_in_the_cli(monkeypatch, capsys, tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("1 2 3\n")
    monkeypatch.setenv(precision.PRECISION_ENV, "lots")
    assert main(["energy", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: ENERGIA_PRECISION_BITS='lots'")


def test_rational_coercion():
    assert precision.rational(3, "x") == 3
    assert precision.rational(Fraction(2, 3), "x") == Fraction(2, 3)
    assert precision.rational(0.1, "x") == Fraction(1, 10)
    with pytest.raises(BadParamsError, match="x must be a rational number"):
        precision.rational("0.1", "x")
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(BadParamsError, match="x must be finite"):
            precision.rational(bad, "x")


def _mpf(n, offset):
    with mpmath.workprec(256):
        return mpmath.mpf(n) + offset


@pytest.mark.parametrize("n", [0, 5, -7, 2**40])
def test_guarded_floor_refuses_either_side_of_an_integer(monkeypatch, n):
    monkeypatch.delenv(precision.PRECISION_ENV, raising=False)
    assert precision.precision_bits() == 256
    with mpmath.workprec(256):
        tiny = mpmath.mpf(2) ** -200
        third = mpmath.mpf(1) / 3
    for offset in (tiny, -tiny):
        with pytest.raises(PrecisionError):
            precision.guarded_floor(_mpf(n, offset))
    assert precision.guarded_floor(_mpf(n, 0)) == n
    assert precision.guarded_floor(_mpf(n, third)) == n
    assert precision.guarded_floor(_mpf(n, -third)) == n - 1


def _iroot(n, k):
    """floor(n^(1/k)) for a non-negative int n, exactly."""
    lo, hi = 0, 1 << (n.bit_length() // k + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid
    return lo


def test_cmp_count_power_clears_denominators_while_cheap(monkeypatch):
    # count**100 and b**263 have about 21,000 bits, below 2**16: decided
    # exactly at 256 bits, where the log-space comparison would refuse
    b, e = 3**50, Fraction(263, 100)
    below = _iroot(b**263, 100)
    assert below**100 < b**263 < (below + 1) ** 100
    monkeypatch.delenv(precision.PRECISION_ENV, raising=False)
    assert precision.cmp_count_power(below, b, e) == -1
    assert precision.cmp_count_power(below + 1, b, e) == 1
    # a factor 7/3 is cleared too: (3 count)^100 against 7^100 b^263
    third = _iroot(7**100 * b**263, 100) // 3  # floor(7/3 b^e)
    assert precision.cmp_count_power(third, b, e, factor=Fraction(7, 3)) == -1
    assert precision.cmp_count_power(third + 1, b, e, factor=Fraction(7, 3)) == 1
    # a negative exponent: 80 (2^20)^(-3/20) = 10 exactly
    for count, want in ((9, -1), (10, 0), (11, 1)):
        assert precision.cmp_count_power(count, 2**20, Fraction(-3, 20), factor=80) == want
    assert precision.cmp_count_power(5, 1, e, factor=Fraction(9, 2)) == 1
    with pytest.raises(ValueError, match="factor"):
        precision.cmp_count_power(5, b, e, factor=0)


def test_cmp_count_power_log_fallback_never_misorders(monkeypatch):
    # a denominator of 10^6 clears to powers of some 2*10^8 bits, so the
    # log-space path decides; floor(b^e) lies below b^e by a relative
    # 2^-200 or so, which 256 bits cannot certify and 1024 bits can
    b, e = 3**50, Fraction(2630001, 10**6)
    with mpmath.workprec(2000):
        power = mpmath.mpf(b) ** (mpmath.mpf(e.numerator) / e.denominator)
        below = int(mpmath.floor(power))
        assert 2**-100 < power - below < 1 - 2**-100
    monkeypatch.delenv(precision.PRECISION_ENV, raising=False)
    for count in (below, below + 1):
        with pytest.raises(PrecisionError):
            precision.cmp_count_power(count, b, e)
    assert precision.cmp_count_power(below // 2, b, e) == -1
    assert precision.cmp_count_power(2 * below, b, e) == 1
    # the fallback adds log2 of a factor: floor(b^e / 2) = below // 2
    half = Fraction(1, 2)
    for count in (below // 2, below // 2 + 1):
        with pytest.raises(PrecisionError):
            precision.cmp_count_power(count, b, e, factor=half)
    assert precision.cmp_count_power(below // 4, b, e, factor=half) == -1
    assert precision.cmp_count_power(below, b, e, factor=half) == 1
    monkeypatch.setenv(precision.PRECISION_ENV, "1024")
    assert precision.cmp_count_power(below, b, e) == -1
    assert precision.cmp_count_power(below + 1, b, e) == 1
    assert precision.cmp_count_power(below // 2, b, e, factor=half) == -1
    assert precision.cmp_count_power(below // 2 + 1, b, e, factor=half) == 1


def test_guarded_cmp_equality_and_margin(monkeypatch):
    monkeypatch.delenv(precision.PRECISION_ENV, raising=False)
    one = precision.mpf(1)
    near = precision.mpf(1 + Fraction(1, 2**200))
    assert precision.guarded_cmp(one, precision.mpf(Fraction(3, 3))) == 0
    assert precision.guarded_cmp(7, 7) == 0
    for lhs, rhs in ((one, near), (near, one)):
        with pytest.raises(PrecisionError, match="comparison margin"):
            precision.guarded_cmp(lhs, rhs)
    # at 512 bits the guard is 2^-256, so the 2^-200 margin decides
    monkeypatch.setenv(precision.PRECISION_ENV, "512")
    assert precision.guarded_cmp(one, near) == -1
    assert precision.guarded_cmp(near, one) == 1


@pytest.mark.parametrize(
    "count, base, exponent, factor",
    [
        (2**70000, 0, Fraction(-1), 1),  # 0^-1 is infinite
        (2**70000, 0, Fraction(0), 2**80000),  # 0^0 = 1
        (0, 0, Fraction(-1), 2**70000),
        (0, 0, Fraction(0), 2**70000),
    ],
    ids=["big-over-infinity", "big-below-factor", "zero-over-infinity", "zero-below-factor"],
)
def test_cmp_count_power_decides_base_zero_exactly(count, base, exponent, factor):
    # each power is too wide for the exact path, so only the degenerate cases decide them
    assert precision.cmp_count_power(count, base, exponent, factor=factor) == -1


def test_cmp_count_power_degenerate_operands():
    big = 2**70000
    assert precision.cmp_count_power(big, 0, Fraction(3)) == 1  # 0^3 = 0
    assert precision.cmp_count_power(0, 0, Fraction(3)) == 0
    assert precision.cmp_count_power(big, 1, Fraction(-5, 3), factor=big) == 0  # 1^e = 1
    assert precision.cmp_count_power(big + 1, 1, 2.5, factor=big) == 1
    assert precision.cmp_count_power(0, 2**70000, Fraction(-3)) == -1
    assert precision.cmp_count_power(big, 3, 0.0, factor=big + 1) == -1
