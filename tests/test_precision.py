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
    assert main(["energy", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ENERGIA_PRECISION_BITS='lots'" in captured.err


def test_rational_coercion():
    assert precision.rational(3, "x") == 3
    assert precision.rational(Fraction(2, 3), "x") == Fraction(2, 3)
    assert precision.rational(0.1, "x") == Fraction(1, 10)
    with pytest.raises(BadParamsError, match="x must be a rational number"):
        precision.rational("0.1", "x")


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
