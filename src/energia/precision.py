"""High-precision comparison helpers.

Every pass/fail decision in the library is either an exact integer
comparison or goes through :func:`guarded_cmp`, which refuses to decide
when the margin falls below the certified precision bound instead of
silently mis-certifying.
"""

import math
import os
from fractions import Fraction

import mpmath

from .errors import BadParamsError, PrecisionError

PRECISION_ENV = "ENERGIA_PRECISION_BITS"
DEFAULT_PRECISION_BITS = 256


def precision_bits() -> int:
    raw = os.environ.get(PRECISION_ENV)
    if raw is None:
        return DEFAULT_PRECISION_BITS
    try:
        bits = int(raw)
    except ValueError:
        raise BadParamsError(f"{PRECISION_ENV}={raw!r} is not an integer") from None
    return max(64, bits)


def rational(x, name) -> Fraction:
    """An int, Fraction or finite float parameter as an exact Fraction;
    floats go through their decimal repr, so 0.1 is 1/10, not its binary
    value."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise BadParamsError(f"{name} must be finite, got {x}")
        return Fraction(str(x))
    raise BadParamsError(f"{name} must be a rational number, got {type(x).__name__}")


def working():
    """A context that runs mpf arithmetic at the configured precision."""
    return mpmath.workprec(precision_bits())


def show(x, digits=30) -> str:
    """An exact value as ``str`` prints it; an mpf to ``digits`` significant
    digits."""
    return mpmath.nstr(x, digits) if isinstance(x, mpmath.mpf) else str(x)


def mpf(x):
    """Convert int/Fraction/float to an mpf at the configured precision."""
    with working():
        if isinstance(x, Fraction):
            return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)
        return mpmath.mpf(x)


def log2(x):
    """log base 2 of a positive int/Fraction/float, high precision."""
    with working():
        if isinstance(x, Fraction):
            return mpmath.log(mpmath.mpf(x.numerator), 2) - mpmath.log(
                mpmath.mpf(x.denominator), 2
            )
        return mpmath.log(mpmath.mpf(x), 2)


def guarded_floor(v):
    """floor(v) of an mpf computed at the configured precision.

    A non-integer v that :func:`guarded_cmp` cannot tell from floor(v) or
    floor(v) + 1 raises PrecisionError: its true value may lie across
    that integer.
    """
    with working():
        f = mpmath.floor(v)
        guarded_cmp(v, f)
        guarded_cmp(v, f + 1)
        return f


def guarded_cmp(lhs, rhs) -> int:
    """Three-way compare of two mpf/numbers with a margin guard.

    Returns -1, 0 or +1.  Exact equality is fine; a nonzero difference
    smaller than 2**-(bits/2) relative to the operand scale, at the
    configured precision, raises PrecisionError.
    """
    bits = precision_bits()
    guard_bits = bits // 2
    with mpmath.workprec(bits):
        a = mpmath.mpf(lhs) if not isinstance(lhs, mpmath.mpf) else lhs
        b = mpmath.mpf(rhs) if not isinstance(rhs, mpmath.mpf) else rhs
        d = a - b
        if d == 0:
            return 0
        scale = max(abs(a), abs(b), mpmath.mpf(1))
        if abs(d) < scale * mpmath.mpf(2) ** (-guard_bits):
            raise PrecisionError(
                f"comparison margin below 2^-{guard_bits} of scale; "
                f"raise {PRECISION_ENV} to certify"
            )
        return 1 if d > 0 else -1


def cmp_count_power(count: int, base: int, exponent, factor=1) -> int:
    """Three-way compare of an exact count against factor * base**exponent,
    for a positive rational factor.

    A rational exponent p/q is decided by exact integer arithmetic,
    count**q against factor**q * base**p, whenever each power stays below
    2**16 bits (a few milliseconds); larger powers and other exponents go
    through the guarded log-space comparison, both sides formed at the
    configured precision.  Base 0, base 1, exponent 0 and count 0 are
    decided exactly first.
    """
    if count < 0 or base < 0:
        raise ValueError("count and base must be non-negative")
    factor = Fraction(factor)
    if factor <= 0:
        raise ValueError("factor must be positive")
    if base == 0 and exponent < 0:
        return -1  # 0**exponent is infinite
    if base <= 1 or exponent == 0:  # base**exponent is 0 or 1
        rhs = 0 if base == 0 and exponent > 0 else factor
        return (count > rhs) - (count < rhs)
    if count == 0:
        return -1
    if isinstance(exponent, int):
        exponent = Fraction(exponent)
    if isinstance(exponent, Fraction):
        p, q = exponent.numerator, exponent.denominator
        lhs, rhs = count * factor.denominator, factor.numerator
        if q * max(lhs.bit_length(), rhs.bit_length()) <= 1 << 16 and abs(p) * base.bit_length() <= 1 << 16:
            lhs, rhs = lhs**q, rhs**q
            if p >= 0:
                rhs *= base**p
            else:
                lhs *= base**-p
            return (lhs > rhs) - (lhs < rhs)
    with working():
        return guarded_cmp(log2(count), log2(factor) + mpf(exponent) * log2(base))
