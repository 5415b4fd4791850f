"""The explicit parameter formulas and exponent recursions.

Values that stay small rationals are returned exactly, as ints or
Fractions; irrational logs and the tower-sized exponents are mpfs at the
configured precision.  Tower-sized values are returned as their log2
(m = 2^37200 is held as 37200, never materialized).
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath

from . import precision
from .errors import BadParamsError


def _ceil_log2(k: Fraction) -> int:
    """ceil(log2 k) exactly for rational k >= 1: 2^e >= k exactly when 2^e >= ceil(k)."""
    return (math.ceil(k) - 1).bit_length()


def gemn_params(k, q: int) -> dict:
    """Decomposition-theorem parameter block: Lambda, l, m, U, s.

    Lambda = 6 + 25 log2 q; l = ceil(600 q k Lambda); m = 2^l; U = 120 m;
    s = 2^(5 + (1+U)(ceil(log2 k)+1)).  m, U, s are returned in log2 space.
    l and log2_m are ints; Lambda is an int when q is a power of two and
    an mpf otherwise; log2_U and log2_s are mpfs.
    """
    k = precision.rational(k, "k")
    if k < 1:
        raise BadParamsError("need k >= 1")
    if q < 2 or q % 2 != 0:
        raise BadParamsError("need even q >= 2")
    ck = _ceil_log2(k) + 1
    with precision.working():
        if q & (q - 1) == 0:
            Lambda = 6 + 25 * (q.bit_length() - 1)
            l = math.ceil(600 * q * k * Lambda)
        else:
            Lambda = 6 + 25 * mpmath.log(q, 2)
            l = -int(precision.guarded_floor(-(precision.mpf(600 * q * k) * Lambda)))
        log2_U = mpmath.log(120, 2) + l
        # 5 + (1 + U) ck with U = 120 * 2^l, rounded once
        log2_s = 120 * ck * mpmath.mpf(2) ** l + (5 + ck)
    return {"Lambda": Lambda, "l": l, "log2_m": l, "log2_U": log2_U, "log2_s": log2_s}


def eric_params(b, m: int) -> dict:
    """Good-tuple parameter block: k = b/30, s2, U1, s1 (log2 space).

    k is a Fraction and log2_s2 an int; log2_U1 and log2_s1 are mpfs.
    """
    b = precision.rational(b, "b")
    if b < 30:
        raise BadParamsError("need b >= 30")
    if m < 1:
        raise BadParamsError("need m >= 1")
    k = b / 30
    ck = _ceil_log2(k) + 1
    log2_s2 = 5 + (1 + 120 * m) * ck
    c = 500 * math.ceil(k)
    with precision.working():
        log2_U1 = mpmath.log(c, 2) + log2_s2
        # 5 + (1 + U1) ck with U1 = c * 2^s2, rounded once
        log2_s1 = c * ck * mpmath.mpf(2) ** log2_s2 + (5 + ck)
    return {"k": k, "log2_s2": log2_s2, "log2_U1": log2_U1, "log2_s1": log2_s1}


def _growth_budget(k: int) -> int:
    """2 * (82k + 82(2^k - k - 1) + 240 * 2^k), evaluated per the formula."""
    return 2 * (82 * k + 82 * (2**k - k - 1) + 240 * 2**k)


def rtp_constants(k: int) -> dict:
    """T_k (exact) and eta_k = log2(1 + 1/T_k) at >= 50 significant bits."""
    if k < 2:
        raise BadParamsError("need k >= 2")
    T = _growth_budget(k)
    with precision.working():
        eta = mpmath.log(1 + mpmath.mpf(1) / T, 2)
    return {"T_k": T, "eta_k": eta}


def rtp_exponent_bound(k: int, s: int):
    """2s - k + (4k-4) s^(-eta_k), the convex-set energy exponent."""
    if k < 2 or s < 4:
        raise BadParamsError("need k >= 2 and s >= 4")
    eta = rtp_constants(k)["eta_k"]
    with precision.working():
        return 2 * s - k + (4 * k - 4) * mpmath.mpf(s) ** (-eta)


@dataclass(frozen=True)
class ThrtTrace:
    values: tuple  # exact Fractions Lambda0 (1 + 1/T_k)^i, i = 0..r
    crossing_index: Optional[int]  # first i with value >= k - 1
    growth: Fraction  # exactly 1 + 1/T_k


def thrt_trace(k: int, Lambda0, s: int) -> ThrtTrace:
    """The exponent-iteration sequence for s = 2^(r+1) halving steps."""
    if k < 2:
        raise BadParamsError("need k >= 2")
    if s < 8 or s & (s - 1) != 0:
        raise BadParamsError("s must be a power of two >= 8")
    Lambda0 = precision.rational(Lambda0, "Lambda0")
    if Lambda0 <= 0:
        raise BadParamsError("need Lambda0 > 0")
    r = s.bit_length() - 2  # s = 2^(r+1)
    T = _growth_budget(k)
    growth = Fraction(T + 1, T)
    vals = [Lambda0]
    for _ in range(r):
        vals.append(vals[-1] * growth)
    crossing = next((i for i, v in enumerate(vals) if v >= k - 1), None)
    return ThrtTrace(tuple(vals), crossing, growth)


def bta_eta(log2_s) -> dict:
    """Largest k >= 4 whose parameter chain (q = 10 ceil k) fits below the
    given log2 s, by 64-round bisection over the monotone predicate."""
    target = precision.mpf(log2_s)

    def fits(k: Fraction) -> bool:
        return precision.guarded_cmp(gemn_params(k, 10 * math.ceil(k))["log2_s"], target) <= 0

    lo = Fraction(4)
    if not fits(lo):
        raise BadParamsError("log2_s too small: no k >= 4 fits the chain")
    hi = Fraction(8)
    while fits(hi):
        lo, hi = hi, hi * 2
    for _ in range(64):
        mid = (lo + hi) / 2
        if fits(mid):
            lo = mid
        else:
            hi = mid
    k = lo
    q = 10 * math.ceil(k)
    chain = gemn_params(k, q)  # q is never a power of two: Lambda is an mpf
    certificate = {
        "k": k,
        "q": q,
        "Lambda": precision.show(chain["Lambda"]),
        "l": precision.show(chain["l"]),
        "log2_s": precision.show(chain["log2_s"]),
        "target_log2_s": precision.show(target),
    }
    return {"k": k, "certificate": certificate}
