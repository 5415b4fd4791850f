"""Exact evaluation of the explicit parameter formulas and exponent
recursions, in a log2-space representation that survives tower-sized
values (m = 2^37200 is stored as its exponent, never materialized).
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath

from . import precision
from .errors import BadParamsError, InvariantError

_EXACT_POW2_CAP = 1 << 12  # largest exponent materialized exactly


def _pow2_exact(q: Fraction) -> Optional[int]:
    """log2 q when q is an exact power of two, else None."""
    if q.denominator == 1:
        n = q.numerator
        if n > 0 and n & (n - 1) == 0:
            return n.bit_length() - 1
    elif q.numerator == 1:
        d = q.denominator
        if d & (d - 1) == 0:
            return -(d.bit_length() - 1)
    return None


@dataclass(frozen=True)
class ExponentExpr:
    """A number held as an expression tree over {int literal, +, *, ceil,
    log2, 2^x}, with a high-precision value and, when it exists below the
    materialization cap, an exact rational value."""

    kind: str
    args: tuple = ()
    literal: Optional[Fraction] = None

    # -- construction -------------------------------------------------------

    @staticmethod
    def lit(x) -> "ExponentExpr":
        return ExponentExpr("lit", (), precision.rational(x, "literal"))

    @staticmethod
    def wrap(x) -> "ExponentExpr":
        return x if isinstance(x, ExponentExpr) else ExponentExpr.lit(x)

    def __add__(self, other):
        return ExponentExpr("add", (self, ExponentExpr.wrap(other)))

    __radd__ = __add__

    def __mul__(self, other):
        return ExponentExpr("mul", (self, ExponentExpr.wrap(other)))

    __rmul__ = __mul__

    def ceil(self) -> "ExponentExpr":
        return ExponentExpr("ceil", (self,))

    def log2(self) -> "ExponentExpr":
        return ExponentExpr("log2", (self,))

    @staticmethod
    def pow2(x) -> "ExponentExpr":
        return ExponentExpr("pow2", (ExponentExpr.wrap(x),))

    # -- evaluation ---------------------------------------------------------

    def exact(self) -> Optional[Fraction]:
        """Exact rational value, or None when exactness is unavailable
        (irrational log2, or a power of two past the materialization cap)."""
        if self.kind == "lit":
            return self.literal
        vals = [a.exact() for a in self.args]
        if any(v is None for v in vals):
            return None
        if self.kind == "add":
            return vals[0] + vals[1]
        if self.kind == "mul":
            return vals[0] * vals[1]
        if self.kind == "ceil":
            return Fraction(math.ceil(vals[0]))
        if self.kind == "log2":
            e = _pow2_exact(vals[0])
            return None if e is None else Fraction(e)
        if self.kind == "pow2":
            v = vals[0]
            if v.denominator != 1 or abs(v.numerator) > _EXACT_POW2_CAP:
                return None
            n = v.numerator
            return Fraction(2**n) if n >= 0 else Fraction(1, 2**-n)
        raise InvariantError(f"unknown expression kind {self.kind!r}")

    def value(self):
        """High-precision mpf value (arbitrary binary exponent)."""
        ex = self.exact()
        with mpmath.workprec(precision.precision_bits()):
            if ex is not None:
                return mpmath.mpf(ex.numerator) / mpmath.mpf(ex.denominator)
            if self.kind == "add":
                return self.args[0].value() + self.args[1].value()
            if self.kind == "mul":
                return self.args[0].value() * self.args[1].value()
            if self.kind == "ceil":
                return -precision.guarded_floor(-self.args[0].value())
            if self.kind == "log2":
                return mpmath.log(self.args[0].value(), 2)
            if self.kind == "pow2":
                return mpmath.mpf(2) ** self.args[0].value()
            raise InvariantError(f"unknown expression kind {self.kind!r}")

    def log2_value(self):
        """log2 of the value; for pow2 nodes this avoids materialization."""
        if self.kind == "pow2":
            return self.args[0].value()
        with mpmath.workprec(precision.precision_bits()):
            return mpmath.log(self.value(), 2)

    def __repr__(self):
        if self.kind == "lit":
            return str(self.literal)
        if self.kind in ("add", "mul"):
            op = "+" if self.kind == "add" else "*"
            return f"({self.args[0]!r} {op} {self.args[1]!r})"
        return f"{self.kind}({self.args[0]!r})"


# -- parameter blocks -------------------------------------------------------


def _ceil_log2(k: Fraction) -> int:
    """ceil(log2 k) exactly for rational k >= 1."""
    e = 0
    p = Fraction(1)
    while p < k:
        p *= 2
        e += 1
    return e


def gemn_params(k, q: int) -> dict:
    """Decomposition-theorem parameter block: Lambda, l, m, U, s.

    Lambda = 6 + 25 log2 q; l = ceil(600 q k Lambda); m = 2^l; U = 120 m;
    s = 2^(5 + (1+U)(ceil(log2 k)+1)).  m, U, s are returned in log2 space.
    """
    k = precision.rational(k, "k")
    if k < 1:
        raise BadParamsError("need k >= 1")
    if q < 2 or q % 2 != 0:
        raise BadParamsError("need even q >= 2")
    Lambda = ExponentExpr.lit(6) + ExponentExpr.lit(25) * ExponentExpr.lit(q).log2()
    l = (ExponentExpr.lit(600 * q) * ExponentExpr.lit(k) * Lambda).ceil()
    log2_m = l
    log2_U = ExponentExpr.lit(120).log2() + l
    U = ExponentExpr.lit(120) * ExponentExpr.pow2(l)
    ck = ExponentExpr.lit(_ceil_log2(k) + 1)
    log2_s = ExponentExpr.lit(5) + (ExponentExpr.lit(1) + U) * ck
    return {"Lambda": Lambda, "l": l, "log2_m": log2_m, "log2_U": log2_U, "log2_s": log2_s}


def eric_params(b, m: int) -> dict:
    """Good-tuple parameter block: k = b/30, s2, U1, s1 (log2 space)."""
    b = precision.rational(b, "b")
    if b < 30:
        raise BadParamsError("need b >= 30")
    if m < 1:
        raise BadParamsError("need m >= 1")
    k = b / 30
    ck = ExponentExpr.lit(_ceil_log2(k) + 1)
    log2_s2 = ExponentExpr.lit(5) + ExponentExpr.lit(1 + 120 * m) * ck
    kc = math.ceil(k)
    log2_U1 = ExponentExpr.lit(500 * kc).log2() + log2_s2
    U1 = ExponentExpr.lit(500 * kc) * ExponentExpr.pow2(log2_s2)
    log2_s1 = ExponentExpr.lit(5) + (ExponentExpr.lit(1) + U1) * ck
    return {"k": k, "log2_s2": log2_s2, "log2_U1": log2_U1, "log2_s1": log2_s1}


def _growth_budget(k: int) -> int:
    """2 * (82k + 82(2^k - k - 1) + 240 * 2^k), evaluated per the formula."""
    return 2 * (82 * k + 82 * (2**k - k - 1) + 240 * 2**k)


def _growth_budget_redundant(k: int) -> int:
    # term-by-term re-derivation; guards against transcription slips
    doubling_terms = 2**k
    t = 82 * k
    t += 82 * (doubling_terms - k - 1)
    t += 240 * doubling_terms
    return t + t


def rtp_constants(k: int) -> dict:
    """T_k (exact) and eta_k = log2(1 + 1/T_k) at >= 50 significant bits."""
    if k < 2:
        raise BadParamsError("need k >= 2")
    T = _growth_budget(k)
    if T != _growth_budget_redundant(k):
        raise InvariantError(f"T_{k} re-derivation mismatch")
    with mpmath.workprec(max(precision.precision_bits(), 64)):
        eta = mpmath.log(1 + mpmath.mpf(1) / T, 2)
    return {"T_k": T, "eta_k": eta}


def rtp_exponent_bound(k: int, s: int):
    """2s - k + (4k-4) s^(-eta_k), the convex-set energy exponent."""
    if k < 2 or s < 4:
        raise BadParamsError("need k >= 2 and s >= 4")
    eta = rtp_constants(k)["eta_k"]
    with mpmath.workprec(precision.precision_bits()):
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
    if isinstance(log2_s, ExponentExpr):
        target = log2_s.value()
    else:
        target = precision.mpf(log2_s)

    def fits(k: Fraction) -> bool:
        return gemn_params(k, 10 * math.ceil(k))["log2_s"].value() <= target

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
    chain = gemn_params(k, q)
    certificate = {
        "k": k,
        "q": q,
        "Lambda": str(chain["Lambda"].value()),
        "l": str(chain["l"].value()),
        "log2_s": str(chain["log2_s"].value()),
        "target_log2_s": str(target),
    }
    return {"k": k, "certificate": certificate}
