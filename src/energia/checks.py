"""Executable certificates for the inequality lemmas.

Every holds-flag is decided by an exact integer comparison; fractional
powers are cleared by raising both sides to the 2s-th power first.  The
only informational check is the convex-growth ratio, whose implied
constants are unknown: its threshold is a fixed floor damped by a power
of log |A|, formed at the configured precision and compared with
:func:`precision.guarded_cmp`.
"""

import hashlib
from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb

from . import precision
from .energy import ADDITIVE, MULTIPLICATIVE, energy, mixed_energy, rep_function
from .errors import (
    BadArityError,
    BadParamsError,
    NotDisjointError,
    TooLargeError,
    ZeroElementError,
)
from .sets import IntSet, iterated_product_set, iterated_sumset, powers


@dataclass(frozen=True)
class CheckReport:
    name: str
    lhs: object
    rhs: object
    holds: bool
    slack: object
    inputs_digest: str

    def as_dict(self) -> dict:
        """The report's JSON form: lhs, rhs and a slack that is not None as strings."""
        return {
            "name": self.name,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "holds": self.holds,
            "slack": str(self.slack) if self.slack is not None else None,
            "inputs": self.inputs_digest,
        }


def digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode())
        h.update(b"\x00")
    return h.hexdigest()[:16]


def _report(name, lhs, rhs, holds, inputs) -> CheckReport:
    """A report on the exact ints lhs and rhs, with slack rhs / lhs."""
    slack = Fraction(rhs, lhs) if lhs > 0 else None
    return CheckReport(name, lhs, rhs, holds, slack, digest(*inputs))


def check_csref(A: IntSet, s: int, mode: str = ADDITIVE) -> CheckReport:
    """Cauchy-Schwarz: E_s(A) * |sA| >= |A|^(2s) (and the product analogue)."""
    e = energy(A, s, mode).count
    if mode == ADDITIVE:
        span = len(iterated_sumset(A, s, 0))
    else:
        span = len(iterated_product_set(A, s, 0))
    lhs = len(A) ** (2 * s)
    rhs = e * span
    return _report(f"csref-{mode}", lhs, rhs, rhs >= lhs, (A, s, mode))


def check_young(A: IntSet, s: int, l: int):
    """Young's inequality pair: sup r_s <= E_{s/2} and E_s <= |A|^(2s-2l) E_l."""
    if s % 2 != 0:
        raise BadArityError("part one needs even s")
    if not 1 <= l < s:
        raise BadParamsError("need 1 <= l < s")
    r_s = rep_function(A, s, ADDITIVE)
    sup, e_s = r_s.sup(), r_s.energy_count()
    e_half = energy(A, s // 2, ADDITIVE).count
    first = _report("yoc-sup", sup, e_half, sup <= e_half, (A, s, "sup"))
    e_l = e_half if l == s // 2 else energy(A, l, ADDITIVE).count
    bound = len(A) ** (2 * s - 2 * l) * e_l
    second = _report("yoc-power", e_s, bound, e_s <= bound, (A, s, l))
    return first, second


def check_holder_mixed(sets, mode: str = ADDITIVE) -> CheckReport:
    """Geometric-mean bound on mixed energies, decided via 2s-th powers.

    Additive:        E_s(A_1..A_2s)^(2s) <= prod E_s(A_i)
    Multiplicative:  M_s(A_1..A_2s)^(2s) <= 2^(4s^2) prod M_s(A_i),
                     and every A_i must avoid 0.
    """
    sets = list(sets)
    if len(sets) == 0 or len(sets) % 2 != 0:
        raise BadArityError("need an even, positive number of sets")
    s = len(sets) // 2
    if mode == MULTIPLICATIVE:
        for X in sets:
            if 0 in X:
                raise ZeroElementError("multiplicative mixed bound needs 0-free sets")
    mixed = mixed_energy(sets, mode).count
    prod = 1
    for X in sets:
        prod *= energy(X, s, mode).count
    lhs = mixed ** (2 * s)
    rhs = prod if mode == ADDITIVE else 2 ** (4 * s * s) * prod
    name = "yoc2" if mode == ADDITIVE else "mlpain"
    return _report(name, lhs, rhs, lhs <= rhs, (sets, mode))


def check_union_bound(parts, s: int, mode: str = ADDITIVE) -> CheckReport:
    """E_s(union) <= n^(2s-1) sum E_s(A_i); extra 2^(2s) multiplicatively."""
    parts = list(parts)
    if not parts:
        raise BadParamsError("need at least one part")
    seen = set()
    union = []
    for X in parts:
        for a in X:
            if a in seen:
                raise NotDisjointError(f"element {a} in two parts")
            seen.add(a)
            union.append(a)
    if mode == MULTIPLICATIVE and 0 in seen:
        raise ZeroElementError("multiplicative union bound needs 0-free parts")
    n = len(parts)
    total = energy(IntSet(union), s, mode).count
    rhs = n ** (2 * s - 1) * sum(energy(X, s, mode).count for X in parts)
    if mode == MULTIPLICATIVE:
        rhs *= 2 ** (2 * s)
    return _report(f"hld3-{mode}", total, rhs, total <= rhs, (parts, s, mode))


def check_mixed_cs(B: IntSet, C: IntSet, s: int, mode: str = ADDITIVE) -> CheckReport:
    """E_s(B,C)^2 <= E_s(B) E_s(C), the Cauchy-Schwarz step."""
    cross = mixed_energy([B] * s + [C] * s, mode).count
    lhs = cross * cross
    rhs = energy(B, s, mode).count * energy(C, s, mode).count
    return _report(f"zidt-cs-{mode}", lhs, rhs, lhs <= rhs, (B, C, s, mode))


def check_pluennecke(A: IntSet, m: int, n: int) -> CheckReport:
    """Pluennecke-Ruzsa: |A+A| <= K|A| implies |mA-nA| <= K^(m+n) |A|.

    Exact form: |mA-nA| * |A|^(m+n-1) <= |A+A|^(m+n).
    """
    if m + n < 1:
        raise BadParamsError("need m + n >= 1")
    doubling = len(iterated_sumset(A, 2, 0))
    span = len(iterated_sumset(A, m, n))
    lhs = span * len(A) ** (m + n - 1)
    rhs = doubling ** (m + n)
    return _report("pr21", lhs, rhs, lhs <= rhs, (A, m, n))


GROWTH_RATIO_FLOOR = Fraction(1, 100)
SUMSET_CAP = 10**8
_WAR2_CAP = 10**16  # largest N^(2s) that check_war2 runs


def check_convex_growth(A: IntSet, k: int, K: Fraction) -> CheckReport:
    """Measure |2^(k-1)A - (2^(k-1)-1)A| against |A|^k K^(-2^k+k+1).

    Informational: the true bound's implied constant is unknown, so the
    holds-flag compares the exact ratio against GROWTH_RATIO_FLOOR damped
    by the (log |A|)^(2^(k+1)+k+3) factor.
    """
    if k not in (2, 3):
        raise BadParamsError("k must be 2 or 3 at desk scale")
    if len(A) < 4:
        raise BadParamsError("need |A| >= 4")
    K = precision.rational(K, "K")
    if K <= 0:
        raise BadParamsError(f"K must be positive, got {K}")
    m = 2 ** (k - 1)
    n = m - 1
    work = comb(len(A) + m - 1, m) * comb(len(A) + n - 1, n)
    if work > SUMSET_CAP:
        raise TooLargeError(f"sumset work bound {work} exceeds cap {SUMSET_CAP}")
    span = len(iterated_sumset(A, m, n))
    target = len(A) ** k * K ** (-(2**k) + k + 1)
    ratio = Fraction(span) / target
    log_pow = 2 ** (k + 1) + k + 3
    with precision.working():
        threshold = precision.mpf(GROWTH_RATIO_FLOOR) * precision.log2(len(A)) ** (-log_pow)
        holds = precision.guarded_cmp(precision.mpf(ratio), threshold) >= 0
    return CheckReport(
        f"hrnr-k{k}", span, target, holds, ratio, digest(A, k, K, GROWTH_RATIO_FLOOR)
    )


def check_war2(k: int, s: int, N: int) -> CheckReport:
    """E_s(N_k) * |s N_k| >= N^(2s), exactly: ``check_csref`` on N_k =
    {1, 2^k, ..., N^k}, named and digested by (k, s, N)."""
    if k < 1 or s < 1 or N < 1:
        raise BadParamsError("need k, s, N >= 1")
    if N ** (2 * s) > _WAR2_CAP:
        raise TooLargeError("war2 instance too large")
    return replace(check_csref(powers(k, N), s), name="war2", inputs_digest=digest(k, s, N))
