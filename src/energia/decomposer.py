"""Greedy low-energy decompositions.

Two dual loops: `decompose` strips multiplicatively-rich mass into B
until the residual's multiplicative energy is small, certifying each
extracted piece's additive energy; `decompose_eric` runs the mirrored
loop with the roles of the two energies exchanged.  `com2_budget` gives
the halving-plus-deletion iteration bound that caps either loop.

Stopping and extraction certificates are exact: rational threshold
exponents are decided by clearing denominators, never by floats.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

import mpmath

from . import precision
from .bsg import CALIBRATED, PAPER, SUBSET_BRANCH, kp_pipeline
from .checks import CheckReport, digest
from .energy import ADDITIVE, MULTIPLICATIVE, energy
from .errors import (
    BadAdversaryError,
    BadParamsError,
    ExtractorFailedError,
    InvariantError,
    ParameterTooLargeError,
    StageCollapseError,
    TooLargeError,
)
from .sets import IntSet

_MAX_EXECUTABLE_ARITY = 64
_EXHAUSTIVE_CAP = 16
_FRAC_C = Fraction(1, 2)  # declared extraction fraction c of the budget
_FRAC_CC = Fraction(1, 4)  # deletion constant C_c of the budget
_SMALL_SET_BOUND = 4  # residual size below which the dual loop stops


@dataclass(frozen=True)
class DecomposeConfig:
    k: object = Fraction(1)
    s: int = 2  # multiplicative arity
    q: int = 4  # additive certificate arity (first loop)
    s1: int = 2  # additive stopping arity (dual loop)
    s2: int = 2  # multiplicative certificate arity (dual loop)
    mode: str = CALIBRATED
    extractor: str = "kp-multiplicative"  # the pipeline, in either loop; or "exhaustive"

    def __post_init__(self):
        object.__setattr__(self, "k", precision.rational(self.k, "k"))
        if self.k < 1:
            raise BadParamsError("need k >= 1")
        for name in ("s", "q", "s1", "s2"):
            v = getattr(self, name)
            if v < 2 or v % 2 != 0:
                raise BadParamsError(f"{name} must be even and >= 2")
        if self.mode not in (PAPER, CALIBRATED):
            raise BadParamsError(f"unknown mode {self.mode!r}")
        if self.extractor not in ("kp-multiplicative", "exhaustive"):
            raise BadParamsError(f"unknown extractor {self.extractor!r}")
        for name in ("s", "q", "s1", "s2"):
            if getattr(self, name) > _MAX_EXECUTABLE_ARITY:
                raise ParameterTooLargeError(f"{name} = {getattr(self, name)} not executable")


@dataclass
class Decomposition:
    B: IntSet
    C: IntSet
    trace: list  # (D_i, CheckReport, threshold exponent)
    budget: int
    iterations_used: int
    stop_report: Optional[CheckReport] = None
    failed: bool = False


def sign_split(A: IntSet):
    """Partition A into positive, negative and zero parts."""
    pos = [a for a in A if a > 0]
    neg = [a for a in A if a < 0]
    zero = [a for a in A if a == 0]
    return IntSet(pos), IntSet(neg), IntSet(zero)


# -- iteration budget --------------------------------------------------------


def _com2_params(c, Cc, n=1):
    """c and Cc as exact Fractions; refuses n < 1, then c outside (0, 1) or Cc <= 0."""
    c, Cc = precision.rational(c, "c"), precision.rational(Cc, "Cc")
    if n < 1:
        raise BadParamsError("need n >= 1")
    if not 0 < c < 1 or Cc <= 0:
        raise BadParamsError("need 0 < c < 1 and Cc > 0")
    return c, Cc


def com2_budget(n: int, c, Cc) -> int:
    """floor(2(log2 n + 2) + Cc^-1 n^c / (2^c - 1))."""
    c, Cc = _com2_params(c, Cc, n)
    with precision.working():
        cv = precision.mpf(c)
        val = 2 * (mpmath.log(n, 2) + 2) + precision.mpf(1 / Cc) * mpmath.mpf(n) ** cv / (
            mpmath.mpf(2) ** cv - 1
        )
    return int(precision.guarded_floor(val))


def min_deletion(size: int, c, Cc) -> int:
    """ceil(Cc size^(1-c)), exactly, for rational c and Cc: the least d
    that ``precision.cmp_count_power`` finds at least Cc size^(1-c)."""
    c, Cc = _com2_params(c, Cc)
    if size < 1:
        return 0
    e, lo, hi = 1 - c, 0, math.ceil(Cc * size)  # d = 0 falls short; hi >= Cc size >= Cc size^(1-c)

    def enough(d):
        return precision.cmp_count_power(d, size, e, factor=Cc) >= 0

    if max(size, hi) < 2**53:  # a float estimate is nearly always right: check it on both sides
        d = math.ceil(float(Cc) * size ** float(e))
        if enough(d) and not enough(d - 1):
            return d
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if enough(mid) else (mid, hi)
    return hi


def com2_simulate(n: int, c, Cc, adversary) -> int:
    """Run the halve-or-delete process; adversary(size) gives the deletion.

    Each step removes the adversary's count d, which must be at least
    Cc size^(1-c) (the comparison ``min_deletion`` bisects on), else
    BadAdversary.  Each step deletes at least one element, so the process
    ends within n - 1 steps.
    """
    c, Cc = _com2_params(c, Cc, n)
    size, steps = n, 0
    while size > 1:
        d = adversary(size)
        if d < 1 or precision.cmp_count_power(d, size, 1 - c, factor=Cc) < 0:
            raise BadAdversaryError(f"deleted {d} < minimum at size {size}")
        size = max(0, size - d)
        steps += 1
    return steps


def minimal_adversary(c, Cc):
    """The slowest admissible deletion rule."""
    c, Cc = precision.rational(c, "c"), precision.rational(Cc, "Cc")
    return lambda size: min_deletion(size, c, Cc)


# -- extractors --------------------------------------------------------------


def _energy_cert(D: IntSet, arity_half: int, exponent: Fraction, mode: str, name: str):
    e = energy(D, arity_half, mode).count
    holds = precision.cmp_count_power(e, len(D), exponent) <= 0
    return CheckReport(name, e, f"|D|^{exponent}", holds, None, digest(D, arity_half, exponent, mode))


def _extract_kp(A_i: IntSet, mode: str, energy_mode: str, arity: int):
    """Pipeline-based extraction: the popular-sum pipeline at arity
    max(4, arity)."""
    res = kp_pipeline(A_i, max(4, arity), 0.05, mode=mode, energy_mode=energy_mode)
    if res.branch != SUBSET_BRANCH:
        raise StageCollapseError("extract", "pipeline yielded no subset")
    return res.A_prime


def _extract_exhaustive(A_i: IntSet, cert_mode: str, arity_half: int):
    """The least-energy subset of at least ceil(|A_i|^(1-c)) elements, least members on a tie.  A set has
    no less energy than its subsets, so the minimum is met at exactly that size."""
    if len(A_i) > _EXHAUSTIVE_CAP:
        raise TooLargeError(f"exhaustive extractor limited to |A| <= {_EXHAUSTIVE_CAP}")
    size = min_deletion(len(A_i), _FRAC_C, Fraction(1))
    _, members = min((energy(IntSet(D), arity_half, cert_mode).count, D) for D in combinations(A_i, size))
    return IntSet(members)


# -- the two loops -----------------------------------------------------------


def _loop(
    A_pos, cfg, budget, stop_mode, stop_arity, stop_exp, cert_mode, cert_arity_half, cert_exp, cert_name, small_stop
):
    """Extract until the residual's stop certificate holds, raising
    ExtractorFailedError once the extractions pass ``budget``.

    Returns (B parts, residual, trace, iterations, stop report, failed);
    the stop report is None when an extraction failed.
    """
    small = max(small_stop, 1)

    def stop(X) -> CheckReport:
        if len(X) <= small:
            return CheckReport(f"{cert_name}-stop", len(X), f"|C| <= {small}", True, None, digest(X))
        M = energy(X, stop_arity, stop_mode).count
        holds = precision.cmp_count_power(M, len(X), stop_exp) < 0
        return CheckReport(f"{cert_name}-stop", M, f"|C|^{stop_exp}", holds, None, digest(X, stop_exp))

    residual = A_pos
    B_parts = []
    trace = []
    iterations = 0
    report = stop(residual)
    while not report.holds:
        try:
            if cfg.extractor == "exhaustive":
                D = _extract_exhaustive(residual, cert_mode, cert_arity_half)
            else:  # the pipeline runs in the stop energy's mode, at its arity
                D = _extract_kp(residual, cfg.mode, stop_mode, stop_arity)
        except (StageCollapseError, TooLargeError) as exc:
            trace.append((None, CheckReport("extract-failed", str(exc), None, False, None, digest(residual)), cert_exp))
            report = None
            break
        cert = _energy_cert(D, cert_arity_half, cert_exp, cert_mode, cert_name)
        trace.append((D, cert, cert_exp))
        if not cert.holds:
            report = None
            break
        B_parts.extend(D)
        taken = set(D)
        residual = IntSet(a for a in residual if a not in taken)
        iterations += 1
        if iterations > budget:
            raise ExtractorFailedError(iterations, "iteration budget exceeded")
        report = stop(residual)
    return B_parts, residual, trace, iterations, report, report is None


def decompose(A: IntSet, cfg: DecomposeConfig) -> Decomposition:
    """B = multiplicatively-rich extractions (each certified additively
    small at arity q/2), C = residual with small M_s.  The two sign parts
    share one iteration budget, ``com2_budget(|A|)``: the second loop
    gets what the first left."""
    if len(A) == 0:
        raise BadParamsError("need a non-empty set")
    pos, neg, zero = sign_split(A)
    stop_exp = 2 * cfg.s - cfg.k
    cert_exp = cfg.q - Fraction(cfg.q, 4)

    B_all, C_all, trace_all = [], list(zero), []
    budget = com2_budget(len(A), _FRAC_C, _FRAC_CC)
    iterations = 0
    failed = False
    stop_report = None
    for part, flip in ((pos, 1), (neg, -1)):
        if len(part) == 0:
            continue
        work = part if flip == 1 else IntSet(-a for a in part)
        Bp, Cp, tr, it, sr, fl = _loop(
            work, cfg, budget - iterations, MULTIPLICATIVE, cfg.s, stop_exp, ADDITIVE, cfg.q // 2, cert_exp, "gemn", 0
        )
        B_all.extend(flip * b for b in Bp)
        C_all.extend(flip * c for c in Cp)
        trace_all.extend(tr)
        iterations += it
        failed = failed or fl
        if stop_report is None:
            stop_report = sr
    B, C = IntSet(B_all), IntSet(C_all)
    _check_partition(A, B, C)
    return Decomposition(B, C, trace_all, budget, iterations, stop_report, failed)


def certificates(A: IntSet, d: Decomposition, cfg: DecomposeConfig) -> dict:
    """E_s(B) and M_s(C) of the decomposition ``d = decompose(A, cfg)``,
    each tested against |part|^(2s - k); an empty part holds with count 0."""
    exp = 2 * cfg.s - cfg.k
    # one sign and no 0: C is the residual of the one loop, whose stop report (unless an
    # extraction failed) holds M_s(C) = M_s(-C), or |C| = M_s(C) when |C| <= 1
    stop_count = d.stop_report is not None and (A.elements[0] > 0 or A.elements[-1] < 0)
    certs = {}
    for label, part, mode in (("B", d.B, ADDITIVE), ("C", d.C, MULTIPLICATIVE)):
        if len(part) == 0:
            certs[label] = {"count": "0", "holds": True, "size": 0}
            continue
        e = d.stop_report.lhs if label == "C" and stop_count else energy(part, cfg.s, mode).count
        certs[label] = {
            "count": str(e),
            "size": len(part),
            "exponent": str(exp),
            "holds": precision.cmp_count_power(e, len(part), exp) <= 0,
        }
    return certs


def decompose_eric(A: IntSet, cfg: DecomposeConfig) -> Decomposition:
    """Dual loop: stop when E_{s1}(residual) is small or the residual is
    tiny; each extracted D_i certified multiplicatively small at s2."""
    if len(A) == 0:
        raise BadParamsError("need a non-empty set")
    pos, neg, zero = sign_split(A)
    if len(neg) > 0 or len(zero) > 0:
        raise BadParamsError("dual loop needs positive elements")
    stop_exp = 2 * cfg.s1 - cfg.k
    cert_exp = 2 * cfg.s2 - cfg.k
    budget = com2_budget(len(pos), _FRAC_C, _FRAC_CC)
    Bp, Cp, tr, it, sr, fl = _loop(
        pos, cfg, budget, ADDITIVE, cfg.s1, stop_exp, MULTIPLICATIVE, cfg.s2 // 2, cert_exp, "eric", _SMALL_SET_BOUND
    )
    B, C = IntSet(Bp), Cp
    _check_partition(A, B, C)
    return Decomposition(B, C, tr, budget, it, sr, fl)


def _check_partition(A, B, C):
    if set(B) | set(C) != set(A) or set(B) & set(C):
        raise InvariantError("B and C do not partition A")
