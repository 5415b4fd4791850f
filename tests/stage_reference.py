"""The popular-sum stages as literal Python loops over sum values.

This is the stage arithmetic of ``energia.bsg`` as first written: every
degree, anchor score, overlap and z size is a double loop over the
half-arity support, every popular set is ranked with Python keys and
r_uv is counted pair by pair.  The tests compare the vectorised stages
against it.  It reads the library's r_s / r_{s/2} and its threshold
constants and extracts with ``fiber_oracle.reference_bsg_extract``.
Its paper thresholds are still mpmath powers compared with floats, so
the library's exact decisions are checked against an independent path;
only the strings it writes into the trace are the library's formula
literals.
"""

from dataclasses import dataclass
from fractions import Fraction

import mpmath

from energia import precision
from energia.bsg import PAPER, PopularSumGraph
from energia.checks import CheckReport, digest
from energia.energy import ADDITIVE, rep_function
from energia.errors import StageCollapseError
from energia.sets import IntSet
from fiber_oracle import reference_bsg_extract


@dataclass(frozen=True)
class FiberSet:
    """Union of complete constant-sum fibers of A^t, stored by sum value."""

    arity: int
    weights: dict  # sum value -> full fiber multiplicity r_t(value)
    mode: str = ADDITIVE

    def cardinality(self) -> int:
        return sum(self.weights.values())

    def support(self):
        return sorted(self.weights)

    def restrict(self, values) -> "FiberSet":
        keep = {v: w for v, w in self.weights.items() if v in values}
        return FiberSet(self.arity, keep, self.mode)


def _op(additive):
    return (lambda a, b: a + b) if additive else (lambda a, b: a * b)


def top_mass(items, mass_of, tiebreak_value):
    """Of the items carrying positive mass, the upper half ranked by mass
    (ties: increasing value)."""
    ranked = sorted(
        (x for x in items if mass_of(x) > 0),
        key=lambda x: (-mass_of(x), tiebreak_value(x)),
    )
    return ranked[: (len(ranked) + 1) // 2]


def fiber_stages(H, h, S, additive, mode, nA, s, d):
    """anchor, R_x, Y, thr_Y, z, Y1 (values, sorted) by double loops;
    ``h`` maps each value of H to its fiber weight."""
    op = _op(additive)
    S_set = frozenset(S)
    deg = {}
    for tau in H:
        deg[tau] = sum(h[sig] for sig in H if op(sig, tau) in S_set)
    best_score, anchor = -1, None
    for sig_x in H:
        score = sum(h[tau] * deg[tau] for tau in H if op(sig_x, tau) in S_set)
        if score > best_score:
            best_score, anchor = score, sig_x
    if best_score <= 0:
        raise StageCollapseError("anchor")
    R_x = [tau for tau in H if op(anchor, tau) in S_set]

    overlap = {}
    for sig_y in H:
        overlap[sig_y] = sum(h[tau] for tau in R_x if op(sig_y, tau) in S_set)
    if mode == PAPER:
        thr_Y = "2^-3 |A|^(s/2-2delta)"
        bound_Y = mpmath.mpf(2) ** -3 * mpmath.mpf(nA) ** (s / 2 - 2 * d)
        Y_vals = [sig for sig in H if overlap[sig] and precision.mpf(overlap[sig]) >= bound_Y]
    else:
        thr_Y = "top-half overlap mass"
        Y_vals = top_mass(
            [sig for sig in H if overlap[sig] > 0],
            lambda sig: h[sig] * overlap[sig],
            lambda sig: sig,
        )
    if not Y_vals:
        raise StageCollapseError("Y")

    best_size, z_val = -1, None
    for sig_z in R_x:
        size = sum(h[sig] for sig in Y_vals if op(sig, sig_z) in S_set)
        if size > best_size:
            best_size, z_val = size, sig_z
    if best_size <= 0:
        raise StageCollapseError("Y1")
    if mode == PAPER:
        if precision.mpf(best_size) < bound_Y:
            raise StageCollapseError("Y1", "paper lower bound missed")
    Y1 = [sig for sig in Y_vals if op(sig, z_val) in S_set]
    return anchor, R_x, sorted(Y_vals), thr_Y, z_val, sorted(Y1)


def run_stages(A, s, delta, mode, energy_mode, r_s, half):
    """The stages of ``kp_pipeline`` after the energy test, on r_s and
    r_{s/2} as given.

    Returns (trace, checks, A', anchor, stages), ``stages`` holding the
    sorted values of S, R_x, Y, Y1 and Sprime and the anchor and z.
    """
    additive = energy_mode == ADDITIVE
    op = _op(additive)
    nA = len(A)
    E_s = r_s.energy_count()
    d = precision.mpf(delta)
    log_n = precision.log2(nA)
    trace, checks = [], []

    if mode == PAPER:
        thr_S = Fraction(E_s, 2 * nA**s)
        S = sorted(n for n, c in r_s.support.items() if c >= thr_S)
    else:
        thr_S = "top-half energy mass"
        S = sorted(top_mass(list(r_s.support), lambda n: r_s.support[n] ** 2, lambda n: n))
    if not S:
        raise StageCollapseError("S")
    G_size = sum(r_s.support[n] for n in S)
    trace.append(("S", len(S), str(thr_S)))
    trace.append(("G", G_size, str(thr_S)))
    mass_ok = precision.guarded_cmp(precision.log2(2 * G_size), (s - d) * log_n) > 0
    count_ok = len(S) * E_s <= 4 * nA ** (2 * s)
    checks.append(CheckReport("7lem1-mass", 2 * G_size, f"|A|^(s-delta)", mass_ok, None, digest(A, s, "mass")))
    checks.append(
        CheckReport("7lem1-count", len(S) * E_s, 4 * nA ** (2 * s), count_ok, None, digest(A, s, "count"))
    )
    if mode == PAPER and not (mass_ok and count_ok):
        raise StageCollapseError("S", "7lem1 assertions failed in paper mode")

    h = half.support
    H = sorted(h)
    anchor, R_x, Y_vals, thr_Y, z_val, Y1_vals = fiber_stages(H, h, S, additive, mode, nA, s, d)
    trace.append(("anchor", sum(h[tau] for tau in R_x), str(anchor)))
    Y = FiberSet(s // 2, {sig: h[sig] for sig in Y_vals}, energy_mode)
    trace.append(("Y", Y.cardinality(), str(thr_Y)))
    Y1 = FiberSet(s // 2, {sig: h[sig] for sig in Y1_vals}, energy_mode)
    trace.append(("Y1", Y1.cardinality(), str(z_val)))

    size_Y1 = Y1.cardinality()
    supp_Y1 = Y1.support()
    S1 = [n for n in supp_Y1 if 2 * len(supp_Y1) * h[n] > size_Y1]
    if not S1:
        raise StageCollapseError("Y2")
    Y2 = Y1.restrict(set(S1))
    trace.append(("Y2", Y2.cardinality(), "r(Y1;n) > |Y1| / 2|sums(Y1)|"))

    U = IntSet(Y2.support())
    V = IntSet(R_x)
    r_uv = {}
    for u in U:
        for v in V:
            n = op(u, v)
            r_uv[n] = r_uv.get(n, 0) + 1
    M = Fraction(4 * nA ** (2 * s), E_s)
    if mode == PAPER:
        alpha_paper = mpmath.mpf(2) ** -37 * mpmath.mpf(nA) ** (-20 * d)
        thr_graph = alpha_paper * precision.mpf(M)
        Sp = [n for n, c in r_uv.items() if precision.mpf(c) >= thr_graph]
        Sp.sort(key=lambda n: (-r_uv[n], n))
        cap = int(M)
        if len(Sp) > cap:
            Sp = Sp[:cap]
        thr_repr = "2^-35 |A|^(nu-20delta)"
    else:
        Sp = top_mass(list(r_uv), lambda n: r_uv[n] ** 2, lambda n: n)
        thr_repr = "top-half pair mass"
    if not Sp:
        raise StageCollapseError("Sprime")
    edge_total = sum(r_uv[n] for n in Sp)
    bound_n = max(len(U), len(V), len(Sp))
    graph = PopularSumGraph(U, V, frozenset(Sp), Fraction(edge_total, bound_n**2), energy_mode)
    trace.append(("U", len(U), ""))
    trace.append(("V", len(V), ""))
    trace.append(("Sprime", len(Sp), thr_repr))

    U_prime, balbsg_report = reference_bsg_extract(U, V, graph)
    checks.append(balbsg_report)
    trace.append(("Uprime", len(U_prime), "balbsg"))
    Y3 = Y1.restrict(set(U_prime))
    if Y3.cardinality() == 0:
        raise StageCollapseError("Y3")
    trace.append(("Y3", Y3.cardinality(), ""))

    supp_Y3 = set(Y3.support())
    shifts = sorted(rep_function(A, s // 2 - 1, energy_mode).support)
    best_count, best_shift, best_members = -1, None, ()
    for sig_w in shifts:
        members = tuple(a for a in A if op(sig_w, a) in supp_Y3)
        if len(members) > best_count:
            best_count, best_shift, best_members = len(members), sig_w, members
    if best_count <= 0:
        raise StageCollapseError("Aprime")
    A_prime = IntSet(best_members)
    trace.append(("Aprime", len(A_prime), str(best_shift)))
    stages = {"S": S, "anchor": anchor, "R_x": R_x, "Y": Y_vals, "z": z_val, "Y1": Y1_vals, "Sprime": sorted(Sp)}
    return trace, checks, A_prime, anchor, stages
