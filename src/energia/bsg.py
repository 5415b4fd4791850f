"""Constructive Balog-Szemeredi-Gowers extraction and the full
popular-sum pipeline, executed exactly on a sum-value fiber
representation.

Every pipeline stage set (G, R_G(x), Y, Y1, Y2, Y3) depends on tuples
only through their coordinate sums, so subsets of A^(s/2) are stored as
weighted sum-value mappings (FiberSet): an |A|^(s/2)-sized object
becomes an |(s/2)A|-sized one.  A tuple-level brute-force oracle in the
test suite certifies the equivalence at small scale.

Two threshold regimes share one control flow: "paper" uses the explicit
absolute constants (which empty every stage at desk scale), "calibrated"
replaces each absolute threshold by a top-half-of-the-relevant-mass
quantile.  In calibrated mode the energy branch is taken only when
extraction collapses AND the energy condition literally holds, so that a
successfully extracted subset is always reported.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import mpmath

from . import precision
from .checks import CheckReport, digest
from .energy import _OPS, ADDITIVE, MULTIPLICATIVE, RepFunction, rep_function
from .errors import (
    BadParamsError,
    EmptyGraphError,
    EmptyResultError,
    EnergiaError,
    StageCollapseError,
    WrongBranchError,
)
from .sets import IntSet, iterated_product_set, iterated_sumset

PAPER = "paper"
CALIBRATED = "calibrated"

ENERGY_BRANCH = "EnergyBranch"
SUBSET_BRANCH = "SubsetBranch"


@dataclass(frozen=True)
class PopularSumGraph:
    """Bipartite popular-sum graph: edge (u,v) iff u+v is an admissible sum."""

    left: IntSet
    right: IntSet
    sum_filter: frozenset
    alpha: Fraction
    mode: str = ADDITIVE

    def neighbours(self, u):
        op = _OPS[self.mode]
        return [v for v in self.right if op(u, v) in self.sum_filter]

    def edge_count(self) -> int:
        op = _OPS[self.mode]
        return sum(
            1 for u in self.left for v in self.right if op(u, v) in self.sum_filter
        )

    def bound_n(self) -> int:
        return max(len(self.left), len(self.right), len(self.sum_filter))


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

    @staticmethod
    def from_rep(rep: RepFunction, values=None) -> "FiberSet":
        if values is None:
            return FiberSet(rep.s, dict(rep.support), rep.mode)
        return FiberSet(
            rep.s, {v: rep.support[v] for v in values if v in rep.support}, rep.mode
        )


@dataclass
class KpResult:
    branch: str
    nu: object
    delta: float
    s: int
    mode: str  # threshold regime used
    energy_mode: str  # additive | multiplicative
    A_prime: Optional[IntSet] = None
    anchor_sum: Optional[object] = None
    stage_stats: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    trace: list = field(default_factory=list)  # (stage, cardinality, threshold)

    def stage_trace(self):
        return list(self.trace)


def popular_sums(r: RepFunction, threshold) -> IntSet:
    """S = {n : r(n) >= threshold}."""
    if r.mode != ADDITIVE:
        raise BadParamsError("popular_sums expects an additive rep function")
    hits = [n for n, c in r.support.items() if c >= threshold]
    if not hits:
        raise EmptyResultError("no value reaches the popularity threshold")
    return IntSet(hits)


def _top_mass(items, mass_of, tiebreak_value):
    """Deterministic top-half quantile: of the values carrying positive
    mass, keep the upper half ranked by mass (ties: increasing value)."""
    ranked = sorted(
        (x for x in items if mass_of(x) > 0),
        key=lambda x: (-mass_of(x), tiebreak_value(x)),
    )
    if not ranked:
        return []
    return ranked[: (len(ranked) + 1) // 2]


def bsg_extract(U: IntSet, V: IntSet, G: PopularSumGraph):
    """Constructive BSG: popular seed + common-neighbourhood filtering.

    Candidates are common-neighbourhood superlevel sets of the most
    popular seed vertices, scored by the additive-richness proxy
    |A'|^2 / |A'+A'|; the winner is verified against the explicit
    graph-BSG constants (retrying further candidates on failure, with an
    exhaustive subset search fallback for small U).
    """
    op = _OPS[G.mode]
    adj = {u: frozenset(v for v in V if op(u, v) in G.sum_filter) for u in U}
    edges = sum(len(n) for n in adj.values())
    if edges == 0:
        raise EmptyGraphError("popular-sum graph has no edges")

    seeds = sorted((u for u in U if adj[u]), key=lambda u: (-len(adj[u]), u))[:4]
    candidates = []
    seen = set()
    for seed in seeds:
        codeg = {u: len(adj[u] & adj[seed]) for u in U}
        for tau in sorted({c for c in codeg.values() if c > 0}, reverse=True):
            cand = tuple(u for u in U if codeg[u] >= tau)
            if cand not in seen:
                seen.add(cand)
                candidates.append(cand)

    def doubling_span(members) -> int:
        sub = IntSet(members)
        if G.mode == ADDITIVE:
            return len(iterated_sumset(sub, 2, 0))
        return len(iterated_product_set(sub, 2, 0))

    scored = []
    for i, cand in enumerate(candidates):
        span = doubling_span(cand)
        scored.append((Fraction(len(cand) ** 2, span), len(cand), -i, cand, span))
    scored.sort(reverse=True)

    for _, _, _, cand, span in scored:
        report = _balbsg_report(cand, span, G)
        if report.holds:
            return IntSet(cand), report

    if len(U) <= 16:
        best = None
        elems = list(U)
        for mask in range(1, 1 << len(elems)):
            cand = tuple(elems[i] for i in range(len(elems)) if mask >> i & 1)
            span = doubling_span(cand)
            report = _balbsg_report(cand, span, G)
            if report.holds:
                key = (Fraction(len(cand) ** 2, span), len(cand), cand)
                if best is None or key > best[0]:
                    best = (key, IntSet(cand), report)
        if best is not None:
            return best[1], best[2]
    raise EnergiaError("no candidate subset passed the BSG verification")


def _balbsg_report(members, span, G: PopularSumGraph) -> CheckReport:
    n = G.bound_n()
    alpha = G.alpha
    with mpmath.workprec(precision.precision_bits()):
        a = precision.mpf(alpha)
        log_term = mpmath.log(32 / a, 2)
        upper = mpmath.mpf(2) ** 38 / 3 * log_term / a**7 * n
        lower = mpmath.mpf(3) / 2**16 * a**3 / log_term * n
        holds = precision.mpf(span) <= upper and precision.mpf(len(members)) >= lower
        slack = upper / span if span else None
    return CheckReport(
        "balbsg", span, upper, bool(holds), slack, digest(members, alpha, n)
    )


# -- the pipeline ------------------------------------------------------------


def kp_pipeline(
    A: IntSet,
    s: int,
    delta: float,
    mode: str = CALIBRATED,
    energy_mode: str = ADDITIVE,
) -> KpResult:
    """Run the popular-sum extraction pipeline on A at arity s.

    Returns an EnergyBranch result when the half-arity energy literally
    exceeds |A|^(s - nu + delta) (paper mode checks this up front;
    calibrated mode only falls back to it when extraction collapses), or
    a SubsetBranch result carrying the extracted subset A'.
    """
    if s < 4 or s % 2 != 0:
        raise BadParamsError("need even s >= 4")
    if delta <= 0:
        raise BadParamsError("need delta > 0")
    if len(A) < 2:
        raise BadParamsError("need |A| >= 2")
    if mode not in (PAPER, CALIBRATED):
        raise BadParamsError(f"unknown mode {mode!r}")

    nA = len(A)
    half = rep_function(A, s // 2, energy_mode)
    r_s = half.self_convolution()  # s is even, so r_s = r_{s/2} * r_{s/2}
    E_s = r_s.energy_count()
    E_half = half.energy_count()
    log_n = precision.log2(nA)
    nu = 2 * s - precision.log2(E_s) / log_n

    # E_{s/2}(A) > |A|^(s - nu + delta), i.e. log2 E_half > log2 E_s - (s-delta) log2|A|
    thr_log = precision.log2(E_s) - (s - precision.mpf(delta)) * log_n
    energy_cond = precision.guarded_cmp(precision.log2(E_half), thr_log) > 0
    energy_check = CheckReport(
        "kp-energy-branch",
        E_half,
        str(thr_log),
        energy_cond,
        None,
        digest(A, s, delta),
    )

    def energy_result():
        res = KpResult(ENERGY_BRANCH, nu, delta, s, mode, energy_mode)
        res.checks.append(energy_check)
        res.stage_stats = {"E_s": E_s, "E_half": E_half}
        return res

    if mode == PAPER and energy_cond:
        return energy_result()

    try:
        return _run_stages(A, s, delta, mode, energy_mode, r_s, half, nu, energy_check)
    except StageCollapseError:
        if mode == CALIBRATED and energy_cond:
            return energy_result()
        raise


def _run_stages(A, s, delta, mode, energy_mode, r_s, half, nu, energy_check):
    op = _OPS[energy_mode]
    nA = len(A)
    E_s = r_s.energy_count()
    d = precision.mpf(delta)
    log_n = precision.log2(nA)
    trace = []
    checks = [energy_check]

    # --- stage S: popular sums ------------------------------------------
    if mode == PAPER:
        thr_S = Fraction(E_s, 2 * nA**s)  # = |A|^(s-nu) / 2, exactly
        S = sorted(n for n, c in r_s.support.items() if c >= thr_S)
    else:
        thr_S = "top-half energy mass"
        S = sorted(
            _top_mass(list(r_s.support), lambda n: r_s.support[n] ** 2, lambda n: n)
        )
    if not S:
        raise StageCollapseError("S")
    S_set = frozenset(S)
    G_size = sum(r_s.support[n] for n in S)
    trace.append(("S", len(S), str(thr_S)))
    trace.append(("G", G_size, str(thr_S)))

    # Lemma 7lem1 assertions: 2|G| > |A|^(s-delta) and |S| E_s <= 4 |A|^(2s)
    mass_ok = precision.guarded_cmp(
        precision.log2(2 * G_size), (s - d) * log_n
    ) > 0
    count_ok = len(S) * E_s <= 4 * nA ** (2 * s)
    checks.append(
        CheckReport("7lem1-mass", 2 * G_size, f"|A|^(s-delta)", mass_ok, None, digest(A, s, "mass"))
    )
    checks.append(
        CheckReport("7lem1-count", len(S) * E_s, 4 * nA ** (2 * s), count_ok, None, digest(A, s, "count"))
    )
    if mode == PAPER and not (mass_ok and count_ok):
        raise StageCollapseError("S", "7lem1 assertions failed in paper mode")

    # --- anchor ----------------------------------------------------------
    h = half.support
    H = sorted(h)
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
    R_x_card = sum(h[tau] for tau in R_x)
    trace.append(("anchor", R_x_card, str(anchor)))

    # --- Y: fibers with large overlap against the anchor -----------------
    overlap = {}
    for sig_y in H:
        overlap[sig_y] = sum(h[tau] for tau in R_x if op(sig_y, tau) in S_set)
    if mode == PAPER:
        thr_Y = mpmath.mpf(2) ** -3 * mpmath.mpf(nA) ** (s / 2 - 2 * d)
        Y_vals = [sig for sig in H if overlap[sig] and precision.mpf(overlap[sig]) >= thr_Y]
    else:
        thr_Y = "top-half overlap mass"
        Y_vals = _top_mass(
            [sig for sig in H if overlap[sig] > 0],
            lambda sig: h[sig] * overlap[sig],
            lambda sig: sig,
        )
    if not Y_vals:
        raise StageCollapseError("Y")
    Y = FiberSet(s // 2, {sig: h[sig] for sig in Y_vals}, energy_mode)
    trace.append(("Y", Y.cardinality(), str(thr_Y)))

    # --- z selection and Y1 ----------------------------------------------
    Y_supp = set(Y_vals)
    best_size, z_val = -1, None
    for sig_z in R_x:
        size = sum(h[sig] for sig in Y_vals if op(sig, sig_z) in S_set)
        if size > best_size:
            best_size, z_val = size, sig_z
    if best_size <= 0:
        raise StageCollapseError("Y1")
    if mode == PAPER:
        thr_Y1 = mpmath.mpf(2) ** -3 * mpmath.mpf(nA) ** (s / 2 - 2 * d)
        if precision.mpf(best_size) < thr_Y1:
            raise StageCollapseError("Y1", "paper lower bound missed")
    Y1 = FiberSet(
        s // 2,
        {sig: h[sig] for sig in Y_vals if op(sig, z_val) in S_set},
        energy_mode,
    )
    trace.append(("Y1", Y1.cardinality(), str(z_val)))

    # --- S1 / Y2: relative popularity pruning ----------------------------
    size_Y1 = Y1.cardinality()
    supp_Y1 = Y1.support()
    S1 = [n for n in supp_Y1 if 2 * len(supp_Y1) * h[n] > size_Y1]
    if not S1:
        raise StageCollapseError("Y2")
    Y2 = Y1.restrict(set(S1))
    trace.append(("Y2", Y2.cardinality(), "r(Y1;n) > |Y1| / 2|sums(Y1)|"))
    assert Y2.cardinality() <= Y1.cardinality() <= Y.cardinality()

    # --- popular-sum graph on U = sums(Y2), V = sums(R_G(x)) --------------
    U = IntSet(Y2.support())
    V = IntSet(R_x)
    r_uv = {}
    for u in U:
        for v in V:
            n = op(u, v)
            r_uv[n] = r_uv.get(n, 0) + 1
    M = Fraction(4 * nA ** (2 * s), E_s)  # 4 |A|^nu, exactly
    if mode == PAPER:
        alpha_paper = mpmath.mpf(2) ** -37 * mpmath.mpf(nA) ** (-20 * d)
        thr_graph = alpha_paper * precision.mpf(M)
        Sp = [n for n, c in r_uv.items() if precision.mpf(c) >= thr_graph]
        Sp.sort(key=lambda n: (-r_uv[n], n))
        cap = int(M)
        if len(Sp) > cap:
            Sp = Sp[:cap]
        thr_repr = str(thr_graph)
    else:
        Sp = _top_mass(list(r_uv), lambda n: r_uv[n] ** 2, lambda n: n)
        thr_repr = "top-half pair mass"
    if not Sp:
        raise StageCollapseError("Sprime")
    Sp_set = frozenset(Sp)
    edge_total = sum(r_uv[n] for n in Sp)
    bound_n = max(len(U), len(V), len(Sp))
    graph = PopularSumGraph(
        U, V, Sp_set, Fraction(edge_total, bound_n**2), energy_mode
    )
    trace.append(("U", len(U), ""))
    trace.append(("V", len(V), ""))
    trace.append(("Sprime", len(Sp), thr_repr))

    # --- BSG extraction on sum values -------------------------------------
    U_prime, balbsg_report = bsg_extract(U, V, graph)
    checks.append(balbsg_report)
    trace.append(("Uprime", len(U_prime), "balbsg"))

    U_prime_set = set(U_prime)
    Y3 = Y1.restrict(U_prime_set)
    if Y3.cardinality() == 0:
        raise StageCollapseError("Y3")
    trace.append(("Y3", Y3.cardinality(), ""))

    # --- best shift: pull A' out of the Y3 fibers --------------------------
    supp_Y3 = set(Y3.support())
    if s // 2 - 1 >= 1:
        shifts = sorted(rep_function(A, s // 2 - 1, energy_mode).support)
    else:
        shifts = [0] if energy_mode == ADDITIVE else [1]
    best_count, best_shift, best_members = -1, None, ()
    for sig_w in shifts:
        members = tuple(a for a in A if op(sig_w, a) in supp_Y3)
        if len(members) > best_count:
            best_count, best_shift, best_members = len(members), sig_w, members
    if best_count <= 0:
        raise StageCollapseError("Aprime")
    A_prime = IntSet(best_members)
    trace.append(("Aprime", len(A_prime), str(best_shift)))

    # paper-constant final lower bound, informational at desk scale
    with mpmath.workprec(precision.precision_bits()):
        alpha_p = mpmath.mpf(2) ** -37 * mpmath.mpf(nA) ** (-20 * d)
        final_lb = mpmath.mpf(2) ** -24 * alpha_p**4 * mpmath.mpf(nA) ** (1 - 2 * d)
        final_ok = precision.mpf(len(A_prime)) >= final_lb
    checks.append(
        CheckReport(
            "kp-final-size", len(A_prime), str(final_lb), bool(final_ok), None, digest(A, s, delta, "final")
        )
    )

    res = KpResult(
        SUBSET_BRANCH,
        nu,
        delta,
        s,
        mode,
        energy_mode,
        A_prime=A_prime,
        anchor_sum=anchor,
        checks=checks,
        trace=trace,
    )
    res.stage_stats = {name: card for name, card, _ in trace}
    res.stage_stats["E_s"] = E_s
    return res


def kp_verify(res: KpResult, A: IntSet, pairs, practical=None):
    """Check |mA' - nA'| against the explicit paper bound (and an optional
    caller-supplied practical threshold) for each (m, n) pair."""
    if res.branch != SUBSET_BRANCH:
        raise WrongBranchError("kp_verify needs a SubsetBranch result")
    reports = []
    nA = len(A)
    for m, n in pairs:
        if res.energy_mode == ADDITIVE:
            span = len(iterated_sumset(res.A_prime, m, n))
        else:
            span = len(iterated_product_set(res.A_prime, m, n))
        with mpmath.workprec(precision.precision_bits()):
            bound = (
                mpmath.mpf(2) ** (506 * (m + n) + 2)
                * mpmath.mpf(nA)
                ** (precision.mpf(res.nu) + 240 * (m + n) * precision.mpf(res.delta))
            )
            holds = precision.mpf(span) <= bound
            slack = bound / span if span else None
        reports.append(
            CheckReport(
                f"kp-bound-{m}-{n}", span, str(bound), bool(holds), slack, digest(A, m, n)
            )
        )
        if practical is not None:
            cap = practical(m, n, res.A_prime) if callable(practical) else practical[(m, n)]
            reports.append(
                CheckReport(
                    f"kp-practical-{m}-{n}",
                    span,
                    cap,
                    span <= cap,
                    Fraction(cap, span) if span else None,
                    digest(A, m, n, "practical"),
                )
            )
    return reports
