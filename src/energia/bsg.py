"""Constructive Balog-Szemeredi-Gowers extraction and the full
popular-sum pipeline, executed exactly on a sum-value fiber
representation.

Every pipeline stage set (G, R_G(x), Y, Y1, Y2, Y3) depends on tuples
only through their coordinate sums, so a subset of A^(s/2) is a union of
complete constant-sum fibers: it is stored as a sorted index array into
the support H of r_{s/2}, each fiber weighing r_{s/2}(H_i).  An
|A|^(s/2)-sized object becomes an |(s/2)A|-sized one.  A tuple-level
brute-force oracle in the test suite certifies the equivalence at small
scale.

Two threshold regimes share one control flow: "paper" uses the explicit
absolute constants (which empty every stage at desk scale) and takes the
energy branch whenever the energy condition holds; "calibrated" replaces
each absolute threshold by a top-half-of-the-relevant-mass quantile and
always extracts a subset, since on a real input no stage can empty.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import _kernel, precision
from .checks import CheckReport, digest
from .energy import ADDITIVE, RepFunction, guard_counts, rep_function
from .errors import (
    BadParamsError,
    EmptyGraphError,
    EnergiaError,
    InvariantError,
    StageCollapseError,
    WrongBranchError,
)
from .sets import IntSet, iterated_product_set, iterated_sumset

PAPER = "paper"
CALIBRATED = "calibrated"

ENERGY_BRANCH = "EnergyBranch"
SUBSET_BRANCH = "SubsetBranch"

# Cells per row block of ``_membership``'s grids.  A block's temporaries
# (grid, search positions, gathered values, sorted copies) cost 25-50
# bytes a cell with int64 values, more with Python ints.  With blocks of
# 2^14 to 2^19 cells a run of decompose jobs ended 1-3 MB higher in peak
# RSS, for a few percent of speed; 2^12 cells keep each block near 100 KB.
_BLOCK = 1 << 12
# Span of S below which a membership test indexes a bool table of S
# (see ``_membership``).  It holds every kp table of the benchmark (S in
# 4A, A spanning less than 5*10^5); decompose's exponent-key spans reach
# 6.9*10^6 on certify-mix, and a 2^24 cap, on keys then spanning up to
# 1.4*10^8, took its peak RSS from 45.6 to 56.5 MB.
_TABLE = 1 << 21


@dataclass(frozen=True)
class PopularSumGraph:
    """Bipartite popular-sum graph: edge (u,v) iff u+v (u*v in
    multiplicative ``mode``) is an admissible sum.

    ``sums`` holds the admissible sums: any set of values, or, with
    ``values_of``, their coordinates as an array that ``values_of`` maps
    to the values.  ``kp_pipeline`` passes the sorted coordinates of its
    popular sums (values, or exponent keys) and ``r_uv.values_of``, so
    ``bound_n`` reads their count and the values are decoded only when
    ``sum_filter`` is read."""

    left: IntSet
    right: IntSet
    sums: object
    alpha: Fraction
    mode: str = ADDITIVE
    values_of: Optional[Callable] = None

    @cached_property
    def sum_filter(self) -> frozenset:
        """The admissible sums, as a frozenset of values."""
        if self.values_of is None:
            return frozenset(self.sums)
        return frozenset(self.values_of(self.sums).tolist())

    def bound_n(self) -> int:
        return max(len(self.left), len(self.right), len(self.sums))


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


def _top(pos, mass, k, values=None):
    """The ``k`` positions of ``pos`` (sorted) of largest int64 ``mass``,
    ties going to the least value, as a sorted index array.  Positions
    are in value order, or ``values(idx)`` gives the values at positions
    idx; they are looked up only for the ties at the cut, and only when
    the cut splits them.  The cut, the k-th largest mass, comes from one
    ``np.partition``, and the positions kept from one mask over ``pos``,
    so nothing is sorted but the ties' values."""
    if k >= len(pos):
        return pos
    m = mass[pos]
    cut = np.partition(m, len(m) - k)[len(m) - k]
    keep, tied = m > cut, np.flatnonzero(m == cut)
    room = k - np.count_nonzero(keep)
    if values is not None and room < len(tied):
        tied = tied[np.argsort(values(pos[tied]), kind="stable")]
    keep[tied[:room]] = True
    return pos[keep]


def _top_mass(mass, values=None):
    """Deterministic top-half quantile: of the positions carrying positive
    ``mass``, the upper half ranked by mass, ties going to the least value
    (see ``_top``).  Returns their indices, sorted."""
    pos = np.flatnonzero(mass > 0)
    return _top(pos, mass, (len(pos) + 1) // 2, values)


def _reach(seq) -> int:
    """max |x| over a non-empty sequence or array of ints, as a Python int
    (a sequence is not made an array: numpy would take ints between 2**63
    and 2**64 among smaller ones as floats)."""
    lo, hi = (seq.min(), seq.max()) if isinstance(seq, np.ndarray) else (min(seq), max(seq))
    return max(-int(lo), int(hi))


def _membership(X, Y, S, additive):
    """Bool matrix [X_i + Y_j in S] (products when not ``additive``).

    X and Y are sequences or arrays of ints, in any order, and S is
    sorted.  The grid is int64 when every value of X, Y and S and every
    cell stays below 2**63 in absolute value (a product with a factor 0
    does not bound the other), else an object array of Python ints; it
    is built and tested in row blocks of about ``_BLOCK`` cells, so only
    the bool matrix is |X|*|Y| sized.

    On an int64 grid with max S - min S below ``_TABLE`` (2**21), a cell
    is looked up in one bool table of S at t = value - min S + 1, with
    a False slot at each end (``_table``), by one ``np.take`` that clips
    an index outside the table to its end slot and writes straight into
    the matrix.  t is taken modulo 2**64 and read signed, and it is
    exact from -2**63 to 2**63 - 1, which covers every cell in
    [min S, max S].  A cell above max S has t > span + 1, or wraps below
    0; a cell below min S has t <= 0, or, where it wraps, t >= 2**63 + 2
    - min S > span + 1, as max S < 2**63.  The cap bounds the table at
    2 MB: decompose's exponent-key spans run wider, and tables of up
    to 2**24 bytes raised certify-mix peak RSS.  Only object grids and
    wider spans take the searchsorted path: the columns in sorted order
    of Y, so that a row of sums is sorted, which ``searchsorted`` runs
    through fastest, put back in place.
    """
    mx, my = _reach(X), _reach(Y)
    bound = mx + my if additive else max(mx, my, mx * my)
    if len(S):
        bound = max(bound, _reach(S))
    dtype = _kernel.exact_dtype(bound)
    X, Y, S = (np.array(v, dtype=dtype) for v in (X, Y, S))
    out = np.zeros((len(X), len(Y)), dtype=bool)
    if not len(S):
        return out
    outer = np.add.outer if additive else np.multiply.outer
    rows = max(1, _BLOCK // len(Y))
    lo = int(S[0])
    if dtype is np.int64 and int(S[-1]) - lo < _TABLE:
        table = _table(S)
        for i in range(0, len(X), rows):
            grid = outer(X[i : i + rows], Y)
            grid -= lo - 1  # may wrap, landing outside the table's S slots
            np.take(table, grid, mode="clip", out=out[i : i + rows])
        return out
    cols = np.argsort(Y, kind="stable")
    Y = Y[cols]
    for i in range(0, len(X), rows):
        grid = outer(X[i : i + rows], Y)
        pos = np.searchsorted(S, grid)
        np.minimum(pos, len(S) - 1, out=pos)
        out[i : i + rows, cols] = S[pos] == grid
    return out


def _table(S):
    """[v in S] at v - min S + 1 for v from min S - 1 to max S + 1 (False
    at both ends), for a sorted int64 array S."""
    lo = int(S[0])
    table = np.zeros(int(S[-1]) - lo + 3, dtype=bool)
    table[S - (lo - 1)] = True
    return table


def _matvec(M, v):
    """M @ v as int64, for a bool matrix M, any view, and a bool or int64
    vector v.  ``einsum`` casts M through its small buffers, so no int64
    copy of M, whole or blocked, is made, and it sums in int64: exact
    while sum(v) stays below 2**63."""
    return np.einsum("ij,j->i", M, v, dtype=np.int64)


def _levels(c):
    """(taus, counts, level) for an int64 array ``c`` of positive values:
    its distinct values ascending, how often each occurs, and each entry's
    level, the number of distinct values above it; from one ``bincount``
    (the values are codegrees, at most the number of vertices)."""
    counts = np.bincount(c)
    taus = np.flatnonzero(counts)
    return taus, counts[taus], len(taus) - np.cumsum(counts > 0)[c]


def _nested_spans(P, level, additive):
    """|C_j + C_j| (or |C_j * C_j|) for every j, where C_j = {P_i : level_i <= j}.

    ``level`` holds each element's first level, 0..k-1, every level
    taken.  Each pair of elements enters at the larger of its two levels,
    and each distinct sum at the least level of the pairs forming it
    (``_kernel.least_levels``); the spans are the running counts of sums
    by entry level, one ``bincount``.
    """
    P = np.array(P, dtype=_kernel.exact_dtype(_reach(P)))
    _, entry = _kernel.least_levels(P, level, additive)
    return np.cumsum(np.bincount(entry, minlength=int(level.max()) + 1)).tolist()


def bsg_extract(U: IntSet, V: IntSet, G: PopularSumGraph, grid=None):
    """Constructive BSG: popular seed + common-neighbourhood filtering.

    Candidates are common-neighbourhood superlevel sets of the four most
    popular seed vertices, ranked by the additive-richness proxy
    |A'|^2 / |A'+A'|; the best-ranked one is verified once against the
    explicit graph-BSG constants, and EnergiaError is raised if it fails.
    That needs a graph whose alpha disagrees with its edges: when alpha
    is the edge count E over n^2, as ``kp_pipeline`` builds it, then
    alpha <= 1, the size bound 3 alpha^3 n / (2^16 log2(32/alpha)) reaches
    1 only from E >= 109227^2, and the span bound, at least 5 (2^38/3) n,
    exceeds any span n(n+1)/2.  A seed's candidates are nested, so all
    their doubling spans come from one pass over the largest (see
    ``_nested_spans``), and their sizes from the counts of each
    codegree; only the winner's members are listed.

    ``grid`` is (X, Y, S, add): the coordinates of U (an array) and of
    V, aligned with their elements, and of ``G.sum_filter``, sorted, and
    whether they add.  They are the values, or for a product graph int64
    exponent keys (see ``_keys``), which add.  ``kp_pipeline`` passes its
    stage arrays; without ``grid`` they are the values of U, V and G.
    """
    if not (len(U) and len(V)):
        raise EmptyGraphError("popular-sum graph has an empty side")
    elems = list(U)
    if grid is None:
        X = np.array(elems, dtype=_kernel.exact_dtype(_reach(elems)))
        grid = X, V.elements, sorted(G.sum_filter), G.mode == ADDITIVE
    X, Y, S, add = grid
    adj = _membership(X, Y, S, add)
    deg = adj.sum(axis=1)
    if not deg.any():
        raise EmptyGraphError("popular-sum graph has no edges")

    by_degree = np.argsort(-deg, kind="stable")
    seeds = by_degree[deg[by_degree] > 0][:4]
    candidates = []  # (size, span, codegrees, tau): the members are codegrees >= tau
    for seed in seeds.tolist():
        codeg = _matvec(adj, adj[seed])
        inside = np.flatnonzero(codeg)
        taus, counts, level = _levels(codeg[inside])
        spans = _nested_spans(X[inside], level, add)
        sizes = np.cumsum(counts[::-1]).tolist()
        candidates.extend((size, span, codeg, tau) for size, span, tau in zip(sizes, spans, taus[::-1].tolist()))

    # Rank by size^2 / span exactly, in integers: two unequal ratios whose
    # spans are below 2**b differ by more than 2**-2b, so scaled by
    # 2**(2b + 1) and floored they keep their order, and equal ones tie.
    # Equal ranks go to the larger candidate, then to the first.
    shift = 2 * max(span for _, span, _, _ in candidates).bit_length() + 1
    _, span, codeg, tau = max(candidates, key=lambda c: ((c[0] * c[0] << shift) // c[1], c[0]))
    cand = tuple(elems[k] for k in np.flatnonzero(codeg >= tau).tolist())
    report = _balbsg_report(cand, span, G)
    if not report.holds:
        raise EnergiaError("the BSG candidate failed its verification")
    return IntSet._trusted(cand), report


def _balbsg_report(members, span, G: PopularSumGraph) -> CheckReport:
    n = G.bound_n()
    alpha = G.alpha
    with precision.working():
        log_term = precision.log2(32 / alpha)
        upper = precision.mpf(Fraction(2**38 * n, 3) / alpha**7) * log_term
        lower = precision.mpf(Fraction(3 * n, 2**16) * alpha**3) / log_term
        holds = precision.guarded_cmp(span, upper) <= 0 and precision.guarded_cmp(len(members), lower) >= 0
        slack = upper / span if span else None
    return CheckReport("balbsg", span, upper, holds, slack, digest(members, alpha, n))


# -- the pipeline ------------------------------------------------------------


def kp_pipeline(
    A: IntSet,
    s: int,
    delta: float,
    mode: str = CALIBRATED,
    energy_mode: str = ADDITIVE,
) -> KpResult:
    """Run the popular-sum extraction pipeline on A at arity s.

    In paper mode, returns an EnergyBranch result when the half-arity
    energy literally exceeds |A|^(s - nu + delta); otherwise, and always
    in calibrated mode, a SubsetBranch result carrying the extracted
    subset A'.  Calibrated mode never takes the energy branch: S and
    Sprime are top halves of positive counts, a sum in S is some
    H_i op H_j so the anchor scores > 0, the symmetry of M and the
    heaviest fiber keep Y, Y1 and Y2 non-empty, and U' is a non-empty
    subset of sums(Y1), inside (s/2 - 1)A op A, so Y3 and A' are too.
    """
    if s < 4 or s % 2 != 0:
        raise BadParamsError("need even s >= 4")
    if delta <= 0:
        raise BadParamsError("need delta > 0")
    d = precision.rational(delta, "delta")  # before the chain: a non-finite delta is refused at once
    if len(A) < 2:
        raise BadParamsError("need |A| >= 2")
    if mode not in (PAPER, CALIBRATED):
        raise BadParamsError(f"unknown mode {mode!r}")

    nA = len(A)
    shifts, half, r_s = _chain(A, s, energy_mode)
    E_s = r_s.energy_count()
    E_half = half.energy_count()
    with precision.working():
        nu = 2 * s - precision.log2(E_s) / precision.log2(nA)

    # E_{s/2}(A) > |A|^(s - nu + delta) = E_s |A|^(delta - s), as |A|^nu = |A|^(2s) / E_s
    energy_cond = precision.cmp_count_power(E_half, nA, d - s, factor=E_s) > 0
    energy_check = CheckReport("kp-energy-branch", E_half, "E_s |A|^(delta-s)", energy_cond, None, digest(A, s, delta))

    if mode == PAPER and energy_cond:
        stats = {"E_s": E_s, "E_half": E_half}
        return KpResult(ENERGY_BRANCH, nu, delta, s, mode, energy_mode, stage_stats=stats, checks=[energy_check])
    return _run_stages(A, s, delta, mode, energy_mode, shifts, half, r_s, nu, energy_check, nA, E_s, d)


def _chain(A, s, energy_mode):
    """(r_{s/2-1}, r_{s/2}, r_s) of A for even s >= 4, from r_1 alone,
    under one count guard on |A|^s, checked before any of them is built:
    r_{s/2} = r_{s/2-1} * r_1 and r_s = r_{s/2} * r_{s/2}.  The first
    holds the shift stage's shifts.  r_1 is asked for products of up to
    s elements, so on exponent keys all three share its codec."""
    guard_counts(len(A), s)
    r_1 = rep_function(A, 1, energy_mode, products=s)
    shifts = RepFunction(_kernel.power(r_1.counts, s // 2 - 1, r_1.adds), s // 2 - 1, energy_mode, r_1.codec)
    half = RepFunction(_kernel.pair(shifts.counts, r_1.counts, r_1.adds), s // 2, energy_mode, r_1.codec)
    return shifts, half, RepFunction(_kernel.pair(half.counts, half.counts, r_1.adds), s, energy_mode, r_1.codec)


def _fiber_stages(H, h, S, additive, mode, nA, s, d):
    """anchor, R_G(anchor), Y, z and Y1 over the half-arity support.

    H is the value-sorted support of r_{s/2} (or the keys of its values,
    in that order), h its fiber weights (int64) and S the sorted popular
    sums (or their keys).  Every stage reads one bool membership matrix
    M[i, j] = [H_i op H_j in S], symmetric since op commutes:
    deg = M h, anchor score = M (h deg), overlap = M[:, R_x] h[R_x] and the
    z sizes h[Y] M[Y, R_x].  argmax keeps the first maximum, so ties go to
    the least value.  Returns (anchor, R_x, Y, thr_Y, z, Y1), all but
    thr_Y as indices into H: R_x, Y and Y1 sorted index arrays.
    """
    M = _membership(H, H, S, additive)
    deg = _matvec(M, h)
    score = _matvec(M, h * deg)
    a = int(np.argmax(score))
    if score[a] <= 0:
        raise StageCollapseError("anchor")
    R_x = np.flatnonzero(M[a])

    # paper bound on the overlaps and on z: size >= 2^-3 |A|^(s/2 - 2 delta)
    popular = lambda size: precision.cmp_count_power(8 * size, nA, Fraction(s, 2) - 2 * d) >= 0
    overlap = _matvec(M[:, R_x], h[R_x])
    if mode == PAPER:
        thr_Y = "2^-3 |A|^(s/2-2delta)"
        Y = np.array([i for i, o in enumerate(overlap.tolist()) if o and popular(o)], dtype=np.intp)
    else:
        thr_Y = "top-half overlap mass"
        Y = _top_mass(h * overlap)
    if not len(Y):
        raise StageCollapseError("Y")

    size = _matvec(M[np.ix_(R_x, Y)], h[Y])
    zi = int(np.argmax(size))
    if size[zi] <= 0:
        raise StageCollapseError("Y1")
    if mode == PAPER and not popular(int(size[zi])):
        raise StageCollapseError("Y1", "paper lower bound missed")
    z = int(R_x[zi])
    return a, R_x, Y, thr_Y, z, Y[M[Y, z]]


def _run_stages(A, s, delta, mode, energy_mode, shifts, half, r_s, nu, energy_check, nA, E_s, d):
    # The shifts, r_{s/2} and r_s come from one r_1 (see _chain), so they
    # are all on exponent keys with its codec, or all on values.  Every
    # grid below combines coordinates: on keys it adds them in place of
    # multiplying the values.  H and the shifts are read in value order,
    # so each first maximum still goes to the least value; r_s and r_uv
    # are read in coordinate order, and their values are decoded only for
    # the ties that a cut splits; the graph holds its sums' coordinates.
    # nA = |A|, E_s = E_s(A) and d = delta as a Fraction come from kp_pipeline.
    add, codec = half.adds, half.codec
    # a cut's ties are ranked by value; on values, coordinate order is value order
    ranked = lambda rep: None if codec is None else rep.values_at
    trace = []
    checks = [energy_check]

    # Every count below is at most |A|^s, which the r_s guard keeps below
    # 2**63, so int64 sums and products of counts are exact.

    # --- stage S: popular sums ------------------------------------------
    s_coords, s_cnts = r_s.counts.vals, r_s.counts.cnts
    if mode == PAPER:
        thr_S = Fraction(E_s, 2 * nA**s)  # = |A|^(s-nu) / 2, exactly
        S_idx = np.flatnonzero(s_cnts >= math.ceil(thr_S))
    else:
        thr_S = "top-half energy mass"
        S_idx = _top_mass(s_cnts, ranked(r_s))  # ranking by r_s(n) ranks r_s(n)^2 the same
    if not len(S_idx):
        raise StageCollapseError("S")
    G_size = int(s_cnts[S_idx].sum())
    trace.append(("S", len(S_idx), str(thr_S)))
    trace.append(("G", G_size, str(thr_S)))

    # Lemma 7lem1 assertions: 2|G| > |A|^(s-delta) and |S| E_s <= 4 |A|^(2s)
    mass_ok = precision.cmp_count_power(2 * G_size, nA, s - d) > 0
    count_ok = len(S_idx) * E_s <= 4 * nA ** (2 * s)
    checks.append(
        CheckReport("7lem1-mass", 2 * G_size, f"|A|^(s-delta)", mass_ok, None, digest(A, s, "mass"))
    )
    checks.append(
        CheckReport("7lem1-count", len(S_idx) * E_s, 4 * nA ** (2 * s), count_ok, None, digest(A, s, "count"))
    )
    if mode == PAPER and not (mass_ok and count_ok):
        raise StageCollapseError("S", "7lem1 assertions failed in paper mode")

    # --- anchor, Y (large overlap against the anchor), z and Y1 ------------
    # stage sets are sorted index arrays into H, fiber i weighing h[i]
    H_vals, h, H_coords = half.by_value
    a, R_x, Y, thr_Y, z, Y1 = _fiber_stages(H_coords, h, s_coords[S_idx], add, mode, nA, s, d)
    anchor, z_val = H_vals[[a, z]].tolist()
    size_Y, size_Y1 = int(h[Y].sum()), int(h[Y1].sum())
    trace.append(("anchor", int(h[R_x].sum()), str(anchor)))
    trace.append(("Y", size_Y, str(thr_Y)))
    trace.append(("Y1", size_Y1, str(z_val)))

    # --- S1 / Y2: relative popularity pruning (the heaviest fiber passes) --
    # exact in int64: n fibers of total weight T have n * max h <= T^2 / 4
    Y2 = Y1[2 * len(Y1) * h[Y1] > size_Y1]
    size_Y2 = int(h[Y2].sum())
    trace.append(("Y2", size_Y2, "r(Y1;n) > |Y1| / 2|sums(Y1)|"))
    if not size_Y2 <= size_Y1 <= size_Y:
        raise InvariantError("pruning grew a stage: |Y2| <= |Y1| <= |Y| fails")

    # --- popular-sum graph on U = sums(Y2), V = sums(R_G(x)) --------------
    U, V = (IntSet._trusted(H_vals[idx].tolist()) for idx in (Y2, R_x))
    U_w, V_w = (_kernel.Weighted.indicator(np.sort(H_coords[idx]).tolist(), True) for idx in (Y2, R_x))
    r_uv = RepFunction(_kernel.pair(U_w, V_w, add), s, energy_mode, codec)
    uv_coords, uv_cnts = r_uv.counts.vals, r_uv.counts.cnts
    M = Fraction(4 * nA ** (2 * s), E_s)  # 4 |A|^nu, exactly
    if mode == PAPER:
        # c >= 2^-37 |A|^(-20 delta) M = 2^-35 |A|^(2s - 20 delta) / E_s
        counts = np.unique(uv_cnts).tolist()
        passing = [c for c in counts if precision.cmp_count_power(c * E_s << 35, nA, 2 * s - 20 * d) >= 0]
        # keep at most M sums, the most represented first (ties: least value)
        Sp_idx = _top(np.flatnonzero(np.isin(uv_cnts, passing)), uv_cnts, int(M), ranked(r_uv))
        thr_repr = "2^-35 |A|^(nu-20delta)"
    else:
        Sp_idx = _top_mass(uv_cnts, ranked(r_uv))
        thr_repr = "top-half pair mass"
    if not len(Sp_idx):
        raise StageCollapseError("Sprime")
    edge_total = int(uv_cnts[Sp_idx].sum())
    bound_n = max(len(U), len(V), len(Sp_idx))
    Sp_coords = uv_coords[Sp_idx]
    graph = PopularSumGraph(U, V, Sp_coords, Fraction(edge_total, bound_n**2), energy_mode, r_uv.values_of)
    trace.append(("U", len(U), ""))
    trace.append(("V", len(V), ""))
    trace.append(("Sprime", len(Sp_idx), thr_repr))

    # --- BSG extraction on the stage coordinates -------------------------
    U_prime, balbsg_report = bsg_extract(U, V, graph, (H_coords[Y2], H_coords[R_x], Sp_coords, add))
    checks.append(balbsg_report)
    trace.append(("Uprime", len(U_prime), "balbsg"))

    # Y3: the fibers of U', a non-empty subset of sums(Y2)
    Y3 = np.searchsorted(H_vals, U_prime.elements)
    trace.append(("Y3", int(h[Y3].sum()), ""))

    # --- best shift: pull A' out of the Y3 fibers --------------------------
    # s >= 4, so the shifts sigma_w range over (s/2 - 1)A
    shift_vals, _, shift_coords = shifts.by_value
    A_coords = A.elements if codec is None else codec.keys
    hits = _membership(shift_coords, A_coords, np.sort(H_coords[Y3]), add)
    w = int(np.argmax(hits.sum(axis=1)))
    members = np.flatnonzero(hits[w]).tolist()
    if not members:
        raise StageCollapseError("Aprime")
    A_prime = IntSet._trusted([A.elements[j] for j in members])
    trace.append(("Aprime", len(A_prime), str(shift_vals[w])))

    # paper-constant final lower bound, informational at desk scale:
    # |A'| >= 2^-24 alpha^4 |A|^(1 - 2 delta) with alpha = 2^-37 |A|^(-20 delta)
    final_ok = precision.cmp_count_power(len(A_prime) << 172, nA, 1 - 82 * d) >= 0
    checks.append(
        CheckReport(
            "kp-final-size", len(A_prime), "2^-172 |A|^(1-82delta)", final_ok, None, digest(A, s, delta, "final")
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


def kp_verify(res: KpResult, A: IntSet, pairs):
    """Check |mA' - nA'| against the explicit paper bound
    2^(506(m+n)+2) |A|^(nu + 240(m+n) delta) for each (m, n) pair, as
    |mA' - nA'| E_s against 2^(506(m+n)+2) |A|^(2s + 240(m+n) delta)."""
    if res.branch != SUBSET_BRANCH:
        raise WrongBranchError("kp_verify needs a SubsetBranch result")
    reports = []
    nA, E_s = len(A), res.stage_stats["E_s"]
    d = precision.rational(res.delta, "delta")
    fold = iterated_sumset if res.energy_mode == ADDITIVE else iterated_product_set
    for m, n in pairs:
        span = len(fold(res.A_prime, m, n))
        k = m + n
        holds = precision.cmp_count_power(span * E_s, nA, 2 * res.s + 240 * k * d, factor=2 ** (506 * k + 2)) <= 0
        rhs = f"2^{506 * k + 2} |A|^(nu+{240 * k}delta)"
        reports.append(CheckReport(f"kp-bound-{m}-{n}", span, rhs, holds, None, digest(A, m, n)))
    return reports
