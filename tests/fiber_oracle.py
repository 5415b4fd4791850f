"""Tuple-level re-derivation of the calibrated pipeline stages.

Enumerates literal tuples of A^(s/2) and extracts with its own
per-candidate BSG ranking (``reference_bsg_extract``), whose doublings are
counted with plain Python sets; it shares no code with the library
beyond the graph and report types and the BSG verification constants.
Used to certify that the sum-value fiber representation computes
identical stage cardinalities, and as the reference for ``bsg_extract``.
"""

from collections import Counter
from fractions import Fraction
from itertools import product

from energia import bsg
from energia.bsg import PopularSumGraph
from energia.energy import ADDITIVE
from energia.errors import EmptyGraphError, EnergiaError
from energia.sets import IntSet


def reference_bsg_extract(U, V, G):
    """bsg_extract one candidate at a time: each common-neighbourhood
    superlevel set of the four most popular seeds is rebuilt and its
    doubling counted from scratch.  The best-ranked candidate is verified
    once, through ``bsg._balbsg_report`` looked up at call time."""
    op = (lambda a, b: a + b) if G.mode == ADDITIVE else (lambda a, b: a * b)
    adj = {u: frozenset(v for v in V if op(u, v) in G.sum_filter) for u in U}
    if not any(adj.values()):
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

    def doubling_span(members):
        return len({op(a, b) for a in members for b in members})

    # the best ratio, then the larger candidate, then the first
    best = max(candidates, key=lambda cand: (Fraction(len(cand) ** 2, doubling_span(cand)), len(cand)))
    report = bsg._balbsg_report(best, doubling_span(best), G)
    if not report.holds:
        raise EnergiaError("the BSG candidate failed its verification")
    return IntSet(best), report


def _top_half_values(scores):
    ranked = sorted((v for v, c in scores.items() if c > 0), key=lambda v: (-scores[v], v))
    return ranked[: (len(ranked) + 1) // 2]


def tuple_oracle(A, s=4):
    elems = list(A)
    half = s // 2
    quads = list(product(elems, repeat=s))
    pairs = list(product(elems, repeat=half))
    r_s = Counter(sum(t) for t in quads)

    trace = {}
    S = set(_top_half_values(r_s))
    if not S:
        return trace, None, "S"
    trace["S"] = len(S)
    trace["G"] = sum(1 for t in quads if sum(t) in S)

    def d_tau(tau):
        return sum(1 for sig in pairs if sum(sig) + sum(tau) in S)

    d_cache = {t: d_tau(t) for t in pairs}
    # anchor: tuple maximizing the weighted degree; smallest sum on ties
    best = (-1, None)
    for x in pairs:
        sc = sum(d_cache[t] for t in pairs if sum(x) + sum(t) in S)
        if sc > best[0] or (sc == best[0] and sum(x) < sum(best[1])):
            best = (sc, x)
    if best[0] <= 0:
        return trace, None, "anchor"
    anchor_sum = sum(best[1])
    R_x = [t for t in pairs if anchor_sum + sum(t) in S]
    trace["anchor"] = len(R_x)
    trace["anchor_sum"] = anchor_sum

    overlap = {}
    for y in pairs:
        overlap[y] = sum(1 for t in R_x if sum(y) + sum(t) in S)
    # fiber structure: overlap depends only on the coordinate sum
    per_sum = {}
    for y, c in overlap.items():
        assert per_sum.setdefault(sum(y), c) == c
    # relevant mass of a sum value = total overlap carried by its fiber
    fiber_mass = Counter()
    for y, c in overlap.items():
        fiber_mass[sum(y)] += c
    Y_sums = set(_top_half_values(fiber_mass))
    Y = [y for y in pairs if sum(y) in Y_sums]
    if not Y:
        return trace, None, "Y"
    trace["Y"] = len(Y)

    zbest = (-1, None)
    for z in R_x:
        size = sum(1 for y in Y if sum(y) + sum(z) in S)
        if size > zbest[0] or (size == zbest[0] and sum(z) < sum(zbest[1])):
            zbest = (size, z)
    if zbest[0] <= 0:
        return trace, None, "Y1"
    z_sum = sum(zbest[1])
    Y1 = [y for y in Y if sum(y) + z_sum in S]
    trace["Y1"] = len(Y1)

    fiber = Counter(sum(y) for y in Y1)
    supp = sorted(fiber)
    S1 = [n for n in supp if 2 * len(supp) * fiber[n] > len(Y1)]
    if not S1:
        return trace, None, "Y2"
    Y2 = [y for y in Y1 if sum(y) in set(S1)]
    trace["Y2"] = len(Y2)

    U = IntSet(sorted({sum(y) for y in Y2}))
    V = IntSet(sorted({sum(t) for t in R_x}))
    trace["U"], trace["V"] = len(U), len(V)
    r_uv = Counter(u + v for u in U for v in V)
    Sp = _top_half_values(r_uv)
    if not Sp:
        return trace, None, "Sprime"
    trace["Sprime"] = len(Sp)
    Sp_set = frozenset(Sp)
    edges = sum(r_uv[n] for n in Sp)
    n_bound = max(len(U), len(V), len(Sp))
    graph = PopularSumGraph(U, V, Sp_set, Fraction(edges, n_bound**2))
    U_prime, _ = reference_bsg_extract(U, V, graph)
    trace["Uprime"] = len(U_prime)

    Y3 = [y for y in Y1 if sum(y) in set(U_prime)]
    if not Y3:
        return trace, None, "Y3"
    trace["Y3"] = len(Y3)
    supp_Y3 = {sum(y) for y in Y3}

    shifts = sorted({sum(w) for w in product(elems, repeat=half - 1)}) if half > 1 else [0]
    abest = (-1, None, ())
    for w in shifts:
        members = tuple(a for a in elems if w + a in supp_Y3)
        if len(members) > abest[0]:
            abest = (len(members), w, members)
    if abest[0] <= 0:
        return trace, None, "Aprime"
    trace["Aprime"] = abest[0]
    return trace, IntSet(abest[2]), None


