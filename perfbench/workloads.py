"""Seeded job lists for the energia benchmark, with reference results.

A job is one ``energia`` CLI call on a generated input file.  Each
workload builds one pass of jobs from ``--seed``; the worker repeats the
pass as a closed loop.  Sizes inside a pass are fixed strata and only the
element values, offsets and order depend on the seed, so every seed puts
the same amount of work in a pass and runs stay comparable.

Reference results are computed here, outside the timed region, with
numpy sort-and-count or plain Python sets and Counters.  No ``energia``
code is imported by this module.
"""

import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

# Decompose inputs {p^i q^j : i < ni, j < nj} | {1..m} as (p, q, ni, nj, m),
# each running the multiplicative pipeline (iterations_used >= 1) in about
# 0.15-0.3 s on a 2-core Xeon sandbox.  They are short and close in time,
# so a run makes several passes and the tail percentile of certify-mix
# falls among many samples of like jobs.  A seed dilates each one
# by its own factor: a positive dilation keeps every sum and product
# collision and the order of the elements, so the pipeline does the same
# work on every seed.
DECOMPOSE_INPUTS = (
    (2, 3, 5, 5, 16),
    (2, 7, 5, 5, 16),
    (3, 5, 5, 4, 16),
    (2, 3, 5, 4, 24),
    (2, 5, 4, 5, 20),
    (2, 5, 5, 5, 16),
)

# Span names whose work each workload is chosen to carry.  The traced run
# fails when one of them never fires, so a rename or a missed rebind
# cannot quietly report zero.
CARRIES = {
    "energy-dense": (
        "cli.main",
        "energy.energy",
        "energy.rep_function",
        "sets.iterated_sumset",
        "sets.IntSet",
    ),
    "energy-sparse": (
        "cli.main",
        "energy.energy",
        "energy.rep_function",
        "sets.iterated_sumset",
        "sets.iterated_product_set",
        "sets.IntSet",
    ),
    "kp-extract": (
        "cli.main",
        "bsg.kp_pipeline",
        "bsg.bsg_extract",
        "bsg.kp_verify",
        "energy.rep_function",
        "sets.iterated_sumset",
        "sets.IntSet",
        "precision.guarded_cmp",
    ),
    "certify-mix": (
        "cli.main",
        "decomposer.decompose",
        "bsg.kp_pipeline",
        "bsg.bsg_extract",
        "energy.energy",
        "energy.energy_oracle",
        "checks.check_csref",
        "constants.rtp_constants",
        "precision.guarded_cmp",
        "precision.cmp_count_power",
    ),
}

WORKLOADS = tuple(CARRIES)

# Percentile that job_tail_s reports per workload: the highest of
# 50/75/90/95/99 that leaves at least ten latency samples beyond it in a
# 20 s run on a 2-core Xeon sandbox.  It is fixed rather than derived from
# each run's sample count, so runs on a faster or slower host, or of a
# faster commit, report the same percentile; the worker runs enough whole
# passes to keep ten samples beyond it.
TAIL_PERCENTILE = {"energy-dense": 90, "energy-sparse": 75, "kp-extract": 75, "certify-mix": 95}


# -- reference results ------------------------------------------------------


def _weighted_counts(values, weights):
    """Sum ``weights`` per distinct value by sorting (exact int64)."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    w = weights[order]
    starts = np.flatnonzero(np.concatenate(([True], v[1:] != v[:-1])))
    return v[starts], np.add.reduceat(w, starts)


def _pair_counts(v1, c1, v2, c2, op):
    """Representation counts of x op y over two weighted sets."""
    grid = v1[:, None] + v2[None, :] if op == "add" else v1[:, None] * v2[None, :]
    weights = c1[:, None] * c2[None, :]
    return _weighted_counts(grid.reshape(-1), weights.reshape(-1))


def _square_sum(counts) -> int:
    if counts.size and int(counts.max()) ** 2 * counts.size < 2**63:
        return int(np.dot(counts, counts))
    return sum(int(c) * int(c) for c in counts)


def reference_energy(elements, s, mode) -> int:
    """E_s (mode "add") or M_s (mode "mult") for s in {2, 3, 4}.

    When every s-fold sum or product fits in int64: numpy sort-and-count
    of pairwise sums or products, paired again with weights for s > 2.
    Otherwise (s = 2 only) a Counter over Python ints.
    """
    if s not in (2, 3, 4):
        raise ValueError("reference energies cover s = 2, 3 and 4")
    top = max(abs(a) for a in elements)
    if (s * top if mode == "add" else top**s) < 2**62:
        v1 = np.array(elements, dtype=np.int64)
        c1 = np.ones(len(v1), dtype=np.int64)
        v2, c2 = _pair_counts(v1, c1, v1, c1, mode)
        if s == 3:
            v2, c2 = _pair_counts(v2, c2, v1, c1, mode)
        elif s == 4:
            v2, c2 = _pair_counts(v2, c2, v2, c2, mode)
        return _square_sum(c2)
    if s != 2:
        raise ValueError("the big-int reference covers s = 2 only")
    if mode == "add":
        r = Counter(a + b for a in elements for b in elements)
    else:
        r = Counter(a * b for a in elements for b in elements)
    return sum(c * c for c in r.values())


def _fold(elements, m, op):
    out = set(elements)
    for _ in range(m - 1):
        out = {op(x, a) for x in out for a in elements}
    return out


def reference_sumset_size(elements, m, n) -> int:
    """|mA - nA| from plain Python sets."""
    plus = _fold(elements, m, lambda x, a: x + a)
    if n == 0:
        return len(plus)
    minus = _fold(elements, n, lambda x, a: x + a)
    return len({p - q for p in plus for q in minus})


def reference_quotient_size(elements) -> int:
    """|A/A| from a plain Python set of Fractions."""
    return len({Fraction(a, b) for a in elements for b in elements})


# -- job construction -------------------------------------------------------


class _Builder:
    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.jobs = []

    def add(self, kind, argv, elements=None, **expect):
        job = {"kind": kind, "argv": list(argv), "expect": expect}
        if elements is not None:
            path = self.workdir / f"in{len(self.jobs):04d}.txt"
            path.write_text(" ".join(str(v) for v in elements) + "\n")
            job["argv"].append(str(path))
            job["size"] = len(elements)
            job["elements"] = [str(v) for v in elements]
        self.jobs.append(job)


def _ap(rng, n, twos):
    """AP of n terms whose step is an odd number times 2**twos.

    Python dicts and sets probe longer on keys that share low bits, so a
    step with many factors of 2 makes the same AP about 25% slower; the
    caller fixes ``twos`` per pass slot so every seed has the same mix.
    """
    start, step = rng.randrange(-(10**6), 10**6), (2 * rng.randrange(500) + 1) << twos
    return [start + i * step for i in range(n)]


def _interval(rng, n, lo, hi):
    start = rng.randrange(lo, hi)
    return list(range(start + 1, start + n + 1))


def _sample(rng, n, lo, hi):
    return sorted(rng.sample(range(lo, hi), n))


def _energy_job(b, kind, elements, s, mode):
    argv = ["energy", "--s", str(s)] + (["--mode", "mult"] if mode == "mult" else [])
    b.add(kind, argv, elements, count=str(reference_energy(elements, s, mode)))


def _sumset_job(b, kind, elements, m, n):
    argv = ["sumset", "--m", str(m), "--n", str(n)]
    b.add(kind, argv, elements, size=reference_sumset_size(elements, m, n))


def _energy_dense(rng, b):
    for n, twos in ((700, 0), (800, 9), (900, 0), (1000, 5), (1100, 2)):
        _energy_job(b, "E2-ap", _ap(rng, n, twos), 2, "add")
    for n in (150, 200, 250):
        _energy_job(b, "E4-interval", _interval(rng, n, -(10**6), 10**6), 4, "add")
    for n in (400, 550, 700):
        _energy_job(b, "M2-interval", _interval(rng, n, 0, 10**4), 2, "mult")
    for ni, nj in ((16, 16), (20, 20)):
        shift, c = rng.randrange(64, 96), rng.randrange(1, 10**6)
        grid = sorted(c * 2 ** (shift + i) * 3**j for i in range(ni) for j in range(nj))
        _energy_job(b, "M2-grid", grid, 2, "mult")
    for n, twos in ((200, 0), (300, 6)):
        _sumset_job(b, "sumset-3A", _ap(rng, n, twos), 3, 0)
    for n, twos in ((200, 6), (300, 0)):
        _sumset_job(b, "sumset-2A-2A", _ap(rng, n, twos), 2, 2)


def _energy_sparse(rng, b):
    for hi in (10**6, 10**15):
        for n in (700, 850, 1000):
            _energy_job(b, f"E2-random-{hi:.0e}", _sample(rng, n, 0, hi), 2, "add")
    for n in (40, 45, 50):
        _energy_job(b, "E4-random", _sample(rng, n, 0, 10**6), 4, "add")
    for n in (400, 450, 500, 600):
        _energy_job(b, "M2-random", _sample(rng, n, 1, 10**6), 2, "mult")
    for n in (50, 52, 55, 60):
        _sumset_job(b, "sumset-2A-A", _sample(rng, n, 0, 10**6), 2, 1)
    for n in (95, 100, 105):
        A = _sample(rng, n, 1, 10**6)
        argv = ["sumset", "--m", "1", "--n", "1", "--mode", "mult"]
        b.add("sumset-A/A", argv, A, size=reference_quotient_size(A))


_KP_ARGV = ["kp", "--s", "4", "--delta", "0.05", "--verify"]
_KP_SPAN = 5 * 10**5


def _kp_set(rng, slot, n_ap, n_random):
    """A fixed random set (an AP plus random points when ``n_ap``) for this
    pass slot, translated by a seeded offset into [0, 10^6).

    kp time varies by about 25% between random sets of one size, more than
    a run can average out, so the seed only translates: a translation keeps
    every sum collision and the order of the elements, and the pipeline
    does the same work on every seed.
    """
    base = random.Random(f"kp-base:{slot}")
    points = set(base.sample(range(_KP_SPAN), n_random))
    if n_ap:
        start, step = base.randrange(_KP_SPAN // 2), base.randrange(1, 100)
        points |= {start + i * step for i in range(n_ap)}
    shift = rng.randrange(_KP_SPAN)
    return sorted(x + shift for x in points)


def _kp_extract(rng, b):
    # most jobs sit at the small end, since kp time grows steeply with |A|
    sizes = (18, 18, 18, 18, 19, 19, 19, 20, 20, 20, 21, 21, 21, 22, 22, 22, 23, 23, 24, 24, 26, 28, 30)
    for slot, n in enumerate(sizes):
        b.add("kp-random", _KP_ARGV, _kp_set(rng, slot, 0, n))
    for slot, n in enumerate((10, 12, 14), start=len(sizes)):
        b.add("kp-ap-union", _KP_ARGV, _kp_set(rng, slot, n, n))


def _certify_mix(rng, b):
    for _ in range(8):
        argv = ["check", "--suite", "all", "--cases", str(rng.randint(1, 3)), "--seed", str(rng.randrange(10**6))]
        b.add("check", argv)
    for n in (6, 7, 8, 9, 10, 11, 12, 12) * 2:
        A = _sample(rng, n, -50, 51)
        b.add("oracle-s2", ["energy", "--s", "2", "--oracle"], A, count=str(reference_energy(A, 2, "add")))
    for n in (8, 9, 10, 11, 12, 9, 10, 11):
        # |A|^6 > 200000 for |A| >= 8, so these take the numpy oracle path
        A = _sample(rng, n, -50, 51)
        b.add("oracle-s3", ["energy", "--s", "3", "--oracle"], A, count=str(reference_energy(A, 3, "add")))
    for _ in range(4):
        b.add("constants-rtp", ["constants", "rtp", "--k-int", "2"], T_k="2412")
        b.add("constants-rtp", ["constants", "rtp", "--k-int", "3"], T_k="4988")
        for formula in ("gemn", "eric", "thrt", "com2"):
            b.add(f"constants-{formula}", ["constants", formula])
        for name in ("ap-gp-mix", "warren-squares", "zero-obstruction"):
            b.add(f"experiment-{name}", ["experiment", name])
    for n in (20, 24, 28, 32, 36, 40) * 2:
        b.add("decompose-stop", ["decompose", "--k", "1.2"], _sample(rng, n, 1, 10**6))
    for p, q, ni, nj, m in DECOMPOSE_INPUTS:
        c = rng.randrange(1, 10**4)
        A = sorted({c * p**i * q**j for i in range(ni) for j in range(nj)} | {c * v for v in range(1, m + 1)})
        b.add("decompose-pipeline", ["decompose", "--k", "1.5", "--s", "2", "--q", "4"], A)


_BUILDERS = {
    "energy-dense": _energy_dense,
    "energy-sparse": _energy_sparse,
    "kp-extract": _kp_extract,
    "certify-mix": _certify_mix,
}


def build(workload: str, seed: int, workdir: Path) -> list:
    """Write the inputs of one pass of ``workload`` under ``workdir`` and
    return its jobs in seeded order, each with its expected results."""
    rng = random.Random(f"{workload}:{seed}")
    b = _Builder(workdir)
    _BUILDERS[workload](rng, b)
    rng.shuffle(b.jobs)
    return b.jobs


def smallest_per_kind(jobs) -> list:
    """The job with the smallest input of each kind, in first-seen order."""
    smallest = {}
    for job in jobs:
        best = smallest.get(job["kind"])
        if best is None or job.get("size", 0) < best.get("size", 0):
            smallest[job["kind"]] = job
    return list(smallest.values())
