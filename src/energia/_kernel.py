"""Exact convolution over the (value, multiplicity) semiring.

One binary-powering driver, :func:`power`, computes r_s / q_s (and so
every energy) and, without multiplicities, iterated sumsets and product
sets.  Its step, :func:`pair`, also serves mixed energies and sumset
differences.  Each step picks a backend from what it can see in its two
operands:

* Python: small operands (at most ``_PY_PAIRS`` value pairs), or values
  or counts that could leave int64.  Dict (or set) convolution over the
  operands read as lists of Python ints, its result sorted back into
  arrays.
* dense (sums only): translated by the minimum and divided by the gcd of
  the differences, the two indicators are at most ``_DENSE_RATIO`` times
  longer than a grid of the supports.  Exact int64 ``np.convolve``, kept
  where the result is > 0.
* sort-and-count: otherwise.  The outer sum or product grid is sorted in
  blocks of ``_CHUNK`` cells and equal values are merged, summing their
  weights.

A self-pair (``f is g``: every squaring step of :func:`power`) visits
each unordered pair once, since x + y = y + x and x * y = y * x: the
Python and sort-and-count backends take the upper triangle of the grid,
an off-diagonal cell with twice its weight, and merge the diagonal in
once.  The dense backend convolves whole lines either way.

The kernel sees values only.  Products taken on exponent keys (see
``energy.RepFunction``) reach it as sums of plain ints.

Nothing is rounded.  A numpy backend runs only when every value of its
result is below 2**62 in absolute value and the product of the operands'
total multiplicities, which bounds every count and every partial sum of
a count, is below 2**63.  Every result is held as sorted arrays (see
:class:`Weighted`); ``exact_dtype`` is the one rule that makes an array
int64 or object.
"""

import math
from functools import reduce
from itertools import chain

import numpy as np

_VALUE_LIMIT = 2**62
_COUNT_LIMIT = 2**63
_PY_PAIRS = 256
_DENSE_RATIO = 32
_CHUNK = 1 << 19


def exact_dtype(bound):
    """int64 when ``bound``, a bound on the magnitude of every value an
    array will hold, is below 2**63; else object, for Python ints."""
    return np.int64 if bound < _COUNT_LIMIT else object


class Weighted:
    """Finite set of ints, each with a positive multiplicity, or a plain
    set (``cnts`` and ``total`` are None).

    ``vals`` holds the sorted, distinct values, as int64 or, once one
    leaves int64, as an object array of Python ints; ``cnts`` their
    multiplicities, as int64 or, once ``total`` (their sum) reaches 2**63,
    as object.  ``lo``/``hi`` are the least and greatest value, as Python
    ints; a caller that holds them already passes them in.
    """

    __slots__ = ("vals", "cnts", "total", "size", "lo", "hi", "_step")

    def __init__(self, vals, cnts, total, lo=None, hi=None):
        self.vals, self.cnts, self.total = vals, cnts, total
        self.size, self._step = len(vals), None
        self.lo = int(vals[0]) if lo is None else lo
        self.hi = int(vals[-1]) if hi is None else hi

    @classmethod
    def indicator(cls, elements, counted):
        """Each of the sorted, distinct ``elements`` (Python ints) once."""
        n, lo, hi = len(elements), elements[0], elements[-1]
        vals = np.array(elements, dtype=exact_dtype(max(-lo, hi)))
        if not counted:
            return cls(vals, None, None, lo, hi)
        cnts = np.empty(n, dtype=np.int64)
        cnts.fill(1)
        return cls(vals, cnts, n, lo, hi)

    @property
    def counted(self):
        return self.total is not None

    def step(self) -> int:
        """gcd of the differences between values (0 for a singleton)."""
        if self._step is None:
            self._step = int(np.gcd.reduce(np.diff(self.vals))) if self.size > 1 else 0
        return self._step

    def magnitude(self) -> int:
        return max(-self.lo, self.hi)

    def max_count(self) -> int:
        return int(self.cnts.max())

    def sum_squares(self) -> int:
        """sum of squared multiplicities, exact."""
        # every partial sum is at most max * total <= total**2, so the int64 dot cannot wrap
        if self.total**2 < _COUNT_LIMIT or self.max_count() * self.total < _COUNT_LIMIT:
            return int(np.dot(self.cnts, self.cnts))
        return sum(c * c for c in self.cnts.tolist())


def inner(f: Weighted, g: Weighted) -> int:
    """sum over n of f(n) g(n), in Python ints."""
    gd = dict(zip(g.vals.tolist(), g.cnts.tolist()))
    return sum(c * gd.get(n, 0) for n, c in zip(f.vals.tolist(), f.cnts.tolist()))


def power(base: Weighted, s: int, additive: bool) -> Weighted:
    """The s-fold convolution power of ``base``, by binary powering."""
    acc, sq = None, base
    while True:
        if s & 1:
            acc = sq if acc is None else pair(acc, sq, additive)
        s >>= 1
        if not s:
            return acc
        sq = pair(sq, sq, additive)


def pair(f: Weighted, g: Weighted, additive: bool) -> Weighted:
    """{x + y} (or {x * y}) over x in f, y in g, weights multiplied.  Pass
    the same object twice for f * f, so the symmetric half is skipped."""
    return choose(f, g, additive)(f, g, additive)


def choose(f, g, additive):
    """The backend for one pair product, from its operands alone."""
    if f.size * g.size <= _PY_PAIRS:
        return _python
    bound = f.magnitude() + g.magnitude() if additive else f.magnitude() * g.magnitude()
    if bound >= _VALUE_LIMIT or (f.counted and f.total * g.total >= _COUNT_LIMIT):
        return _python
    if additive:
        step = math.gcd(f.step(), g.step()) or 1
        span = ((f.hi - f.lo) // step + 1) * ((g.hi - g.lo) // step + 1)
        if span <= _DENSE_RATIO * f.size * g.size:
            return _dense
    return _sort_count


def _python(f, g, additive):
    total = f.total * g.total if f.counted else None
    fv = f.vals.tolist()
    if f is g:
        out = _python_self(fv, None if total is None else f.cnts.tolist(), additive)
    elif total is None:
        gv = g.vals.tolist()
        out = {x + y for x in fv for y in gv} if additive else {x * y for x in fv for y in gv}
    else:
        out = {}
        get = out.get
        gitems = list(zip(g.vals.tolist(), g.cnts.tolist()))
        for a, ca in zip(fv, f.cnts.tolist()):
            for b, cb in gitems:
                k = a + b if additive else a * b
                out[k] = get(k, 0) + ca * cb
    # the corners of the grid are cells, so they bound the result exactly
    if additive:
        lo, hi = f.lo + g.lo, f.hi + g.hi
    else:
        corners = (f.lo * g.lo, f.lo * g.hi, f.hi * g.lo, f.hi * g.hi)
        lo, hi = min(corners), max(corners)
    n = len(out)
    vals = np.fromiter(out, exact_dtype(max(-lo, hi)), n)
    if total is None:
        vals.sort()
        return Weighted(vals, None, None, lo, hi)
    order = vals.argsort()
    return Weighted(vals[order], np.fromiter(out.values(), exact_dtype(total), n)[order], total, lo, hi)


def _python_self(v, c, additive):
    """f * f over the upper triangle of f's values ``v`` (with counts
    ``c``, or None when plain): the diagonal cell of a with weight c²,
    an off-diagonal cell of a < b with weight 2·c·c'."""
    if c is None:
        if additive:
            return {x + y for i, x in enumerate(v) for y in v[i:]}
        return {x * y for i, x in enumerate(v) for y in v[i:]}
    out = {}
    get = out.get
    items = list(zip(v, c))
    for i, (a, ca) in enumerate(items):
        k = a + a if additive else a * a
        out[k] = get(k, 0) + ca * ca
        ca2 = 2 * ca
        for b, cb in items[i + 1 :]:
            k = a + b if additive else a * b
            out[k] = get(k, 0) + ca2 * cb
    return out


def _dense(f, g, additive):
    total = f.total * g.total if f.counted else None
    step = math.gcd(f.step(), g.step()) or 1
    lines = []
    for w in (f, g):
        line = np.zeros((w.hi - w.lo) // step + 1, dtype=np.int64)
        line[(w.vals - w.lo) // step] = 1 if w.cnts is None else w.cnts
        lines.append(line)
    conv = np.convolve(lines[0], lines[1])
    idx = np.flatnonzero(conv)
    return Weighted((f.lo + g.lo) + step * idx, conv[idx] if total is not None else None, total)


def _sort_count(f, g, additive):
    total = f.total * g.total if f.counted else None
    if f is g:
        parts = chain(_triangle_parts(f, additive), [_diagonal(f, additive)])
    else:
        parts = _outer_parts(f, g, additive)
    return Weighted(*reduce(_merge_sorted, parts, None), total)


def _outer_parts(f, g, additive):
    """The f x g grid in row blocks of about ``_CHUNK`` cells, each sorted
    with equal values merged."""
    fv, fc, gv, gc = f.vals, f.cnts, g.vals, g.cnts
    outer = np.add.outer if additive else np.multiply.outer
    counted = f.counted
    unit = counted and f.total == f.size and g.total == g.size
    rows = max(1, _CHUNK // len(gv))
    for i in range(0, len(fv), rows):
        grid = outer(fv[i : i + rows], gv).ravel()
        weights = np.multiply.outer(fc[i : i + rows], gc).ravel() if counted and not unit else None
        yield _merge_equal(grid, weights, counted)


def _triangle_parts(f, additive):
    """The strict upper triangle of f x f (cells i < j, weight 2·c_i·c_j),
    in row blocks of at most ``_CHUNK`` cells (one row when a row is
    longer), each sorted with equal values merged.  Row i is the slice
    v[i+1:] combined with v[i], written straight into the block."""
    v, c, n = f.vals, f.cnts, f.size
    op = np.add if additive else np.multiply
    counted = f.counted
    unit = counted and f.total == f.size
    ends = np.cumsum(np.arange(n - 1, -1, -1))  # cells in rows 0..i
    i = 0
    while i < n - 1:  # the last row is empty
        start = int(ends[i]) - (n - 1 - i)
        stop = max(i + 1, int(np.searchsorted(ends, start + _CHUNK, side="right")))
        grid = np.empty(int(ends[stop - 1]) - start, dtype=v.dtype)
        weights = np.empty(len(grid), dtype=np.int64) if counted and not unit else None
        pos = 0
        for r in range(i, stop):
            nxt = pos + n - 1 - r
            op(v[r], v[r + 1 :], out=grid[pos:nxt])
            if weights is not None:
                np.multiply(2 * c[r], c[r + 1 :], out=weights[pos:nxt])
            pos = nxt
        vals, cnts = _merge_equal(grid, weights, counted)
        yield vals, (2 * cnts if unit else cnts)
        i = stop


def _diagonal(f, additive):
    """The n diagonal cells of f x f, weight c², sorted and merged."""
    v, c = f.vals, f.cnts
    unit = c is None or f.total == f.size
    return _merge_equal(2 * v if additive else v * v, None if unit else c * c, f.counted)


def _merge_sorted(acc, part):
    """Merge two sorted, distinct (values, counts) pairs, summing the
    counts of shared values; ``acc`` may be None.  ``acc``'s counts are
    updated in place."""
    if acc is None:
        return part
    (av, ac), (pv, pc) = acc, part
    pos = np.searchsorted(av, pv)
    hit = pos < len(av)
    hit[hit] = av[pos[hit]] == pv[hit]
    miss = ~hit
    vals = np.insert(av, pos[miss], pv[miss])
    if ac is None:
        return vals, None
    ac[pos[hit]] += pc[hit]
    return vals, np.insert(ac, pos[miss], pc[miss])


def _merge_equal(values, weights, counted):
    """Sort ``values`` and merge equal ones; with ``counted``, sum their
    ``weights`` (each value once when ``weights`` is None)."""
    if not counted or weights is None:
        values = np.sort(values)
        starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
        cnts = np.diff(np.append(starts, len(values))) if counted else None
        return values[starts], cnts
    lo, bits = int(values.min()), int(weights.max()).bit_length()
    if (int(values.max()) - lo) >> (63 - bits) == 0:
        # one int64 key per cell, value - lo above the weight's bits:
        # sorting the keys sorts the values and carries the weights along
        key = values - lo
        key <<= bits
        key |= weights
        key.sort()
        values, weights = (key >> bits) + lo, key & ((1 << bits) - 1)
    else:
        order = np.argsort(values)
        values, weights = values[order], weights[order]
    starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    return values[starts], np.add.reduceat(weights, starts)
