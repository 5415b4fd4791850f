"""Exact convolution over the (value, multiplicity) semiring.

One binary-powering driver, :func:`power`, computes r_s / q_s (and so
every energy) and, without multiplicities, iterated sumsets and product
sets.  Its step, :func:`pair`, also serves mixed energies and sumset
differences.  Each step picks a backend from what it can see in its two
operands:

* Python: small operands (at most ``_PY_PAIRS`` value pairs), or values
  or counts that could leave int64.  Dict (or set) convolution over
  Python ints.
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
a count, is below 2**63.
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


class Weighted:
    """Finite set of ints, each with a positive multiplicity, or a plain
    set (``total`` is None).

    Held as sorted int64 arrays or as a Python dict (a set when plain);
    the other form is built on first use.  ``lo``/``hi`` are the least
    and greatest value and ``total`` is the sum of the multiplicities.
    """

    __slots__ = ("_arrays", "_py", "_step", "size", "lo", "hi", "total")

    def __init__(self, size, lo, hi, total, arrays=None, py=None):
        self.size, self.lo, self.hi, self.total = size, lo, hi, total
        self._arrays, self._py, self._step = arrays, py, None

    @classmethod
    def indicator(cls, elements, counted):
        """Each of the sorted, distinct ``elements`` once."""
        size, lo, hi = len(elements), elements[0], elements[-1]
        total = size if counted else None
        ones = np.ones(size, dtype=np.int64) if counted else None
        if -_COUNT_LIMIT < lo and hi < _COUNT_LIMIT:  # every element fits int64
            return cls(size, lo, hi, total, arrays=(np.array(elements, dtype=np.int64), ones))
        return cls(size, lo, hi, total, py=dict.fromkeys(elements, 1) if counted else set(elements))

    @classmethod
    def _from_arrays(cls, vals, cnts, total):
        return cls(len(vals), int(vals[0]), int(vals[-1]), total, arrays=(vals, cnts))

    @property
    def counted(self):
        return self.total is not None

    def arrays(self):
        """(sorted values, int64 counts or None); the values are int64, or
        an object array of Python ints when one leaves int64."""
        if self._arrays is None:
            keys = sorted(self._py)
            fits = -_COUNT_LIMIT < self.lo and self.hi < _COUNT_LIMIT
            vals = np.array(keys, dtype=np.int64 if fits else object)
            cnts = np.array([self._py[k] for k in keys], dtype=np.int64) if self.counted else None
            self._arrays = (vals, cnts)
        return self._arrays

    def py(self):
        """value -> count dict, or the set of values when plain."""
        if self._py is None:
            vals, cnts = self.arrays()
            self._py = dict(zip(vals.tolist(), cnts.tolist())) if self.counted else set(vals.tolist())
        return self._py

    def sorted_values(self) -> list:
        if self._arrays is None:
            return sorted(self._py)
        return self.arrays()[0].tolist()

    def step(self) -> int:
        """gcd of the differences between values (0 for a singleton)."""
        if self._step is None:
            vals = self.arrays()[0]
            self._step = int(np.gcd.reduce(np.diff(vals))) if len(vals) > 1 else 0
        return self._step

    def magnitude(self) -> int:
        return max(-self.lo, self.hi)

    def negated(self) -> "Weighted":
        """{-x : x in self}, same multiplicities (plain sets only)."""
        if self._arrays is not None:
            return Weighted(self.size, -self.hi, -self.lo, None, arrays=(-self._arrays[0][::-1], None))
        return Weighted(self.size, -self.hi, -self.lo, None, py={-v for v in self._py})

    def max_count(self) -> int:
        if self._arrays is not None:
            return int(self._arrays[1].max())
        return max(self.py().values())

    def sum_squares(self) -> int:
        """sum of squared multiplicities, exact."""
        if self._arrays is None:
            return sum(c * c for c in self.py().values())
        cnts = self._arrays[1]
        # every partial sum is at most max * total, so the int64 dot cannot wrap
        if int(cnts.max()) * self.total < _COUNT_LIMIT:
            return int(np.dot(cnts, cnts))
        return sum(c * c for c in cnts.tolist())


def inner(f: Weighted, g: Weighted) -> int:
    """sum over n of f(n) g(n), in Python ints."""
    gd = g.py()
    return sum(c * gd.get(n, 0) for n, c in f.py().items())


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
    fp, gp = f.py(), g.py()
    if f is g:
        out = _python_self(fp, total is not None, additive)
    elif total is None:
        out = {x + y for x in fp for y in gp} if additive else {x * y for x in fp for y in gp}
    else:
        out = {}
        get = out.get
        gitems = list(gp.items())
        for a, ca in fp.items():
            for b, cb in gitems:
                k = a + b if additive else a * b
                out[k] = get(k, 0) + ca * cb
    if additive:
        lo, hi = f.lo + g.lo, f.hi + g.hi
    else:
        corners = (f.lo * g.lo, f.lo * g.hi, f.hi * g.lo, f.hi * g.hi)
        lo, hi = min(corners), max(corners)
    return Weighted(len(out), lo, hi, total, py=out)


def _python_self(fp, counted, additive):
    """f * f over the upper triangle of f's items: the diagonal cell of a
    with weight c², an off-diagonal cell of a < b with weight 2·c·c'."""
    if not counted:
        v = list(fp)
        if additive:
            return {x + y for i, x in enumerate(v) for y in v[i:]}
        return {x * y for i, x in enumerate(v) for y in v[i:]}
    out = {}
    get = out.get
    items = list(fp.items())
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
        vals, cnts = w.arrays()
        line = np.zeros((w.hi - w.lo) // step + 1, dtype=np.int64)
        line[(vals - w.lo) // step] = 1 if cnts is None else cnts
        lines.append(line)
    conv = np.convolve(lines[0], lines[1])
    idx = np.flatnonzero(conv)
    vals = (f.lo + g.lo) + step * idx
    return Weighted._from_arrays(vals, conv[idx] if total is not None else None, total)


def _sort_count(f, g, additive):
    total = f.total * g.total if f.counted else None
    if f is g:
        parts = chain(_triangle_parts(f, additive), [_diagonal(f, additive)])
    else:
        parts = _outer_parts(f, g, additive)
    vals, cnts = reduce(_merge_sorted, parts, None)
    return Weighted._from_arrays(vals, cnts, total)


def _outer_parts(f, g, additive):
    """The f x g grid in row blocks of about ``_CHUNK`` cells, each sorted
    with equal values merged."""
    (fv, fc), (gv, gc) = f.arrays(), g.arrays()
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
    v, c = f.arrays()
    n = len(v)
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
    v, c = f.arrays()
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
