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
* sort-and-count: otherwise.  The outer sum or product grid goes, in
  row blocks of at most ``_CHUNK`` cells, through :func:`merge_blocks`,
  which sorts each block, merges equal values summing their weights,
  and merges the blocks.  The BSG stage's nested spans use the same
  merge, keeping the least weight of each value.

A self-pair (``f is g``: every squaring step of :func:`power`) visits
each unordered pair once, since x + y = y + x and x * y = y * x: the
Python and sort-and-count backends take the upper triangle of the grid
with its diagonal, an off-diagonal cell with twice its weight and a
diagonal cell with its own.  Where every weight is 1, sort-and-count
sorts the values alone, doubles every count and then takes 1 off at the
value of each diagonal cell (two diagonal cells can share a value, as
x * x = (-x) * (-x)).  The dense backend convolves whole lines either
way.

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

import numpy as np

_VALUE_LIMIT = 2**62
_INT64_LIMIT = 2**63
_PY_PAIRS = 256
_DENSE_RATIO = 32
_CHUNK = 1 << 19


def exact_dtype(bound):
    """int64 when ``bound``, a bound on the magnitude of every value an
    array will hold, is below 2**63; else object, for Python ints."""
    return np.int64 if bound < _INT64_LIMIT else object


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
        if self.total**2 < _INT64_LIMIT or self.max_count() * self.total < _INT64_LIMIT:
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
    if bound >= _VALUE_LIMIT or (f.counted and f.total * g.total >= _INT64_LIMIT):
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
    unit = f.counted and f.total == f.size and g.total == g.size
    vals, cnts = merge_blocks(_row_blocks(f, g, additive, f.counted and not unit), f.counted, np.add)
    if unit and f is g:
        # an off-diagonal cell stands for two, a diagonal one for itself
        cnts *= 2
        np.subtract.at(cnts, np.searchsorted(vals, 2 * f.vals if additive else f.vals * f.vals), 1)
    return Weighted(vals, cnts, total)


def _row_blocks(f, g, additive, weighted):
    """The f x g grid as (values, weights) blocks of whole rows, at most
    ``_CHUNK`` cells (one row when a row is longer), weights None unless
    ``weighted``.  For a self-pair (``f is g``) row i holds the columns
    j >= i only: the upper triangle with its diagonal, an off-diagonal
    cell weighing 2·c_i·c_j and a diagonal one c_i²; each of its rows,
    the slice v[i:] combined with v[i], is written straight into the
    block."""
    fv, fc, gv, gc = f.vals, f.cnts, g.vals, g.cnts
    op = np.add if additive else np.multiply
    half = f is g
    lens = np.arange(g.size, 0, -1) if half else np.full(f.size, g.size)
    ends = np.cumsum(lens)  # cells in rows 0..i
    i = 0
    while i < f.size:
        start = int(ends[i] - lens[i])
        stop = max(i + 1, int(np.searchsorted(ends, start + _CHUNK, side="right")))
        if not half:
            grid = op.outer(fv[i:stop], gv).ravel()
            weights = np.multiply.outer(fc[i:stop], gc).ravel() if weighted else None
        else:
            grid = np.empty(int(ends[stop - 1]) - start, dtype=fv.dtype)
            weights = np.empty(len(grid), dtype=np.int64) if weighted else None
            pos = 0
            for r in range(i, stop):
                nxt = pos + f.size - r
                op(fv[r], fv[r:], out=grid[pos:nxt])
                if weighted:
                    np.multiply(2 * fc[r], fc[r:], out=weights[pos:nxt])
                    weights[pos] = fc[r] * fc[r]
                pos = nxt
        yield grid, weights
        i = stop


def merge_blocks(blocks, counted, reduce):
    """The distinct values of (values, weights) ``blocks``, sorted, with
    ``reduce`` (``np.add`` or ``np.minimum``) of the weights of each value
    when ``counted``.  Weights None count cells (``np.add`` only).

    Each block is sorted and its equal values merged by ``_merge_equal``.
    The merged blocks wait until they hold more values than the result so
    far, and are then merged into it by one more ``_merge_equal`` of their
    concatenation.  A merge so holds at most about twice the result and
    one block, and sorts fewer than two values for each value of the
    blocks it takes in.
    """
    vals, cnts, size = [], [], 0  # sorted runs; the first merges every block before the others
    for values, weights in blocks:
        v, c = _merge_equal(values, weights, counted, reduce)
        vals.append(v)
        cnts.append(c)
        size += len(v)
        if size > 2 * len(vals[0]):
            _merge_runs(vals, cnts, counted, reduce)
            size = len(vals[0])
    if len(vals) > 1:
        _merge_runs(vals, cnts, counted, reduce)
    return vals[0], cnts[0]


def _merge_runs(vals, cnts, counted, reduce):
    """Merge the sorted runs ``vals``, weighing ``cnts``, into one, in
    place.  Each list is emptied once it is copied, and ``_merge_equal``
    holds the only copies, so that no run outlives the sort."""
    if not counted:
        cnts.clear()
    v, c = _merge_equal(_take(vals), _take(cnts) if counted else None, counted, reduce)
    vals.append(v)
    cnts.append(c)


def _take(arrays):
    """The concatenation of ``arrays``, which is emptied."""
    out = np.concatenate(arrays)
    arrays.clear()
    return out


def _merge_equal(values, weights, counted, reduce):
    """Sort ``values`` and merge equal ones; with ``counted``, ``reduce``
    their non-negative ``weights``, or count them when ``weights`` is None."""
    if not counted or weights is None:
        values = np.sort(values)
        starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
        cnts = np.diff(np.append(starts, len(values))) if counted else None
        return values[starts], cnts
    lo, bits = int(values.min()), int(weights.max()).bit_length()
    packed = values.dtype != object and (int(values.max()) - lo) >> (63 - bits) == 0
    if packed:
        # one int64 key per cell, value - lo above the weight's bits:
        # sorting the keys sorts the values and carries the weights along
        key = values - lo
        key <<= bits
        key |= weights
        del values, weights  # freed here if the caller passed its only copies
        key.sort()
        values = key >> bits
        values += lo
        key &= (1 << bits) - 1
        weights = key
    else:
        order = np.argsort(values)
        values, weights = values[order], weights[order]
    starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    if packed and reduce is np.minimum:  # the keys sort each value's weights too, least first
        return values[starts], weights[starts]
    return values[starts], reduce.reduceat(weights, starts)
