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
  the differences, the two indicator lines are at most ``_DENSE_RATIO``
  times longer than a grid of the supports.  One big-integer product
  (Kronecker substitution): each line is packed into a Python int, a
  coefficient to a slot of 8, 16, 32 or 64 bits, the narrowest that
  holds a bound on every coefficient of the result (f.total·max g or
  g.total·max f, whichever is less; the smaller size for plain lines).
  No coefficient reaches 2**slot, so none carries into the next, and the
  product's slots are the convolution exactly.  Its slots > 0 are kept.
* sort-and-count: otherwise.  The outer sum or product grid goes, in
  row blocks, through :func:`merge_blocks`, which sorts each block,
  merges equal values reducing their weights, and merges the blocks.
  Each block is written straight from the operands as packed unsigned
  keys, (value - lo) above the weight's bits (none for unit and plain
  grids), lo the least cell: uint32 while offset and weight bits fit 32
  bits, else uint64.  Sorting the keys sorts the values and carries the
  weights along.  ``_CHUNK`` is the block budget in 8-byte cells, so a
  block of 32-bit keys holds twice as many cells.  Only keys past 64
  bits and cells past int64 sort values by argsort, weights apart.  The
  grid has two weight rules, each a combine and a ``reduce``: counts
  (a pair multiplies, a value adds) and, for the BSG stage's nested
  spans, :func:`least_levels` (a pair takes its max, a value its min).

One writer, :func:`_rows`, lays out every sort-and-count grid: row k of
a plane (op, x, y, z) is op(x_k, y[:first[k]]) followed by
op(x_k, z[first[k]:ends[k]]), cut into blocks of whole rows.  A
rectangle f x g has first = ends = |g|.

A self-pair (``f is g``: every squaring step of :func:`power`) visits
each unordered pair once, since x + y = y + x and x * y = y * x: the
Python backend takes the pairs i <= j and sort-and-count the lower
triangle with its diagonal (first[k] = k, ends[k] = k + 1), an
off-diagonal cell standing for two and a diagonal cell for itself, each
cell weighing c_i·c_j.  After the merge one rule, for unit and weighted
grids alike, takes c_i² off the count at each diagonal value, doubles
every count and adds c_i² back; two diagonal cells can share a value, as
x * x = (-x) * (-x).  The dense backend packs a self-pair's line once
and squares the integer, which CPython multiplies faster than two
distinct ones.

An energy need not build r_s.  :func:`multisets` lists each unordered
s-tuple of a plain set once (``Multisets``), its key the tuple's sum or
product (values added, values multiplied, or exponent keys added) with
its weight s!/∏m! packed in the low bits, and :func:`square_blocks`
takes the sorted keys straight to the sum over values of (Σ w)²: the
squared weights sum to the trivial count T_s(n) (:func:`trivial_count`),
and only runs of equal values add cross terms.  Its rows are the same
writer's: row k is the (s - 1)-multisets of greatest index below k, then
those of greatest index k, each plus (or times) value k, so at s = 2 it
is the self-pair triangle.  One cost rule, from n, s and the span before
anything is built, picks it over binary powering: its C(n + s - 1, s)
cells against the cells of :func:`power`'s last step (``_power_cells``),
more than ``_MULTISET_FLOOR`` cells (below, binary powering's small
steps win; at s = 2 the grid is that step) and with the partials in one
block.  Dense lines, cells past 2**62 and keys past 64 bits keep binary
powering.

The kernel sees values only.  Products taken on exponent keys (see
``energy.RepFunction``) reach it as sums of plain ints.

Nothing is rounded.  A numpy backend runs only when every value of its
result is below 2**62 in absolute value and the product of the operands'
total multiplicities, which bounds every count and every partial sum of
a count, is below 2**63.  Every result is held as sorted arrays (see
:class:`Weighted`); ``exact_dtype`` is the one rule that makes an array
int64 or object.
"""

import functools
import math

import numpy as np

_VALUE_LIMIT = 2**62
_INT64_LIMIT = 2**63
_PY_PAIRS = 256
_DENSE_RATIO = 32
_CHUNK = 1 << 19
_GROUP = 128
_MULTISET_FLOOR = 1 << 14  # cells; s = 2 grids cross binary powering near 2·10^4
_RUN_BITS = 6  # a partial's run, at most s - 1 < 64, below its den in ``_partials``' codes
_RUN_MASK = (1 << _RUN_BITS) - 1


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
        """Each of the sorted, distinct ``elements`` (Python ints, or an
        int64 or object array, which is not copied where it is already of
        the values' dtype) once."""
        n, lo, hi = len(elements), int(elements[0]), int(elements[-1])
        vals = np.asarray(elements, dtype=exact_dtype(max(-lo, hi)))
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
        return square_sum(self.cnts, self.total)


def square_sum(cnts, total) -> int:
    """The sum of the squares of the non-negative ``cnts`` (int64 or
    object), whose sum is at most ``total``, exactly."""
    # every partial sum is at most max * total <= total**2, so the int64 dot cannot wrap
    if total**2 < _INT64_LIMIT or int(cnts.max()) * total < _INT64_LIMIT:
        return int(np.dot(cnts, cnts))
    return sum(c * c for c in cnts.tolist())


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
    lo, hi = grid_bounds(f.lo, f.hi, g.lo, g.hi, additive)
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
    # every coefficient of the product, and every input count, is at most this
    bound = min(f.total * g.max_count(), g.total * f.max_count()) if f.counted else min(f.size, g.size)
    slot = _slot_dtype(bound)
    packed = []
    for w in (f,) if f is g else (f, g):
        line = np.zeros((w.hi - w.lo) // step + 1, dtype=slot)
        line[(w.vals - w.lo) // step] = 1 if w.cnts is None else w.cnts
        packed.append(int.from_bytes(line.tobytes(), "little"))
    prod = packed[0] * packed[-1]  # a self-pair squares one integer
    n = (f.hi - f.lo + g.hi - g.lo) // step + 1
    conv = np.frombuffer(prod.to_bytes(n * slot.itemsize, "little"), dtype=slot)
    idx = np.flatnonzero(conv)
    cnts = conv[idx].astype(np.int64) if total is not None else None
    return Weighted((f.lo + g.lo) + step * idx, cnts, total, f.lo + g.lo, f.hi + g.hi)


def _slot_dtype(bound):
    """The narrowest of uint8/16/32/64, little-endian, holding 0..``bound``
    (a positive int below 2**64)."""
    nbytes = (bound.bit_length() + 7) // 8
    return np.dtype(f"<u{1 << (nbytes - 1).bit_length()}")


def _sort_count(f, g, additive):
    total = f.total * g.total if f.counted else None
    weighted = f.counted and (f.total > f.size or g.total > g.size)  # unit grids count cells instead
    wbits = (f.max_count() * g.max_count()).bit_length() if weighted else 0
    blocks, layout = _grid(f, g, additive, np.multiply if weighted else None, wbits)
    vals, cnts = merge_blocks(blocks, np.add if f.counted else None, layout)
    if f is g and f.counted:
        # an off-diagonal cell stands for two, a diagonal one for itself:
        # the squares come off before the doubling, so no count passes its final value
        at, squares = np.searchsorted(vals, 2 * f.vals if additive else f.vals * f.vals), f.cnts * f.cnts
        np.subtract.at(cnts, at, squares)
        cnts *= 2
        np.add.at(cnts, at, squares)
    return Weighted(vals, cnts, total)


def least_levels(values, levels, additive):
    """The distinct x + y (or x * y) over the pairs i <= j of ``values``
    (int64 or object, in any order), sorted, and the least level of each:
    a pair's level is max(levels_i, levels_j), the int64 ``levels`` >= 0
    riding as the self-pair grid's weights (combine max, reduce min)."""
    f = Weighted(values, levels, None, int(values.min()), int(values.max()))
    blocks, layout = _grid(f, f, additive, np.maximum, int(levels.max()).bit_length() or 1)
    return merge_blocks(blocks, np.minimum, layout)


def _grid(f, g, additive, combine, wbits):
    """The blocks of the f x g grid (``_row_blocks``), weights ``combine``d
    over ``wbits`` bits, and their layout for ``merge_blocks``: (lo, wbits)
    for packed keys, or None past 64 bits or int64 cells, where a block
    holds the cells, in ``exact_dtype`` of the grid's bound, weights apart."""
    lo, hi = grid_bounds(f.lo, f.hi, g.lo, g.hi, additive)
    cells = exact_dtype(max(-lo, hi))
    dtype = key_dtype(hi - lo, wbits) if cells is np.int64 else None
    if dtype is None:
        return _row_blocks(f, g, additive, combine, cells, 0, 0), None
    return _row_blocks(f, g, additive, combine, dtype, lo, wbits), (lo, wbits)


def grid_bounds(flo, fhi, glo, ghi, additive):
    """The least and greatest cell of the grid of x + y (or x * y) over
    x in [flo, fhi], y in [glo, ghi]: its corners are cells."""
    if additive:
        return flo + glo, fhi + ghi
    corners = (flo * glo, flo * ghi, fhi * glo, fhi * ghi)
    return min(corners), max(corners)


def key_dtype(span, wbits):
    """The unsigned dtype of keys holding offsets 0..``span`` above
    ``wbits`` weight bits: uint32 while they fit 32 bits, else uint64,
    and None past 64 bits."""
    bits = span.bit_length() + wbits
    return np.uint32 if bits <= 32 else np.uint64 if bits <= 64 else None


def block_cells(dtype):
    """The cells of one block of ``dtype`` keys: ``_CHUNK`` is a budget
    of 8-byte cells, so a block of 32-bit keys holds twice as many."""
    return _CHUNK * 8 // np.dtype(dtype).itemsize


def _key_operands(x, y, lo, wbits, dtype, additive):
    """``x`` and ``y`` (int64 or object) as ``dtype`` vectors, and a base:
    each cell of ``np.add.outer`` (or ``np.multiply.outer``) of the two,
    less the base, is the key (cell - lo) << wbits.  The arithmetic wraps
    modulo the width of ``dtype``, which is exact for every key the
    width holds."""
    xk = _offset_keys(x, lo if additive else 0, wbits, np.empty(len(x), dtype=dtype))
    yk = _offset_keys(y, 0, wbits if additive else 0, np.empty(len(y), dtype=dtype))
    return xk, yk, 0 if additive or not lo else _wrap(lo << wbits, dtype)  # object (lo 0) has no wrap


def _offset_keys(values, lo, wbits, out):
    """(values - lo) << wbits for int64 or object ``values``, written into
    ``out`` modulo its width (exactly, for object)."""
    np.subtract(values, lo, out=out, casting="unsafe")
    out <<= wbits
    return out


def _wrap(n, dtype):
    """The Python int ``n`` as a ``dtype`` scalar, modulo its width."""
    return dtype(n % (1 << 8 * np.dtype(dtype).itemsize))


def _row_blocks(f, g, additive, combine, dtype, lo, wbits):
    """The f x g grid by ``_rows``.  The keys are (cell - lo) << wbits,
    the cell x + y (or x * y), by ``_key_operands``: the cells themselves,
    int64 or object, at lo 0 and wbits 0.  The weights ``combine``(c_i,
    c_j), None without ``combine``, go into the keys' low ``wbits`` bits
    when there are any, else apart.  A self-pair (``f is g``) is the lower
    triangle, its diagonal cell the z part of its row (what each cell
    stands for is the caller's rule)."""
    xk, yk, base = _key_operands(f.vals, g.vals, lo, wbits, dtype, additive)
    planes = [(np.add if additive else np.multiply, xk, yk, yk)]
    if combine:  # apart, the weights are int64 beside int64 or object cells
        w = [c.cnts.astype(dtype if wbits else np.int64) for c in (f, g)]
        planes.append((combine, w[0], w[1], w[1]))
    if f is g:
        first = np.arange(f.size)
        return _rows(planes, first, first + 1, block_cells(dtype), base)
    ends = np.full(f.size, g.size)
    return _rows(planes, ends, ends, block_cells(dtype), base)


def _rows(planes, first, ends, budget, base):
    """The one grid writer: (keys, weights) blocks of whole rows, at most
    ``budget`` cells (one row when a row is longer).  Row k of a plane
    (op, x, y, z) is op(x_k, y[:first[k]]) followed by
    op(x_k, z[first[k]:ends[k]]), with first[k + 1] = ends[k], both int
    arrays; ``first`` is constant (a rectangle: no z parts) or strictly
    increasing.  A plane (op, x, y, z, wy, wz) ors the column weights wy_j
    and wz_j into its cells.  The keys are plane 0 less ``base``, modulo
    their width; the weights plane 1 (None without), or-ed into the keys
    when these are unsigned (packed)."""
    cells = ends.cumsum()  # cells in rows 0..k
    i = 0
    while i < len(cells):
        start = int(cells[i] - ends[i])
        stop = max(i + 1, int(cells.searchsorted(start + budget, side="right")))
        keys, weights = _block(planes, first, ends, i, stop, int(cells[stop - 1]) - start)
        if base:
            keys -= base
        if weights is not None and keys.dtype.kind == "u":
            keys |= weights
            weights = None  # packed weights are freed before the block's merge
        yield keys, weights
        del keys, weights  # nor does the block outlive it
        i = stop


def _block(planes, first, ends, i, stop, size):
    """Rows [i, stop) of ``_rows``, ``size`` cells a plane.  The y parts go
    a group of rows [a, b) at a time: y[:first[a]] is one outer product,
    and the rest of rows a + 1 .. b - 1 one more, masked to each row's
    length (by ``_triangle`` when the lengths are 1..m).  A group holds at
    most ``_GROUP`` rows and rests of at most max(first[a] / 16,
    ``_GROUP``) cells, unless its rows are all as long: a rectangle's
    block is one outer product.  The z parts follow, one op."""
    out = [np.empty(size, dtype=x.dtype) for _, x, *_ in planes]
    pos, a = 0, i
    while a < stop:
        head = int(first[a])
        if first[stop - 1] == head:
            b = stop
        else:
            b = int(first.searchsorted(head + max(head >> 4, _GROUP), side="right"))
            b = max(a + 1, min(b, stop, a + _GROUP))
        m, width = b - a - 1, int(first[b - 1]) - head  # the rest: rows a + 1 .. b - 1, at most width cells
        rest = end = pos + (b - a) * head
        if width == m:
            mask, end = _triangle(m), rest + m * (m + 1) // 2
        elif width:
            lens = first[a + 1 : b] - head
            mask, end = np.arange(width) < lens[:, None], rest + int(lens.sum())
        for cells, (op, x, y, _, *marks) in zip(out, planes):
            if head:
                block = cells[pos:rest].reshape(b - a, head)
                op.outer(x[a:b], y[:head], out=block)
                if marks:
                    block |= marks[0][:head]
            if width:
                part = op.outer(x[a + 1 : b], y[head : head + width])
                if marks:
                    part |= marks[0][head : head + width]
                cells[rest:end] = part[mask]
        pos, a = end, b
    lo, hi = int(first[i]), int(ends[stop - 1])  # the z parts: z[lo:hi]
    if hi > lo:
        reps = None if hi - lo == stop - i else ends[i:stop] - first[i:stop]
        for cells, (op, x, _, z, *marks) in zip(out, planes):
            op(x[i:stop] if reps is None else np.repeat(x[i:stop], reps), z[lo:hi], out=cells[pos:])
            if marks:
                cells[pos:] |= marks[1][lo:hi]
    return out[0], out[1] if len(out) > 1 else None


@functools.cache
def _triangle(m):
    """The read-only m x m mask of rows of 1..m cells: contiguous, so it
    indexes faster than a corner of a larger one."""
    mask = np.tri(m, dtype=bool)
    mask.flags.writeable = False
    return mask


def multisets(base: Weighted, s: int, additive: bool):
    """The ``Multisets`` of the values of ``base``, an indicator (each
    value once), at arity ``s`` >= 2 when they cost less than binary
    powering's last step, else None.

    They do while the grid's C(n + s - 1, s) cells are no more than that
    step's cells (``_power_cells``), above ``_MULTISET_FLOOR`` cells, with
    the (s - 1)-multisets in one block, every cell below 2**62 in absolute
    value and every key within 64 bits."""
    n = base.size
    cells = math.comb(n + s - 1, s)
    if s < 2 or cells <= _MULTISET_FLOOR or math.comb(n + s - 2, s - 1) > _CHUNK:
        return None
    lo, hi = fold_bounds(base.lo, base.hi, s, additive)
    wbits = math.factorial(s).bit_length()
    dtype = key_dtype(hi - lo, wbits)
    if max(-lo, hi) >= _VALUE_LIMIT or dtype is None or cells > _power_cells(base, s, additive):
        return None
    return Multisets(base.vals, s, additive, lo, wbits, dtype)


def fold_bounds(lo, hi, s, additive):
    """The least and greatest sum (or product) of s values in [lo, hi]:
    a product is multilinear, so its extremes are among lo**i * hi**(s - i)."""
    if additive:
        return s * lo, s * hi
    corners = [lo**i * hi ** (s - i) for i in range(s + 1)]
    return min(corners), max(corners)


def _power_cells(base, s, additive):
    """A bound, from n, s and the span alone, on the cells of binary
    powering's last step for ``base``**s: a self-pair of base**(s/2) when
    s is a power of two, else base**(s - top) by base**top, top the
    highest power of two in s.  The support of base**t is at most the
    C(n + t - 1, t) t-multisets and, for sums, t·w + 1 values, w the span
    over the gcd of the differences.  0 when that step would be dense
    (``choose``).  ``multisets`` asks only at s >= 2."""
    n, top = base.size, 1 << (s.bit_length() - 1)
    halves = (s // 2, s // 2) if s == top else (s - top, top)
    sizes = [math.comb(n + t - 1, t) for t in halves]
    if additive:
        width = (base.hi - base.lo) // base.step()
        sizes = [min(m, t * width + 1) for m, t in zip(sizes, halves)]
        if (halves[0] * width + 1) * (halves[1] * width + 1) <= _DENSE_RATIO * sizes[0] * sizes[1]:
            return 0
    m, k = sizes
    return m * (m + 1) // 2 if s == top else m * k


class Multisets:
    """Every unordered s-tuple (s >= 2) of the sorted, distinct int64
    ``vals`` once, as packed keys (cell - lo) << wbits | weight of
    ``dtype``: the cell is the tuple's sum (or product) and the weight
    s!/∏m!, the ordered s-tuples it stands for (m over the multiplicities
    of its values).

    A tuple is a nondecreasing sequence of indices.  The (s - 1)-tuples,
    the partials, are grouped by their greatest index (``_partials``), so
    those whose greatest index is at most k are a prefix of them.  Row k
    of the grid is that prefix, each partial plus (or times) value k: a
    partial of greatest index below k gains a new value (weight s!/den,
    den the partial's ∏m!), one of greatest index k repeats it (weight
    s!/(den·(run + 1)), run its multiplicity).  For s = 2 the rows are the
    self-pair triangle, weight 2 below the diagonal and 1 on it.

    ``blocks`` hands these rows to ``_rows``, the partials of greatest
    index below k as row k's y part and those of greatest index k as its
    z part.
    """

    __slots__ = ("vals", "s", "additive", "lo", "wbits", "dtype")

    def __init__(self, vals, s, additive, lo, wbits, dtype):
        self.vals, self.s, self.additive, self.lo, self.wbits, self.dtype = vals, s, additive, lo, wbits, dtype

    @property
    def total(self) -> int:
        return len(self.vals) ** self.s

    def counts(self) -> Weighted:
        """The multiplicity of each value, as binary powering gives it."""
        vals, cnts = merge_blocks(self.blocks(), np.add, (self.lo, self.wbits))
        return Weighted(vals, cnts, self.total)

    def sum_squares(self) -> int:
        """The sum of the squared multiplicities, from the sorted keys: a
        lone block's runs squared, else ``square_blocks``."""
        n, s = len(self.vals), self.s
        if math.comb(n + s - 1, s) > block_cells(self.dtype):
            return square_blocks(self.blocks(), (self.lo, self.wbits), self.total)
        for keys, _ in self.blocks():
            keys.sort()
            return _square_runs(keys, self.wbits, self.total, trivial_count(n, s))

    def blocks(self):
        """The grid's (keys, None) blocks of whole rows, at most
        ``block_cells(dtype)`` cells (one row when a row is longer)."""
        a, s, wbits, dtype = self.vals, self.s, self.wbits, self.dtype
        partials, code, ends = _partials(a, s - 1, self.additive)
        fresh = math.factorial(s) // (code >> _RUN_BITS)
        weights = fresh.astype(dtype), (fresh // ((code & _RUN_MASK) + 1)).astype(dtype)
        x, y, base = _key_operands(a, partials, self.lo, wbits, dtype, self.additive)
        if self.additive:  # the weights ride in the partials' low bits, which the sums keep
            planes = [(np.add, x, y | weights[0], y | weights[1])]
        else:
            planes = [(np.multiply, x, y, y, *weights)]
        yield from _rows(planes, np.concatenate(([0], ends[:-1])), ends, block_cells(dtype), base)


def _partials(a, t, additive):
    """The t-multisets of the values ``a``, grouped by greatest index:
    their sums (or products), int64; their codes den << _RUN_BITS | run,
    den the product of m! over the multiplicities m and run the
    multiplicity of the greatest index; and ``ends``, ends[k] the number
    whose greatest index is at most k.

    Level t + 1 is, for each k in turn, the level-t prefix of greatest
    index at most k with value k added: one gather of the whole level."""
    n = len(a)
    part, code, ends = a, np.full(n, (1 << _RUN_BITS) | 1, dtype=np.int64), np.arange(1, n + 1)
    op = np.add if additive else np.multiply
    for _ in range(t - 1):
        rows = np.cumsum(ends)
        idx = np.arange(rows[-1]) - np.repeat(rows - ends, ends)  # row k is part[:ends[k]]
        repeat = idx >= np.repeat(np.concatenate(([0], ends[:-1])), ends)  # its greatest index is k
        run = code & _RUN_MASK
        grown = ((code >> _RUN_BITS) * (run + 1)) << _RUN_BITS | (run + 1)
        code = np.where(repeat, grown[idx], (code & ~_RUN_MASK)[idx] | 1)
        part = op(part[idx], np.repeat(a, ends))
        ends = rows
    return part, code, ends


def merge_blocks(blocks, reduce, layout=None):
    """The distinct values of the cells of (keys, weights) ``blocks``,
    sorted, with ``reduce`` (``np.add`` or ``np.minimum``; None for a
    plain set) of the weights of each value.

    With ``layout`` = (lo, wbits), a block's keys hold each cell as
    (value - lo) << wbits | weight, its weights None.  Without, they are
    the cells' values and the weights stand apart, None to count cells
    (``np.add`` only).

    Each block is sorted and its equal values merged by ``_merge_equal``.
    The merged blocks wait until they hold more values than the result so
    far, and are then merged into it by one more sort of their keys
    (``_merge_cells``).  A merge so holds at most about twice the result
    and one block, and sorts fewer than two values for each value of the
    blocks it takes in.
    """
    vals, cnts = _runs(blocks, reduce, layout)
    if len(vals) > 1:
        return _merge_cells(vals, cnts, reduce)
    return vals[0], cnts[0]


def _runs(blocks, reduce, layout):
    """``merge_blocks`` up to its last merge: the lists of its sorted
    value and weight arrays."""
    vals, cnts, size = [], [], 0  # sorted runs; the first merges every block before the others
    for keys, weights in blocks:
        if layout:
            v, c = _merge_equal(keys, *layout, reduce)
        else:
            v, c = _merge_cells([keys], [weights], reduce)
        del keys, weights  # no block outlives its merge
        vals.append(v)
        cnts.append(c)
        size += len(v)
        if size > 2 * len(vals[0]):
            v, c = _merge_cells(vals, cnts, reduce)
            vals.append(v)
            cnts.append(c)
            size = len(v)
    return vals, cnts


def square_blocks(blocks, layout, total) -> int:
    """The sum over values x of (sum of the weights of x)**2, over the
    cells of packed (key, None) ``blocks`` ((value - lo) << wbits | weight,
    by ``layout`` = (lo, wbits)) whose weights sum to ``total``, exactly.

    They are merged as ``merge_blocks`` merges them, and its last merge is
    the one sort whose runs are squared (``_square_runs``)."""
    vals, cnts = _runs(blocks, np.add, layout)
    if len(vals) == 1:
        return square_sum(cnts[0], total)
    packed = _pack(vals, cnts)
    if packed is None:
        return square_sum(_merge_cells(vals, cnts, np.add)[1], total)
    keys, _, wbits = packed
    keys.sort()
    return _square_runs(keys, wbits, total)


def _square_runs(keys, wbits, total, squares=None):
    """The sum over values of (sum of weights)**2 over the sorted packed
    ``keys`` (offset << wbits | weight, ``wbits`` > 0), weights summing to
    ``total``: ``squares``, the sum of the squared weights (found here when
    None), plus the cross terms of the runs of more than one cell, which
    sparse grids rarely hold."""
    mask = (1 << wbits) - 1
    if squares is None:
        squares = square_sum(np.bitwise_and(keys, mask, out=np.empty(len(keys), np.int64), casting="unsafe"), total)
    joined = np.flatnonzero((keys[1:] ^ keys[:-1]) <= mask)  # cell i + 1 is in the run of cell i
    if not len(joined):
        return squares
    heads = np.flatnonzero(np.concatenate(([True], joined[1:] != joined[:-1] + 1)))
    lens = np.diff(np.append(heads, len(joined))) + 1  # cells in each run
    ends = np.cumsum(lens)
    cells = np.arange(ends[-1]) + np.repeat(joined[heads] - (ends - lens), lens)
    weights = np.bitwise_and(keys[cells], mask, out=np.empty(len(cells), np.int64), casting="unsafe")
    sums = np.cumsum(weights)[ends - 1]
    sums[1:] -= sums[:-1].copy()
    return squares + square_sum(sums, total) - square_sum(weights, total)


def trivial_count(n: int, s: int) -> int:
    """T_s(n) = (s!)**2 [z**s] (sum over m of z**m/(m!)**2)**n: the sum
    over the s-multisets of n values of their squared weights (s!/∏m!)**2,
    the pairs of s-tuples that are rearrangements of each other.  By
    J. C. P. Miller's recurrence for a power of a series, with g_k = T_k(n):
    k g_k = sum over j = 1..k of ((n + 1) j - k) C(k, j)**2 g_{k-j}."""
    g = [1]
    for k in range(1, s + 1):
        g.append(sum(((n + 1) * j - k) * math.comb(k, j) ** 2 * g[k - j] for j in range(1, k + 1)) // k)
    return g[s]


def _merge_cells(vals, cnts, reduce):
    """``_merge_equal`` of the cells of the value arrays ``vals``, weighing
    the arrays ``cnts`` (non-negative; None each to count cells).  Both
    lists are emptied as they are read, so that no part outlives the
    sort.  Where ``_pack`` packs them, into one array of keys, they are
    merged as keys; else the parts are concatenated and an argsort orders
    them."""
    packed = _pack(vals, cnts)
    if packed is not None:
        return _merge_equal(*packed, reduce)
    values = _take(vals)
    weights = None if cnts[0] is None else _take(cnts)
    cnts.clear()
    order = np.argsort(values)
    values = values[order]
    starts = _starts(values)
    if weights is None:
        return values[starts], None if reduce is None else np.diff(np.append(starts, len(values)))
    return values[starts], reduce.reduceat(weights[order], starts)


def _pack(vals, cnts):
    """(keys, lo, wbits): the parts ``vals`` and ``cnts`` (see
    ``_merge_cells``) packed straight into one array of keys (value - lo)
    << wbits | weight, emptying both lists, where the values are int64
    and their span and weight bits fit 64 bits; else None, the lists
    untouched."""
    if vals[0].dtype == object:
        return None
    lo, hi = min(int(v.min()) for v in vals), max(int(v.max()) for v in vals)
    wbits = 0 if cnts[0] is None else max(int(c.max()) for c in cnts).bit_length() or 1
    dtype = key_dtype(hi - lo, wbits)
    if dtype is None:
        return None
    keys, pos = np.empty(sum(map(len, vals)), dtype=dtype), 0
    while vals:
        v, c = vals.pop(), cnts.pop()
        part = _offset_keys(v, lo, wbits, keys[pos : pos + len(v)])
        if wbits:
            np.bitwise_or(part, c, out=part, dtype=dtype, casting="unsafe")
        pos += len(v)
    del v, c
    return keys, lo, wbits


def _take(arrays):
    """The concatenation of ``arrays``, which is emptied."""
    out = np.concatenate(arrays)
    arrays.clear()
    return out


def _merge_equal(keys, lo, wbits, reduce):
    """Sort the packed ``keys`` (value - lo) << wbits | weight in place and
    merge equal values: ``reduce`` their weights (None for a plain set),
    or count them when ``wbits`` is 0.  Sorting the keys sorts each value's
    weights too, least first."""
    keys.sort()
    offsets = keys >> wbits if wbits else keys
    starts = _starts(offsets)
    values = offsets[starts].astype(np.int64)
    values += lo
    del offsets
    if reduce is None:
        return values, None
    if not wbits:
        return values, np.diff(np.append(starts, len(keys)))
    keys &= (1 << wbits) - 1
    if reduce is np.minimum:
        return values, keys[starts].astype(np.int64)
    return values, np.add.reduceat(keys, starts, dtype=np.int64)


def distinct(values):
    """The sorted, distinct values of the int64 array ``values``: one sort
    and one compare of neighbours, and no copy where none repeats."""
    values = np.sort(values)
    starts = _starts(values)  # [0] for an empty array
    return values if len(starts) >= len(values) else values[starts]


def _starts(values):
    """The index of the first of each run of equal sorted ``values``."""
    return np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
