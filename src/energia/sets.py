"""Exact finite-set arithmetic: iterated sumsets and product sets as
sorted arrays, the IntSet/RatSet views of them, and canonical generators
for the standard example sets.

The folds compute on the kernel's arrays.  ``iterated_sumset`` holds
mA - nA as the kernel's sorted values; ``iterated_product_set`` holds
A^(m)/A^(n) as sorted (numerator, denominator) arrays of the reduced
quotients, the sign on the numerator, one cell per distinct quotient
picked by ``_kernel.merge_blocks``.  An array is int64 or, once a value
leaves int64, an object array of Python ints (``_kernel.exact_dtype``),
so nothing is rounded.

The ``IntSet`` of Python ints or ``RatSet`` of ``Fraction``s that a fold
returns builds its elements from those arrays when a caller first reads
them: its length, and the report the CLI prints, come from the arrays.
Every object is immutable and every operation is pure.
"""

import inspect
from bisect import bisect_left
from fractions import Fraction

import numpy as np

from . import _kernel
from .errors import (
    BadParamsError,
    DivisionByZeroElementError,
    EmptySetError,
    ZeroArityError,
)


class _SortedSet:
    """Immutable strictly-increasing sequence of exact values.

    A set a fold made, or an ``IntSet`` built from an int64 array, holds
    sorted, distinct ``arrays`` (one or two, see the subclasses) and
    builds ``elements`` from them on first use; any other set holds its
    elements and ``arrays`` is None.
    """

    __slots__ = ("_elements", "arrays")

    def __init__(self, values):
        self._elements, self.arrays = tuple(sorted(set(values))), None

    @classmethod
    def _trusted(cls, elements):
        """Wrap values already sorted, distinct and of this set's type."""
        obj = cls.__new__(cls)
        obj._elements, obj.arrays = tuple(elements), None
        return obj

    @classmethod
    def _of_arrays(cls, *arrays):
        """Wrap a fold's sorted, distinct arrays."""
        obj = cls.__new__(cls)
        obj._elements, obj.arrays = None, arrays
        return obj

    @property
    def elements(self):
        if self._elements is None:
            self._elements = self._from_arrays(*self.arrays)
        return self._elements

    def __len__(self):
        return len(self.arrays[0]) if self._elements is None else len(self._elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x):
        i = bisect_left(self.elements, x)
        return i < len(self.elements) and self.elements[i] == x

    def __eq__(self, other):
        return type(self) is type(other) and self.elements == other.elements

    def __hash__(self):
        return hash((type(self).__name__, self.elements))

    def __repr__(self):
        return f"{type(self).__name__}({list(self.elements)!r})"


class IntSet(_SortedSet):
    """Finite set of arbitrary-precision integers; ``arrays`` is (values,).

    Built from an int64 array, in any order and with repeats, the set
    holds the array sorted and de-duplicated (one sort, one compare of
    neighbours), read-only, and builds ``elements`` from it on first use,
    as a fold's set does.  Built from anything else, it takes Python ints
    only and holds no arrays.
    """

    def __init__(self, values):
        if isinstance(values, np.ndarray) and values.dtype == np.int64:
            vals = _kernel.distinct(values)
            vals.flags.writeable = False
            self._elements, self.arrays = None, (vals,)
            return
        values = list(values)
        if set(map(type, values)) - {int}:  # one pass; the loop below names the offender
            for v in values:
                if not isinstance(v, int) or isinstance(v, bool):
                    raise BadParamsError(f"IntSet elements must be int, got {type(v).__name__}")
        super().__init__(values)

    @staticmethod
    def _from_arrays(vals):
        return tuple(vals.tolist())

    @property
    def sorted_values(self):
        """The values as a kernel indicator reads them: the set's array
        when it holds one, else ``elements``."""
        return self.elements if self.arrays is None else self.arrays[0]


class RatSet(_SortedSet):
    """Finite set of exact rationals (stored reduced, denominators > 0);
    ``arrays`` is (numerators, denominators)."""

    def __init__(self, values):
        super().__init__(Fraction(v) for v in values)

    @staticmethod
    def _from_arrays(num, den):
        return tuple(map(Fraction, num.tolist(), den.tolist()))


def _check_fold(A, m, n, name):
    if m < 0 or n < 0:
        raise BadParamsError("m and n must be non-negative")
    if m == 0 and n == 0:
        raise ZeroArityError("m = n = 0")
    if len(A) == 0:
        raise EmptySetError(f"{name} of empty set")


def iterated_sumset(A: IntSet, m: int, n: int) -> IntSet:
    """mA - nA, the m-fold sumset minus the n-fold sumset of A, over the
    kernel's sorted values: mA plus the reflection of nA, which at n = m
    is mA itself."""
    _check_fold(A, m, n, "iterated_sumset")
    base = _kernel.Weighted.indicator(A.sorted_values, counted=False)
    out = _kernel.power(base, m, additive=True) if m else None
    if n:
        nA = out if n == m else _kernel.power(base, n, additive=True)
        minus = _kernel.Weighted(-nA.vals[::-1], None, None, -nA.hi, -nA.lo)
        out = minus if out is None else _kernel.pair(out, minus, additive=True)
    return IntSet._of_arrays(out.vals)


def iterated_product_set(A: IntSet, m: int, n: int) -> RatSet:
    """A^(m) / A^(n) over the sorted (numerator, denominator) arrays of its
    reduced quotients; n = 0 gives the plain product set over 1."""
    _check_fold(A, m, n, "iterated_product_set")
    if n >= 1 and 0 in A.sorted_values:
        raise DivisionByZeroElementError("0 in A with n >= 1")
    base = _kernel.Weighted.indicator(A.sorted_values, counted=False)
    one = np.ones(1, dtype=np.int64)
    num = _kernel.power(base, m, additive=False).vals if m else one
    den = num if n == m else _kernel.power(base, n, additive=False).vals if n else one
    return RatSet._of_arrays(*_quotient_arrays(num, den))


def _quotient_arrays(num, den):
    """The distinct p / q over the sorted arrays ``num`` and ``den`` (no
    zero), as sorted arrays of reduced numerators and positive
    denominators.

    Each cell of the num x den grid is keyed by the integer
    floor(p 2^(2b) / q), b the bit length of the largest |q|.  Two
    distinct quotients with denominators below 2^b differ by more than
    2^(-2b), so their scaled values differ by more than 1 and their floors
    differ; equal quotients give equal keys, and the keys keep the order.
    So ``_kernel.merge_blocks``, taking the grid as one block that weighs
    each cell by its index and keeping the least, picks one cell per
    distinct quotient in order (any cell of a key reduces to the same
    p/q), and one gcd reduces it.  Floor division floors the exact
    quotient for either sign of q.  The keys are int64 while every
    |p| 2^(2b) is, else Python ints; |p| is taken as at least 1, as
    2^(2b) bounds the denominators too.
    """
    shift = 2 * max(-int(den[0]), int(den[-1])).bit_length()
    dtype = _kernel.exact_dtype(max(-int(num[0]), int(num[-1]), 1) << shift)
    keys = np.floor_divide.outer(np.left_shift(num.astype(dtype, copy=False), shift), den.astype(dtype, copy=False)).ravel()
    _, cells = _kernel.merge_blocks([(keys, np.arange(len(keys)))], np.minimum)
    p, q = num[cells // len(den)], den[cells % len(den)]
    g = np.gcd(p, q)
    g[q < 0] *= -1  # dividing by -g moves the sign onto the numerator
    return p // g, q // g


# -- canonical generators ---------------------------------------------------


def ap(start: int, step: int, n: int) -> IntSet:
    """Arithmetic progression {start, start+step, ..., start+(n-1)step}."""
    if n < 1 or step == 0:
        raise BadParamsError("need n >= 1 and step != 0")
    return IntSet(start + i * step for i in range(n))


def gp(start: int, ratio: int, n: int) -> IntSet:
    """Geometric progression {start * ratio**i : 0 <= i < n}."""
    if n < 1 or ratio == 0 or start == 0:
        raise BadParamsError("need n >= 1, start != 0, ratio != 0")
    return IntSet(start * ratio**i for i in range(n))


def powers(k: int, n: int) -> IntSet:
    """{1, 2**k, ..., n**k}: the model (k-1)-convex image."""
    if n < 1 or k < 1:
        raise BadParamsError("need n >= 1 and k >= 1")
    return IntSet(i**k for i in range(1, n + 1))


def interval(n: int) -> IntSet:
    """{1, ..., n}."""
    if n < 1:
        raise BadParamsError("need n >= 1")
    return IntSet(range(1, n + 1))


def mixed(n: int) -> IntSet:
    """{1, ..., n} together with {n**2, ..., n**n} (exact big integers).

    The standard witness that both energies can be near-maximal at once.
    """
    if n < 1:
        raise BadParamsError("need n >= 1")
    return IntSet(list(range(1, n + 1)) + [n**j for j in range(2, n + 1)])


def poly_image(coeffs, base: IntSet) -> IntSet:
    """{p(i) : i in base} for p with integer coefficients (low order first)."""
    coeffs = list(coeffs)
    if not coeffs or not all(isinstance(c, int) for c in coeffs):
        raise BadParamsError("coeffs must be a non-empty list of integers")
    if len(base) == 0:
        raise EmptySetError("poly_image over empty base set")

    def p(x):
        acc = 0
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    return IntSet(p(i) for i in base)


GENERATORS = {
    "ap": ap,
    "gp": gp,
    "powers": powers,
    "interval": interval,
    "mixed": mixed,
    "poly_image": poly_image,
}


def generate(kind: str, **params) -> IntSet:
    """Dispatch to one of the named generators; an unknown kind, or
    parameters that do not fit its signature, raise BadParamsError."""
    try:
        fn = GENERATORS[kind]
        bound = inspect.signature(fn).bind(**params)
    except KeyError:
        raise BadParamsError(f"unknown generator kind {kind!r}") from None
    except TypeError as exc:
        raise BadParamsError(str(exc)) from None
    return fn(*bound.args, **bound.kwargs)
