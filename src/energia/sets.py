"""Exact finite-set arithmetic: IntSet/RatSet, iterated sumsets and
product sets, and canonical generators for the standard example sets.

All values are arbitrary-precision (Python int / Fraction); product and
quotient sets live in exact rationals so that no collision is ever
spurious.  Every object is immutable and every operation is pure.
"""

from bisect import bisect_left
from fractions import Fraction

from . import _kernel
from .errors import (
    BadParamsError,
    DivisionByZeroElementError,
    EmptySetError,
    ZeroArityError,
)


class _SortedSet:
    """Immutable strictly-increasing sequence of exact values."""

    __slots__ = ("elements",)

    def __init__(self, values):
        self.elements = tuple(sorted(set(values)))

    @classmethod
    def _trusted(cls, elements):
        """Wrap values already sorted, distinct and of this set's type."""
        obj = cls.__new__(cls)
        obj.elements = tuple(elements)
        return obj

    def __len__(self):
        return len(self.elements)

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
    """Finite set of arbitrary-precision integers."""

    def __init__(self, values):
        values = list(values)
        for v in values:
            if not isinstance(v, int):
                raise BadParamsError(f"IntSet elements must be int, got {type(v).__name__}")
        super().__init__(values)


class RatSet(_SortedSet):
    """Finite set of exact rationals (stored reduced, denominators > 0)."""

    def __init__(self, values):
        super().__init__(Fraction(v) for v in values)


def iterated_sumset(A: IntSet, m: int, n: int) -> IntSet:
    """mA - nA, the m-fold sumset minus the n-fold sumset of A."""
    if m < 0 or n < 0:
        raise BadParamsError("m and n must be non-negative")
    if m == 0 and n == 0:
        raise ZeroArityError("m = n = 0")
    if len(A) == 0:
        raise EmptySetError("iterated_sumset of empty set")
    # mA - nA = mA + n(-A)
    out = _kernel.power(_kernel.Weighted.indicator(A.elements, counted=False), m, additive=True) if m else None
    if n:
        neg = _kernel.Weighted.indicator([-a for a in reversed(A.elements)], counted=False)
        minus = _kernel.power(neg, n, additive=True)
        out = minus if out is None else _kernel.pair(out, minus, additive=True)
    return IntSet._trusted(out.vals.tolist())


def iterated_product_set(A: IntSet, m: int, n: int) -> RatSet:
    """A^(m) / A^(n) as exact rationals; n = 0 gives the plain product set."""
    if m < 0 or n < 0:
        raise BadParamsError("m and n must be non-negative")
    if m == 0 and n == 0:
        raise ZeroArityError("m = n = 0")
    if len(A) == 0:
        raise EmptySetError("iterated_product_set of empty set")
    if n >= 1 and 0 in A.elements:
        raise DivisionByZeroElementError("0 in A with n >= 1")
    base = _kernel.Weighted.indicator(A.elements, counted=False)
    num = _kernel.power(base, m, additive=False).vals.tolist() if m else [1]
    if not n:
        return RatSet._trusted([Fraction(p) for p in num])
    den = _kernel.power(base, n, additive=False).vals.tolist()
    return RatSet._trusted(_quotients(num, den))


def _quotients(num, den):
    """The distinct p / q over p in num, q in den (no zero), sorted.

    Each pair is keyed by the integer floor(p 2^(2b) / q), b the bit
    length of the largest |q|.  Two distinct quotients with denominators
    below 2^b differ by more than 2^(-2b), so their scaled values differ
    by more than 1 and their floors differ; equal quotients give equal
    keys, and the keys keep the order.  So deduplicating and sorting the
    keys deduplicates and sorts the quotients exactly, and one Fraction
    is built per distinct value.  Floor division floors the exact
    quotient for either sign of q.
    """
    shift = 2 * max(-den[0], den[-1]).bit_length()
    shifted = [(p << shift, p) for p in num]
    table = {ps // q: (p, q) for q in den for ps, p in shifted}
    return [Fraction(*table[k]) for k in sorted(table)]


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
    """Dispatch to one of the named generators."""
    try:
        fn = GENERATORS[kind]
    except KeyError:
        raise BadParamsError(f"unknown generator kind {kind!r}") from None
    return fn(**params)
