"""Exponent keys: products of positive integers as int64 sums.

A coprime base of a positive set A is a set of pairwise coprime integers
above 1 of which every element of A is a product of powers (Bernstein,
"Factoring into coprimes in essentially linear time", J. Algorithms
2005).  Over it, every product of elements of A has one exponent vector,
and the exponent vector of x·y is the sum of those of x and y.  If p
occurs at most E_p times in any element, a product of at most ``arity``
elements has exponent at most arity·E_p at p, so reading the exponents
as the digits of a mixed-radix number with radix arity·E_p + 1 at p
gives each such product an integer key with

    key(x·y) = key(x) + key(y),

and distinct products distinct keys (unique factorisation over a
coprime base).  When the radix span, the product of the radices, is
below 2**62, every key fits int64 and multiplicative work becomes the
kernel's additive work on keys.  Values are rebuilt from keys only where
a caller reads them, once per distinct key, by ``Codec.values``.

``codec_for`` encodes A/g, g = gcd(A): a product of t elements of A is
g**t times one of t elements of A/g, and keys of t-fold products meet
only keys of other t-fold products (energies compare s-fold products;
the pipeline tests sums of i- and j-fold keys against (i + j)-fold
ones).  Since min_a v_p(a) = v_p(g), the radix at p becomes
arity·(E_p - e_p) + 1, with E_p and e_p the largest and least exponent
of p in an element of A; a prime of g that divides nothing more leaves
the base, and M_s(λA) = M_s(A) holds on keys by construction.  A t-fold key's value is g**t times the product it
spells over the base.

``encode`` builds the base with array passes: the remainders of the
elements not yet factored sit in one array, the first remainder above 1
refines the base by gcds, and each new piece is divided out of every
remainder at once, its exponent read from a gcd with a power of it.

``codec_for`` decides when keys pay: for products of more than one
element of a positive set, once they could reach 2**62.
"""

from math import gcd, prod

import numpy as np

from . import _kernel

_BLOCK = 64  # remainders in the first block of ``encode``


def codec_for(elements, arity):
    """The codec of the sorted, distinct ``elements`` for products of up
    to ``arity`` of them, or None when they stay on values: arity 1, a
    set that is not positive, products below 2**62, or a base too wide
    (see ``encode``).  The keys are those of the elements divided by
    their gcd g, taken pairwise until it reaches 1; the codec keeps g
    for ``Codec.values``.
    """
    if not (arity > 1 and elements[0] > 0 and elements[-1] ** arity >= _kernel._VALUE_LIMIT):
        return None
    g = 0
    for a in elements:
        g = gcd(g, a)
        if g == 1:
            break
    codec = encode([a // g for a in elements], arity)
    if codec is not None:
        codec.g, codec.hi = g, elements[-1]
    return codec


class Codec:
    """A coprime base with its mixed-radix layout, the keys of the
    encoded elements (int64, in their order), the largest element and
    the common factor ``g`` divided out of them before encoding (1 from
    ``encode``; see ``codec_for``).

    ``exponents`` is the int64 matrix of the elements' exponents, one row
    per base element, and each key is the sum of a column's exponents
    times the places."""

    __slots__ = ("base", "places", "radices", "keys", "hi", "g")

    def __init__(self, base, radices, exponents, hi):
        self.base, self.radices, self.hi, self.g = base, radices, hi, 1
        self.places = [prod(radices[:i]) for i in range(len(base))]
        self.keys = np.array(self.places, dtype=np.int64) @ exponents

    def values(self, keys, factors):
        """The values of the int64 keys of products of ``factors``
        elements: g**factors times the product of base powers each key
        spells, in the dtype ``_kernel.exact_dtype`` gives the largest
        such product, hi**factors (int64, or object for Python ints).

        Base powers are multiplied in int64 for as long as the largest
        possible partial product stays below 2**63, then folded into the
        result; a base element whose top power alone leaves int64 is
        raised per distinct digit in Python ints.
        """
        out = np.full(len(keys), self.g**factors, dtype=_kernel.exact_dtype(self.hi**factors))
        part, reach = np.ones(len(keys), dtype=np.int64), 1
        for p, place, radix in zip(self.base, self.places, self.radices):
            digits = keys // place % radix
            top = p ** (radix - 1)
            if top >= _kernel._INT64_LIMIT:
                digits, inv = np.unique(digits, return_inverse=True)
                out *= np.array([p**d for d in digits.tolist()], dtype=out.dtype)[inv]
                continue
            if reach * top >= _kernel._INT64_LIMIT:
                out *= part
                part, reach = np.ones(len(keys), dtype=np.int64), 1
            part *= np.array([p**d for d in range(radix)], dtype=np.int64)[digits]
            reach *= top
        out *= part
        return out


def encode(elements, arity):
    """The codec of the sorted, distinct, positive ``elements`` for
    products of at most ``arity`` of them, or None once the radix span
    reaches 2**62.

    The remainders of the elements not yet factored are held in one
    array.  The base is refined (``_refine``) by the first remainder
    above 1, and each new piece is divided out of every remainder by
    ``_exponents``.  For a base B' that refines B, the remainder over B'
    of the remainder over B is the remainder over B', so each remainder
    ``_refine`` sees, and so the base it builds, is the one a pass that
    divides each element in turn by the current base would give.  An
    element is the product of the pieces divided out of it, each to its
    exponent, so rewriting each retired piece's exponents over its own
    pieces leaves the element's exponents at the base elements.

    Each base element divides some element, so its radix is at least
    arity + 1: the pass stops once (arity + 1)**|base| reaches 2**62.
    The remainders are taken in blocks, the first of ``_BLOCK`` elements
    and each later one seven times the elements before it, taken when no
    remainder above 1 is left and divided by every piece so far in the
    order the pieces came; a retired piece, such as c·2^64 of
    {1} ∪ {c·2^(64+i)·3^j}, takes most of each element in one division.  A
    wide base thus stops the pass after work that grows with the
    elements read, not with the length of the set.
    """
    n = len(elements)
    base, chain = [], []  # chain: every piece, in the order it joined the base
    cols, splits = {}, {}  # piece -> its exponent in each element; retired piece -> {piece: exponent}
    lo = end = 0  # elements[:lo] are factored; rest holds the remainders of elements[lo:end]
    rest = np.ones(0, dtype=np.int64)
    while True:
        above = np.flatnonzero(rest > 1)
        if above.size:
            lo, rest = lo + int(above[0]), rest[above[0] :]
            retired = _refine(base, int(rest[0]))
            if (arity + 1) ** len(base) >= _kernel._VALUE_LIMIT:
                return None
            pieces = [q for q in base if q not in cols]
            splits.update((p, _divide(p, pieces)[0]) for p in retired if p in cols)
            chain += pieces
        elif end < n:
            lo, end = end, min(n, 8 * end or _BLOCK)
            rest = np.array(elements[lo:end], dtype=_kernel.exact_dtype(elements[end - 1]))
            pieces = chain
        else:
            break
        for q in pieces:
            e, rest = _exponents(rest, q)
            cols.setdefault(q, np.zeros(n, dtype=np.int64))[lo:end] = e
    for p in chain:
        for q, m in splits.get(p, {}).items():
            cols[q] += m * cols[p]
    exponents = np.array([cols[p] for p in base], dtype=np.int64).reshape(len(base), n)
    radices = (arity * exponents.max(axis=1) + 1).tolist()
    if prod(radices) >= _kernel._VALUE_LIMIT:
        return None
    return Codec(base, radices, exponents, elements[-1])


def _refine(base, x):
    """Merge x > 1 into the pairwise coprime ``base``, in place, so that it
    stays pairwise coprime and x and every old element are products of
    its elements.  Returns the elements taken out of it.

    A piece sharing g > 1 with a base element p retires p and leaves
    g, p/g and x/g to be merged in turn; each such step divides the
    product of the pieces by g, so the loop ends.
    """
    retired, pending = [], [x]
    while pending:
        x = pending.pop()
        if x == 1:
            continue
        for i, p in enumerate(base):
            g = gcd(x, p)
            if g > 1:
                del base[i]
                retired.append(p)
                pending += [g, p // g, x // g]
                break
        else:
            base.append(x)
    return retired


def _exponents(values, p):
    """(e, rest): the exponent e of p in each of the positive ``values``,
    and each value divided by p**e, in the dtype ``_kernel.exact_dtype``
    gives the largest value.

    When p**2 exceeds every value, e is 1 where p divides the value.
    Otherwise, with p**k the largest power of p up to the largest value,
    g = gcd(value, p**k) has the exponent of p in the value, and is p**e
    itself whenever it is a power of p (always when p is prime, or the
    value a product of powers of a coprime base holding p): e is then
    its place among the powers.  A value that shares only some of p's
    factors (6 and 10) has in g a product that is no power of p, and e
    is the number of powers of p above 1 that divide g.
    """
    top = int(values.max())
    values = values.astype(_kernel.exact_dtype(top), copy=False)
    if p > top:
        return np.zeros(values.size, dtype=np.int64), values
    if p * p > top:  # no value holds p**2
        e = values % p == 0
        return e.astype(np.int64), np.where(e, values // p, values)
    powers = [1]
    while powers[-1] * p <= top:
        powers.append(powers[-1] * p)
    powers = np.array(powers, dtype=values.dtype)
    g = np.gcd(values, powers[-1])
    e = np.searchsorted(powers, g)
    mixed = np.flatnonzero(powers[e] != g)
    if mixed.size:
        e[mixed] = np.count_nonzero(g[mixed, None] % powers[1:] == 0, axis=1)
        g[mixed] = powers[e[mixed]]
    return e, values // g


def _divide(x, base):
    """({p: e}, rest): x divided by each element p of ``base`` as often as
    it goes, e times.  Each e is found from the powers p^(2^i) that divide
    x, largest first, in O(log e) divisions."""
    vec = {}
    for p in base:
        if x % p:
            continue
        powers = [p]
        while x % (powers[-1] * powers[-1]) == 0:
            powers.append(powers[-1] * powers[-1])
        e = 0
        for i in range(len(powers) - 1, -1, -1):
            if x % powers[i] == 0:
                x //= powers[i]
                e += 1 << i
        vec[p] = e
    return vec, x
