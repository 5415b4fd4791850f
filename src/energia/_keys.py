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
a caller reads them, once per distinct key.

``codec_for`` decides when keys pay: for products of more than one
element of a positive set, once they could reach 2**62.
"""

from math import gcd, prod

import numpy as np

from . import _kernel


def codec_for(elements, arity):
    """The codec of the sorted, distinct ``elements`` for products of up
    to ``arity`` of them, or None when they stay on values: arity 1, a
    set that is not positive, products below 2**62, or a base too wide
    (see ``encode``)."""
    if arity > 1 and elements[0] > 0 and elements[-1] ** arity >= _kernel._VALUE_LIMIT:
        return encode(elements, arity)
    return None


class Codec:
    """A coprime base with its mixed-radix layout, the keys of the
    encoded elements (int64, in their order) and the largest of them."""

    __slots__ = ("base", "places", "radices", "arity", "keys", "hi")

    def __init__(self, base, radices, arity, vectors, hi):
        self.base, self.radices, self.arity, self.hi = base, radices, arity, hi
        self.places = [prod(radices[:i]) for i in range(len(base))]
        self.keys = np.array(
            [sum(v.get(p, 0) * w for p, w in zip(base, self.places)) for v in vectors], dtype=np.int64
        )

    def decode(self, keys, dtype):
        """The value of each int64 key, as an array of ``dtype`` (int64 when
        every value is known to be below 2**63, else object).

        Base powers are multiplied in int64 for as long as the largest
        possible partial product stays below 2**63, then folded into the
        result; a base element whose top power alone leaves int64 is
        raised per distinct digit in Python ints.
        """
        out = np.ones(len(keys), dtype=dtype)
        part, reach = np.ones(len(keys), dtype=np.int64), 1
        for p, place, radix in zip(self.base, self.places, self.radices):
            digits = keys // place % radix
            top = p ** (radix - 1)
            if top >= _kernel._INT64_LIMIT:
                digits, inv = np.unique(digits, return_inverse=True)
                out *= np.array([p**d for d in digits.tolist()], dtype=dtype)[inv]
                continue
            if reach * top >= _kernel._INT64_LIMIT:
                out *= part
                part, reach = np.ones(len(keys), dtype=np.int64), 1
            part *= np.array([p**d for d in range(radix)], dtype=np.int64)[digits]
            reach *= top
        out *= part
        return out

    def values(self, keys, factors):
        """The values of the keys of products of ``factors`` elements, in
        the dtype ``_kernel.exact_dtype`` gives the largest such product."""
        return self.decode(keys, _kernel.exact_dtype(self.hi**factors))


def encode(elements, arity):
    """The codec of the positive ``elements`` for products of at most
    ``arity`` of them, or None once the radix span reaches 2**62.

    One pass over the elements: each is divided by the current base as
    often as it goes, and a remainder above 1 is merged into the base by
    gcd refinement, which splits any base element it shares a factor
    with; the exponents of earlier elements are rewritten over the
    pieces.  The span only grows as the pass goes on, so a wide base
    stops it early.
    """
    base, top, vectors = [], {}, []  # top: the largest exponent of each base element
    for a in elements:
        vec, rest = _divide(a, base)
        if rest > 1:
            for p in _refine(base, rest):
                if p not in top:  # a piece made and split again within this refinement
                    continue
                # an element of the old base was split: rewrite over its pieces
                pieces, t = _divide(p, base)[0], top.pop(p)
                for q, m in pieces.items():
                    top[q] = max(top.get(q, 0), t * m)
                for v in vectors + [vec]:
                    e = v.pop(p, 0)
                    if e:
                        for q, m in pieces.items():
                            v[q] = v.get(q, 0) + e * m
            for q, m in _divide(rest, base)[0].items():
                vec[q] = vec.get(q, 0) + m
        for q, e in vec.items():
            top[q] = max(top.get(q, 0), e)
        vectors.append(vec)
        if prod(arity * e + 1 for e in top.values()) >= _kernel._VALUE_LIMIT:
            return None
    return Codec(base, [arity * top[p] + 1 for p in base], arity, vectors, max(elements))


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
