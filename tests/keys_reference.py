"""The coprime-base encoder as a pass over the elements in turn.

This is ``energia._keys.encode`` as first written: each element is
divided by the current base as often as it goes, one Python int at a
time (the library's ``_divide``), a remainder above 1 is merged into the
base by the library's ``_refine``, and the exponent vectors of the
earlier elements, one dict each, are rewritten over the pieces of every
split base element.  The tests compare the array pass against it,
``Codec`` for ``Codec``.
"""

from math import prod

import numpy as np

from energia import _kernel
from energia._keys import Codec, _divide, _refine


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
    return _codec(base, [arity * top[p] + 1 for p in base], vectors, max(elements))


def _codec(base, radices, vectors, hi):
    """The ``Codec`` of exponent vectors given as one {p: e} dict per
    element, its keys summed in Python ints."""
    codec = Codec.__new__(Codec)
    codec.base, codec.radices, codec.hi = base, radices, hi
    codec.places = [prod(radices[:i]) for i in range(len(base))]
    codec.keys = np.array(
        [sum(v.get(p, 0) * w for p, w in zip(base, codec.places)) for v in vectors], dtype=np.int64
    )
    return codec
