"""Representation functions and energy functionals.

The fast path computes r_s as the s-fold convolution power of the
indicator through the exact kernel in ``_kernel`` (binary powering;
dense, sort-and-count or Python backends per step).  A multiplicative
q_s of a positive set whose products could reach 2**62 is the additive
power of the exponent keys of its elements (``_keys``).  An independent
brute-force oracle enumerates all 2s-tuples literally, shares no code
with the kernel, and must agree with the fast path on every input.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from . import _kernel, _keys
from .errors import BadArityError, EmptySetError, BadParamsError, OverflowGuardError, TooLargeError
from .sets import IntSet

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"

_OPS = {ADDITIVE: lambda a, b: a + b, MULTIPLICATIVE: lambda a, b: a * b}


class RepFunction:
    """Sparse value -> multiplicity map for r_s (sums) or q_s (products).

    Holds the kernel's result over coordinates: the values themselves,
    or, with a ``codec`` (see ``_keys``), the int64 exponent keys of the
    products, on which products of elements are sums of keys.  The
    value-ordered arrays (``by_value``) and ``support``, the value ->
    multiplicity dict, are built on first access, each key decoded once.
    """

    def __init__(self, counts: _kernel.Weighted, s: int, mode: str, codec=None):
        if s < 1:
            raise BadParamsError("arity s must be >= 1")
        if mode not in (ADDITIVE, MULTIPLICATIVE):
            raise BadParamsError(f"unknown mode {mode!r}")
        self.counts, self.s, self.mode, self.codec = counts, s, mode, codec

    @property
    def adds(self) -> bool:
        """Whether coordinates combine by addition: sums, or products on keys."""
        return self.mode == ADDITIVE or self.codec is not None

    @cached_property
    def by_value(self):
        """(values, counts, coordinates), sorted by value: the values are
        int64, or an object array of Python ints when one leaves int64."""
        coords, cnts = self.counts.vals, self.counts.cnts
        if self.codec is None:
            return coords, cnts, coords
        vals = self.codec.values(coords, self.s)
        if vals.dtype == object:  # Python ints: sorting a list beats numpy's object comparisons
            seq = vals.tolist()
            order = np.array(sorted(range(len(seq)), key=seq.__getitem__), dtype=np.intp)
        else:
            order = np.argsort(vals)
        return vals[order], cnts[order], coords[order]

    def values_at(self, idx):
        """The values at the positions ``idx`` of the sorted coordinates,
        ``counts.vals``."""
        coords = self.counts.vals[idx]
        return coords if self.codec is None else self.codec.values(coords, self.s)

    @cached_property
    def support(self) -> dict:
        vals, cnts, _ = self.by_value
        return dict(zip(vals.tolist(), cnts.tolist()))

    def total(self) -> int:
        return self.counts.total

    def energy_count(self) -> int:
        return self.counts.sum_squares()

    def sup(self) -> int:
        return self.counts.max_count()


@dataclass(frozen=True)
class EnergyValue:
    """An exact energy count, with the arity and mode it was taken at."""

    count: int
    s: int
    mode: str


def _check_args(name, A, s, mode):
    """The preconditions of ``name`` on a set, its arity and its mode."""
    if len(A) == 0:
        raise EmptySetError(f"{name} of empty set")
    if s < 1:
        raise BadParamsError("s must be >= 1")
    if mode not in _OPS:
        raise BadParamsError(f"unknown mode {mode!r}")


def guard_counts(size: int, s: int):
    if size >= 2 and size**s >= _kernel._INT64_LIMIT:
        raise OverflowGuardError(f"|A|^s = {size}^{s} exceeds the 64-bit multiplicity guard")


def rep_function(A: IntSet, s: int, mode: str = ADDITIVE, products: int = 0) -> RepFunction:
    """Exact r_s (additive) or q_s (multiplicative) of A.

    q_s runs on exponent keys when ``_keys.codec_for`` gives a codec;
    ``products``, when above s, is the most elements of A whose products
    will be formed from the result (as ``bsg._chain`` forms q_s from
    q_1), so that the keys are sized for them.
    """
    _check_args("rep_function", A, s, mode)
    guard_counts(len(A), s)
    codec = None if mode == ADDITIVE else _keys.codec_for(A.elements, max(s, products))
    coords = A.elements if codec is None else np.sort(codec.keys).tolist()
    indicator = _kernel.Weighted.indicator(coords, counted=True)
    return RepFunction(_kernel.power(indicator, s, mode == ADDITIVE or codec is not None), s, mode, codec)


def energy(A: IntSet, s: int, mode: str = ADDITIVE) -> EnergyValue:
    """E_s(A) or M_s(A), exactly, as sum of squared multiplicities."""
    r = rep_function(A, s, mode)
    return EnergyValue(r.energy_count(), s, mode)


def sup_rep(A: IntSet, s: int, mode: str = ADDITIVE) -> int:
    """max_n r_s(n)."""
    return rep_function(A, s, mode).sup()


def mixed_energy(sets, mode: str = ADDITIVE) -> EnergyValue:
    """E_s(A_1, ..., A_2s) / M_s(...): tuples with equal half-sums.

    Computed as the inner product of the two s-fold convolutions.
    """
    sets = list(sets)
    if len(sets) == 0 or len(sets) % 2 != 0:
        raise BadArityError("need an even, positive number of sets")
    if mode not in _OPS:
        raise BadParamsError(f"unknown mode {mode!r}")
    for X in sets:
        if len(X) == 0:
            raise EmptySetError("mixed_energy over an empty factor")
    s = len(sets) // 2

    def half(group):
        f = _kernel.Weighted.indicator(group[0].elements, counted=True)
        for X in group[1:]:
            f = _kernel.pair(f, _kernel.Weighted.indicator(X.elements, counted=True), mode == ADDITIVE)
        return f

    return EnergyValue(_kernel.inner(half(sets[:s]), half(sets[s:])), s, mode)


# -- independent brute-force oracle ----------------------------------------

ORACLE_GUARD = 10**8


def energy_oracle(A: IntSet, s: int, mode: str = ADDITIVE, guard: int = ORACLE_GUARD) -> EnergyValue:
    """Energy by literal enumeration of all 2s-tuples.

    While every s-fold sum or product fits int64 (``_fits_int64``), the
    (s-tuple, s-tuple) pairs are compared in numpy batches, whatever the
    size of A; past int64, in nested Python loops over Python ints.  Both
    visit each 2s-tuple individually: no sort, count by value or
    convolution is shared with the fast path.
    """
    _check_args("energy_oracle", A, s, mode)
    n_tuples = len(A) ** (2 * s)
    if n_tuples > guard:
        raise TooLargeError(f"|A|^(2s) = {n_tuples} exceeds the oracle guard {guard}")
    oracle = _numpy_oracle if _fits_int64(A, s, mode) else _python_oracle
    return EnergyValue(oracle(A, s, mode), s, mode)


def _fits_int64(A: IntSet, s: int, mode: str) -> bool:
    m = max(abs(a) for a in A)
    if m == 0:
        return True
    bound = m * s if mode == ADDITIVE else m**s
    return bound < 2**62


def _python_oracle(A: IntSet, s: int, mode: str) -> int:
    op = _OPS[mode]
    count = 0
    for tup in product(A.elements, repeat=2 * s):
        lhs = tup[0]
        for x in tup[1:s]:
            lhs = op(lhs, x)
        rhs = tup[s]
        for x in tup[s + 1 :]:
            rhs = op(rhs, x)
        if lhs == rhs:
            count += 1
    return count


def _numpy_oracle(A: IntSet, s: int, mode: str) -> int:
    vals = np.array(A.elements, dtype=np.int64)
    sums = vals
    for _ in range(s - 1):
        grid = sums[:, None] + vals[None, :] if mode == ADDITIVE else sums[:, None] * vals[None, :]
        sums = grid.reshape(-1)
    # every (s-tuple, s-tuple) pair compared individually, in row batches
    count = 0
    step = max(1, (1 << 22) // max(1, sums.size))
    for i in range(0, sums.size, step):
        block = sums[i : i + step]
        count += int(np.count_nonzero(block[:, None] == sums[None, :]))
    return count
