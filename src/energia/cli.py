"""Command-line surface: parse or generate sets, run the computations,
emit deterministic JSON reports.

Reports are byte-identical for identical (command, input, seed): counts
are decimal strings, key order is sorted, and wall-time is only included
when --timing is passed.

Exit codes: 0 ok; 1 a failed verdict (a mandatory check, an extraction)
or a library defect; 2 a refused input or configuration; 3 a guard (a
work, counter-width or precision bound).  Every refusal is an
EnergiaError whose class declares its code; it prints one stderr line,
"error: ", "parse error: " or "guard violation: " and the message, and
no report.  A malformed command line is refused the same way, exit 2.
"""

import argparse
import csv
import functools
import hashlib
import json
import random
import sys
import time

import numpy as np

from . import __version__, precision
from .bsg import SUBSET_BRANCH, kp_pipeline, kp_verify
from .checks import (
    check_csref,
    check_holder_mixed,
    check_mixed_cs,
    check_pluennecke,
    check_union_bound,
    check_war2,
    check_young,
)
from .constants import eric_params, gemn_params, rtp_constants, thrt_trace
from .decomposer import (
    DecomposeConfig,
    certificates,
    com2_budget,
    com2_simulate,
    decompose,
    minimal_adversary,
)
from .energy import ADDITIVE, MULTIPLICATIVE, energy, energy_oracle
from .errors import BadParamsError, DivisionByZeroElementError, EnergiaError
from .experiments import EXPERIMENTS
from .sets import IntSet, generate, iterated_product_set, iterated_sumset

_MODES = {"add": ADDITIVE, "additive": ADDITIVE, "mult": MULTIPLICATIVE, "multiplicative": MULTIPLICATIVE}


# Whitespace input of at least this many tokens is read as one int64
# array; below it, ``int`` per token costs less than the array's fixed
# calls, and a set of Python ints less than an array-backed one downstream.
_ARRAY_TOKENS = 64
_INT64_ENDS = (-(2**63), 2**63 - 1)
# An int64 value v is spelled with 1 + #{k in 1..18 : |v| >= 10^k} digits,
# after a sign where v < 0, so the decimals of n sorted values take
# 19n + searchsorted(values, _EDGES) @ _WEIGHTS characters in all.
_TENS = 10 ** np.arange(1, 19, dtype=np.int64)
_EDGES, _WEIGHTS = np.concatenate((1 - _TENS, [0], _TENS)), np.repeat([1, -1], (19, 18))

# byte -> its class on the array path: "0" a digit, " " an ASCII space
# (those ``np.fromstring`` skips), "-" itself, "x" anything else
_BYTE_CLASS = bytes(
    ord("0") if chr(b) in "0123456789" else ord(" ") if chr(b) in " \t\n\v\f\r" else b if chr(b) == "-" else ord("x")
    for b in range(256)
)


def _read_input(path):
    """The input set and its digest.

    The input is a JSON array of integers or whitespace-separated ASCII
    tokens -?[0-9]+.  Whitespace input of at least ``_ARRAY_TOKENS``
    tokens, of digits, signs and the six ASCII spaces only, is read as
    one int64 array (``_int64_tokens``), from which the ``IntSet`` is
    built.  Shorter input, other bytes, values at or past an int64 end
    and JSON input are read ``int`` per token or as JSON, which refuse
    what they cannot read with a parse error.  Either way the set, the
    digest and every message are the same.
    """
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path) as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise BadParamsError(str(exc))
    text = text.strip()
    if not text:
        raise BadParamsError("empty input")
    try:
        if not text.startswith("["):
            # without "+", "_" and non-ASCII text, int() takes a token only if it is -?[0-9]+
            if not text.isascii() or "+" in text or "_" in text:
                raise BadParamsError("integers must be ASCII tokens -?[0-9]+")
            tokens = text.split(maxsplit=_ARRAY_TOKENS - 1)  # all of them, when fewer
            if len(tokens) == _ARRAY_TOKENS:
                read = _int64_tokens(text)
                if read is not None:
                    return read
                tokens = text.split()
            A = IntSet(map(int, tokens))
            return A, _digest(A)
        vals = json.loads(text)
    except ValueError as exc:
        raise BadParamsError(f"cannot parse input: {exc}")
    if not isinstance(vals, list):
        raise BadParamsError("JSON input must be an array")
    bad = [v for v in vals if type(v) is not int]  # strings, floats, booleans, null, ...
    if bad:
        raise BadParamsError(f"JSON input must hold integers, got {json.dumps(bad[0])}")
    A = IntSet(vals)
    return A, _digest(A)


def _int64_tokens(text):
    """(set, digest) of the stripped whitespace-form ``text`` read as one
    int64 array, or None when it is not taken: a byte ``int`` might not
    read the same way, a "-" that does not start a token or is not
    followed by a digit (``np.fromstring`` reads "5 - 3" as [5, -3] and
    "7 -" as [7, 0]), or a value at an int64 end.  Past those checks the
    text is tokens -?[0-9]+ between ASCII spaces, and ``np.fromstring``
    reads each as ``int`` does.

    The digest is hashed from the text itself when it already spells
    ``repr(list(A))`` but for brackets and commas: single spaces and
    strictly increasing values, each token as wide as its value's
    decimal (no "007", no "-0").
    """
    raw = text.encode()
    shape = raw.translate(_BYTE_CLASS)
    if b"x" in shape:
        return None
    if b"-" in shape:
        c = np.frombuffer(shape, dtype=np.uint8)
        at = np.flatnonzero(c == ord("-"))
        if at[-1] == len(c) - 1 or (c[at + 1] != ord("0")).any() or (c[at[at > 0] - 1] != ord(" ")).any():
            return None
    a = np.fromstring(raw, dtype=np.int64, sep=" ")
    if a.min() == _INT64_ENDS[0] or a.max() == _INT64_ENDS[1]:
        return None
    n = len(a)
    A = IntSet(a)
    if raw.count(b" ") == n - 1 and np.array_equal(A.arrays[0], a):  # single spaces, values in order
        if len(raw) == 19 * n + int(np.searchsorted(a, _EDGES) @ _WEIGHTS) + n - 1:
            return A, _hash(b"[" + raw.replace(b" ", b", ") + b"]")
    return A, _digest(A)


def _hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _digest(A: IntSet) -> str:
    """The input digest: the first 16 hex digits of the SHA-256 of
    ``repr(list(A))``."""
    return _hash(repr(list(A)).encode())


def _report(args, results, seed=None) -> dict:
    rep = {
        "schema": 1,
        "command": args._command_echo,
        "engine": __version__,
        "precision_bits": precision.precision_bits(),
        "results": results,
    }
    if seed is not None:
        rep["seed"] = seed
    if getattr(args, "timing", False):
        rep["wall_time_s"] = round(time.monotonic() - args._t0, 3)
    return rep


# A results value that _emit replaces with JSON text made beforehand.  No
# other string of a report is a lone NUL, so its JSON form marks the spot.
_SPLICE = "\0"


def _emit(args, results, seed=None, splice=None):
    text = json.dumps(_report(args, results, seed), sort_keys=True, default=str)
    if splice is None:
        print(text)
    else:  # head, list and tail written in turn: no second copy of the whole text
        head, _, tail = text.partition('"\\u0000"')
        print(head, splice, tail, sep="")


@functools.cache
def _tables():
    """A value's digits are read four ASCII cells, one uint32 word, at a
    time: the digits of 0000-9999 as words, and, for the quotient rows,
    the masks that keep the last k of four cells and the powers
    10^1-10^19 that count digits.  Then the edges that split a sorted
    list into the runs of the 38 (sign, digit count) classes of int64,
    the greatest value of each class but the last: -10^18 ends class 0,
    -1 class 18 and 9 class 19.  Built on first use, so that importing
    the CLI costs nothing more."""
    digits = np.ascontiguousarray((np.indices((10,) * 4, dtype=np.uint8) + ord("0")).reshape(4, -1).T)
    last = np.arange(4) >= 4 - np.arange(5)[:, None]
    pow10 = 10 ** np.arange(1, 20, dtype=np.uint64)
    tens = pow10[:18].astype(np.int64)
    edges = np.concatenate([-tens[::-1], [-1], tens - 1])
    return digits.view(np.uint32)[:, 0], last.view(np.uint32)[:, 0], pow10, edges


def _word(cells):
    """Four ASCII characters, or four keep flags, as one word."""
    raw = cells.encode() if isinstance(cells, str) else bytes(cells)
    return np.frombuffer(raw, dtype=np.uint8).view(np.uint32)[0]


def _magnitude(a):
    """|a| of the int64 array ``a``: uint32 where every value fits, which
    divides about three times faster, else uint64 (-2^63 included)."""
    return np.abs(a).astype(np.uint32 if -(2**32) < a.min() and a.max() < 2**32 else np.uint64)


def _words(mag, groups):
    """The digits of the unsigned array ``mag``, below 10^(4 * groups),
    as ``groups`` arrays of words, most significant first."""
    digits = _tables()[0]
    words = []
    for _ in range(groups - 1):
        high = mag // 10000  # a floor division by a scalar runs faster than divmod
        words.append(digits.take(mag - high * 10000))
        mag = high
    words.append(digits.take(mag))
    return words[::-1]


def _decimal(mag, shown):
    """(characters, keep) words of the digits of ``mag``, right-aligned,
    most significant word first; a value keeps its digits (one for 0)
    where ``shown``, else none."""
    last, pow10 = _tables()[1:3]
    count = np.where(shown, np.searchsorted(pow10, mag, side="right") + 1, 0)
    words = _words(mag, -(-int(count.max()) // 4))
    return [(w, last[np.clip(count - 4 * below, 0, 4)]) for below, w in zip(range(len(words) - 1, -1, -1), words)]


def _integer_text(num):
    """The ASCII of the JSON list of the decimal strings of the sorted,
    distinct int64 array ``num`` (a fold's values), as uint8.

    In a sorted array the values of one (sign, digit count) class are one
    run, and bisecting the array against the classes' edges finds it.  A
    run is one block of fixed-width rows, filled a column at a time:
    quote and sign, the digit cells of the values' words, closing quote
    and separator.
    """
    n = len(num)
    bounds = [0, *np.searchsorted(num, _tables()[3], side="right").tolist(), n]
    runs = [(a, b, k < 19, 19 - k if k < 19 else k - 18) for k, (a, b) in enumerate(zip(bounds, bounds[1:])) if a < b]
    words = _words(_magnitude(num), -(-max(count for *_, count in runs) // 4))
    cells = [(w.view(np.uint8).reshape(n, 4), j) for w in words for j in range(4)]
    text = np.empty(1 + sum((b - a) * (count + neg + 4) for a, b, neg, count in runs), dtype=np.uint8)
    text[0], start = ord("["), 1
    for a, b, neg, count in runs:
        width = count + neg + 4
        block = text[start : start + (b - a) * width].reshape(b - a, width)
        start += (b - a) * width
        for col, char in enumerate(b'"-'[: 1 + neg]):
            block[:, col] = char
        for col, (w, j) in enumerate(cells[-count:], 1 + neg):
            block[:, col] = w[a:b, j]
        for col, char in enumerate(b'", ', -3):
            block[:, col] = char
    text[-2] = ord("]")  # the last row's separator, and its space dropped
    return text[:-1]


def _word_rows(num, den):
    """The ASCII of the JSON list of the strings of the fractions num/den
    of int64 arrays (a quotient set: "p" where the denominator is 1, else
    "p/q"), as uint8.

    Each value is one row of words: bracket, quote and sign, digits,
    slash and denominator digits, closing quote, bracket and separator,
    each word beside the mask of the cells it keeps.  The kept cells,
    read row by row, are the text.
    """
    n = len(num)
    sign = np.where(num < 0, _word([0, 0, 1, 1]), _word([0, 0, 1, 0]))
    sign[0] |= _word([1, 0, 0, 0])
    frac = den != 1
    row = [(_word('[ "-'), sign), *_decimal(_magnitude(num), True)]
    row.append((_word("   /"), np.where(frac, _word([0, 0, 0, 1]), 0)))
    row += _decimal(_magnitude(den), frac)
    end = np.full(n, _word([1, 1, 0, 1]))
    end[-1] = _word([1, 0, 1, 0])  # no separator after the last value
    row.append((_word('",] '), end))
    chars, keep = np.empty((2, n, len(row)), dtype=np.uint32)
    for i, (c, k) in enumerate(row):
        chars[:, i], keep[:, i] = c, k
    return np.compress(keep.view(bool).ravel(), chars.view(np.uint8).ravel())


def _json_strings(num, den=None):
    """The JSON text of the list of decimal strings of a fold's
    ``arrays``: the integers ``num``, or the fractions num/den ("p" where
    the denominator is 1, else "p/q"), as ``json.dumps`` writes it.

    The arrays are a fold's: sorted, distinct integers, or reduced
    quotients sorted by value.  An integer list (every denominator 1
    included, as in a product set) is written in run blocks
    (``_integer_text``), a quotient list in word-and-mask rows
    (``_word_rows``); either is decoded once.  Object arrays take ``str``
    per value.
    """
    if num.dtype == object or (den is not None and den.dtype == object):
        pairs = zip(num.tolist(), den.tolist() if den is not None else [1] * len(num))
        return json.dumps([str(p) if q == 1 else f"{p}/{q}" for p, q in pairs])
    integers = den is None or (den == 1).all()
    return str(_integer_text(num) if integers else _word_rows(num, den), "ascii")


def _write_csv(path, rows, header):
    try:
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([header, *rows])
    except OSError as exc:
        raise BadParamsError(f"cannot write --csv: {exc}")


# -- subcommands -------------------------------------------------------------


def cmd_energy(args):
    A, digest = _read_input(args.input)
    mode = _MODES[args.mode]
    e = energy(A, args.s, mode)
    exponent = None  # log_|A| of the count
    if len(A) >= 2:
        with precision.working():
            exponent = precision.show(precision.log2(e.count) / precision.log2(len(A)), 20)
    results = {
        "input_digest": digest,
        "count": str(e.count),
        "s": args.s,
        "mode": mode,
        "exponent": exponent,
    }
    if args.oracle:
        o = energy_oracle(A, args.s, mode, guard=args.guard_max_tuples)
        results["oracle_count"] = str(o.count)
        results["oracle_agrees"] = o.count == e.count
        if o.count != e.count:  # pragma: no cover - would be a library bug
            _emit(args, results)
            return 1
    _emit(args, results)
    return 0


def cmd_sumset(args):
    A, digest = _read_input(args.input)
    fold = iterated_sumset if _MODES[args.mode] == ADDITIVE else iterated_product_set
    out = fold(A, args.m, args.n)
    results = {"input_digest": digest, "m": args.m, "n": args.n, "size": len(out), "values": _SPLICE}
    _emit(args, results, splice=_json_strings(*out.arrays))
    return 0


def _random_set(rng, max_size=8, lo=-50, hi=50, positive=False):
    size = rng.randint(2, max_size)
    vals = set()
    while len(vals) < size:
        v = rng.randint(1 if positive else lo, hi)
        if not positive or v > 0:
            vals.add(v)
    return IntSet(vals)


def _hld3_case(rng):
    elems = list(_random_set(rng))
    cut = rng.randint(1, len(elems) - 1)
    return [check_union_bound([IntSet(elems[:cut]), IntSet(elems[cut:])], 2, ADDITIVE)]


# suite name -> one case: draws its inputs from rng (arguments are drawn
# left to right) and returns its reports; "all" runs them in this order
_SUITES = {
    "csref": lambda rng: [check_csref(_random_set(rng), rng.choice([2, 3]), ADDITIVE)],
    "yoc": lambda rng: list(check_young(_random_set(rng), 4, rng.choice([1, 2, 3]))),
    "yoc2": lambda rng: [check_holder_mixed([_random_set(rng, 6) for _ in range(4)], ADDITIVE)],
    "mlpain": lambda rng: [
        check_holder_mixed([_random_set(rng, 6, positive=True) for _ in range(4)], MULTIPLICATIVE)
    ],
    "hld3": _hld3_case,
    "pr21": lambda rng: [check_pluennecke(_random_set(rng), rng.choice([1, 2]), rng.choice([0, 1]))],
    "zidt": lambda rng: [check_mixed_cs(_random_set(rng, 6), _random_set(rng, 6), 2, ADDITIVE)],
    "war2": lambda rng: [check_war2(rng.choice([1, 2]), 2, rng.randint(4, 12))],
}


def cmd_check(args):
    if args.suite != "all" and args.suite not in _SUITES:
        raise BadParamsError(f"unknown suite {args.suite!r}")
    if args.cases < 0:
        raise BadParamsError(f"--cases must be 0 or more, got {args.cases}")
    rng = random.Random(args.seed)
    suites = _SUITES if args.suite == "all" else (args.suite,)
    all_reports = [r for name in suites for _ in range(args.cases) for r in _SUITES[name](rng)]
    failures = [r for r in all_reports if not r.holds]
    _emit(
        args,
        {
            "suite": args.suite,
            "cases": args.cases,
            "total": len(all_reports),
            "failures": len(failures),
            "reports": [r.as_dict() for r in all_reports],
        },
        seed=args.seed,
    )
    return 1 if failures else 0


def cmd_kp(args):
    A, digest = _read_input(args.input)
    res = kp_pipeline(A, args.s, args.delta, mode=args.mode, energy_mode=_MODES[args.energy_mode])
    results = {
        "input_digest": digest,
        "branch": res.branch,
        "nu": precision.show(res.nu, 20),
        "delta": args.delta,
        "stage_stats": {k: str(v) for k, v in res.stage_stats.items()},
        "checks": [c.as_dict() for c in res.checks],
    }
    if res.branch == SUBSET_BRANCH:
        results["A_prime"] = [str(v) for v in res.A_prime]
        results["anchor_sum"] = str(res.anchor_sum)
        if args.verify:
            if res.energy_mode == MULTIPLICATIVE and 0 in res.A_prime.elements:
                raise DivisionByZeroElementError("--verify: A' holds 0, and its quotient sets A'^(m)/A'^(n) divide by it")
            pairs = [(1, 1), (2, 1), (2, 2)]
            results["verify"] = [c.as_dict() for c in kp_verify(res, A, pairs)]
    if args.csv:
        _write_csv(args.csv, res.trace, ("stage", "cardinality", "threshold"))
    _emit(args, results)
    return 0


def cmd_decompose(args):
    A, digest = _read_input(args.input)
    cfg = DecomposeConfig(k=args.k, s=args.s, q=args.q, mode=args.mode, extractor=args.extractor)
    d = decompose(A, cfg)
    certs = certificates(A, d, cfg)
    results = {
        "input_digest": digest,
        "B": [str(v) for v in d.B],
        "C": [str(v) for v in d.C],
        "iterations_used": d.iterations_used,
        "budget": d.budget,
        "failed": d.failed,
        "certificates": certs,
        "stop_report": d.stop_report.as_dict() if d.stop_report is not None else None,
        "trace": [
            {"D": [str(v) for v in (D or [])], "report": r.as_dict(), "threshold": str(t)}
            for D, r, t in d.trace
        ],
    }
    if args.csv:
        _write_csv(
            args.csv,
            [(i, len(D or []), r.name, r.holds, t) for i, (D, r, t) in enumerate(d.trace)],
            ("iteration", "size", "report", "holds", "threshold"),
        )
    _emit(args, results)
    return 0 if not d.failed else 1


def cmd_constants(args):
    name = args.formula
    if name == "rtp":
        c = rtp_constants(args.k_int)
        out = {key: precision.show(v) for key, v in c.items()}
    elif name == "gemn":
        out = {key: precision.show(v) for key, v in gemn_params(args.k, args.q).items()}
    elif name == "eric":
        out = {key: precision.show(v) for key, v in eric_params(args.b, args.m).items()}
    elif name == "thrt":
        t = thrt_trace(args.k_int, args.lambda0, args.s)
        out = {
            "growth": str(t.growth),
            "crossing_index": t.crossing_index,
            "values": [str(v) for v in t.values],
        }
    elif name == "com2":
        budget = com2_budget(args.n_int, args.c, args.Cc)
        steps = com2_simulate(args.n_int, args.c, args.Cc, minimal_adversary(args.c, args.Cc))
        out = {"budget": budget, "simulated": steps, "within_budget": steps <= budget}
    _emit(args, {"formula": name, "values": out})
    return 0


def cmd_gen(args):
    params = {}
    for key in ("start", "step", "ratio", "k", "n"):
        v = getattr(args, f"g_{key}", None)
        if v is not None:
            params[key] = v
    print(json.dumps([int(v) for v in generate(args.kind, **params)]))
    return 0


def cmd_experiment(args):
    results, holds = EXPERIMENTS[args.name]()
    _emit(args, {"experiment": args.name, **results})
    return 0 if holds else 1


# -- argument wiring ---------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A malformed command line is a refused configuration; subcommand parsers share the class."""

    def error(self, message):
        raise BadParamsError(message)


def build_parser():
    p = _Parser(prog="energia", description=__doc__)
    p.add_argument("--timing", action="store_true", help="include wall time in the report")
    sub = p.add_subparsers(dest="cmd", required=True)
    p.commands = sub.choices  # name -> subcommand parser, for ``main``

    def add_input(sp):
        sp.add_argument("input", nargs="?", default="-", help="file of integers or '-' for stdin")

    sp = sub.add_parser("energy")
    add_input(sp)
    sp.add_argument("--s", type=int, default=2)
    sp.add_argument("--mode", choices=sorted(_MODES), default="add")
    sp.add_argument("--oracle", action="store_true", help="cross-check against brute force")
    tuples = "with --oracle: refuse when |A|^(2s), the number of 2s-tuples to enumerate, exceeds this"
    sp.add_argument("--guard-max-tuples", type=int, default=10**8, dest="guard_max_tuples", help=tuples)
    sp.set_defaults(fn=cmd_energy)

    sp = sub.add_parser("sumset")
    add_input(sp)
    sp.add_argument("--m", type=int, default=2)
    sp.add_argument("--n", type=int, default=0)
    sp.add_argument("--mode", choices=sorted(_MODES), default="add")
    sp.set_defaults(fn=cmd_sumset)

    sp = sub.add_parser("check")
    sp.add_argument("--suite", default="all")
    sp.add_argument("--cases", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("kp")
    add_input(sp)
    sp.add_argument("--s", type=int, default=4)
    sp.add_argument("--delta", type=float, default=0.05)
    sp.add_argument("--mode", choices=("paper", "calibrated"), default="calibrated")
    sp.add_argument("--energy-mode", choices=sorted(_MODES), default="add", dest="energy_mode")
    sp.add_argument("--verify", action="store_true")
    sp.add_argument("--csv", help="write the stage trace to this CSV file")
    sp.set_defaults(fn=cmd_kp)

    sp = sub.add_parser("decompose")
    add_input(sp)
    sp.add_argument("--k", type=float, default=1.0)
    sp.add_argument("--s", type=int, default=2)
    sp.add_argument("--q", type=int, default=4)
    sp.add_argument("--mode", choices=("paper", "calibrated"), default="calibrated")
    sp.add_argument("--extractor", default="kp-multiplicative")
    sp.add_argument("--csv", help="write the extraction trace to this CSV file")
    sp.set_defaults(fn=cmd_decompose)

    sp = sub.add_parser("constants")
    sp.add_argument("formula", choices=("rtp", "gemn", "eric", "thrt", "com2"))
    sp.add_argument("--k", type=float, default=1.0)
    sp.add_argument("--k-int", type=int, default=2, dest="k_int")
    sp.add_argument("--q", type=int, default=2)
    sp.add_argument("--b", type=float, default=30.0)
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--s", type=int, default=8)
    sp.add_argument("--lambda0", type=float, default=0.5)
    sp.add_argument("--n-int", type=int, default=16, dest="n_int")
    sp.add_argument("--c", type=float, default=0.5)
    sp.add_argument("--Cc", type=float, default=1.0)
    sp.set_defaults(fn=cmd_constants)

    sp = sub.add_parser("gen")
    # the kinds these flags can build: no flag gives poly_image its coeffs or base
    sp.add_argument("kind", choices=("ap", "gp", "interval", "mixed", "powers"))
    sp.add_argument("--start", type=int, dest="g_start")
    sp.add_argument("--step", type=int, dest="g_step")
    sp.add_argument("--ratio", type=int, dest="g_ratio")
    sp.add_argument("--k", type=int, dest="g_k")
    sp.add_argument("--n", type=int, dest="g_n")
    sp.set_defaults(fn=cmd_gen)

    sp = sub.add_parser("experiment")
    sp.add_argument("name", choices=tuple(EXPERIMENTS))
    sp.set_defaults(fn=cmd_experiment)

    return p


_PARSER = None
_LABELS = {1: "error", 2: "parse error", 3: "guard violation"}  # stderr prefix by exit code


def main(argv=None):
    global _PARSER
    argv = sys.argv[1:] if argv is None else list(argv)
    if _PARSER is None:  # built on the first call, not at import
        _PARSER = build_parser()
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # read and print exact integers of any length
    try:
        command = _PARSER.commands.get(argv[0]) if argv else None
        if command is None:  # --timing, --help and unknown commands
            args = _PARSER.parse_args(argv)
        else:  # its parser alone, as the top-level one would call it, for half the cost
            args = command.parse_args(argv[1:])
            args.timing, args.cmd = False, argv[0]
        args._command_echo = " ".join(["energia"] + argv)
        args._t0 = time.monotonic()
        return args.fn(args)
    except EnergiaError as exc:
        print(f"{_LABELS[exc.code]}: {exc}", file=sys.stderr)
        return exc.code
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
