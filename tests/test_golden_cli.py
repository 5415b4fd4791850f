"""Golden CLI reports: full stdout bytes and exit codes of a fixed corpus.

Every case feeds its input on stdin, so the echoed command line carries
no file path.  The expected outputs in ``golden_cli.json`` were captured
from the engine before a rewrite of the code they cover: the
``sumset-0A/2A-mult``, ``sumset-AA/A-signed``, ``sumset-A/A-above-2^62``
and ``energy-random-s4`` cases before self-pairs skipped their symmetric
half and quotient sets were keyed by integers, the ``constants-*``,
``decompose-signed-*``, ``decompose-exhaustive``,
``decompose-extract-failed``, ``energy-singleton``,
``check-hld3`` and ``check-war2`` cases before the deletion pass over
the decomposer, the constants and the CLI, the
``energy-mult-s3/s4-dilated``, ``energy-mult-wide-base``,
``kp-mult-split-c``, ``kp-mult-wide-base``,
``kp-s6-mult-grid-above-2^62`` and ``decompose-35-grid`` cases before
multiplicative work moved to exponent keys, the ``kp-mult-*``,
``kp-paper-*``, ``kp-s6*`` and ``decompose-mult-*`` cases before the
popular-sum stages were vectorised, ``constants-gemn-k1.5-q6`` and
``constants-eric-b31-m40`` before the parameter formulas became plain
values instead of expression trees, ``sumset-A-A-digit-counts`` before
sumset reports were written straight from the fold's arrays, the others
before the convolution kernel was rewritten.  The twelve ``kp-*`` cases, the eighteen
``energy-*`` cases that print an ``exponent`` and
``constants-gemn-k1.5-q6`` were captured again when every kp threshold
became an exact comparison: the kp checks print their right-hand sides
as formulas (``"E_s |A|^(delta-s)"``, ``"2^-172 |A|^(1-82delta)"``,
``"2^1014 |A|^(nu+480delta)"``) with a null slack, ``nu`` and the
energy ``exponent`` are divided at the configured precision instead of
mpmath's 53 bits, so their last printed digits moved, and the q = 6
``Lambda`` prints 30 digits and ``l`` and ``log2_m`` as integers.  No
verdict, branch, ``A'`` or exit code changed.  Two cases record a fix rather than old output:
``sumset-0A-A-int64-min`` and ``sumset-A-A-int64-min`` were captured
after the int64 indicator stopped taking -2^63, whose negation wrapped,
and a test checks them against plain Python sets.  A change that alters
any report byte, any exit code or the chosen ``A'`` fails here.  To
capture them again after an intended change of output:

    PYTHONPATH=src python tests/test_golden_cli.py [NAME ...]

Named cases are captured alone and every other entry keeps its bytes;
with no name the whole corpus is captured again.
"""

import contextlib
import io
import json
import random
import sys
from itertools import product
from pathlib import Path

import pytest

from energia.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

SMALL_ADD = [-7, -3, 0, 1, 2, 5, 8, 13]
SMALL_MULT = [1, 2, 3, 4, 6, 9, 12]
SIGNED_MULT = [-6, -2, 0, 1, 3, 5]
AP_DENSE = [-1000 + 7 * i for i in range(600)]
AP_E4 = [31 + 3 * i for i in range(120)]
SPARSE = sorted(random.Random(5).sample(range(10**9), 400))
SPARSE_SMALL = sorted(random.Random(6).sample(range(10**6), 60))
SPARSE_TINY = SPARSE_SMALL[::4]
BIG_GRID = sorted(3 * 2 ** (64 + i) * 3**j for i in range(8) for j in range(8))
KP_RANDOM = sorted(random.Random(7).sample(range(5 * 10**5), 18))
KP_AP_UNION = sorted(set(random.Random(8).sample(range(5 * 10**5), 10)) | {1000 + 37 * i for i in range(10)})
DECOMPOSE_SET = sorted({7 * 2**i * 3**j for i in range(5) for j in range(5)} | {7 * v for v in range(1, 17)})
KP_MULT_GRID = sorted(2**i * 3**j for i in range(5) for j in range(4))
KP_MULT_SIGNED = [-12, -6, -4, -3, -2, -1, 0, 1, 2, 3, 4, 6, 8, 12]
# 5^20 > 2^46, so every q_2 value of these sets is above 2^92
KP_MULT_BIG_GRID = [5**20 * v for v in KP_MULT_GRID]
DECOMPOSE_BIG_GRID = [5**20 * v for v in DECOMPOSE_SET]
SIGNED_NONZERO = [-9, -6, -2, 1, 3, 5, 10]
# one side below 2^62, one above, and negatives: the quotient keys span both
QUOTIENT_WIDE = sorted([-(2**63) - 5, -7, 3, 2**61 + 1, 2**62 + 3] + BIG_GRID[:6])
# r_2 has counts 1 and 2, so E_4 = sum r_4^2 squares a weighted operand
E4_RANDOM = sorted(random.Random(9).sample(range(10**6), 40))
# both sign parts run and 0 goes to C; the negative part ends on a
# small-set stop, the positive part on an energy stop
DECOMPOSE_SIGNED = [-48, -24, -16, -12, -8, -6, -4, -3, -2, -1, 0, 5, 10, 15, 20, 25, 30, 35, 40]
# both sign parts are extracted down to an empty residual
DECOMPOSE_SIGNED_GRID = sorted(
    {s * 2**i * 3**j for s in (1, -1) for i in range(4) for j in range(3)} | {0} | set(range(1, 9))
)
# 7^25 > 2^70: every q_s value is past 2^62, over the base {2, 3, 5, 7^25}
DILATED_235 = sorted(7**25 * 2**i * 3**j * 5**k for i in range(3) for j in range(3) for k in range(3))
# the dilation 6 shares its primes with the grid and 6*[16] brings in 5, 7,
# 11 and 13, so a coprime base must split 6 into 2 and 3
KP_SPLIT_C = sorted({6 * 2**i * 3**j for i in range(5) for j in range(5)} | {6 * v for v in range(1, 17)})
# q_3 values reach 2^88
KP_S6_GRID = sorted(5**10 * 2**i * 3**j for i in range(4) for j in range(3))
# 35 = 5 * 7 shares 5 with the grid; q_4 of the pipeline passes 2^62
DECOMPOSE_35 = sorted({35 * 3**i * 5**j for i in range(5) for j in range(5)} | {35 * v for v in range(1, 17)})
# 30 random values near 2^40: a wide coprime base, so the value path runs
WIDE_BASE = sorted(random.Random(11).sample(range(2**40, 2**40 + 2**36), 30))
# -2^63 is the least int64, and its negation is not one
INT64_MIN = [-(2**63), 0, 5]
# A - A holds +-10^k, +-(10^k - 1) and +-(2^63 - 1): every decimal digit
# count from 1 to 19, with either sign
DIGIT_COUNTS = [0, 7] + [10**k for k in range(19)] + [2**63 - 1]


def _energy(values, s, mode="add", oracle=False):
    argv = ["energy", "--s", str(s), "--mode", mode] + (["--oracle"] if oracle else [])
    return argv, values


def _sumset(values, m, n, mode="add"):
    return ["sumset", "--m", str(m), "--n", str(n), "--mode", mode], values


CASES = {
    "energy-add-s2-oracle": _energy(SMALL_ADD, 2, oracle=True),
    "energy-add-s3-oracle": _energy(SMALL_ADD, 3, oracle=True),
    "energy-add-s4-oracle": _energy([-2, 0, 1, 4, 9], 4, oracle=True),
    "energy-mult-s2-oracle": _energy(SMALL_MULT, 2, "mult", oracle=True),
    "energy-mult-s3-oracle": _energy(SIGNED_MULT, 3, "mult", oracle=True),
    "energy-mult-s4-oracle": _energy([1, 2, 3, 5, 6], 4, "mult", oracle=True),
    "energy-dense-ap-s2": _energy(AP_DENSE, 2),
    "energy-dense-ap-s4": _energy(AP_E4, 4),
    "energy-dense-interval-mult-s2": _energy(list(range(1, 301)), 2, "mult"),
    "energy-sparse-s2": _energy(SPARSE, 2),
    "energy-sparse-s3": _energy(SPARSE_SMALL, 3),
    "energy-sparse-mult-s2": _energy(SPARSE, 2, "mult"),
    "energy-grid-above-2^63-mult": _energy(BIG_GRID, 2, "mult"),
    "energy-grid-above-2^63-add": _energy(BIG_GRID, 2),
    "energy-overflow-guard": _energy([1, 2, 3], 64),
    "sumset-3A": _sumset(SMALL_ADD, 3, 0),
    "sumset-3A-ap": _sumset(AP_DENSE[:100], 3, 0),
    "sumset-2A-2A": _sumset(SMALL_ADD, 2, 2),
    "sumset-2A-A": _sumset(SPARSE_TINY, 2, 1),
    "sumset-0A-2A": _sumset(SMALL_ADD, 0, 2),
    "sumset-A/A": _sumset(SMALL_MULT, 1, 1, "mult"),
    "sumset-AA-signed": _sumset(SIGNED_MULT, 2, 0, "mult"),
    "sumset-AA-grid": _sumset(BIG_GRID[:20], 2, 0, "mult"),
    "sumset-0A/2A-mult": _sumset(SIGNED_NONZERO, 0, 2, "mult"),
    "sumset-AA/A-signed": _sumset(SIGNED_NONZERO, 2, 1, "mult"),
    "sumset-A/A-above-2^62": _sumset(QUOTIENT_WIDE, 1, 1, "mult"),
    "sumset-0A-A-int64-min": _sumset(INT64_MIN, 0, 1),
    "sumset-A-A-int64-min": _sumset(INT64_MIN, 1, 1),
    "sumset-A-A-digit-counts": _sumset(DIGIT_COUNTS, 1, 1),
    "energy-random-s4": _energy(E4_RANDOM, 4),
    "kp-verify-random": (["kp", "--s", "4", "--delta", "0.05", "--verify"], KP_RANDOM),
    "kp-verify-ap-union": (["kp", "--s", "4", "--delta", "0.05", "--verify"], KP_AP_UNION),
    "kp-mult-grid": (["kp", "--s", "4", "--energy-mode", "mult", "--verify"], KP_MULT_GRID),
    "kp-mult-signed": (["kp", "--s", "4", "--energy-mode", "mult"], KP_MULT_SIGNED),
    "kp-mult-grid-above-2^63": (["kp", "--s", "4", "--energy-mode", "mult", "--verify"], KP_MULT_BIG_GRID),
    "kp-paper-energy-branch": (["kp", "--s", "4", "--mode", "paper"], KP_RANDOM),
    "kp-paper-stages": (["kp", "--s", "4", "--mode", "paper", "--delta", "3.0", "--verify"], KP_RANDOM),
    "kp-s6": (["kp", "--s", "6", "--verify"], KP_RANDOM[:10]),
    "kp-s6-mult": (["kp", "--s", "6", "--energy-mode", "mult"], KP_MULT_GRID[:12]),
    "decompose": (["decompose", "--k", "1.5", "--s", "2", "--q", "4"], DECOMPOSE_SET),
    "decompose-mult-grid-above-2^63": (["decompose", "--k", "1.5", "--s", "2", "--q", "4"], DECOMPOSE_BIG_GRID),
    "decompose-signed-zero": (["decompose", "--k", "1.5", "--s", "2", "--q", "4"], DECOMPOSE_SIGNED),
    "decompose-signed-grid": (["decompose", "--k", "1.5", "--s", "2", "--q", "4"], DECOMPOSE_SIGNED_GRID),
    "decompose-exhaustive": (
        ["decompose", "--k", "1.5", "--s", "2", "--q", "4", "--extractor", "exhaustive"],
        [1, 2, 3, 4, 5, 8, 16, 32, 64, 128],
    ),
    # 20 elements are past the exhaustive cap: the extraction fails, exit 1
    "decompose-extract-failed": (
        ["decompose", "--k", "1.5", "--s", "2", "--q", "4", "--extractor", "exhaustive"],
        [2**i for i in range(20)],
    ),
    "energy-singleton": _energy([42], 2),
    "energy-mult-s3-dilated": _energy(DILATED_235, 3, "mult"),
    "energy-mult-s4-dilated": _energy(DILATED_235, 4, "mult"),
    "kp-mult-split-c": (["kp", "--s", "4", "--energy-mode", "mult", "--verify"], KP_SPLIT_C),
    "kp-s6-mult-grid-above-2^62": (["kp", "--s", "6", "--energy-mode", "mult"], KP_S6_GRID),
    "decompose-35-grid": (["decompose", "--k", "1.5", "--s", "2", "--q", "4"], DECOMPOSE_35),
    "energy-mult-wide-base": _energy(WIDE_BASE, 2, "mult"),
    "kp-mult-wide-base": (["kp", "--s", "4", "--energy-mode", "mult"], WIDE_BASE),
    "check-all": (["check", "--suite", "all", "--cases", "2"], None),
    "check-hld3": (["check", "--suite", "hld3", "--cases", "3"], None),
    "check-war2": (["check", "--suite", "war2", "--cases", "3"], None),
    "constants-rtp-k2": (["constants", "rtp", "--k-int", "2"], None),
    "constants-rtp-k3": (["constants", "rtp", "--k-int", "3"], None),
    "constants-gemn": (["constants", "gemn"], None),
    "constants-gemn-k1.5-q4": (["constants", "gemn", "--k", "1.5", "--q", "4"], None),
    # q = 6: Lambda is irrational, l an integer
    "constants-gemn-k1.5-q6": (["constants", "gemn", "--k", "1.5", "--q", "6"], None),
    "constants-eric": (["constants", "eric"], None),
    "constants-eric-b45-m2": (["constants", "eric", "--b", "45", "--m", "2"], None),
    # log2_s2 = 9607: U1 = 500 * 2^9607 is only ever held as an mpf
    "constants-eric-b31-m40": (["constants", "eric", "--b", "31", "--m", "40"], None),
    "constants-thrt": (["constants", "thrt"], None),
    "constants-thrt-crossing": (["constants", "thrt", "--lambda0", "0.9999"], None),
    "constants-thrt-k3-s16": (["constants", "thrt", "--k-int", "3", "--s", "16", "--lambda0", "1.5"], None),
    "constants-com2": (["constants", "com2"], None),
    "constants-com2-n256": (["constants", "com2", "--n-int", "256", "--c", "0.25", "--Cc", "2"], None),
    "experiment-warren-squares": (["experiment", "warren-squares"], None),
    "experiment-ap-gp-mix": (["experiment", "ap-gp-mix"], None),
    "experiment-zero-obstruction": (["experiment", "zero-obstruction"], None),
}


def run_case(argv, values):
    """Exit code and stdout of one CLI call, its input (if any) on stdin."""
    if values is not None:
        argv = argv + ["-"]
    stdin = io.StringIO("" if values is None else " ".join(str(v) for v in values) + "\n")
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = stdin
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_corpus_is_complete(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, golden):
    code, out = run_case(*CASES[name])
    assert code == golden[name]["code"]
    assert out == golden[name]["stdout"]


VERDICT_KEYS = ("holds", "branch", "A_prime", "B", "C", "failed", "failures")


def _verdicts(doc, path=""):
    """(path, value) of every verdict key anywhere in a JSON report."""
    if isinstance(doc, dict):
        items = sorted(doc.items())
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return []
    found = []
    for key, value in items:
        if key in VERDICT_KEYS:
            found.append((f"{path}/{key}", value))
        found.extend(_verdicts(value, f"{path}/{key}"))
    return found


@pytest.mark.parametrize("bits", ["64", "1024"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_verdicts_do_not_depend_on_the_precision(name, bits, golden, monkeypatch, capsys):
    # the golden reports are taken at the default 256 bits; at any other
    # precision a case gives the same exit code and verdicts, or refuses
    monkeypatch.setenv("ENERGIA_PRECISION_BITS", bits)
    code, out = run_case(*CASES[name])
    if code == 3 and golden[name]["code"] != 3:
        assert "ENERGIA_PRECISION_BITS" in capsys.readouterr().err  # a PrecisionError
        return
    assert code == golden[name]["code"]
    want = golden[name]["stdout"]
    assert _verdicts(json.loads(out) if out else None) == _verdicts(json.loads(want) if want else None)


@pytest.mark.parametrize("name, m, n", [("sumset-0A-A-int64-min", 0, 1), ("sumset-A-A-int64-min", 1, 1)])
def test_int64_min_reports_match_python_sets(name, m, n, golden):
    plus = {sum(t) for t in product(INT64_MIN, repeat=m)} if m else {0}
    minus = {sum(t) for t in product(INT64_MIN, repeat=n)}
    want = sorted({p - q for p in plus for q in minus})
    results = json.loads(golden[name]["stdout"])["results"]
    assert results["values"] == [str(v) for v in want]
    assert results["size"] == len(want)


def capture(names=()):
    """Run the named cases (all when none are named) and store their output;
    every other entry of the corpus keeps its bytes."""
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        raise SystemExit(f"unknown cases: {', '.join(unknown)}")
    result = json.loads(GOLDEN.read_text()) if names and GOLDEN.exists() else {}
    for name in names or CASES:
        code, out = run_case(*CASES[name])
        result[name] = {"code": code, "stdout": out}
    GOLDEN.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    capture(sys.argv[1:])
