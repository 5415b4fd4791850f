"""The sumset report's array encoder against ``str`` and ``json.dumps``.

``cli._json_strings`` writes the JSON list of a fold's values straight
from its int64 arrays.  These tests hold it to the text ``json.dumps``
makes of one ``str`` per value, and hold ``energia sumset`` to the
report the CLI wrote that way: ``reference_sumset_stdout`` below.
"""

import contextlib
import io
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from energia import cli
from energia.energy import ADDITIVE
from energia.sets import IntSet, iterated_product_set, iterated_sumset

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
# 0, the int64 ends and +-10^k, +-(10^k - 1): every digit count, either sign
INT64_EDGES = sorted(
    {0, INT64_MIN, INT64_MAX}
    | {s * 10**k for k in range(19) for s in (1, -1)}
    | {s * (10**k - 1) for k in range(1, 19) for s in (1, -1)}
)
int64s = st.one_of(st.sampled_from(INT64_EDGES), st.integers(INT64_MIN, INT64_MAX))


def reference_sumset_stdout(argv, values):
    """The stdout of ``energia sumset`` written with one ``str`` per value
    of the fold's set and one ``json.dumps`` of the whole report."""
    args = cli.build_parser().parse_args(argv)
    args._command_echo = " ".join(["energia"] + argv)
    A = IntSet(values)
    fold = iterated_sumset if cli._MODES[args.mode] == ADDITIVE else iterated_product_set
    out = fold(A, args.m, args.n)
    results = {"input_digest": cli._digest(A), "m": args.m, "n": args.n, "size": len(out), "values": [str(v) for v in out]}
    return json.dumps(cli._report(args, results), sort_keys=True, default=str) + "\n"


@settings(max_examples=300, deadline=None)
@given(values=st.lists(int64s, min_size=1, max_size=40, unique=True).map(sorted))
def test_integers_encode_as_json_dumps_of_str(values):
    # a fold's values: sorted and distinct
    got = cli._json_strings(np.array(values, dtype=np.int64))
    assert got == json.dumps([str(v) for v in values])


@settings(max_examples=300, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(int64s, st.one_of(st.just(1), st.integers(1, INT64_MAX), st.sampled_from(INT64_EDGES[-19:]))),
        min_size=1,
        max_size=40,
    )
)
def test_fractions_encode_as_json_dumps_of_str(pairs):
    # reduced, distinct and sorted by value, as the quotient arrays are;
    # denominators 1 and > 1 mix
    fractions = sorted({Fraction(p, q) for p, q in pairs})
    num = np.array([f.numerator for f in fractions], dtype=np.int64)
    den = np.array([f.denominator for f in fractions], dtype=np.int64)
    assert cli._json_strings(num, den) == json.dumps([str(f) for f in fractions])


def test_edges_encode_in_one_array():
    values = np.array(INT64_EDGES, dtype=np.int64)
    assert cli._json_strings(values) == json.dumps([str(v) for v in INT64_EDGES])
    ones = np.ones(len(values), dtype=np.int64)
    assert cli._json_strings(values, ones) == json.dumps([str(v) for v in INT64_EDGES])


def test_object_arrays_take_str():
    big = [-(2**70), -5, 0, 2**63, 3**50]
    assert cli._json_strings(np.array(big, dtype=object)) == json.dumps([str(v) for v in big])
    num = np.array([-(2**70), 1, 7], dtype=object)
    den = np.array([3, 1, 2**64], dtype=object)
    assert cli._json_strings(num, den) == json.dumps(["-1180591620717411303424/3", "1", f"7/{2**64}"])


CASES = [
    (["--m", "1", "--n", "0"], [5]),
    (["--m", "0", "--n", "1"], [5]),
    (["--m", "0", "--n", "2"], [-7, -3, 0, 1, 2, 5, 8, 13]),
    (["--m", "2", "--n", "1"], [-(10**12), -7, 0, 3, 10**15]),
    (["--m", "1", "--n", "1"], [INT64_MIN, 0, 5]),  # object values
    (["--m", "2", "--n", "0"], [-(2**70), -3, 2**65]),  # object values
    (["--m", "1", "--n", "0", "--mode", "mult"], [5]),
    (["--m", "0", "--n", "1", "--mode", "mult"], [-7, 3, 5]),
    (["--m", "1", "--n", "1", "--mode", "mult"], [1, 2, 3, 4, 6, 9, 12]),
    (["--m", "2", "--n", "1", "--mode", "mult"], [-6, -2, 1, 3, 5]),
    (["--m", "2", "--n", "0", "--mode", "mult"], [-6, -2, 0, 1, 3, 5]),
    (["--m", "1", "--n", "1", "--mode", "mult"], [-INT64_MAX, -3, 2, INT64_MAX]),  # object keys, int64 quotients
    (["--m", "2", "--n", "1", "--mode", "mult"], [-(2**40), 3, 2**62 + 1]),  # object values
]


def _stdout(directory, argv, values):
    """``energia sumset`` on ``values`` written to a file: exit code,
    stdout, and the reference stdout."""
    path = directory / "in.txt"
    path.write_text(" ".join(map(str, values)))
    argv = ["sumset", *argv, str(path)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue(), reference_sumset_stdout(argv, values)


@pytest.mark.parametrize("argv, values", CASES)
def test_sumset_report_matches_the_reference(tmp_path, argv, values):
    code, out, want = _stdout(tmp_path, argv, values)
    assert code == 0 and out == want


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.one_of(st.integers(-60, 60), st.integers(-(2**64), 2**64)), min_size=1, max_size=6, unique=True),
    m=st.integers(0, 2),
    n=st.integers(0, 2),
    mode=st.sampled_from(["add", "mult"]),
)
def test_sumset_reports_of_random_sets(tmp_path_factory, values, m, n, mode):
    if m == n == 0 or (mode == "mult" and n and 0 in values):
        return
    argv = ["--m", str(m), "--n", str(n), "--mode", mode]
    code, out, want = _stdout(tmp_path_factory.mktemp("sumset"), argv, values)
    assert code == 0 and out == want


# run centres: every +-10^k edge, and both sides of 2^32, where magnitudes
# leave uint32
CENTRES = sorted(set(INT64_EDGES) | {s * (2**32 + d) for s in (1, -1) for d in (-1, 0, 1)})


@settings(max_examples=150, deadline=None)
@given(runs=st.lists(st.tuples(st.sampled_from(CENTRES), st.integers(0, 60), st.integers(0, 60)), min_size=1, max_size=35))
def test_sorted_runs_across_every_edge_encode_as_json_dumps_of_str(runs):
    # a fold's values: sorted and distinct, long runs of one digit count
    values = sorted({v for c, below, above in runs for v in range(max(c - below, INT64_MIN), min(c + above, INT64_MAX) + 1)})
    assert cli._json_strings(np.array(values, dtype=np.int64)) == json.dumps([str(v) for v in values])


@pytest.mark.parametrize(
    "values, m", [([-6, -2, 1, 3, 5], 2), ([2, 3, 10**6 + 7], 3), ([-(10**9), -1, 7, 2**31], 2), ([-3, 5, 2**31 + 1], 2)]
)
def test_product_sets_with_unit_denominators_encode_as_integers(values, m):
    out = iterated_product_set(IntSet(values), m, 0)
    num, den = out.arrays
    assert num.dtype == np.int64 and (den == 1).all()
    assert cli._json_strings(num, den) == json.dumps([str(v) for v in out])


def test_sorted_integer_lists_never_build_mask_rows(monkeypatch):
    calls = []
    decimal = cli._decimal
    monkeypatch.setattr(cli, "_decimal", lambda mag, shown: calls.append(len(mag)) or decimal(mag, shown))
    values = np.array(INT64_EDGES, dtype=np.int64)
    cli._json_strings(values)
    cli._json_strings(values, np.ones(len(values), dtype=np.int64))
    num, den = iterated_product_set(IntSet([-6, -2, 1, 3, 5]), 2, 0).arrays
    cli._json_strings(num, den)
    cli._json_strings(iterated_sumset(IntSet([-(10**12), -7, 0, 3, 10**15]), 2, 1).arrays[0])
    assert calls == []
    quotients = iterated_product_set(IntSet([-6, -2, 1, 3, 5]), 1, 1)
    num, den = quotients.arrays
    assert (den > 1).any()
    assert cli._json_strings(num, den) == json.dumps([str(f) for f in quotients])
    assert calls == [len(num), len(num)]  # numerators, then denominators


def test_sumset_report_of_55_random_points(tmp_path):
    rng = np.random.default_rng(55)
    values = sorted(rng.choice(10**6, size=55, replace=False).tolist())
    code, out, want = _stdout(tmp_path, ["--m", "2", "--n", "1"], values)
    assert code == 0 and out == want
