import argparse
import inspect
import json
import sys

import pytest

from energia import cli, errors, experiments
from energia.cli import build_parser, main
from energia.decomposer import certificates
from energia.energy import MULTIPLICATIVE, energy
from energia.experiments import EXPERIMENTS
from energia.sets import GENERATORS, IntSet, generate


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out.strip() else None, err


@pytest.fixture
def abc_file(tmp_path):
    p = tmp_path / "abc.txt"
    p.write_text("1 2 3\n")
    return str(p)


class TestEnergyCmd:
    def test_basic(self, capsys, abc_file):
        code, doc, _ = run_json(capsys, "energy", "--s", "2", abc_file)
        assert code == 0
        assert doc["schema"] == 1
        assert doc["results"]["count"] == "19"

    def test_oracle_flag(self, capsys, abc_file):
        code, doc, _ = run_json(capsys, "energy", "--s", "2", "--oracle", abc_file)
        assert code == 0 and doc["results"]["oracle_agrees"]

    def test_parse_error(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("x y")
        code, _, err = run(capsys, "energy", str(p))
        assert code == 2 and "parse error" in err

    def test_guard_violation(self, capsys, tmp_path):
        p = tmp_path / "big.txt"
        p.write_text(" ".join(str(v) for v in range(1, 9)))
        code, _, err = run(
            capsys, "energy", "--s", "4", "--oracle", "--guard-max-tuples", "1000", str(p)
        )
        assert code == 3 and "guard" in err

    @pytest.mark.parametrize("text", ["3 1 2 3\n", "[3, 1, 2, 3]"])
    def test_input_goes_through_the_intset_constructor(self, monkeypatch, tmp_path, text):
        # the benchmark's traced kp-extract run needs the span of IntSet.__init__,
        # which on that workload only the input set makes
        built = []
        init = IntSet.__init__
        monkeypatch.setattr(IntSet, "__init__", lambda self, values: built.append(self) or init(self, values))
        p = tmp_path / "in.txt"
        p.write_text(text)
        A = cli._read_input(str(p))
        assert len(built) == 1 and built[0] is A and list(A) == [1, 2, 3]

    def test_json_array_input(self, capsys, tmp_path):
        p = tmp_path / "arr.json"
        p.write_text("[3, 1, 2]")
        code, doc, _ = run_json(capsys, "energy", "--s", "2", str(p))
        assert code == 0 and doc["results"]["count"] == "19"
        # floats, booleans and strings are not silently read as ints, and
        # neither are underscores in either form
        for text in ("[1.5, 2.7, 3]", "[true, 2]", '["5", " 7", "1_000"]', '[5, "7"]', "[null]", "5 1_000"):
            p.write_text(text)
            code, out, err = run(capsys, "sumset", "--m", "1", str(p))
            assert code == 2 and out == "" and err.startswith("parse error:")

    @pytest.mark.parametrize("text", ["\u0663 5 7", "3 5 +7", "\uff11\uff12 5", "1 \u00b2", "7-", "--7"])
    def test_whitespace_form_takes_only_ascii_integers(self, capsys, tmp_path, text):
        # int() would read the Arabic-Indic three, the plus sign and the full-width 12
        p = tmp_path / "bad.txt"
        p.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "sumset", "--m", "1", str(p))
        assert code == 2 and out == "" and err.startswith("parse error:")

    @pytest.mark.parametrize("text", ["", " \n\t", '{"A": [1, 2]}', "[[1, 2]]"])
    def test_empty_input_and_json_objects_are_parse_errors(self, capsys, tmp_path, text):
        p = tmp_path / "bad.txt"
        p.write_text(text)
        code, out, err = run(capsys, "sumset", "--m", "1", str(p))
        assert code == 2 and out == "" and err.startswith("parse error:")

    def test_undecodable_input_is_a_parse_error(self, capsys, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"\xff 1 2")
        code, out, err = run(capsys, "sumset", "--m", "1", str(p))
        assert code == 2 and out == "" and err.startswith("parse error:")

    def test_whitespace_form_takes_signed_integers(self, capsys, tmp_path):
        p = tmp_path / "ok.txt"
        p.write_text("-7 0\n12\t-007")
        code, doc, _ = run_json(capsys, "sumset", "--m", "1", str(p))
        assert code == 0 and doc["results"]["values"] == ["-7", "0", "12"]


class TestSumsetCmd:
    def test_basic(self, capsys, abc_file):
        code, doc, _ = run_json(capsys, "sumset", "--m", "2", "--n", "0", abc_file)
        assert code == 0
        assert doc["results"]["values"] == ["2", "3", "4", "5", "6"]

    def test_multiplicative(self, capsys, abc_file):
        code, doc, _ = run_json(capsys, "sumset", "--m", "1", "--n", "1", "--mode", "mult", abc_file)
        assert code == 0 and "1" in doc["results"]["values"]


    @pytest.mark.parametrize("m, n", [(0, 1), (1, 1)])
    def test_least_int64(self, capsys, tmp_path, m, n):
        # -(-2^63) is not an int64: the sets must come out exact and sorted
        A = [-(2**63), 0, 5]
        path = tmp_path / "edge.txt"
        path.write_text(" ".join(map(str, A)))
        code, doc, _ = run_json(capsys, "sumset", "--m", str(m), "--n", str(n), str(path))
        plus = set(A) if m else {0}
        want = sorted({p - q for p in plus for q in A})
        assert code == 0 and doc["results"]["values"] == [str(v) for v in want]


class TestCheckCmd:
    def test_suite_passes(self, capsys):
        code, doc, _ = run_json(capsys, "check", "--suite", "csref", "--cases", "20", "--seed", "7")
        assert code == 0 and doc["results"]["failures"] == 0

    def test_all_suites_named(self, capsys):
        code, doc, _ = run_json(capsys, "check", "--suite", "all", "--cases", "1", "--seed", "1")
        names = {r["name"] for r in doc["results"]["reports"]}
        for expected in ("csref", "yoc", "yoc2", "mlpain", "hld3", "pr21", "zidt", "war2"):
            assert any(expected in n for n in names)

    def test_unknown_suite(self, capsys):
        code, out, err = run(capsys, "check", "--suite", "nope")
        assert code == 2 and out == "" and err == "parse error: unknown suite 'nope'\n"

    def test_negative_cases_is_a_parse_error(self, capsys):
        code, out, err = run(capsys, "check", "--suite", "csref", "--cases", "-3")
        assert code == 2 and out == "" and err == "parse error: --cases must be 0 or more, got -3\n"

    def test_zero_cases_is_an_empty_report(self, capsys):
        code, doc, _ = run_json(capsys, "check", "--suite", "csref", "--cases", "0")
        assert code == 0 and doc["results"]["cases"] == 0 and doc["results"]["reports"] == []


class TestKpCmd:
    def test_ap16(self, capsys, tmp_path):
        p = tmp_path / "ap.txt"
        p.write_text(" ".join(str(v) for v in range(1, 17)))
        code, doc, _ = run_json(capsys, "kp", "--s", "4", "--delta", "0.05", "--verify", str(p))
        assert code == 0
        assert doc["results"]["branch"] == "SubsetBranch"
        assert len(doc["results"]["A_prime"]) >= 8
        assert all(c["holds"] for c in doc["results"]["verify"])

    def test_csv_trace(self, capsys, tmp_path):
        p = tmp_path / "ap.txt"
        p.write_text(" ".join(str(v) for v in range(1, 17)))
        csv_path = tmp_path / "trace.csv"
        code, _, _ = run_json(capsys, "kp", "--csv", str(csv_path), str(p))
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "stage,cardinality,threshold"
        assert len(lines) > 5

    def test_verify_refuses_a_zero_in_A_prime(self, capsys, tmp_path):
        # the pipeline keeps 0 in A'; the product verify folds quotients of A'
        p = tmp_path / "zero.txt"
        p.write_text("0 1 2 3 5 8\n")
        argv = ["kp", "--s", "4", "--delta", "0.05", "--energy-mode", "mult"]
        code, doc, _ = run_json(capsys, *argv, str(p))
        assert code == 0 and "0" in doc["results"]["A_prime"]
        code, out, err = run(capsys, *argv, "--verify", str(p))
        assert code == 2 and out == ""
        assert err.startswith("parse error: --verify: A' holds 0") and err.count("\n") == 1


@pytest.mark.parametrize("cmd", ("kp", "decompose"))
def test_unwritable_csv_is_a_parse_error(capsys, tmp_path, cmd):
    p = tmp_path / "ap.txt"
    p.write_text(" ".join(str(v) for v in range(1, 17)))
    csv_path = tmp_path / "missing" / "trace.csv"
    code, out, err = run(capsys, cmd, "--csv", str(csv_path), str(p))
    assert code == 2 and out == ""
    assert err.startswith("parse error: cannot write --csv: ") and str(csv_path) in err and err.count("\n") == 1


class TestDecomposeCmd:
    def test_mix(self, capsys, tmp_path):
        vals = list(range(1, 33)) + [3**i for i in range(16)]
        p = tmp_path / "mix.txt"
        p.write_text(" ".join(str(v) for v in vals))
        code, doc, _ = run_json(
            capsys, "decompose", "--k", "1.2", "--s", "2", "--q", "4", "--mode", "calibrated", str(p)
        )
        assert code == 0
        res = doc["results"]
        assert res["certificates"]["B"]["holds"] and res["certificates"]["C"]["holds"]
        assert sorted(int(v) for v in res["B"] + res["C"]) == sorted(set(vals))

    @pytest.mark.parametrize("sign, zero, recounted", [(1, False, False), (-1, False, False), (1, True, True)])
    def test_C_count_comes_from_the_stop_report(self, capsys, tmp_path, monkeypatch, sign, zero, recounted):
        # one sign and no 0: C is the loop's residual, whose M_s the stop
        # report holds (M_s(-C) = M_s(C)), so the certificates compute only
        # B's energy
        from energia import decomposer

        calls = []

        def spied(*args):
            monkeypatch.setattr(decomposer, "energy", lambda A, s, mode: calls.append(mode) or energy(A, s, mode))
            return certificates(*args)

        monkeypatch.setattr(cli, "certificates", spied)
        vals = [sign * v for v in [1, 2, 3, 4, 5, 8, 16, 32, 64, 128]] + ([0] if zero else [])
        p = tmp_path / "set.txt"
        p.write_text(" ".join(str(v) for v in vals))
        code, doc, _ = run_json(capsys, "decompose", "--k", "1.5", "--extractor", "exhaustive", str(p))
        res = doc["results"]
        C = IntSet(int(v) for v in res["C"])
        assert code == 0 and len(C) > 1
        assert res["certificates"]["C"]["count"] == str(energy(C, 2, MULTIPLICATIVE).count)
        assert calls.count(MULTIPLICATIVE) == int(recounted)

    def test_csv_trace(self, capsys, tmp_path):
        vals = list(range(1, 33)) + [3**i for i in range(16)]
        p = tmp_path / "mix.txt"
        p.write_text(" ".join(str(v) for v in vals))
        csv_path = tmp_path / "trace.csv"
        code, doc, _ = run_json(capsys, "decompose", "--k", "2", "--csv", str(csv_path), str(p))
        trace = doc["results"]["trace"]
        assert code == 0 and len(trace) == 2  # at k = 2 the loop extracts twice
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "iteration,size,report,holds,threshold"
        rows = [f"{i},{len(t['D'])},{t['report']['name']},{t['report']['holds']},{t['threshold']}" for i, t in enumerate(trace)]
        assert lines[1:] == rows

    def test_unknown_extractor(self, capsys, tmp_path):
        # rejected even where no extraction would run: {0} has nothing to extract
        p = tmp_path / "zero.txt"
        p.write_text("0\n")
        code, out, err = run(capsys, "decompose", "--extractor", "bogus", str(p))
        assert code == 2 and out == ""
        assert err.startswith("parse error: unknown extractor 'bogus'")


class TestConstantsCmd:
    def test_rtp(self, capsys):
        code, doc, _ = run_json(capsys, "constants", "rtp", "--k-int", "2")
        assert code == 0 and doc["results"]["values"]["T_k"] == "2412"

    def test_gemn(self, capsys):
        code, doc, _ = run_json(capsys, "constants", "gemn", "--k", "1", "--q", "2")
        assert doc["results"]["values"]["Lambda"] == "31"
        assert doc["results"]["values"]["l"] == "37200"

    def test_com2(self, capsys):
        code, doc, _ = run_json(capsys, "constants", "com2", "--n-int", "16", "--c", "0.5", "--Cc", "1")
        assert doc["results"]["values"]["budget"] == 21
        assert doc["results"]["values"]["within_budget"]


@pytest.mark.parametrize(
    "argv, name",
    [
        (["kp", "--delta", "nan"], "delta"),
        (["decompose", "--k", "inf"], "k"),
        (["constants", "gemn", "--k", "nan"], "k"),
        (["constants", "com2", "--c", "nan"], "c"),
        (["constants", "thrt", "--lambda0", "nan"], "Lambda0"),
    ],
)
def test_non_finite_parameters_are_errors(capsys, abc_file, argv, name):
    if argv[0] != "constants":
        argv = argv + [abc_file]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"parse error: {name} must be finite") and "Traceback" not in err


class TestGenCmd:
    def test_mixed(self, capsys):
        code, out, _ = run(capsys, "gen", "mixed", "--n", "3")
        assert code == 0 and json.loads(out) == [1, 2, 3, 9, 27]

    def test_round_trip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "gen", "ap", "--start", "2", "--step", "3", "--n", "5")
        p = tmp_path / "gen.json"
        p.write_text(out)
        code2, doc, _ = run_json(capsys, "energy", "--s", "2", str(p))
        assert code2 == 0 and doc["results"]["s"] == 2

    def test_every_offered_kind_builds_from_its_flags(self, capsys):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        kinds = next(a for a in sub.choices["gen"]._actions if a.dest == "kind").choices
        flags = {"start": 2, "step": 3, "ratio": 3, "k": 2, "n": 4}
        for kind in kinds:
            params = {p: flags[p] for p in inspect.signature(GENERATORS[kind]).parameters if p in flags}
            argv = [arg for p, v in params.items() for arg in (f"--{p}", str(v))]
            code, out, err = run(capsys, "gen", kind, *argv)
            assert (code, err) == (0, "") and json.loads(out) == list(generate(kind, **params))


class TestExperiments:
    def test_warren_squares(self, capsys):
        code, doc, _ = run_json(capsys, "experiment", "warren-squares")
        assert code == 0 and doc["results"]["report"]["holds"]

    def test_ap_gp_mix(self, capsys):
        code, doc, _ = run_json(capsys, "experiment", "ap-gp-mix")
        assert code == 0 and doc["results"]["holds"]

    def test_ap_gp_mix_counts_C_once(self, capsys, monkeypatch):
        # the input is positive, so M_2(C) comes from the decomposition's
        # stop report; every residual has its own size, so C is the one
        # multiplicative energy argument of |C| elements
        from energia import cli, decomposer

        calls = []

        def spy(A, s, mode):
            calls.append((len(A), mode))
            return energy(A, s, mode)

        monkeypatch.setattr(cli, "energy", spy)
        monkeypatch.setattr(decomposer, "energy", spy)
        code, doc, _ = run_json(capsys, "experiment", "ap-gp-mix")
        res = doc["results"]
        assert code == 0 and res["M2_C"] == "8760"
        assert calls.count((res["C_size"], MULTIPLICATIVE)) == 1

    def test_zero_obstruction(self, capsys):
        code, doc, _ = run_json(capsys, "experiment", "zero-obstruction")
        assert code == 0
        assert int(doc["results"]["mixed_mult_energy"]) >= 121
        assert doc["results"]["guard_fired"]

    def test_zero_obstruction_counts_only_the_zero_guard(self, capsys, monkeypatch):
        # a defect in the Hölder check is an error, not the zero guard firing
        def defect(sets, mode):
            raise errors.InvariantError("defect")

        monkeypatch.setattr(experiments, "check_holder_mixed", defect)
        code, out, err = run(capsys, "experiment", "zero-obstruction")
        assert (code, out, err) == (1, "", "error: defect\n")

    def test_choices_are_the_table(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        names = next(a for a in sub.choices["experiment"]._actions if a.dest == "name").choices
        assert names == tuple(EXPERIMENTS)

    def test_unknown_name_is_refused(self, capsys):
        code, out, err = run(capsys, "experiment", "nope")
        assert (code, out) == (2, "")
        assert err == (
            "parse error: argument name: invalid choice: 'nope' "
            "(choose from 'warren-squares', 'ap-gp-mix', 'zero-obstruction')\n"
        )

    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_function_is_the_report(self, capsys, name):
        results, holds = EXPERIMENTS[name]()
        assert type(results) is dict and type(holds) is bool
        code, doc, _ = run_json(capsys, "experiment", name)
        assert doc["results"] == {"experiment": name, **results}
        assert code == (0 if holds else 1)


@pytest.mark.parametrize(
    "argv",
    [("energy", "--s", "2"), ("sumset", "--m", "2"), ("check", "--suite", "war2", "--cases", "2"), ("constants", "rtp")],
)
def test_timing_adds_only_the_wall_time(capsys, abc_file, argv):
    argv = argv + (abc_file,) if argv[0] in ("energy", "sumset") else argv
    code, plain, _ = run_json(capsys, *argv)
    timed_code, timed, _ = run_json(capsys, "--timing", *argv)
    wall = timed.pop("wall_time_s")
    assert code == timed_code == 0 and isinstance(wall, float) and wall >= 0
    assert timed.pop("command") == "energia --timing " + plain.pop("command")[len("energia ") :]
    assert timed == plain


def test_determinism_byte_identical(capsys, abc_file):
    _, out1, _ = run(capsys, "energy", "--s", "2", abc_file)
    _, out2, _ = run(capsys, "energy", "--s", "2", abc_file)
    assert out1 == out2
    _, c1, _ = run(capsys, "check", "--suite", "yoc", "--cases", "5", "--seed", "3")
    _, c2, _ = run(capsys, "check", "--suite", "yoc", "--cases", "5", "--seed", "3")
    assert c1 == c2


# -- exit-code contract ------------------------------------------------------

SET8 = "1 2 3 4 5 6 7 8"

# (argv, input text or None, environment): every refusal of an input or
# a configuration exits 2 with one "parse error:" line and no report
REFUSALS = [
    (("energy", "--s", "0"), SET8, {}),
    (("sumset", "--m", "-1"), SET8, {}),
    (("sumset", "--m", "0", "--n", "0"), SET8, {}),
    (("sumset", "--mode", "mult", "--n", "1"), "0 1 2", {}),
    (("kp", "--s", "5"), SET8, {}),
    (("kp", "--delta", "-1"), SET8, {}),
    (("kp",), "[5]", {}),
    (("decompose", "--q", "0"), SET8, {}),
    (("decompose", "--k", "-1"), SET8, {}),
    (("decompose", "--s", "66"), SET8, {}),
    (("decompose", "--extractor", "nope"), SET8, {}),
    (("constants", "com2", "--n-int", "0"), None, {}),
    (("constants", "gemn", "--q", "3"), None, {}),
    (("constants", "thrt", "--s", "7"), None, {}),
    (("constants", "rtp", "--k-int", "1"), None, {}),
    (("energy",), "[]", {}),
    (("sumset",), "[]", {}),
    (("kp",), "[]", {}),
    (("decompose",), "[]", {}),
    (("energy",), "", {}),
    (("gen", "ap", "--start", "1", "--step", "1", "--n", "0"), None, {}),
    (("gen", "ap", "--n", "3"), None, {}),
    (("energy",), SET8, {"ENERGIA_PRECISION_BITS": "x"}),
    (("energy", "--s", "x"), SET8, {}),
    (("kp", "--delta", "abc"), SET8, {}),
    ((), None, {}),
]


def _run_case(capsys, monkeypatch, tmp_path, argv, text, env):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    if text is not None:
        p = tmp_path / "input.txt"
        p.write_text(text)
        argv = argv + (str(p),)
    return run(capsys, *argv)


@pytest.mark.parametrize(
    "argv, text, env", REFUSALS, ids=[" ".join(a) + f" <{t}>" + "".join(f" {k}" for k in e) for a, t, e in REFUSALS]
)
def test_every_refusal_exits_2(capsys, monkeypatch, tmp_path, argv, text, env):
    code, out, err = _run_case(capsys, monkeypatch, tmp_path, argv, text, env)
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ") and err.count("\n") == 1 and "Traceback" not in err


# (argv, input text or None, environment): runs whose integers pass
# Python's default 4300-digit int/str limit, which the CLI lifts
LONG_INTEGERS = [
    (("gen", "powers", "--k", "3000", "--n", "100"), None, {}),
    (("gen", "mixed", "--n", "2000"), None, {}),
    (("constants", "rtp", "--k-int", "20000"), None, {}),
    (("constants", "thrt", "--k-int", "2000", "--s", "1048576"), None, {}),
]


@pytest.mark.parametrize("argv, text, env", LONG_INTEGERS, ids=[" ".join(a) for a, _, _ in LONG_INTEGERS])
def test_long_integers_exit_0(capsys, monkeypatch, tmp_path, argv, text, env):
    limit = sys.get_int_max_str_digits()
    code, out, err = _run_case(capsys, monkeypatch, tmp_path, argv, text, env)
    assert (code, err) == (0, "") and out
    assert sys.get_int_max_str_digits() == limit  # lifted for the run only


def test_long_generated_set_round_trips(capsys, tmp_path):
    # the test's own json.loads would refuse 30**3000, of 4432 digits
    code, out, _ = run(capsys, "gen", "powers", "--k", "3000", "--n", "30")
    assert code == 0 and max(map(len, out.strip("[]\n").split(", "))) == 4432
    p = tmp_path / "powers.json"
    p.write_text(out)
    code, doc, _ = run_json(capsys, "energy", "--s", "2", str(p))
    assert code == 0 and doc["results"]["count"] == str(2 * 30**2 - 30)


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: energia")


@pytest.mark.parametrize(
    "argv, text",
    [
        (("energy", "--oracle", "--guard-max-tuples", "1"), SET8),
        (("energy", "--s", "13"), " ".join(str(v) for v in range(1, 31))),
    ],
)
def test_guards_exit_3(capsys, monkeypatch, tmp_path, argv, text):
    code, out, err = _run_case(capsys, monkeypatch, tmp_path, argv, text, {})
    assert (code, out) == (3, "")
    assert err.startswith("guard violation: ") and err.count("\n") == 1


def test_failed_extraction_exits_1_with_its_report(capsys, monkeypatch, tmp_path):
    # 20 elements are past the exhaustive extractor's cap
    argv = ("decompose", "--k", "1.5", "--s", "2", "--q", "4", "--extractor", "exhaustive")
    code, out, err = _run_case(capsys, monkeypatch, tmp_path, argv, " ".join(str(2**i) for i in range(20)), {})
    assert (code, err) == (1, "") and json.loads(out)["results"]["failed"]


@pytest.mark.parametrize("cls", [c for c in vars(errors).values() if isinstance(c, type) and c.__module__ == errors.__name__])
def test_each_error_class_exits_with_its_code(capsys, monkeypatch, abc_file, cls):
    def refuse(*args, **kwargs):
        raise cls("refused")

    monkeypatch.setattr(cli, "energy", refuse)
    code, out, err = run(capsys, "energy", abc_file)
    label = {1: "error", 2: "parse error", 3: "guard violation"}[cls.code]
    assert (code, out) == (cls.code, "") and err == f"{label}: {cls('refused')}\n"


MALFORMED = (
    ("energy", "--s", "x"),
    ("energy", "--mode", "sideways"),
    ("energy", "--timing"),
    ("energy", "--bogus", "1"),
    ("energy", "a.txt", "b.txt"),
    ("energy", "--s"),
    ("sumset", "--m", "2", "--n"),
    ("sumset", "--mode", "mul"),
    ("kp", "--delta", "nan", "--delta"),
    ("decompose", "--extractor"),
    ("constants",),
    ("constants", "pi"),
    ("gen", "hexagon"),
    ("gen", "ap", "--n", "1.5"),
    ("experiment",),
    ("experiment", "nope"),
    ("check", "--cases", "many"),
    ("energy", "-s", "2"),
)


@pytest.mark.parametrize("argv", MALFORMED)
def test_subcommand_parser_refuses_as_the_full_parser(capsys, monkeypatch, argv):
    # main parses a known subcommand with its own parser; with no command
    # table every line goes through the full parser, whose refusals these must equal
    fast = run(capsys, *argv)
    full = build_parser()
    full.commands = {}
    monkeypatch.setattr(cli, "_PARSER", full)
    assert fast == run(capsys, *argv)
    assert fast[0] == 2 and fast[2].startswith("parse error: ")


def test_subcommand_parser_gives_the_full_namespace(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "cmd_gen", lambda args: seen.append(vars(args)) or 0)
    for table in (True, False):
        parser = build_parser()
        parser.commands["gen"].set_defaults(fn=cli.cmd_gen)
        if not table:
            parser.commands = {}
        monkeypatch.setattr(cli, "_PARSER", parser)
        assert main(["gen", "ap", "--n", "3"]) == 0
    fast, full = ({k: v for k, v in ns.items() if k != "_t0"} for ns in seen)
    assert fast == full and fast["timing"] is False and fast["cmd"] == "gen"
