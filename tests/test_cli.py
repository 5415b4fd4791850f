import argparse
import inspect
import json

import pytest

from energia.cli import build_parser, main
from energia.energy import MULTIPLICATIVE, energy
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
        code, _, err = run(capsys, "check", "--suite", "nope")
        assert code == 2


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
        # report holds (M_s(-C) = M_s(C)), so only B's energy is computed
        from energia import cli

        calls = []
        monkeypatch.setattr(cli, "energy", lambda A, s, mode: calls.append(mode) or energy(A, s, mode))
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
        assert code == 1 and out == ""
        assert "unknown extractor 'bogus'" in err


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
    assert code == 1 and out == ""
    assert err.startswith(f"error: {name} must be finite") and "Traceback" not in err


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
