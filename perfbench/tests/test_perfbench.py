"""Self-test of the benchmark at small sizes.

    python3 -m pytest perfbench/tests -q

Runs from the root of a checkout; imports the package from ``src``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


@pytest.fixture
def tiny(monkeypatch):
    """One pass of the smallest job of each kind, and one setup sample."""
    build = workloads.build
    monkeypatch.setattr(workloads, "build", lambda *args: workloads.smallest_per_kind(build(*args)))
    monkeypatch.setattr(run, "min_passes", lambda *args: 1)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_runs_clean_and_prints_its_metrics(workload, capsys, tiny):
    rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", "0"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert rc == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(END_TO_END)
    for name, unit in END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert any(line.startswith(f"{name} ") and f" {unit}" in line for line in lines[:-1])
    assert any(line.startswith("fail_ratio 0 ratio") for line in lines)


def test_traced_run_reports_every_per_layer_metric(capsys, tiny):
    rc = run.main(["--workload", "kp-extract", "--seed", "3", "--seconds", "0.01", "--trace", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    per_layer = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert rc == 0 and result["correct"]
    assert sorted(result["metrics"]) == sorted(per_layer)
    assert result["metrics"]["bsg.bsg_extract.calls"]["value"] > 0


def test_latency_percentiles_pool_the_whole_passes():
    jobs_per_pass, pct = 17, 90
    passes = [[float(i) for i in range(jobs_per_pass)]] * run.min_passes(jobs_per_pass, pct) + [[99.0]]
    jobs_per_s, p50, tail, n = run.timings(passes, pct)
    assert n == jobs_per_pass * (len(passes) - 1) and n * (100 - pct) / 100 >= 10
    assert (p50, tail) == (8.0, 15.0)
    assert jobs_per_s == jobs_per_pass / sum(range(jobs_per_pass))  # per-job medians; job 0's is 0


def test_same_seed_gives_same_jobs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    strip = lambda jobs: [(j["kind"], j["argv"][:-1], j["expect"], j.get("elements")) for j in jobs]  # noqa: E731
    assert strip(workloads.build("certify-mix", 5, a)) == strip(workloads.build("certify-mix", 5, b))


@pytest.fixture
def energy_job(tmp_path):
    elements = [0, 1, 3, 7, 12, 20]
    job = {"kind": "E2", "argv": ["energy", "--s", "2"], "expect": {}, "elements": [str(v) for v in elements]}
    path = tmp_path / "in.txt"
    path.write_text(" ".join(map(str, elements)))
    job["argv"].append(str(path))
    job["expect"]["count"] = str(workloads.reference_energy(elements, 2, "add"))
    return job


def test_off_by_one_energy_count_is_a_failed_job(energy_job):
    import energia.cli as cli

    _, rc, text = worker.run_job(cli, energy_job)
    assert worker.check_output(energy_job, rc, text, {}, 0) is None
    report = json.loads(text)
    report["results"]["count"] = str(int(report["results"]["count"]) + 1)
    assert "reference" in worker.check_output(energy_job, rc, json.dumps(report), {}, 0)

    energy_job["expect"]["count"] = str(int(energy_job["expect"]["count"]) + 1)
    res = worker.closed_loop(cli, [energy_job], seconds=0, min_passes=1)
    assert res["attempted"] == 1 and len(res["failures"]) == 1


def test_reference_energies_match_literal_counts():
    A = [-4, 0, 1, 5, 9, 10]
    for s in (2, 3, 4):
        sums = {}
        for idx in range(len(A) ** s):
            t, v = idx, 0
            for _ in range(s):
                t, r = divmod(t, len(A))
                v += A[r]
            sums[v] = sums.get(v, 0) + 1
        assert workloads.reference_energy(A, s, "add") == sum(c * c for c in sums.values())
    big = [2**70 * 3**j for j in range(5)]
    prods = {}
    for a in big:
        for b in big:
            prods[a * b] = prods.get(a * b, 0) + 1
    assert workloads.reference_energy(big, 2, "mult") == sum(c * c for c in prods.values())


def test_tracer_rebinds_names_imported_by_other_modules():
    import importlib

    checks = importlib.import_module("energia.checks")
    energy = importlib.import_module("energia.energy")
    from energia.sets import IntSet

    original = energy.energy
    t = tracing.Tracer()
    t.install()
    try:
        assert checks.energy is energy.energy is not original
        checks.check_csref(IntSet([1, 2, 4]), 2)
    finally:
        t.uninstall()
    assert checks.energy is energy.energy is original
    names = [span[0] for span in t.spans]
    assert "checks.check_csref" in names and "energy.rep_function" in names
    assert tracing.missing_spans(t.spans, ["checks.check_csref", "bsg.bsg_extract"]) == ["bsg.bsg_extract"]
    for name, start, end, parent, _, self_ns, _ in t.spans:
        assert 0 <= self_ns <= end - start


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "energy-dense", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
