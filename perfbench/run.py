"""energia benchmark: seeded closed-loop CLI workloads.

    python3 perfbench/run.py --workload kp-extract --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
The command builds one pass of jobs from the seed (inputs plus reference
results, not timed), times a fresh interpreter importing ``energia.cli``
(``setup_s``), then starts ``worker.py`` as one closed-loop client that
repeats the pass for ``--seconds`` and checks every output.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes and reports the per-layer
metrics, ``trace.overhead`` and a span coverage check.  Human-readable
lines come first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything
the run writes goes under ``.perfbench_work/`` in the checkout.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

import workloads
from probe import scaled

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_SAMPLES = 11
END_TO_END_UNITS = {"jobs_per_s": "1/s", "job_p50_s": "s", "job_tail_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Run in a fresh interpreter: prints the import time of energia.cli and the
# host probe just before and after it (the first probe call warms up).
_IMPORT = f"""
import sys, time
sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
from probe import host_probe
host_probe()
before = host_probe()
t = time.perf_counter()
import energia.cli
wall = time.perf_counter() - t
print(wall, before, host_probe())
"""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "mpmath": metadata.version("mpmath"),
    }


def setup_seconds(env):
    """Median time for a fresh interpreter to import energia.cli, in
    reference-host and in wall-clock seconds.

    One discarded import first, so a fresh checkout's bytecode
    compilation is not counted.  Each interpreter times the host probe
    just before and after its import.
    """
    samples, walls = [], []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True
        )
        if i:
            wall, before, after = map(float, out.stdout.split())
            walls.append(wall)
            samples.append(scaled(wall, before, after))
    return statistics.median(samples), statistics.median(walls)


def min_passes(jobs_per_pass, pct):
    """Passes needed to leave at least ten jobs beyond percentile ``pct``."""
    return math.ceil(10 / (jobs_per_pass * (100 - pct) / 100))


def percentile(values, pct):
    """Linear interpolation between the order statistics around ``pct``."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def per_job_latency(passes):
    """Each job's median latency over the passes that reached it."""
    return [statistics.median(p[i] for p in passes if i < len(p)) for i in range(len(passes[0]))]


def timings(passes, pct):
    """jobs_per_s, job_p50_s, job_tail_s and the number of latency samples.

    jobs_per_s is the jobs of one pass over the sum of their per-job
    median latencies.  job_p50_s and job_tail_s are percentiles of every
    latency sample of the whole passes, so each job weighs the same and
    ``min_passes`` leaves ten samples beyond the tail percentile.
    """
    per_job = per_job_latency(passes)
    samples = [t for p in passes if len(p) == len(per_job) for t in p]
    return (len(per_job) / sum(per_job), statistics.median(samples), percentile(samples, pct), len(samples))


def end_to_end(res, setup, pct):
    """End-to-end metrics in reference-host seconds, and notes that give
    the sample counts and the same timings in wall-clock seconds."""
    names = ("jobs_per_s", "job_p50_s", "job_tail_s")
    *values, n = timings(res["untraced"], pct)
    metrics = dict(zip(names, values))
    walls = dict(zip(names, timings(res["raw"], pct)))
    metrics["setup_s"], walls["setup_s"] = setup
    metrics["peak_rss_mb"] = res["peak_rss_kb"] / 1024
    notes = {name: f"(wall clock {value:.6g})" for name, value in walls.items()}
    notes["job_p50_s"] += f" n={n}"
    notes["job_tail_s"] += f" p{pct} n={n} ({n * (100 - pct) / 100:g} samples beyond)"
    notes["setup_s"] += f" median of {SETUP_SAMPLES}"
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, notes


def main(argv=None):
    p = argparse.ArgumentParser(description="energia closed-loop CLI benchmark")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (SRC / "energia" / "cli.py").is_file():
        print(f"no energia source under {SRC}", file=sys.stderr)
        return 2

    env = child_env()
    pct = workloads.TAIL_PERCENTILE[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    jobdir = WORK / f"{tag}-{os.getpid()}"
    jobdir.mkdir(parents=True)
    try:
        jobs = workloads.build(args.workload, args.seed, jobdir)
        (jobdir / "jobs.json").write_text(json.dumps(jobs))
        setup_s = None if args.trace else setup_seconds(env)
        cmd = [
            sys.executable, str(Path(__file__).with_name("worker.py")),
            "--jobs", str(jobdir / "jobs.json"),
            "--out", str(jobdir / "result.json"),
            "--seconds", str(args.seconds),
            "--src", str(SRC),
            "--min-passes", str(min_passes(len(jobs), pct)),
        ]
        if args.trace:
            cmd += ["--spans", str(WORK / f"spans-{tag}.jsonl"), "--required", ",".join(workloads.CARRIES[args.workload])]
        subprocess.run(cmd, env=env, cwd=ROOT, timeout=170, check=True)
        res = json.loads((jobdir / "result.json").read_text())
    finally:
        shutil.rmtree(jobdir, ignore_errors=True)

    attempted, failed = res["attempted"], len(res["failures"])
    for why in res["failures"][:20]:
        print(f"FAILED {why}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(jobs)} jobs per pass, "
          f"{len(res['untraced']) + len(res['traced'])} passes, machine {json.dumps(machine())}")
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted})")
    correct = failed == 0
    if args.trace:
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in res["per_layer"].items()}
        overhead = timings(res["traced"], pct)[0] / timings(res["untraced"], pct)[0]
        metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
        for share, name in res["shares"]:
            print(f"span share {name} {share:.4f} of job time (inclusive)")
        print(f"spans recorded {res['span_count']}")
        if res["missing_spans"]:
            print(f"COVERAGE FAILED: no span for {', '.join(res['missing_spans'])} on {args.workload}")
            correct = False
    else:
        metrics, notes = end_to_end(res, setup_s, pct)
    for name, m in metrics.items():
        note = "" if args.trace else notes.get(name, "")
        print(f"{name} {m['value']:.6g} {m['unit']} {note}".rstrip())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _layer_unit(name):
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(("_ratio", ".share")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
