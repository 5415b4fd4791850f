"""Closed-loop client: runs one workload's jobs in-process through
``energia.cli.main`` and checks every output.

Started by ``run.py`` as its own process, so that its peak resident memory
is the workload's.  One client, one thread: each job starts after the
previous one returned.  The job list is one pass; passes repeat until the
run has measured ``--seconds`` and at least ``--min-passes`` passes are
whole, so every run weighs the same mix of jobs.  With ``--trace 1``
untraced and traced passes alternate and the traced passes give the
per-layer metrics.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import tracing
import workloads
from probe import host_probe, scaled

# Stop the loop past this many seconds, so a slow host still finishes
# well inside the benchmark's time limit.
HARD_STOP_S = 120


def _parse(text):
    try:
        return json.loads(text)["results"]
    except (ValueError, KeyError, TypeError):
        return None


def check_output(job, rc, text, first_digests, index):
    """Return why a job's output is wrong, or None if it is right."""
    res = _parse(text)
    if res is None:
        return f"unparseable output (exit {rc})"
    expect = job["expect"]
    cmd = job["argv"][0]
    want_rc = 0
    if cmd == "decompose":
        want_rc = 1 if res.get("failed") else 0
        A = set(job["elements"])
        B, C = set(res["B"]), set(res["C"])
        if B | C != A or B & C:
            return "B and C do not partition A"
    if rc != want_rc:
        return f"exit code {rc}, expected {want_rc}"
    if "count" in expect and res.get("count") != expect["count"]:
        return f"count {res.get('count')} != reference {expect['count']}"
    if "--oracle" in job["argv"] and not (res.get("oracle_agrees") is True and res.get("oracle_count") == res.get("count")):
        return "oracle disagrees"
    if "size" in expect and res.get("size") != expect["size"]:
        return f"size {res.get('size')} != reference {expect['size']}"
    if "T_k" in expect and res["values"].get("T_k") != expect["T_k"]:
        return f"T_k {res['values'].get('T_k')} != {expect['T_k']}"
    if cmd == "check" and res.get("failures") != 0:
        return f"{res.get('failures')} check failures"
    if cmd == "experiment" and res.get("holds") is False:
        return "experiment does not hold"
    if cmd == "kp":
        if "A_prime" not in res or not set(res["A_prime"]) <= set(job["elements"]):
            return "A_prime is not a subset of A"
        digest = hashlib.sha256(text.encode()).hexdigest()
        if first_digests.setdefault(index, digest) != digest:
            return "kp report differs from this input's first run"
    return None


def run_job(cli, job):
    """One timed CLI call; returns (seconds, exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(job["argv"])
    except Exception as exc:  # a raising job is a failed job, not a crashed run
        rc = f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - start, rc, out.getvalue()


def warm_up(cli, jobs):
    """Run the smallest job of each kind once, untimed."""
    for job in workloads.smallest_per_kind(jobs):
        run_job(cli, job)


def closed_loop(cli, jobs, seconds, min_passes=1, tracer=None):
    """Repeat the pass until ``seconds`` have been measured and at least
    ``min_passes`` passes are whole; the pass in progress then stops.

    With a tracer, passes alternate untraced/traced, all passes are whole
    and the loop ends after a traced pass.  Returns each pass's latencies
    in reference-host seconds (the last untraced pass may be partial), the
    wall-clock latencies of the untraced passes, and the failures.
    """
    first_digests = {}
    untraced, traced, raw, failures = [], [], [], []
    attempted = 0
    begin = time.perf_counter()
    while True:
        tracing_pass = tracer is not None and len(untraced) > len(traced)
        latencies, walls = [], []
        if tracing_pass:
            traced.append(latencies)
            tracer.install()
        else:
            untraced.append(latencies)
            raw.append(walls)
        probe = host_probe()
        for index, job in enumerate(jobs):
            gc.collect()
            elapsed = time.perf_counter() - begin
            if tracer is None and ((len(untraced) > min_passes and elapsed >= seconds) or elapsed >= HARD_STOP_S):
                break
            if tracing_pass:
                tracer.job = index
            dt, rc, text = run_job(cli, job)
            before, probe = probe, host_probe()
            latencies.append(scaled(dt, before, probe))
            walls.append(dt)
            attempted += 1
            why = rc if isinstance(rc, str) else check_output(job, rc, text, first_digests, index)
            if why is not None:
                failures.append(f"{job['kind']} {' '.join(job['argv'][:-1])}: {why}")
        if tracing_pass:
            tracer.uninstall()
        elapsed = time.perf_counter() - begin
        if tracer is not None and not tracing_pass:
            continue
        if (elapsed >= seconds and len(untraced) >= min_passes) or elapsed >= HARD_STOP_S:
            break
    if not untraced[-1]:
        untraced.pop()
        raw.pop()
    return {"untraced": untraced, "traced": traced, "raw": raw, "attempted": attempted, "failures": failures}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--jobs", required=True, help="job list written by run.py")
    p.add_argument("--out", required=True, help="where to write the result JSON")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--min-passes", type=int, default=1, dest="min_passes")
    p.add_argument("--src", required=True, help="the checkout's src directory")
    p.add_argument("--spans", help="with tracing: where to write the spans")
    p.add_argument("--required", default="", help="comma-separated span names that must fire")
    args = p.parse_args(argv)

    import energia
    import energia.cli as cli

    src = Path(args.src).resolve()
    if src not in Path(energia.__file__).resolve().parents:
        sys.exit(f"energia was imported from {energia.__file__}, not from {src}")

    jobs = json.loads(Path(args.jobs).read_text())
    warm_up(cli, jobs)
    tracer = tracing.Tracer() if args.spans else None
    result = closed_loop(cli, jobs, args.seconds, args.min_passes, tracer)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        metrics, shares = tracing.per_layer(tracer.spans, len(result["traced"]))
        result["per_layer"] = metrics
        result["shares"] = shares[:12]
        result["missing_spans"] = tracing.missing_spans(tracer.spans, [n for n in args.required.split(",") if n])
        result["span_count"] = len(tracer.spans)
        tracer.write(args.spans)
    Path(args.out).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
