"""gridorbits benchmark: one closed-loop client, one job per fresh process.

    python3 bench/run.py --workload invariants --seed 1 --seconds 30 --trace 0

Runs jobs of the workload (see ``workloads.py``) one after another, each in
a new ``worker.py`` process, until the next job would end after
``--seconds``; at least one job runs.  Every op's output is checked.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs pairs of
jobs on the same inputs, untraced then traced, and reports the per-layer
metrics (per traced job) and the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Exits 2, printing no result, when the checkout has no gridorbits sources.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPAN_DIR = BENCH / "traces"
TIME_LIMIT_S = 170  # every job, including one that overruns, ends by then
WORKLOADS = ("invariants", "census", "fibre")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)


class JobFailed(Exception):
    pass


def run_job(workload, seed, job, deadline, trace=False):
    """Run one job in a fresh worker process and return its record, with
    ``setup_s`` measured from process start to the first timed op and, like
    the op times, scaled to the worker's probe speed."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--job", str(job),
    ]
    if trace:
        SPAN_DIR.mkdir(exist_ok=True)
        cmd += ["--trace", "--spans", str(SPAN_DIR / f"{workload}-job{job}.json")]
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired as exc:
        raise JobFailed(f"job {job} timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise JobFailed(f"job {job} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    rec = json.loads(proc.stdout.splitlines()[-1])
    rec["setup_s"] = (rec["ready"] - start) * rec["setup_scale"]
    rec["wall_s"] = sum(seconds for seconds, _error in rec["ops"])
    return rec


def run_jobs(args, trace):
    """Jobs (or untraced/traced pairs) until the next would overrun
    ``--seconds``.  Returns (records, failures)."""
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    records = []
    job = 0
    while True:
        t0 = time.monotonic()
        try:
            unit = [run_job(args.workload, args.seed, job, deadline)]
            if trace:
                unit.append(run_job(args.workload, args.seed, job, deadline, trace=True))
        except JobFailed as exc:
            return records, [str(exc)]
        records.append(unit)
        job += 1
        now = time.monotonic()
        if now - start + (now - t0) > args.seconds:
            return records, []


def p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(jobs):
    samples = [s for rec in jobs for s in rec["samples"]]
    ops = sum(len(rec["ops"]) for rec in jobs)
    return {
        "setup_s": statistics.median(rec["setup_s"] for rec in jobs),
        "wall_s": statistics.median(rec["wall_s"] for rec in jobs),
        "ops_per_s": ops / sum(rec["wall_s"] for rec in jobs),
        "op_ms_p50": 1000 * statistics.median(samples),
        "op_ms_p90": 1000 * p90(samples),
        "peak_rss_mb": statistics.median(rec["peak_rss_mb"] for rec in jobs),
    }


def per_layer(pairs):
    """Mean of each layer value over the traced jobs, plus the median
    tracing overhead (traced minus untraced wall time of the same job)."""
    traced = [pair[1]["layers"] for pair in pairs]
    out = {
        name: sum(layers[name] for layers in traced) / len(traced)
        for name in traced[0]
    }
    out["trace.overhead_s"] = statistics.median(
        traced_rec["wall_s"] - plain["wall_s"] for plain, traced_rec in pairs
    )
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gridorbits" / "__init__.py").is_file():
        print(f"error: no gridorbits sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    units, failures = run_jobs(args, trace=bool(args.trace))
    jobs = [rec for unit in units for rec in unit]
    errors = [err for rec in jobs for _s, err in rec["ops"] if err is not None]
    for unit in units:
        if len(unit) == 2 and unit[0]["digest"] != unit[1]["digest"]:
            errors.append("traced and untraced outputs differ")
    attempted = sum(len(rec["ops"]) for rec in jobs) + len(failures)
    failed = len(errors) + len(failures)
    for msg in (failures + errors)[:10]:
        print(f"failure: {msg}", file=sys.stderr)

    if not units:
        values, units_of = {}, {}
    elif args.trace:
        values = per_layer(units)
        units_of = {name: unit for name, unit, _better in layer_metrics()}
    else:
        values = end_to_end(jobs)
        units_of = dict(END_TO_END)
    if jobs:
        print(
            f"{args.workload}: {len(jobs)} jobs, "
            f"{sum(len(rec['samples']) for rec in jobs)} latency samples, "
            f"median unscaled job time {statistics.median(r['raw_wall_s'] for r in jobs):.3f} s",
            file=sys.stderr,
        )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units_of.items()
        },
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
