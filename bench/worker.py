"""One benchmark job in a fresh process.

    python3 bench/worker.py --workload census --seed 1 --job 0 [--trace --spans PATH]

A fresh process per job means the engine's value-keyed caches start cold,
as for a CLI user, and ``getrusage`` measures this job alone.

Times are scaled to a fixed machine speed.  The host's speed drifts (a
fixed loop's time varies by up to half within seconds and by ~15% between
half-minute runs, from load outside this process), so a short probe loop
is timed every PROBE_PERIOD_S.  Each latency sample is multiplied by the
median of PROBE_NOMINAL_S / probe time over the probes taken during it,
and the probes' own time is subtracted from the ops they interrupted.
Set-up, too short for a steady median of its own, takes the median over
the whole job.  The probe is benchmark code: engine changes cannot move it.

Prints one JSON line: the monotonic clock when set-up ended, the set-up
scale, scaled per-op seconds and errors, scaled latency samples, the raw
job time, the job's output digest and peak RSS; when traced, also the
per-layer values and every name each traced function was bound under.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

from run import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"
PROBE_PERIOD_S = 0.1
PROBE_NOMINAL_S = 0.0023


def import_engine():
    """Import gridorbits from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import gridorbits
    import gridorbits.cli  # noqa: F401  (traced bindings live there too)

    if Path(gridorbits.__file__).resolve().parent != SRC / "gridorbits":
        raise ImportError(f"gridorbits imported from {gridorbits.__file__}, not {SRC}")
    return gridorbits


class SpeedProbe:
    """Times a fixed pure-Python loop, the machine's current speed, every
    PROBE_PERIOD_S.  The loop runs in a SIGALRM handler, so it always runs
    in the main thread between bytecodes and never alongside engine code
    that has released the interpreter lock."""

    def __init__(self):
        self.samples = []  # (perf_counter at start, seconds)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, _signum, _frame):
        t0 = time.perf_counter()
        acc = 0
        for i in range(25_000):
            acc += i * i % 7
        self.samples.append((t0, time.perf_counter() - t0))

    def scale(self, start, end):
        """Median of nominal over measured probe time in [start, end), or
        of the nearest probe when none started there."""
        inside = [s for t, s in self.samples if start <= t < end]
        if not inside:
            inside = [min(self.samples, key=lambda ts: abs(ts[0] - start))[1]]
        return statistics.median(PROBE_NOMINAL_S / s for s in inside)

    def busy(self, start, end):
        """Seconds of probing that started in [start, end)."""
        return sum(s for t, s in self.samples if start <= t < end)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--job", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="file for the recorded spans")
    args = parser.parse_args(argv)

    with SpeedProbe() as speed:
        born = time.perf_counter()
        package = import_engine()
        import workloads

        state = workloads.setup(args.workload, args.seed, args.job)
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install(package)
        ready = time.monotonic()
        groups = [
            [op() for op in group]
            for group in workloads.op_groups(args.workload, state, tracer)
        ]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    ops, samples = [], []
    for group in groups:
        scale = speed.scale(group[0].start, group[-1].end)
        scaled = [
            (max(0.0, r.seconds - speed.busy(r.start, r.end)) * scale, r.error)
            for r in group
        ]
        ops.extend(scaled)
        samples.append(sum(seconds for seconds, _error in scaled))
    results = [r for group in groups for r in group]
    out = {
        "ready": ready,
        "setup_scale": speed.scale(born, results[-1].end),
        "ops": ops,
        "samples": samples,
        "raw_wall_s": sum(r.seconds for r in results),
        "digest": hashlib.sha256("".join(r.digest for r in results).encode()).hexdigest(),
        "peak_rss_mb": peak_kb / 1024,
    }
    if tracer is not None:
        out["layers"] = tracer.layer_values()
        out["bindings"] = tracer.bindings
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
