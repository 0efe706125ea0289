"""One workload in one fresh process: set up, then run timed or traced jobs.

Started by run.py, which pins BLAS/OpenMP threads to 1 and puts the
package's source on PYTHONPATH. The loop is closed with a single client: the
next job starts only when the last one has finished and been checked. Prints
one JSON object on stdout.

Modes:
  setup    set up (import, read input, one checked warm-up job), calibrate, exit
  measure  set up, calibrate, then run jobs for --seconds, each followed by a
           calibration
  trace    set up, then alternate untraced and traced jobs for --seconds
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np


# what one calibration takes on the nominal host (about what it took alone,
# warm, on a two-core Xeon host); run.py scales job times by this over the
# calibration time measured beside them
CALIBRATION_NOMINAL_NS = 12_000_000

_CAL_VECTORS = [np.random.default_rng(0).random(12) + 0.01 for _ in range(1500)]


def calibration() -> int:
    """Time one fixed calibration, in ns; it tracks the host's speed, not panelrank's.

    The host's speed drifts by a third for seconds to minutes at a time, and
    a pure integer loop misses much of that. This work has the mix of
    panelrank's jobs instead: small numpy arrays in a Python loop, float
    arithmetic, dicts and a sort, spread over a few hundred KB so that it
    also feels contention for the host's caches. It imports nothing from
    panelrank, so a change to the program never changes it.
    """
    start = time.perf_counter_ns()
    vectors = _CAL_VECTORS
    n = len(vectors)
    scores = {}
    for i in range(0, n, 2):
        a, b = vectors[i], vectors[(i * 7 + 3) % n]
        m = 0.5 * (a + b)
        d = float(np.sum(a * np.log(a / m)) + np.sum(b * np.log(b / m)))
        scores[i] = math.sqrt(abs(d)) + sum(x * 0.5 for x in (d, d * d, i))
    sorted(scores.items(), key=lambda kv: kv[1])
    return time.perf_counter_ns() - start


def attempt(job) -> tuple[int, dict | None, str | None]:
    """Run and check one job: (wall ns, output sizes, failure reason or None)."""
    start = time.perf_counter_ns()
    try:
        result = job.run()
    except Exception:  # noqa: BLE001 - a job that raises counts as failed, the loop goes on
        return time.perf_counter_ns() - start, None, traceback.format_exc(limit=3)
    elapsed = time.perf_counter_ns() - start
    try:
        return elapsed, job.check(result), None
    except Exception as exc:  # noqa: BLE001 - so does one whose output fails a check
        return elapsed, None, f"{type(exc).__name__}: {exc}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--input", required=True, help="judgment file the program receives")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    args = parser.parse_args(argv)

    from workloads import make_job

    job = make_job(args.workload, args.seed, Path(args.input), Path(args.work_dir))
    try:
        _, _, failure = attempt(job)
        if failure is not None:
            print(f"warm-up job failed: {failure}", file=sys.stderr)
            return 1
        setup_s = time.monotonic() - args.started
        out = {
            "setup_s": setup_s,
            "setup_calibration_ns": statistics.median(calibration() for _ in range(5)),
            "judgments": job.judgments,
            "numpy": np.__version__,
        }
        if args.mode == "measure":
            out.update(measure(job, args.seconds))
        elif args.mode == "trace":
            out.update(trace(job, args.seconds, Path(args.work_dir) / f"spans-{args.workload}.csv.gz"))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        job.close()
    print(json.dumps(out))
    return 0


def measure(job, seconds: float) -> dict:
    """Jobs for `seconds`, each between two calibrations."""
    latencies, failures = [], []
    calibrations = [calibration()]
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        elapsed, _, failure = attempt(job)
        latencies.append(elapsed)
        if failure is not None:
            failures.append(failure)
        calibrations.append(calibration())
    return {"latency_ns": latencies, "failures": failures, "calibration_ns": calibrations}


def trace(job, seconds: float, spans_path: Path) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    traced, untraced, failures = [], [], []
    sizes: Counter = Counter()
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or not traced:
        elapsed, _, failure = attempt(job)
        untraced.append(elapsed)
        if failure is not None:
            failures.append(failure)
        with tracer.installed():
            elapsed, output, failure = attempt(job)
        traced.append(elapsed)
        if failure is not None:
            failures.append(failure)
        else:
            sizes.update(output)
    tracer.write(spans_path)
    return {
        "jobs": len(traced) + len(untraced),
        "failures": failures,
        "metrics": tracer.metrics(traced, untraced, sizes),
    }


if __name__ == "__main__":
    raise SystemExit(main())
