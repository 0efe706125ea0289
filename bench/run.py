"""panelrank benchmark: one workload, closed loop, one client, checked outputs.

    python3 bench/run.py --workload expert-panel --seed 1 --seconds 35 --trace 0

Run from anywhere inside a source checkout; the package is taken from its
src/ directory. The seed makes the input (fixture-audit ignores it). With
--trace 0 the run prints the end-to-end metrics:

  setup_s          median over several fresh processes of the time from
                   process start to the first timed job: interpreter start,
                   imports, reading the input and one checked warm-up job
  latency_ms_p50   median job time
  latency_ms_tail  job time at the 90th percentile, lowered only as far as
                   needed to leave ten jobs beyond it
  judgments_per_s  judgments evaluated by jobs that passed their checks, per
                   second of timed job time; a round evaluated under k configs
                   counts k times
  peak_rss_mb      ru_maxrss of the measuring process after its last job

Times are given at a nominal host speed. A shared two-core Xeon host drifts
by a third in speed for seconds to minutes at a time, which no run length
averages out. So every job is timed between two runs of a fixed calibration
workload (worker.calibration, which calls no panelrank code), and its wall
time is scaled by the calibration's nominal time over the mean of the two
measured beside it; a set-up time is scaled by the calibration measured in
the same process right after it. A slower program still reads slower, a
slower host no longer does. The raw wall times and the calibration's median
and nominal times go into the run's metadata line.

With --trace 1 a separate process alternates untraced and traced jobs and
the run prints the per-layer metrics of tracer.METRICS instead. Either way,
every job's output is checked (see workloads.py); the error rate is failed
jobs over attempted jobs. Earlier stdout lines give a summary and the run's
metadata; the last line is the JSON result.

Work files go to .bench_work/ in the checkout. Exits non-zero, printing no
result, when the checkout holds no panelrank source.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
WORK = ROOT / ".bench_work"

# fresh set-up processes before and after the measuring one; setup_s is the
# median over all of them, spread out in time because the host's speed drifts
# over tens of seconds
SETUP_PROBES = 2

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

END_TO_END = {
    "setup_s": "s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "judgments_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# a run never takes longer than this, whatever the host does
PROCESS_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark cannot run here."""


def worker(mode: str, args, input_path: Path, seconds: float, deadline: float) -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SOURCE), env.get("PYTHONPATH"))))
    command = [
        sys.executable, str(HERE / "worker.py"), "--mode", mode,
        "--workload", args.workload, "--seed", str(args.seed), "--input", str(input_path),
        "--work-dir", str(WORK), "--seconds", str(seconds),
    ]
    started = time.monotonic()
    proc = subprocess.run(
        command + ["--started", repr(started)],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - started),
    )
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail(latencies_ms: list[float]) -> tuple[float, float]:
    """(percentile, value) of the tail: p90, or the highest percentile below it
    that still has ten samples beyond it.

    The percentile stays fixed as throughput changes, so a faster program is
    not compared further out in its tail, where host bursts dominate. Below
    eleven samples no percentile has ten beyond it; that gives the maximum.
    """
    ordered = sorted(latencies_ms)
    n = len(ordered)
    beyond = max(10, math.ceil(n / 10))
    index = n - 1 - beyond if n > beyond else n - 1
    return 100.0 * (index + 1) / n, ordered[index]


def scaled_ms(latency_ns: list[int], calibration_ns: list[int], nominal_ns: int) -> list[float]:
    """Each job's time in ms at the nominal host speed.

    calibration_ns has one entry more than latency_ns: job i ran between
    calibrations i and i + 1, so their mean stands for the host's speed
    during it.
    """
    return [
        job / ((before + after) / 2) * nominal_ns / 1e6
        for job, before, after in zip(latency_ns, calibration_ns, calibration_ns[1:])
    ]


def metadata(args, digest: str) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads": {name: "1" for name in THREAD_VARS},
        "input_sha256": digest,
        "client": "closed loop, one process, one thread",
    }


def run_untraced(args, input_path: Path, deadline: float) -> tuple[dict, dict]:
    from worker import CALIBRATION_NOMINAL_NS

    def probes():
        return [worker("setup", args, input_path, 0, deadline) for _ in range(SETUP_PROBES)]

    def scaled_setup(out: dict) -> float:
        return out["setup_s"] * CALIBRATION_NOMINAL_NS / out["setup_calibration_ns"]

    worker("setup", args, input_path, 0, deadline)  # discarded: fills the bytecode cache
    before = probes()
    run = worker("measure", args, input_path, args.seconds, deadline)
    setups = before + [run] + probes()
    setup_samples = [scaled_setup(s) for s in setups]
    latencies = scaled_ms(run["latency_ns"], run["calibration_ns"], CALIBRATION_NOMINAL_NS)
    percentile, tail_ms = tail(latencies)
    attempted = len(latencies)
    failed = len(run["failures"])
    timed_s = sum(latencies) / 1e3
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "latency_ms_p50": statistics.median(latencies),
        "latency_ms_tail": tail_ms,
        "judgments_per_s": run["judgments"] * (attempted - failed) / timed_s,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    details = {
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": run["failures"][:3],
        "numpy": run["numpy"],
        "tail_percentile": percentile,
        "tail_samples": attempted,
        "judgments_per_job": run["judgments"],
        "setup_s_scaled_samples": setup_samples,
        "setup_s_wall_samples": [s["setup_s"] for s in setups],
        "wall_latency_ms_p50": statistics.median(run["latency_ns"]) / 1e6,
        "calibration_nominal_ms": CALIBRATION_NOMINAL_NS / 1e6,
        "calibration_ms_p50": statistics.median(run["calibration_ns"]) / 1e6,
    }
    return metrics, details


def run_traced(args, input_path: Path, deadline: float) -> tuple[dict, dict]:
    run = worker("trace", args, input_path, args.seconds, deadline)
    attempted = run["jobs"]
    failed = len(run["failures"])
    details = {
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": run["failures"][:3],
        "numpy": run["numpy"],
        "spans": str((WORK / f"spans-{args.workload}.csv.gz").relative_to(ROOT)),
    }
    return run["metrics"], details


def main(argv: list[str] | None = None) -> int:
    start = time.monotonic()
    sys.path.insert(0, str(HERE))
    from tracer import METRICS as PER_LAYER
    from workloads import DEFAULT_SEED, WORKLOADS, input_bytes, sha256

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "panelrank" / "__init__.py").is_file():
        print(f"error: no panelrank source under {SOURCE}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    data = input_bytes(args.workload, args.seed)
    input_path = WORK / f"{args.workload}-{args.seed}-{os.getpid()}.json"
    input_path.write_bytes(data)
    deadline = start + PROCESS_TIMEOUT_S
    try:
        if args.trace:
            values, details = run_traced(args, input_path, deadline)
            units = PER_LAYER
        else:
            values, details = run_untraced(args, input_path, deadline)
            units = END_TO_END
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        input_path.unlink(missing_ok=True)

    notes = {}
    if "tail_percentile" in details:
        notes["latency_ms_tail"] = (
            f"(p{details['tail_percentile']:.1f} of {details['attempted']} jobs)"
        )
    for name, unit in units.items():
        print(f"{args.workload:>15}  {name:<40} {values[name]:>14.6g} {unit} {notes.get(name, '')}")
    print(f"{args.workload:>15}  {'error_rate':<40} {details['error_rate']:>14.6g} ratio")
    print(json.dumps({"run": {**metadata(args, sha256(data)), **details}}))
    print(json.dumps({
        "correct": details["failed"] == 0,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
