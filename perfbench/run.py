"""msflab benchmark: one workload, one process, one query at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; msflab is imported from ./src.  With
--trace 0 the run sets up SETUP_REPEATS times, then repeats the workload's
query set while the next pass still fits in S seconds (at least once) and
prints the end-to-end metrics, with times scaled to a reference machine
speed (see SpeedProbe).  With --trace 1 it runs the query set once
untraced and twice traced, and prints the per-layer metrics; the two
traced passes must give identical counts.  Every output is checked; the
last line of stdout is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# One thread everywhere, set before numpy loads: no worker pool, no BLAS threads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 3
COVERAGE_FLOOR = 0.9
TAIL_BEYOND = 10  # samples a reported tail percentile must have beyond it

# Speed normalization.  On a shared host the same code runs tens of percent
# faster or slower for minutes at a time, and quartile spreads of raw times
# over ten runs exceeded the largest bound a metric may have.  A pure-Python
# calibration chunk is timed between the measured calls, and every reported
# time is scaled by REFERENCE_CHUNK_S / (median chunk time of the run): the
# time the same run would have taken at the reference speed.
CALIBRATION_ITERATIONS = 20_000
REFERENCE_CHUNK_S = 1.2e-3  # median chunk time on the VM behind NOTES.md
CALIBRATION_SHARE = 0.05  # calibration seconds per measured second, at least one chunk

# msflab exception types with a failures.<type> metric of their own.
FAILURE_TYPES = (
    "GrazingSingularityError", "ChatterError", "InvalidWindowError",
    "NonInvertibleMatrixError", "PropagationError",
)


@dataclass
class Outcome:
    label: str
    seconds: float
    periods: int = 0
    failure: str | None = None  # exception type, "untyped" or "check"
    correct: bool = True
    detail: str | None = None
    error: float | None = None


def _calibration_chunk() -> float:
    acc = 0.0
    for i in range(CALIBRATION_ITERATIONS):
        acc += i * 0.5
    return acc


class SpeedProbe:
    """Calibration chunks interleaved with the measured work of one run."""

    def __init__(self):
        self.chunks: list[float] = []

    def sample(self, measured_s: float) -> None:
        end = perf_counter() + CALIBRATION_SHARE * measured_s
        while True:
            t0 = perf_counter()
            _calibration_chunk()
            t1 = perf_counter()
            self.chunks.append(t1 - t0)
            if t1 >= end:
                return

    def factor(self) -> float:
        """Multiplier from this run's seconds to reference seconds."""
        return REFERENCE_CHUNK_S / statistics.median(self.chunks)


def run_query(query, typed) -> Outcome:
    t0 = perf_counter()
    try:
        result = query.call()
    except Exception as exc:  # every query's failure is recorded; none ends the run
        seconds = perf_counter() - t0
        if typed(exc):
            return Outcome(query.label, seconds, failure=type(exc).__name__,
                           correct=query.typed_failures_ok, detail=f"{type(exc).__name__}: {exc}")
        return Outcome(query.label, seconds, failure="untyped", correct=False,
                       detail=traceback.format_exc())
    seconds = perf_counter() - t0
    reason = query.check(result)
    error = query.error(result) if query.error else None
    if reason is not None:
        return Outcome(query.label, seconds, failure="check", correct=False, detail=reason, error=error)
    return Outcome(query.label, seconds, periods=query.periods(result), error=error)


def run_pass(workload, state, typed, probe: SpeedProbe | None = None) -> list[Outcome]:
    outcomes = []
    for query in workload.queries(state):
        outcomes.append(run_query(query, typed))
        if probe is not None:
            probe.sample(outcomes[-1].seconds)
    return outcomes


def failure_counts(outcomes) -> dict[str, float]:
    counts = {f"failures.{name}": 0.0 for name in (*FAILURE_TYPES, "other_typed", "untyped", "check")}
    for o in outcomes:
        if o.failure is not None:
            key = f"failures.{o.failure}"
            counts[key if key in counts else "failures.other_typed"] += 1
    return counts


def timed_run(workload, seconds: float, import_s: float, typed):
    probe = SpeedProbe()
    probe.sample(import_s)
    setup_times, states = [], []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        states.append(workload.setup())
        setup_times.append(perf_counter() - t0)
        probe.sample(setup_times[-1])
    problems = [] if all(s == states[0] for s in states) else ["setup is not deterministic"]

    walls, outcomes = [], []
    start = perf_counter()
    while True:
        outs = run_pass(workload, states[0], typed, probe)
        walls.append(sum(o.seconds for o in outs))
        outcomes += outs
        if perf_counter() - start + statistics.median(walls) > seconds:
            break

    k = probe.factor()
    latencies = [o.seconds for o in outcomes]
    wall = statistics.median(walls)
    setup = import_s + statistics.median(setup_times)
    metrics = {
        "wall_s": (k * wall, "s"),
        "periods_per_s": (sum(o.periods for o in outcomes) / (k * sum(latencies)), "1/s"),
        "ok_share": (sum(o.failure is None for o in outcomes) / len(outcomes), "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (k * setup, "s"),
    }
    notes = [
        f"passes {len(walls)}, queries per pass {len(outcomes) // len(walls)}",
        f"speed factor {k:.4f} over {len(probe.chunks)} calibration chunks; "
        f"unscaled wall_s {wall:.6g} s, setup_s {setup:.6g} s",
        f"query_p50_s {k * statistics.median(latencies):.6g} s",
    ]
    failed_s = sum(o.seconds for o in outcomes if o.failure is not None)
    notes.append(
        f"wall_s per pass by outcome: returned {k * (sum(latencies) - failed_s) / len(walls):.6g} s, "
        f"raised or failed its check {k * failed_s / len(walls):.6g} s "
        f"({sum(o.failure is not None for o in outcomes)} of {len(outcomes)} queries)"
    )
    n = len(latencies)
    if n >= 2 * TAIL_BEYOND:
        tail = k * sorted(latencies)[n - TAIL_BEYOND - 1]
        notes.append(f"query_tail_s {tail:.6g} s at p{100.0 * (n - TAIL_BEYOND) / n:.1f} of {n} queries")
    else:
        notes.append(f"query_tail_s not reported: {n} queries, fewer than {2 * TAIL_BEYOND}")
    errors = [o.error for o in outcomes if o.error is not None]
    if errors:
        notes.append(f"max_abs_err {max(errors):.3e} over {len(errors)} checked exponents")
    return metrics, outcomes, problems, notes


def traced_run(workload, typed, tracing):
    t0 = perf_counter()
    untraced_outs = run_pass(workload, workload.setup(), typed)
    untraced_wall = perf_counter() - t0

    runs = []
    for _ in range(2):
        with tracing.Tracer() as tracer:
            t0 = perf_counter()
            outs = run_pass(workload, workload.setup(), typed)
            wall = perf_counter() - t0
        layer, absent = tracer.metrics()
        layer.update({k: (v, "count") for k, v in failure_counts(outs).items()})
        runs.append((layer, wall, tracer.top_s, outs))

    metrics = {}
    for name, (value, unit) in runs[0][0].items():
        if unit == "s":
            value = statistics.fmean(run[0][name][0] for run in runs)
        metrics[name] = (value, unit)
    traced_wall = statistics.fmean(run[1] for run in runs)
    coverage = min(run[2] / run[1] for run in runs)
    metrics["trace.overhead"] = (traced_wall / untraced_wall - 1.0, "share")
    metrics["trace.coverage"] = (coverage, "share")

    problems = []
    for name, (value, unit) in runs[0][0].items():
        if unit != "s" and value != runs[1][0][name][0]:
            problems.append(f"count {name} differs between traced runs: {value} vs {runs[1][0][name][0]}")
    if coverage < COVERAGE_FLOOR:
        problems.append(f"trace coverage {coverage:.3f} below {COVERAGE_FLOOR}")
    notes = [f"absent (wrapped names vanished): {', '.join(absent) or 'none'}"]
    return metrics, untraced_outs + runs[0][3] + runs[1][3], problems, notes


def environment(msflab, workload, args) -> dict:
    import numpy
    import scipy

    return {
        "msflab": msflab.__version__, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS}, "jobs": 1,
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setup_repeats": SETUP_REPEATS, "protocol": workload.protocol(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    try:
        import msflab
    except ImportError as exc:
        print(f"cannot import msflab from {SRC}: {exc}", file=sys.stderr)
        return 2
    import_s = perf_counter() - t0
    if not Path(msflab.__file__).resolve().is_relative_to(SRC):
        print(f"msflab was imported from {msflab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed, workloads.load_reference())
    typed = workloads.is_typed_failure
    if args.trace:
        metrics, outcomes, problems, notes = traced_run(workload, typed, tracing)
    else:
        metrics, outcomes, problems, notes = timed_run(workload, args.seconds, import_s, typed)

    failed = [o for o in outcomes if not o.correct]
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit}")
    for line in notes + problems:
        print(f"  {line}")
    for o in outcomes:
        if o.failure is not None:
            verdict = "accepted" if o.correct else "FAILED"
            print(f"  {verdict} {o.label}: {o.detail.strip().splitlines()[-1]}")
    for o in failed:
        if o.failure == "untyped":
            print(o.detail, file=sys.stderr)
    print("env " + json.dumps(environment(msflab, workload, args), sort_keys=True))
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
