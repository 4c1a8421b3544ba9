"""Per-layer wall time of one benchmark workload's query passes.

Wraps four msflab entry points with perf_counter spans: settle_transient
(the transient from rest), _EventRecord._next_impact (the long scan to the
next impact), _EventRecord._estimate (the event-window Jacobian with its
free flight to the window start) and run_probe (the coupled probe).  The
functions are replaced in every msflab module that binds them and the
methods on the class, so calls msflab makes internally are timed too.
Builds the workload's set-up once, untimed, then runs its query set
--passes times and prints per pass, per layer, the self time (minus the
time of enclosed spans) and the call count, plus the remainder of the
pass outside every span.

run_probe is split further by spans on the msflab.network functions of
PROBE_PARTS that the timed checkout defines (names it lacks are skipped,
so one script times old and new checkouts alike): the table scan, the
crossing refinement, the closed-form recomputation and the sync
bookkeeping; run_probe's own self time is the rest of the probe.  A
second line per pass prints that split:

    PYTHONPATH=src python3 scripts/layer_times.py --workload random_impacting --seed 3

msflab is imported from PYTHONPATH, so the script can time another
checkout's source; the workload definitions come from this checkout's
perfbench/.  The spans add under a microsecond per call, a few per mille
of a random_impacting pass.  Typed msflab failures count as results, as
in the benchmark.  The probe's part spans add about a microsecond per call,
up to about a tenth of a preset_probe pass.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import msflab  # noqa: E402
from msflab import msf, network  # noqa: E402
import workloads  # noqa: E402

LAYERS = ("settle_transient", "_next_impact", "_estimate", "run_probe")
# The parts of run_probe: msflab.network functions and _ModeSegments or
# _SyncObserver methods, "Class.method" for a method.
PROBE_PARTS = {
    "scan": ("_ModeSegments.scan_rows", "_ModeSegments.scan", "_first_crossing"),
    "refine": ("bisect_crossing", "_ModeSegments.wall_distance"),
    "recompute": ("_ModeSegments.to_modes", "_ModeSegments.terms", "_ModeSegments.eval",
                  "_ModeSegments.point"),
    "bookkeeping": ("_sync_measures", "_kept_samples", "_SyncObserver.observe",
                    "_SyncObserver.skip"),
}


class Spans:
    """Self time and calls per layer; a span's self time excludes the spans it encloses."""

    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS + tuple(PROBE_PARTS), 0.0)
        self.calls = dict.fromkeys(self.self_s, 0)
        self.stack: list[list] = []

    def wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            frame = [0.0]
            self.stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.stack.pop()
                self.self_s[name] += dt - frame[0]
                self.calls[name] += 1
                if self.stack:
                    self.stack[-1][0] += dt

        return wrapper


def install(spans: Spans) -> None:
    """Replace the four entry points for the rest of the process."""
    for name in ("settle_transient", "run_probe"):
        original = getattr(msflab, name)
        wrapper = spans.wrap(name, original)
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").split(".")[0] == "msflab"
                    and getattr(module, name, None) is original):
                setattr(module, name, wrapper)
    for name in ("_next_impact", "_estimate"):
        setattr(msf._EventRecord, name, spans.wrap(name, getattr(msf._EventRecord, name)))
    for part, names in PROBE_PARTS.items():
        for name in names:
            owner, _, attr = name.rpartition(".")
            target = getattr(network, owner) if owner else network
            if attr in vars(target):
                setattr(target, attr, spans.wrap(part, getattr(target, attr)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="random_impacting", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--passes", type=int, default=3)
    args = ap.parse_args(argv)
    if args.passes < 1:
        ap.error("--passes must be at least 1")

    workload = workloads.WORKLOADS[args.workload](args.seed, workloads.load_reference())
    queries = workload.queries(workload.setup())
    spans = Spans()
    install(spans)
    print(f"{args.workload} seed {args.seed}: {len(queries)} queries per pass, msflab from "
          f"{Path(msflab.__file__).resolve().parent}")
    for n in range(args.passes):
        before = dict(spans.self_s), dict(spans.calls)
        t0 = perf_counter()
        for q in queries:
            try:
                q.call()
            except Exception as exc:
                if not workloads.is_typed_failure(exc):
                    raise
        total = perf_counter() - t0
        parts = {k: (spans.self_s[k] - before[0][k], spans.calls[k] - before[1][k])
                 for k in spans.self_s}
        layers = {k: parts[k] for k in LAYERS}
        layers["run_probe"] = (sum(parts[k][0] for k in ("run_probe", *PROBE_PARTS)),
                               parts["run_probe"][1])
        rest = total - sum(s for s, _ in layers.values())
        cells = "  ".join(f"{k} {s:.3f} s/{c}" for k, (s, c) in layers.items())
        print(f"pass {n}: {total:.3f} s  {cells}  rest {rest:.3f} s")
        if layers["run_probe"][1]:
            split = "  ".join(f"{k} {parts[k][0]:.3f} s/{parts[k][1]}" for k in PROBE_PARTS)
            print(f"  run_probe split: {split}  rest {parts['run_probe'][0]:.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
