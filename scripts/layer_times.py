"""Per-layer wall time of one benchmark workload's query passes.

Wraps seven msflab functions, the LAYERS, with perf_counter spans:
settle_transient (the transient from rest), compute_tle (named march: the
exponent march, the event record's build excepted but for its free
flights), detect_next_impact (named _next_impact: the long scan to the
next impact, which the event record's builder makes), window_central_run
(named central: each event window's central run, in the record's walk),
window_batch (named batch: the perturbed runs of the walked windows, at
once), msf._estimate (each window's Jacobian from the batch's estimate,
else event_window_jacobian's, and its logarithm) and run_probe (the
coupled probe).  Each is replaced in every msflab module that binds it, so
calls msflab makes internally are timed too.  Builds the workload's set-up once, untimed,
then runs its query set --passes times and prints per pass, per layer,
the self time (minus the time of enclosed spans) and the call count, plus
the remainder of the pass outside every span.

Five layers are split further by spans on the msflab functions of PARTS.
A LAYERS or PARTS name the timed checkout lacks is an error, so a rename
cannot silently empty a span; time an older checkout with that checkout's
copy of this script.  A part's span counts only inside its own layer, so
a function that two layers call (bisect_crossing inside an event window's
runs) is timed as part of the layer's own part there:
  - march: the convergence screen's consultations, the stepping, sampling
    and np.std being the rest;
  - _next_impact: the scan (scalar points, table chunks and their
    recomputation) and the bisection;
  - batch: the lanes (one_impact_runs, the numpy runs), the per-window
    difference quotients and estimates being the rest;
  - _estimate: the three runs of the windows the batch leaves to
    event_window_jacobian, the window body (the rest of
    event_window_jacobian: the difference quotient, the checks and the
    result) and the logarithm, the reading of phi's entries and the
    warnings being the rest;
  - run_probe: the table scan, the crossing refinement, the closed-form
    recomputation and the sync bookkeeping.
A line per pass and split layer prints each part, then the layer's own
self time as its rest:

    PYTHONPATH=src python3 scripts/layer_times.py --workload random_impacting --seed 3

msflab is imported from PYTHONPATH, so the script can time another
checkout's source; the workload definitions come from this checkout's
perfbench/.  The layer spans add under a microsecond per call, a few per
mille of a random_impacting pass; each part span adds about a microsecond
per call, up to about a tenth of a preset_probe pass and a twentieth of a
random_impacting one.  Typed msflab failures count as results, as in the
benchmark.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import msflab  # noqa: E402
import workloads  # noqa: E402

# Each layer's function, "module.function" in msflab.
LAYERS = {
    "settle_transient": "msf.settle_transient",
    "march": "msf.compute_tle",
    "_next_impact": "msf.detect_next_impact",
    "central": "jacobian.window_central_run",
    "batch": "jacobian.window_batch",
    "_estimate": "msf._estimate",
    "run_probe": "network.run_probe",
}
# Each split layer's parts: "module.function" or "module.Class.method" in
# msflab, patched in that module only.  A name ending in "()" returns a
# callable or a generator, and the span times the calls of the callable or
# each resumption of the generator.
PARTS = {
    "march": {
        "screen": ("msf._std_screen()",),
    },
    "_next_impact": {
        "scan": ("oscillator._crossing_offset",),
        "bisection": ("oscillator.bisect_crossing",),
    },
    "batch": {
        "lanes": ("jacobian.one_impact_runs",),
    },
    "_estimate": {
        "runs": ("jacobian._runner()",),
        "body": ("msf.event_window_jacobian",),
        "log": ("msf.scalar_log",),
    },
    "run_probe": {
        "scan": ("network._ModeSegments.scan", "network._first_crossing"),
        "refine": ("network.bisect_crossing", "network._ModeSegments.wall_distance"),
        "recompute": ("network._ModeSegments.to_modes", "network._ModeSegments.terms",
                      "network._ModeSegments.eval", "network._ModeSegments.point"),
        "bookkeeping": ("network._sync_measures", "network._SyncObserver.observe"),
    },
}


class Spans:
    """Self time and calls per layer and per (layer, part); a span's self time
    excludes the spans it encloses."""

    def __init__(self):
        keys = list(LAYERS) + [(layer, part) for layer in PARTS for part in PARTS[layer]]
        self.self_s = dict.fromkeys(keys, 0.0)
        self.calls = dict.fromkeys(keys, 0)
        self.stack: list[list] = []  # [key, enclosed time]
        self.layer: list[str] = []  # the open layer spans, innermost last

    def wrap(self, key, fn):
        def wrapper(*args, **kwargs):
            if isinstance(key, tuple) and key[0] != (self.layer[-1] if self.layer else None):
                return fn(*args, **kwargs)  # a part outside its layer
            frame = [key, 0.0]
            self.stack.append(frame)
            if not isinstance(key, tuple):
                self.layer.append(key)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.stack.pop()
                if not isinstance(key, tuple):
                    self.layer.pop()
                self.self_s[key] += dt - frame[1]
                self.calls[key] += 1
                if self.stack:
                    self.stack[-1][1] += dt

        return wrapper

    def wrap_factory(self, key, fn):
        def factory(*args, **kwargs):
            made = fn(*args, **kwargs)
            if inspect.isgenerator(made):  # next() calls the timed __next__ until it stops
                return iter(self.wrap(key, made.__next__), object())
            return self.wrap(key, made)

        return factory


def resolve(name: str, what: str = "") -> tuple:
    """(namespace, attribute) of a LAYERS or PARTS name in msflab; SystemExit if it has none."""
    module, *owner, attr = name.removesuffix("()").split(".")
    target = importlib.import_module(f"msflab.{module}")
    for cls in owner:
        target = getattr(target, cls, None)
    if target is None or attr not in vars(target):
        raise SystemExit(f"msflab has no {name} to time{what}")
    return target, attr


def install(spans: Spans) -> None:
    """Replace the layers' and the parts' functions for the rest of the process."""
    for layer, name in LAYERS.items():
        target, attr = resolve(name, f" as layer {layer}")
        original = getattr(target, attr)
        wrapper = spans.wrap(layer, original)
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").split(".")[0] == "msflab"
                    and getattr(module, attr, None) is original):
                setattr(module, attr, wrapper)
    for layer, parts in PARTS.items():
        for part, names in parts.items():
            for name in names:
                target, attr = resolve(name, f" as part {part} of {layer}")
                wrap = spans.wrap_factory if name.endswith("()") else spans.wrap
                setattr(target, attr, wrap((layer, part), getattr(target, attr)))


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
        took = {k: (spans.self_s[k] - before[0][k], spans.calls[k] - before[1][k])
                for k in spans.self_s}
        layers = {k: (took[k][0] + sum(took[k, part][0] for part in PARTS.get(k, ())), took[k][1])
                  for k in LAYERS}
        rest = total - sum(s for s, _ in layers.values())
        cells = "  ".join(f"{k} {s:.3f} s/{c}" for k, (s, c) in layers.items())
        print(f"pass {n}: {total:.3f} s  {cells}  rest {rest:.3f} s")
        for layer, parts in PARTS.items():
            if layers[layer][1]:
                split = "  ".join(f"{part} {took[layer, part][0]:.3f} s/{took[layer, part][1]}"
                                  for part in parts)
                print(f"  {layer} split: {split}  rest {took[layer][0]:.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
