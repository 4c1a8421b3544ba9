"""Time one benchmark workload's queries on two checkouts in one process.

Imports this checkout's msflab and another checkout's (given by its src
directory) under the name msflab_other, builds the workload's queries from
this checkout's perfbench/workloads.py once per side, and then runs the
whole query set on both sides once per round, alternating which side goes
first.  Each round compares the two sides' results as parity.py records
them (floats by repr, failures as "Type: message"); a difference prints
every differing result and stops the run with exit status 1.  Prints
JSON: the per-round times in seconds, their ratios (this checkout over
the other), the median ratio, its quartiles and the rounds this checkout
won.  With --timing-only the results are not compared, for a change that
is meant to move them.

Interleaving in one process shares the machine's momentary speed between
the two sides, so it resolves differences of a few percent that separate
benchmark runs cannot.  Only the timed query sets are compared; set-up
(``setup_s``) is run once per side and not timed.  Both packages read
their presets from this checkout's msflab (``importlib.resources`` looks
them up by the name msflab).

    python3 scripts/inprocess_ab.py ../parent/src --workload preset_probe --seed 3 --rounds 16
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import msflab  # noqa: E402
import parity  # noqa: E402
import workloads  # noqa: E402


def _load(name: str, path: Path, search=None):
    spec = importlib.util.spec_from_file_location(name, path, submodule_search_locations=search)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def other_workloads(src: Path):
    """perfbench/workloads.py bound to the msflab package under src."""
    package = src / "msflab"
    other = _load("msflab_other", package / "__init__.py", [str(package)])
    sys.modules["msflab"] = other  # what workloads.py's `import msflab` binds
    try:
        return _load("workloads_other", ROOT / "perfbench" / "workloads.py")
    finally:
        sys.modules["msflab"] = msflab


def run_set(queries) -> tuple[float, list]:
    results = []
    t0 = perf_counter()
    for q in queries:
        try:
            results.append(q.call())
        except Exception as exc:  # a typed failure is a result too
            results.append(exc)
    return perf_counter() - t0, results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other_src", type=Path, help="the other checkout's src directory")
    ap.add_argument("--workload", default="preset_probe", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--rounds", type=int, default=16)
    ap.add_argument("--timing-only", action="store_true",
                    help="time a change declared to move results: skip the comparison")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    if not (args.other_src / "msflab" / "__init__.py").is_file():
        ap.error(f"no msflab package under {args.other_src}")

    sides = []
    for module in (workloads, other_workloads(args.other_src.resolve())):
        workload = module.WORKLOADS[args.workload](args.seed, module.load_reference())
        sides.append(workload.queries(workload.setup()))
    labels = [q.label for q in sides[0]]
    times = ([], [])
    for r in range(args.rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        results = [None, None]
        for side in order:
            elapsed, results[side] = run_set(sides[side])
            times[side].append(elapsed)
        records = [[{"label": label, **parity.fields(x)} for label, x in zip(labels, side)]
                   for side in results]
        if not args.timing_only and parity.compare(*records, args.other_src):
            print(f"round {r}: results differ", file=sys.stderr)
            return 1

    ratios = [a / b for a, b in zip(*times)]
    q1, _, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "rounds": args.rounds,
        "queries": len(labels), "other_src": str(args.other_src),
        "this_s": times[0], "other_s": times[1], "ratio": ratios,
        "median_ratio": statistics.median(ratios), "quartiles": [q1, q3],
        "wins": sum(t < 1.0 for t in ratios),
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
