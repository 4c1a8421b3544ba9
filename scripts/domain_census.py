"""Outcome census of seeded random points from the valid parameter domain.

Draws --points points with np.random.default_rng(--seed) from the
benchmark's DOMAIN (perfbench/calibrate.py), in the catalogue's order
zeta, eta, R, u, with the wall at x_w = u * free_amplitude(zeta, eta),
and runs each as a ``random_impacting`` query (workloads.random_query:
settle 100 periods from rest, then alpha = -1 with a 150-period cap and a
50-sample window).  Prints one line per failure, with its type, the tau
it names and its message, then the count of each outcome: finite values,
non-finite values, each msflab failure type, and untyped exceptions,
which the ROADMAP's robustness aim says should never occur:

    PYTHONPATH=src python3 scripts/domain_census.py

msflab is imported from PYTHONPATH, so the census can run against another
checkout's source; the domain and the query come from this checkout's
perfbench/.  The default 400 points take about 20 seconds on one core.
"""

from __future__ import annotations

import argparse
import collections
import math
import re
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import msflab  # noqa: E402
from calibrate import DOMAIN, free_amplitude  # noqa: E402
from workloads import is_typed_failure, random_query  # noqa: E402


def _tau(exc: Exception) -> str:
    """The tau a failure names: its tau attribute, else the first tau= in its message."""
    if isinstance(getattr(exc, "tau", None), float):
        return f"{exc.tau:.6f}"
    found = re.search(r"tau=([-+0-9.e]+)", str(exc))
    return found.group(1) if found else "?"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--points", type=int, default=400)
    args = ap.parse_args(argv)
    if args.points < 1:
        ap.error("--points must be at least 1")

    rng = np.random.default_rng(args.seed)
    counts = collections.Counter()
    print(f"{args.points} points, seed {args.seed}, msflab from "
          f"{Path(msflab.__file__).resolve().parent}")
    for i in range(args.points):
        zeta, eta, R, u = (rng.uniform(*DOMAIN[k]) for k in ("zeta", "eta", "R", "u"))
        p = msflab.ImpactOscillatorParams(zeta=zeta, eta=eta, x_w=u * free_amplitude(zeta, eta), R=R)
        try:
            r = random_query(p)
        except Exception as exc:
            kind = type(exc).__name__ if is_typed_failure(exc) else "untyped"
            counts[kind] += 1
            print(f"point {i}: {type(exc).__name__} tau={_tau(exc)}: {exc}")
            continue
        counts["value" if math.isfinite(r.tle) else "non-finite"] += 1
    typed = sorted(set(counts) - {"value", "non-finite", "untyped"})
    for kind in ("value", "non-finite", *typed, "untyped"):
        print(f"{kind}: {counts[kind]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
