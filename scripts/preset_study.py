"""Two-oscillator study for one parameter preset.

Sweeps the transversal exponent over a sigma grid (alpha = -2 sigma for the
two-node graph), probes each grid point with a directly simulated pair, and
records the probe's residual local maxima as a bifurcation scatter.  Writes
CSVs and SVGs into the output directory and prints the sign-vs-outcome
agreement at the end.

Expect about 3 s (elastic) to 5 s (inelastic) for the default 21-point
grid on one core (measured on a 2-vCPU x86-64 VM shared with other load).
The exponent sweep takes about 0.6 s and 1 s of that, because its queries
share one trajectory record and march it in scalars; the rest is the
probe scan, where the positive-exponent points are the slow ones because
the pair never synchronizes and the probe runs its full horizon.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from pathlib import Path

import numpy as np

from msflab.config import load_preset, preset_names
from msflab.msf import SPRING_COUPLING, TLESettings, msf_sweep, settle_transient
from msflab.network import ProbeSettings, bifurcation_scan
from msflab.svgplot import line_plot

AMBIGUOUS = 0.01  # |exponent| below this is not trusted to predict the probe


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("preset", choices=preset_names())
    ap.add_argument("--out", type=Path, default=Path("preset_study"))
    ap.add_argument("--points", type=int, default=21)
    ap.add_argument("--sigma-max", type=float, default=1.25)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--seed", type=int, default=12345)
    args = ap.parse_args(argv)

    cfg = load_preset(args.preset)
    p = cfg.oscillator
    args.out.mkdir(parents=True, exist_ok=True)
    sigmas = np.linspace(0.0, args.sigma_max, args.points)

    t0 = time.perf_counter()
    base = settle_transient(p, TLESettings())
    points = msf_sweep(
        p,
        SPRING_COUPLING,
        [-2.0 * s for s in sigmas],
        [0.0],
        jobs=args.jobs,
        base_state=base,
    )
    print(f"exponent sweep done in {time.perf_counter() - t0:.1f}s", flush=True)

    probe = ProbeSettings(sigma=0.0, rng_seed=args.seed)
    scan = bifurcation_scan(
        p, SPRING_COUPLING, sigmas, probe, jobs=args.jobs, base_state=base
    )
    print(f"probe scan done in {time.perf_counter() - t0:.0f}s", flush=True)

    failures = [f"alpha={pt.alpha}: {pt.error}" for pt in points if pt.error]
    failures += [f"sigma={pt.sigma}: {pt.error}" for pt in scan if pt.error]
    if failures:
        raise RuntimeError("grid points failed: " + "; ".join(failures))

    with open(args.out / "sigma_exponents.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["sigma", "alpha", "tle", "converged"])
        for s, pt in zip(sigmas, points):
            r = pt.result
            w.writerow([repr(float(s)), repr(pt.alpha), repr(r.tle), r.converged])

    with open(args.out / "probe_outcomes.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["sigma", "synchronized", "sync_time"])
        for pt in scan:
            r = pt.result
            w.writerow([repr(pt.sigma), r.synchronized, "" if r.sync_time is None else repr(r.sync_time)])

    scatter_x, scatter_y = [], []
    with open(args.out / "bifurcation.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["sigma", "local_max"])
        for pt in scan:
            for m in pt.result.local_maxima:
                w.writerow([repr(pt.sigma), repr(m)])
                scatter_x.append(pt.sigma)
                scatter_y.append(m)

    tles = [pt.result.tle for pt in points]
    unconverged = [not pt.result.converged for pt in points]
    (args.out / "sigma_exponents.svg").write_text(
        line_plot(
            sigmas,
            tles,
            title=f"transversal exponent, {args.preset} preset",
            xlabel="sigma",
            ylabel="lambda",
            flagged=unconverged,
        )
    )
    (args.out / "bifurcation.svg").write_text(
        line_plot(
            scatter_x,
            scatter_y,
            title=f"probe residual maxima, {args.preset} preset",
            xlabel="sigma",
            ylabel="|x1 - x2| local maxima",
            draw_line=False,
        )
    )

    checked = agreed = 0
    for tle, pt in zip(tles, scan):
        if abs(tle) <= AMBIGUOUS:
            continue
        checked += 1
        agreed += (tle < 0.0) == pt.result.synchronized
    print(f"sign agreement: {agreed}/{checked} (|lambda| > {AMBIGUOUS} only)")
    print(f"outputs in {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
