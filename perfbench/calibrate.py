"""Record the seed code's outcomes that the benchmark checks against.

    PYTHONPATH=src python3 perfbench/calibrate.py

Writes perfbench/reference.json (about six minutes on two CPUs):

* preset_tle: the exponent at each (preset, sigma) with the default
  initial perturbation, and the tolerance for |tle - reference|.  The
  tolerance is measured: each point is rerun with a 1e-12 shift of the base
  state and a seeded initial perturbation, and the tolerance is twice the
  largest deviation seen.  Rounding changes from a legitimate speed-up act
  like such a shift, so bit identity would be the wrong test.
* preset_probe: the synchronized flag at each (preset, sigma) for each of
  the PROBE_SEEDS probe seeds, under the benchmark's period cap.
* random_impacting: a catalogue of points drawn once from the domain, each
  run once from rest with its outcome (value or typed failure), its cost
  and its number of delta/10 window retries.
"""

from __future__ import annotations

import json
import math
import sys
import time

import numpy as np

import msflab
from workloads import (
    PROBE_MAX_PERIODS, PROBE_SEEDS, REFERENCE_PATH, SIGMAS, TLE_SETTINGS,
    is_typed_failure, preset_params, random_query, unit_vector,
)

TLE_TRIALS = 8
CATALOGUE_SEED = 20261017
CATALOGUE_SIZE = 80
DOMAIN = {"zeta": [0.01, 0.2], "eta": [0.3, 3.0], "R": [0.5, 1.0], "u": [0.2, 0.95]}


def free_amplitude(zeta: float, eta: float) -> float:
    a, b = msflab.steady_state_coefficients(
        msflab.ImpactOscillatorParams(zeta=zeta, eta=eta, wall_enabled=False)
    )
    return math.hypot(a, b)


def calibrate_tle() -> dict:
    tle, max_dev = {}, {}
    for j, (name, p) in enumerate(preset_params().items()):
        base = msflab.settle_transient(p, TLE_SETTINGS)
        tle[name], max_dev[name] = {}, {}
        for i, sigma in enumerate(SIGMAS):
            query = msflab.MSFQuery(alpha=-2.0 * sigma)
            ref = msflab.compute_tle(p, msflab.SPRING_COUPLING, query, TLE_SETTINGS, base_state=base).tle
            devs = []
            for k in range(TLE_TRIALS):
                shift = (1e-12, 0.0) if k % 2 == 0 else (0.0, 1e-12)
                moved = msflab.OscState(base.x + shift[0], base.v + shift[1], base.tau)
                r = msflab.compute_tle(
                    p, msflab.SPRING_COUPLING, query, TLE_SETTINGS, base_state=moved,
                    initial_perturbation=unit_vector((1000 + k, j, i)),
                )
                devs.append(abs(r.tle - ref))
            tle[name][repr(sigma)] = ref
            max_dev[name][repr(sigma)] = max(devs)
            print(f"preset_tle {name} sigma={sigma}: tle={ref:+.5f} max dev {max(devs):.2e}", flush=True)
    worst = max(d for per in max_dev.values() for d in per.values())
    return {
        "tle": tle, "max_deviation": max_dev, "trials": TLE_TRIALS,
        "tolerance": float(f"{2.0 * worst:.2g}"),
    }


def calibrate_probe() -> dict:
    synced, sync_periods = {}, {}
    for name, p in preset_params().items():
        base = msflab.settle_transient(p, TLE_SETTINGS)
        synced[name], sync_periods[name] = {}, {}
        for i, sigma in enumerate(SIGMAS):
            flags, periods = [], []
            for seed in range(PROBE_SEEDS):
                settings = msflab.ProbeSettings(
                    sigma=sigma, rng_seed=(seed, i), max_periods=PROBE_MAX_PERIODS
                )
                r = msflab.run_probe(p, msflab.SPRING_COUPLING, settings, base_state=base)
                flags.append(r.synchronized)
                periods.append(r.periods_run)
            synced[name][repr(sigma)] = flags
            sync_periods[name][repr(sigma)] = periods
            print(f"preset_probe {name} sigma={sigma}: {flags} periods {periods}", flush=True)
    return {"synchronized": synced, "periods_run": sync_periods, "seeds": PROBE_SEEDS}


def calibrate_catalogue() -> dict:
    rng = np.random.default_rng(CATALOGUE_SEED)
    points = []
    for _ in range(CATALOGUE_SIZE):
        zeta, eta, R, u = (rng.uniform(*DOMAIN[k]) for k in ("zeta", "eta", "R", "u"))
        pt = {"zeta": zeta, "eta": eta, "R": R, "u": u, "x_w": u * free_amplitude(zeta, eta)}
        p = msflab.ImpactOscillatorParams(zeta=zeta, eta=eta, x_w=pt["x_w"], R=R)
        t0 = time.perf_counter()
        try:
            r = random_query(p)
            pt["outcome"] = "value" if math.isfinite(r.tle) else "non-finite"
            pt["retries"] = sum("event counts disagreed" in w for w in r.warnings)
        except Exception as exc:
            if not is_typed_failure(exc):
                raise
            pt["outcome"] = type(exc).__name__
        pt["cost_s"] = round(time.perf_counter() - t0, 3)
        print(f"random_impacting {len(points)}: {pt['outcome']} {pt['cost_s']}s "
              f"retries {pt.get('retries', 0)}", flush=True)
        points.append(pt)
    return {"seed": CATALOGUE_SEED, "domain": DOMAIN, "points": points}


def main() -> int:
    ref = {
        "preset_tle": calibrate_tle(),
        "preset_probe": calibrate_probe(),
        "random_impacting": calibrate_catalogue(),
    }
    for section in ref.values():
        section["msflab_version"] = msflab.__version__
    REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
