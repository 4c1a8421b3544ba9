"""Write every preset_probe benchmark result as JSON, for bit-identity checks.

Runs the probe queries of the ``preset_probe`` benchmark workload for all
of its probe seeds (10 seeds x 2 presets x 4 sigmas = 80 results), then
the same presets and sigmas on the three-node all-to-all graph for the
first THREE_NODE_SEEDS probe seeds (16 results; its two transverse modes
share one generator), then the elastic preset at the negative sigmas
OVERDAMPED_SIGMAS for the first OVERDAMPED_SEEDS probe seeds (4 results;
their transverse mode is overdamped, s^2 > 0, and stays finite), then
the complete-chatter catalogue point CHATTER_POINT probed from rest at
sigma = 0 over 5 periods (1 result), then the undamped CRITICAL point at
sigma = -0.5 from CRITICAL_BASE for the first CRITICAL_SEEDS probe seeds
(2 results; its transverse generator is critical, s^2 = 0, with the flow
factors 1 and dt), 103 results in all, and prints, per result, the fields
of ProbeResult with every float written by repr, or the type and message
of the msflab exception it raised.  Two commits give the same probe
results bit for bit exactly when their outputs are identical, so a check
is one diff:

    PYTHONPATH=src python3 scripts/probe_parity.py > new.json
    PYTHONPATH=../old/src python3 scripts/probe_parity.py > old.json
    diff old.json new.json

msflab is imported from PYTHONPATH, so the script can run against another
checkout's source; the workload definition comes from this checkout's
perfbench/.  Takes about 10-20 s on one core.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import msflab  # noqa: E402
import workloads  # noqa: E402


THREE_NODE_SEEDS = 2
OVERDAMPED_SIGMAS = (-0.6, -0.5)
OVERDAMPED_SEEDS = 2
# random_impacting catalogue point 42, whose impacts accumulate near tau = 19.19.
CHATTER_POINT = msflab.ImpactOscillatorParams(
    zeta=0.07424109529981779, eta=0.34478727863484854,
    x_w=0.5666034302401003, R=0.5409710972632726,
)
# zeta = 0 and sigma*gamma = 1 give the transverse generator s^2 = 0.
CRITICAL = msflab.ImpactOscillatorParams(zeta=0.0, eta=0.712, x_w=2.0, R=1.0)
CRITICAL_BASE = msflab.OscState(1.2, 0.4, 0.0)
CRITICAL_SEEDS = 2


def _floats(values) -> list[str]:
    return [repr(float(v)) for v in values]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, help="write here instead of stdout")
    args = ap.parse_args(argv)

    params = workloads.preset_params()
    bases = {n: msflab.settle_transient(p, workloads.TLE_SETTINGS) for n, p in params.items()}
    two, three = msflab.TWO_NODE_GRAPH, msflab.all_to_all_graph(3)
    grids = [(two, s, params, workloads.SIGMAS) for s in range(workloads.PROBE_SEEDS)]
    grids += [(three, s, params, workloads.SIGMAS) for s in range(THREE_NODE_SEEDS)]
    elastic = {"elastic": params["elastic"]}
    grids += [(two, s, elastic, OVERDAMPED_SIGMAS) for s in range(OVERDAMPED_SEEDS)]
    runs = [
        (graph, name, p, sigma, bases[name], msflab.ProbeSettings(
            sigma=sigma, rng_seed=(probe_seed, i), max_periods=workloads.PROBE_MAX_PERIODS,
        ), probe_seed)
        for graph, probe_seed, presets, sigmas in grids
        for name, p in presets.items()
        for i, sigma in enumerate(sigmas)
    ]
    runs.append((two, "chatter_point", CHATTER_POINT, 0.0, msflab.OscState(0.0, 0.0, 0.0),
                 msflab.ProbeSettings(sigma=0.0, max_periods=5, record_window=5), 0))
    runs += [
        (two, "critical_point", CRITICAL, -0.5, CRITICAL_BASE, msflab.ProbeSettings(
            sigma=-0.5, rng_seed=(probe_seed, 0), max_periods=workloads.PROBE_MAX_PERIODS,
        ), probe_seed)
        for probe_seed in range(CRITICAL_SEEDS)
    ]
    records = []
    for graph, name, p, sigma, base, settings, probe_seed in runs:
        out = {"nodes": graph.n_nodes, "preset": name, "sigma": repr(sigma), "probe_seed": probe_seed}
        try:
            r = msflab.run_probe(p, msflab.SPRING_COUPLING, settings, graph=graph, base_state=base)
        except Exception as exc:
            if not workloads.is_typed_failure(exc):
                raise
            out["error"] = f"{type(exc).__name__}: {exc}"
        else:
            out.update({
                "synchronized": r.synchronized,
                "sync_time": None if r.sync_time is None else repr(float(r.sync_time)),
                "periods_run": r.periods_run,
                "local_maxima": _floats(r.local_maxima),
                "impact_times": _floats(r.impact_times),
            })
        records.append(out)
    text = json.dumps(records, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
