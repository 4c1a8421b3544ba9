"""Write every preset_probe benchmark result as JSON, for bit-identity checks.

Runs the probe queries of the ``preset_probe`` benchmark workload for all
of its probe seeds (10 seeds x 2 presets x 4 sigmas = 80 results), then
the same presets and sigmas on the three-node all-to-all graph for the
first THREE_NODE_SEEDS probe seeds (16 results; its two transverse modes
share one generator), then the elastic preset at the negative sigmas
OVERDAMPED_SIGMAS for the first OVERDAMPED_SEEDS probe seeds (4 results;
their transverse mode is overdamped, s^2 > 0, and stays finite), and
prints, per result, the fields of ProbeResult with every float written by
repr.  Two commits give the same probe results bit for bit exactly when
their outputs are identical, so a check is one diff:

    PYTHONPATH=src python3 scripts/probe_parity.py > new.json
    PYTHONPATH=../old/src python3 scripts/probe_parity.py > old.json
    diff old.json new.json

msflab is imported from PYTHONPATH, so the script can run against another
checkout's source; the workload definition comes from this checkout's
perfbench/.  Takes about half a minute on one core.
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


def _floats(values) -> list[str]:
    return [repr(float(v)) for v in values]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, help="write here instead of stdout")
    args = ap.parse_args(argv)

    params = workloads.preset_params()
    bases = {n: msflab.settle_transient(p, workloads.TLE_SETTINGS) for n, p in params.items()}
    two, three = msflab.TWO_NODE_GRAPH, msflab.all_to_all_graph(3)
    runs = [(two, s, params, workloads.SIGMAS) for s in range(workloads.PROBE_SEEDS)]
    runs += [(three, s, params, workloads.SIGMAS) for s in range(THREE_NODE_SEEDS)]
    elastic = {"elastic": params["elastic"]}
    runs += [(two, s, elastic, OVERDAMPED_SIGMAS) for s in range(OVERDAMPED_SEEDS)]
    records = []
    for graph, probe_seed, presets, sigmas in runs:
        for name, p in presets.items():
            for i, sigma in enumerate(sigmas):
                settings = msflab.ProbeSettings(
                    sigma=sigma,
                    rng_seed=(probe_seed, i),
                    max_periods=workloads.PROBE_MAX_PERIODS,
                )
                r = msflab.run_probe(
                    p, msflab.SPRING_COUPLING, settings, graph=graph, base_state=bases[name]
                )
                records.append({
                    "nodes": graph.n_nodes,
                    "preset": name,
                    "sigma": repr(sigma),
                    "probe_seed": probe_seed,
                    "synchronized": r.synchronized,
                    "sync_time": None if r.sync_time is None else repr(float(r.sync_time)),
                    "periods_run": r.periods_run,
                    "local_maxima": _floats(r.local_maxima),
                    "impact_times": _floats(r.impact_times),
                })
    text = json.dumps(records, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
