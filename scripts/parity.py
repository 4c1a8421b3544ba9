"""Write every benchmark exponent and probe result as JSON, for bit-identity checks.

The exponent suite runs, per workload seed (default 3 and 7), the
compute_tle queries of the ``preset_tle``, ``smooth_grid`` and
``random_impacting`` workloads in the benchmark's order, each workload's
preceded by the settled base states they start from (for
``random_impacting`` each point's settle from rest, which its query
repeats), and after ``preset_tle``'s the complex (beta != 0) queries of
COMPLEX_QUERIES on its base states, which no workload runs: 2 x (2 + 1 +
11) = 28 states and 2 x (8 + 4 + 93 + 11) = 232 exponents.  The probe
suite runs the ``preset_probe`` probes for all its probe seeds (80), the
same on the three-node all-to-all graph for THREE_NODE_SEEDS seeds (16;
two transverse modes share one generator), the elastic preset at the
overdamped OVERDAMPED_SIGMAS (4; s^2 > 0), CHATTER_POINT probed from rest
(1) and the critical CRITICAL point (2; s^2 = 0): 103 probes.

Each result is one record(label, call): the fields of the OscState,
TLEResult or ProbeResult, every float by repr, or "Type: message" for the
msflab exception raised.  Two commits give the same results bit for bit
exactly when their records are equal, so a check is one command:

    PYTHONPATH=src python3 scripts/parity.py --against ../old/src

It runs this script on another checkout's msflab (given by its src
directory) in a subprocess alongside this one, prints every differing
record by label, field by field, and exits 1 on any difference.  msflab
is imported from PYTHONPATH; the workloads come from this checkout's
perfbench/.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import msflab  # noqa: E402
import workloads  # noqa: E402

TLE_WORKLOADS = ("preset_tle", "smooth_grid", "random_impacting")
# (alpha, beta) run on each preset's preset_tle base state.
COMPLEX_QUERIES = ((-0.5, 0.5), (-1.0, -0.25))
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


def _value(value):
    if isinstance(value, float):  # numpy 2's repr writes np.float64(...)
        return float.__repr__(value)
    if isinstance(value, list):
        return [_value(v) for v in value]
    return value


def fields(outcome) -> dict:
    """A result's dataclass fields, every float by repr, or an exception as "Type: message"."""
    if isinstance(outcome, BaseException):
        return {"error": f"{type(outcome).__name__}: {outcome}"}
    return {f.name: _value(getattr(outcome, f.name)) for f in dataclasses.fields(outcome)}


def record(label: str, call) -> dict:
    """The label and the fields of call()'s result or typed msflab failure;
    an untyped failure propagates."""
    try:
        outcome = call()
    except Exception as exc:
        if not workloads.is_typed_failure(exc):
            raise
        outcome = exc
    return {"label": label, **fields(outcome)}


def _settles(name: str, setup):
    """(label, call) per settled base state the workload's queries start from."""
    if name == "random_impacting":
        return [
            (f"settle zeta={p.zeta!r} eta={p.eta!r} x_w={p.x_w!r} R={p.R!r}",
             lambda p=p: msflab.settle_transient(p, workloads.SHORT_SETTINGS))
            for p, _ in setup
        ]
    bases = setup if isinstance(setup, dict) else {"base": setup}
    return [(f"settle {label}", lambda s=s: s) for label, s in bases.items()]


def _complex_queries(seed: int, bases):
    """(label, call) per COMPLEX_QUERIES point on each preset, with a seeded perturbation."""
    out = []
    for j, (name, p) in enumerate(workloads.preset_params().items()):
        for k, (alpha, beta) in enumerate(COMPLEX_QUERIES):
            xi = workloads.unit_vector((seed, j, len(workloads.SIGMAS) + k))
            call = lambda p=p, b=bases[name], q=msflab.MSFQuery(alpha, beta), xi=xi: (
                msflab.compute_tle(p, msflab.SPRING_COUPLING, q, workloads.TLE_SETTINGS,
                                   base_state=b, initial_perturbation=xi)
            )
            out.append((f"{name} alpha={alpha!r} beta={beta!r}", call))
    return out


def tle_records(seed: int, reference: dict) -> list[dict]:
    records = []
    for name in TLE_WORKLOADS:
        workload = workloads.WORKLOADS[name](seed, reference)
        setup = workload.setup()
        calls = _settles(name, setup) + [(q.label, q.call) for q in workload.queries(setup)]
        if name == "preset_tle":
            calls += _complex_queries(seed, setup)
        records += [record(f"{name} seed={seed} {label}", call) for label, call in calls]
    return records


def probe_records() -> list[dict]:
    params = workloads.preset_params()
    bases = {n: msflab.settle_transient(p, workloads.TLE_SETTINGS) for n, p in params.items()}
    two, three = msflab.TWO_NODE_GRAPH, msflab.all_to_all_graph(3)
    grids = [(two, s, params, workloads.SIGMAS) for s in range(workloads.PROBE_SEEDS)]
    grids += [(three, s, params, workloads.SIGMAS) for s in range(THREE_NODE_SEEDS)]
    grids += [(two, s, {"elastic": params["elastic"]}, OVERDAMPED_SIGMAS)
              for s in range(OVERDAMPED_SEEDS)]
    runs = [
        (graph, name, p, bases[name], probe_seed, msflab.ProbeSettings(
            sigma=sigma, rng_seed=(probe_seed, i), max_periods=workloads.PROBE_MAX_PERIODS))
        for graph, probe_seed, presets, sigmas in grids
        for name, p in presets.items()
        for i, sigma in enumerate(sigmas)
    ]
    runs.append((two, "chatter_point", CHATTER_POINT, msflab.OscState(0.0, 0.0, 0.0), 0,
                 msflab.ProbeSettings(sigma=0.0, max_periods=5, record_window=5)))
    runs += [(two, "critical_point", CRITICAL, CRITICAL_BASE, probe_seed, msflab.ProbeSettings(
        sigma=-0.5, rng_seed=(probe_seed, 0), max_periods=workloads.PROBE_MAX_PERIODS))
             for probe_seed in range(CRITICAL_SEEDS)]
    return [
        record(f"probe nodes={graph.n_nodes} {name} probe_seed={probe_seed} sigma={s.sigma!r}",
               lambda p=p, s=s, g=graph, b=base: msflab.run_probe(
                   p, msflab.SPRING_COUPLING, s, graph=g, base_state=b))
        for graph, name, p, base, probe_seed, s in runs
    ]


def compare(ours: list[dict], theirs: list[dict], against) -> int:
    """Print every differing record, field by field (of two lists of one
    length, the differing entries), and any difference in length; 1 if
    there is one, else 0."""
    differing = [(a, b) for a, b in zip(ours, theirs) if a != b]
    for a, b in differing:
        print(f"{a['label']} differs:")
        for key in dict.fromkeys([*a, *b]):
            x, y = a.get(key), b.get(key)
            if isinstance(x, list) and isinstance(y, list) and len(x) == len(y):
                at = [i for i, (u, v) in enumerate(zip(x, y)) if u != v]
                key, x, y = f"{key}{at}", [x[i] for i in at], [y[i] for i in at]
            if x != y:
                print(f"  {key}\n    this:  {x}\n    other: {y}")
    if len(ours) != len(theirs):
        print(f"this has {len(ours)} records, {against} {len(theirs)}")
    return int(bool(differing) or len(ours) != len(theirs))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[3, 7],
                    help="workload seeds of the exponent suite")
    ap.add_argument("--out", type=Path, help="write here instead of stdout")
    ap.add_argument("--against", type=Path, metavar="OTHER_SRC",
                    help="compare with the msflab package under this src directory")
    args = ap.parse_args(argv)
    other = None
    if args.against:
        if not (args.against / "msflab" / "__init__.py").is_file():
            ap.error(f"no msflab package under {args.against}")
        path = [str(args.against.resolve())] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        other = subprocess.Popen(
            [sys.executable, __file__, "--seeds", *map(str, args.seeds)],
            env=env, stdout=subprocess.PIPE, text=True,
        )

    reference = workloads.load_reference()
    records = [r for seed in args.seeds for r in tle_records(seed, reference)] + probe_records()
    text = json.dumps(records, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    elif other is None:
        sys.stdout.write(text)
    if other is None:
        return 0
    theirs = other.communicate()[0]
    if other.returncode:
        print(f"the run on {args.against} failed with exit status {other.returncode}")
        return 1
    if compare(records, json.loads(theirs), args.against):
        return 1
    print(f"identical: {len(records)} records against {args.against}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
