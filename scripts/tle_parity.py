"""Write every TLE benchmark result as JSON, for bit-identity checks.

Runs the compute_tle queries of the ``preset_tle``, ``smooth_grid`` and
``random_impacting`` benchmark workloads for each workload seed given, in
the order the benchmark runs them, and after ``preset_tle``'s the complex
queries of COMPLEX_QUERIES on its base states (default seeds 3 and 7:
2 x (8 + 4 + 93 + 11) = 232 results).  No workload runs a complex
(beta != 0) event-window step, since ``smooth_grid`` is wall-free; these
queries do.  Prints, per query, every field of TLEResult with
every float written by repr, or the type and message of the msflab
exception it raised.  Before a workload's queries it prints the settled
base states they start from (x, v and tau by repr): the set-up's, and for
``random_impacting`` the settle from rest of each point, or the type and
message of the settle's failure.  That pins simulate's path directly, not
only through the exponents.  Two commits give the same settled states and
exponent results bit for bit exactly when their outputs are identical, so
a check is one command:

    PYTHONPATH=src python3 scripts/tle_parity.py --against ../old/src

runs the same seeds on another checkout's msflab (given by its src
directory) in a subprocess, alongside this process, prints the first line
where the two outputs differ, or that they are identical, and exits 1 on
any difference.  msflab is imported from PYTHONPATH, so without --against
the script writes one checkout's output for a later diff; the workload
definitions come from this checkout's perfbench/.  Per seed that is
2 + 1 + 11 = 14 settled states; the random_impacting points settle twice,
once for the record and once in their query.  Takes about fifteen seconds
per seed on one core.
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

WORKLOADS = ("preset_tle", "smooth_grid", "random_impacting")
# (alpha, beta) run on each preset's preset_tle base state.
COMPLEX_QUERIES = ((-0.5, 0.5), (-1.0, -0.25))


def _field(value):
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return [_field(v) for v in value]
    return value


def _record(workload: str, seed: int, kind: str, label: str, call) -> dict:
    """The fields of call()'s result (a TLEResult or an OscState), or its typed failure."""
    out = {"workload": workload, "seed": seed, kind: label}
    try:
        result = call()
    except Exception as exc:
        if not workloads.is_typed_failure(exc):
            raise
        out["error"] = f"{type(exc).__name__}: {exc}"
        return out
    out.update({f.name: _field(getattr(result, f.name)) for f in dataclasses.fields(result)})
    return out


def _settles(name: str, setup):
    """(label, call) per settled base state the workload's queries start from."""
    if name == "random_impacting":
        return [
            (f"zeta={p.zeta!r} eta={p.eta!r} x_w={p.x_w!r} R={p.R!r}",
             lambda p=p: msflab.settle_transient(p, workloads.SHORT_SETTINGS))
            for p, _ in setup
        ]
    bases = setup if isinstance(setup, dict) else {"base": setup}
    return [(label, lambda s=s: s) for label, s in bases.items()]


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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[3, 7])
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
    records = []
    for seed in args.seeds:
        for name in WORKLOADS:
            workload = workloads.WORKLOADS[name](seed, reference)
            setup = workload.setup()
            for label, call in _settles(name, setup):
                records.append(_record(name, seed, "settle", label, call))
            for q in workload.queries(setup):
                records.append(_record(name, seed, "query", q.label, q.call))
            if name == "preset_tle":
                for label, call in _complex_queries(seed, setup):
                    records.append(_record("preset_tle_complex", seed, "query", label, call))
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
    return _compare(text.splitlines(), theirs.splitlines(), args.against)


def _compare(ours: list, theirs: list, against: Path) -> int:
    """0 if the outputs are equal; else print their first differing line and return 1."""
    for n, (a, b) in enumerate(zip(ours, theirs), 1):
        if a != b:
            print(f"line {n} differs:\n  this:  {a}\n  other: {b}")
            return 1
    if len(ours) != len(theirs):
        print(f"line {min(len(ours), len(theirs)) + 1} differs: this has "
              f"{len(ours)} lines, {against} {len(theirs)}")
        return 1
    print(f"identical: {len(ours)} lines against {against}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
