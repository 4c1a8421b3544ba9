"""Write every TLE benchmark result as JSON, for bit-identity checks.

Runs the compute_tle queries of the ``preset_tle``, ``smooth_grid`` and
``random_impacting`` benchmark workloads for each workload seed given
(default 3 and 7: 2 x (8 + 93 + 11) = 224 results), in the order the
benchmark runs them, and prints, per query, every field of TLEResult with
every float written by repr, or the type and message of the msflab
exception it raised.  Before a workload's queries it prints the settled
base states they start from (x, v and tau by repr): the set-up's, and for
``random_impacting`` the settle from rest of each point, or the type and
message of the settle's failure.  That pins simulate's path directly, not
only through the exponents.  Two commits give the same settled states and
exponent results bit for bit exactly when their outputs are identical, so
a check is one diff:

    PYTHONPATH=src python3 scripts/tle_parity.py > new.json
    PYTHONPATH=../old/src python3 scripts/tle_parity.py > old.json
    diff old.json new.json

msflab is imported from PYTHONPATH, so the script can run against another
checkout's source; the workload definitions come from this checkout's
perfbench/.  Per seed that is 2 + 1 + 11 = 14 settled states; the
random_impacting points settle twice, once for the record and once in
their query.  Takes about fifteen seconds per seed on one core.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import msflab  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("preset_tle", "smooth_grid", "random_impacting")


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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[3, 7])
    ap.add_argument("--out", type=Path, help="write here instead of stdout")
    args = ap.parse_args(argv)

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
    text = json.dumps(records, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
