"""scripts/parity.py's record and compare, on hand-made results, and its
exponent suite under two BLAS kernels."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from msflab import msf
from msflab.jacobian import InvalidWindowError
from msflab.oscillator import OscState

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "parity.py"
_spec = importlib.util.spec_from_file_location("parity", _PATH)
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)


def test_record_writes_floats_by_repr():
    a = parity.record("a", lambda: OscState(0.1 + 0.2, -0.0, 1.0))
    b = parity.record("a", lambda: OscState(0.3, 0.0, 1.0))
    assert a == {"label": "a", "x": "0.30000000000000004", "v": "-0.0", "tau": "1.0"}
    assert b == {"label": "a", "x": "0.3", "v": "0.0", "tau": "1.0"}


def test_record_keeps_typed_failures_and_propagates_others():
    def typed():
        raise InvalidWindowError("window at tau=1.000000")

    def untyped():
        raise ZeroDivisionError("float division by zero")

    assert parity.record("w", typed) == {
        "label": "w", "error": "InvalidWindowError: window at tau=1.000000",
    }
    with pytest.raises(ZeroDivisionError):
        parity.record("z", untyped)


def _records(*xs):
    return [parity.record(f"r{i}", lambda x=x: OscState(x, 0.0, 0.0)) for i, x in enumerate(xs)]


def test_compare_lists_every_differing_record(capsys):
    ours, theirs = _records(1.0, 2.0, 3.0), _records(1.0, 2.5, 3.5)
    assert parity.compare(ours, theirs, "other") == 1
    out = capsys.readouterr().out
    assert "r0" not in out
    assert "r1 differs:" in out and "r2 differs:" in out
    assert "this:  3.0" in out and "other: 3.5" in out


def test_compare_names_differing_list_entries(capsys):
    ours = [{"label": "s", "samples": ["1.0", "2.0", "3.0"], "tle": "3.0"}]
    theirs = [{"label": "s", "samples": ["1.0", "2.5", "3.0"], "tle": "3.0"}]
    assert parity.compare(ours, theirs, "other") == 1
    assert capsys.readouterr().out == (
        "s differs:\n  samples[1]\n    this:  ['2.0']\n    other: ['2.5']\n"
    )


def test_compare_reports_length_mismatch(capsys):
    assert parity.compare(_records(1.0, 2.0), _records(1.0), "other") == 1
    assert "this has 2 records, other 1" in capsys.readouterr().out
    assert parity.compare(_records(1.0), _records(1.0, 2.0), "other") == 1


def test_compare_equal_records(capsys):
    assert parity.compare(_records(1.0, -0.0), _records(1.0, -0.0), "other") == 0
    assert capsys.readouterr().out == ""


# Run in a subprocess: a canary, numpy's complex 2x2 dot on seeded cases,
# and parity's exponent records for workload seed 3.
_KERNEL_RUN = """
import importlib.util, json, sys
import numpy as np
spec = importlib.util.spec_from_file_location("parity", sys.argv[1])
parity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(parity)
rng = np.random.default_rng(0)
canary = [
    (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    .dot(rng.standard_normal(2) + 1j * rng.standard_normal(2)).tobytes().hex()
    for _ in range(8)
]
records = parity.tle_records(3, parity.workloads.load_reference())
print(json.dumps({"canary": canary, "records": records}))
"""


def test_exponents_do_not_depend_on_the_blas_kernel():
    # OPENBLAS_CORETYPE=Prescott makes a DYNAMIC_ARCH OpenBLAS take its
    # kernels without FMA; the canary shows whether that changes numpy's
    # rounding here at all.
    src = str(Path(msf.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])

    def run(**kernel):
        out = subprocess.run(
            [sys.executable, "-c", _KERNEL_RUN, str(_PATH)], env=dict(env, **kernel),
            capture_output=True, text=True, timeout=600,
        )
        assert out.returncode == 0, out.stderr
        return json.loads(out.stdout)

    default, prescott = run(), run(OPENBLAS_CORETYPE="Prescott")
    if default["canary"] == prescott["canary"]:
        pytest.skip("OPENBLAS_CORETYPE=Prescott does not change numpy's complex dot here "
                    "(no FMA, no DYNAMIC_ARCH OpenBLAS, or another BLAS)")
    assert len(default["records"]) == 130
    assert parity.compare(default["records"], prescott["records"], "Prescott") == 0
