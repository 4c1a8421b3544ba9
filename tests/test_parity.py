"""scripts/parity.py's record and compare, on hand-made results: no workload runs."""

import importlib.util
from pathlib import Path

import pytest

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
