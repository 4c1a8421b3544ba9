"""Every script in scripts/ imports against this msflab: nothing is run."""

import importlib.util
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_SCRIPTS = sorted((_ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", _SCRIPTS, ids=lambda path: path.stem)
def test_script_imports(path, monkeypatch):
    # Each script runs with its own directory on sys.path; the undo also drops
    # the entries a script adds itself.
    monkeypatch.syspath_prepend(str(_ROOT / "perfbench"))
    monkeypatch.syspath_prepend(str(_ROOT / "scripts"))
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
