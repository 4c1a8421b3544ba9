"""scripts/layer_times.py's span names resolve in msflab: nothing is timed or patched."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "layer_times.py"
_spec = importlib.util.spec_from_file_location("layer_times", _PATH)
layer_times = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layer_times)


@pytest.mark.parametrize("layer", list(layer_times.LAYERS))
def test_layer_resolves(layer):
    target, attr = layer_times.resolve(layer_times.LAYERS[layer])
    assert callable(getattr(target, attr))


@pytest.mark.parametrize("layer", list(layer_times.PARTS))
def test_parts_resolve(layer):
    assert layer in layer_times.LAYERS
    for names in layer_times.PARTS[layer].values():
        for name in names:
            target, attr = layer_times.resolve(name)
            assert callable(getattr(target, attr))


def test_missing_name_is_an_error():
    with pytest.raises(SystemExit, match=r"^msflab has no msf\._EventRecord\._estimate to time$"):
        layer_times.resolve("msf._EventRecord._estimate")
