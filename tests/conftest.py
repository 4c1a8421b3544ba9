import math

import numpy as np
import pytest

from msflab.msf import TLESettings, _event_record, settle_transient
from msflab.oscillator import ImpactOscillatorParams

ELASTIC = ImpactOscillatorParams(zeta=0.05, eta=0.712, f=1.0, x_w=2.0, R=1.0)
INELASTIC = ImpactOscillatorParams(zeta=0.05, eta=0.5975, f=1.0, x_w=1.5, R=0.9)


@pytest.fixture(autouse=True)
def _event_record_through_patches(request):
    """A test that monkeypatches msflab builds event records through its patches
    and leaves none behind: msf keeps the record of the last base state it ran
    on, whatever kernels built it.  A record built before a patch is the test's
    own to clear."""
    if "monkeypatch" in request.fixturenames:
        _event_record.cache_clear()
    yield
    if "monkeypatch" in request.fixturenames:
        _event_record.cache_clear()


@pytest.fixture(scope="session")
def elastic() -> ImpactOscillatorParams:
    return ELASTIC


@pytest.fixture(scope="session")
def inelastic() -> ImpactOscillatorParams:
    return INELASTIC


@pytest.fixture(scope="session")
def elastic_base():
    # Settling the 500-period transient costs about a second; share it.
    return settle_transient(ELASTIC, TLESettings())


@pytest.fixture(scope="session")
def inelastic_base():
    return settle_transient(INELASTIC, TLESettings())


@pytest.fixture(scope="session")
def libm_trig_matches_numpy():
    """Skip unless math.cos/sin round as numpy's scalar and array cos/sin do.

    detect_next_impact evaluates scalars with math.cos and math.sin where
    segment_states uses numpy's; bit identity holds only where the two
    agree, so a host where they differ skips rather than reporting a scan
    fault.  The arguments span the rotation angles wd*dt and the forcing
    phases eta*tau the tests reach.
    """
    rng = np.random.default_rng(7)
    args = np.concatenate([rng.uniform(0.0, 10.0, 2000), rng.uniform(0.0, 3e4, 2000)])
    cos_arr, sin_arr = np.cos(args), np.sin(args)
    for i, a in enumerate(args.tolist()):
        if not (math.cos(a) == np.cos(a) == cos_arr[i] and math.sin(a) == np.sin(a) == sin_arr[i]):
            pytest.skip(
                f"math and numpy cos/sin round differently at {a!r} on this host, "
                f"so impact times may differ from segment_states' in the last bit"
            )


@pytest.fixture(scope="session")
def numpy_exp_scalar_matches_array():
    """Skip unless numpy's exp rounds a float as it rounds the same array element.

    The scalar scans, the bisection and propagate_free call np.exp on one
    float where segment_states calls it on arrays; numpy may dispatch its
    own SIMD exponential for arrays.  The arguments span the decays
    -zeta*dt the tests reach.
    """
    rng = np.random.default_rng(11)
    args = np.concatenate([-rng.uniform(0.0, 1e-2, 2000), -rng.uniform(0.0, 40.0, 2000)])
    exp_arr = np.exp(args)
    for i, a in enumerate(args.tolist()):
        if not np.exp(a) == exp_arr[i]:
            pytest.skip(
                f"numpy.exp rounds the float {a!r} differently from the same array "
                f"element on this host, so impact times may differ from segment_states' "
                f"in the last bit"
            )


@pytest.fixture(scope="session")
def numpy_hyperbolic_scalar_matches_array():
    """Skip unless numpy's cosh and sinh round a float as they round the same array element.

    The coupled probe's scalar recomputation (_ModeSegments.point) calls
    np.cosh and np.sinh on one float where _ModeSegments.eval calls them on
    arrays, for overdamped modes (s^2 > 0); math.cosh and math.sinh round
    differently on x86-64, so the scalars go through numpy.  The arguments
    span the products r*dt the tests reach.
    """
    rng = np.random.default_rng(13)
    args = np.concatenate([rng.uniform(0.0, 1e-2, 2000), rng.uniform(0.0, 12.0, 2000)])
    for name in ("cosh", "sinh"):
        func = getattr(np, name)
        values = func(args)
        for i, a in enumerate(args.tolist()):
            if not func(a) == values[i]:
                pytest.skip(
                    f"numpy.{name} rounds the float {a!r} differently from the same array "
                    f"element on this host, so the probe's recomputation may differ from "
                    f"_ModeSegments.eval in the last bit"
                )
