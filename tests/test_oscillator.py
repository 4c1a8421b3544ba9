import itertools
import json
import math
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import grid_scan_impact, oscillator_rhs, rk4_integrate, taylor_expm
from msflab import oscillator
from msflab.config import load_preset
from msflab.jacobian import GrazingSingularityError
from msflab.msf import SPRING_COUPLING, MSFQuery, TLESettings, compute_tle
from msflab.oscillator import (
    BISECTION_TOL,
    GRAZING_TOL,
    ChatterError,
    DimensionalParams,
    ImpactOscillatorParams,
    InvalidParameterError,
    OscState,
    ResonanceError,
    bisect_crossing,
    detect_next_impact,
    nondimensionalize,
    propagate_free,
    sample_trajectory,
    segment_propagator,
    segment_states,
    simulate,
    steady_state_coefficients,
)

# Independently computed at 40 decimal digits from the standard resonance
# denominator D = (1 - eta^2)^2 + (2 zeta eta)^2.
FROZEN_COEFFS = {
    (0.05, 0.712): (1.9867378420278021, 0.286895878667696),
    (0.05, 0.5975): (1.5419106723611662, 0.14328158348907696),
}

finite_states = st.tuples(
    st.floats(-3.0, 1.9),
    st.floats(-3.0, 3.0),
    st.floats(0.0, 20.0),
)


class TestSteadyState:
    def test_frozen_values(self):
        for (zeta, eta), (a_ref, b_ref) in FROZEN_COEFFS.items():
            p = ImpactOscillatorParams(zeta=zeta, eta=eta, wall_enabled=False)
            a, b = steady_state_coefficients(p)
            assert a == pytest.approx(a_ref, abs=1e-14)
            assert b == pytest.approx(b_ref, abs=1e-14)

    def test_solves_the_ode(self):
        p = ImpactOscillatorParams(zeta=0.05, eta=0.712, wall_enabled=False)
        a, b = steady_state_coefficients(p)
        # x_p'' + 2 zeta x_p' + x_p == f cos(eta tau) at arbitrary tau.
        for tau in (0.0, 0.7, 2.9):
            c, s = math.cos(p.eta * tau), math.sin(p.eta * tau)
            x = a * c + b * s
            xd = p.eta * (-a * s + b * c)
            xdd = p.eta**2 * (-a * c - b * s)
            assert xdd + 2 * p.zeta * xd + x == pytest.approx(c, abs=1e-12)

    def test_zero_forcing(self):
        p = ImpactOscillatorParams(zeta=0.05, eta=1.0, f=0.0, wall_enabled=False)
        assert steady_state_coefficients(p) == (0.0, 0.0)

    def test_resonance_rejected(self):
        p = ImpactOscillatorParams(zeta=0.0, eta=1.0, wall_enabled=False)
        with pytest.raises(ResonanceError):
            steady_state_coefficients(p)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(zeta=-0.01, eta=1.0, x_w=2.0),
            dict(zeta=1.0, eta=1.0, x_w=2.0),
            dict(zeta=0.05, eta=0.0, x_w=2.0),
            dict(zeta=0.05, eta=-1.0, x_w=2.0),
            dict(zeta=0.05, eta=1.0, f=-0.5, x_w=2.0),
            dict(zeta=0.05, eta=1.0, f=math.nan, x_w=2.0),
            dict(zeta=0.05, eta=1.0, f=math.inf, x_w=2.0),
            dict(zeta=0.05, eta=1.0, R=0.0, x_w=2.0),
            dict(zeta=0.05, eta=1.0, R=1.5, x_w=2.0),
            dict(zeta=0.05, eta=1.0, x_w=math.inf),
        ],
    )
    def test_bad_parameters(self, kwargs):
        with pytest.raises(InvalidParameterError):
            ImpactOscillatorParams(**kwargs)

    def test_without_wall_allows_infinite_position(self):
        p = ImpactOscillatorParams(zeta=0.05, eta=1.0, x_w=math.inf, wall_enabled=False)
        assert not p.wall_enabled and p.x_w == math.inf

    def test_nondimensionalize(self):
        dim = DimensionalParams(m=2.0, c=0.4, k=8.0, F=4.0, Omega=1.424, X_w=1.0)
        p = nondimensionalize(dim, R=0.9)
        # zeta = c / (2 sqrt(m k)), eta = Omega / sqrt(k / m), x_w = k X_w / F
        assert p.zeta == pytest.approx(0.4 / (2 * math.sqrt(16.0)))
        assert p.eta == pytest.approx(1.424 / 2.0)
        assert p.x_w == pytest.approx(2.0)
        assert p.f == 1.0
        assert p.R == 0.9

    def test_nondimensionalize_rejects_overdamped(self):
        dim = DimensionalParams(m=1.0, c=3.0, k=1.0, F=1.0, Omega=1.0, X_w=1.0)
        with pytest.raises(InvalidParameterError):
            nondimensionalize(dim)


class TestFreeFlight:
    def test_matches_rk4(self):
        p = ImpactOscillatorParams(zeta=0.05, eta=0.712, wall_enabled=False)
        rhs = oscillator_rhs(p)
        for x0, v0, tau0, dt in [
            (0.3, -0.4, 0.0, 1.7),
            (-1.2, 0.9, 2.5, 0.8),
            (0.0, 0.0, 1.0, 3.0),
        ]:
            ref = rk4_integrate(rhs, tau0, np.array([x0, v0]), tau0 + dt, 20000)
            x, v = segment_states(p, x0, v0, tau0, np.array([dt]))
            assert x[0] == pytest.approx(ref[0], abs=1e-10)
            assert v[0] == pytest.approx(ref[1], abs=1e-10)

    def test_propagator_is_matrix_exponential(self):
        p = ImpactOscillatorParams(zeta=0.05, eta=0.712, wall_enabled=False)
        j = np.array([[0.0, 1.0], [-1.0, -2 * p.zeta]])
        for dt in (0.05, 0.7, 2.3):
            ref = np.real(taylor_expm(j * dt))
            assert np.max(np.abs(segment_propagator(p, dt) - ref)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(state=finite_states, dt1=st.floats(0.01, 2.0), dt2=st.floats(0.01, 2.0))
    def test_semigroup_property(self, state, dt1, dt2):
        p = ImpactOscillatorParams(zeta=0.05, eta=0.712, wall_enabled=False)
        x0, v0, tau0 = state
        x1, v1 = segment_states(p, x0, v0, tau0, np.array([dt1]))
        x12, v12 = segment_states(p, x1[0], v1[0], tau0 + dt1, np.array([dt2]))
        x2, v2 = segment_states(p, x0, v0, tau0, np.array([dt1 + dt2]))
        assert x12[0] == pytest.approx(x2[0], abs=1e-9)
        assert v12[0] == pytest.approx(v2[0], abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(state=finite_states)
    def test_zero_offset_identity(self, state):
        p = ImpactOscillatorParams(zeta=0.05, eta=0.712, wall_enabled=False)
        x0, v0, tau0 = state
        x, v = segment_states(p, x0, v0, tau0, np.array([0.0]))
        assert x[0] == pytest.approx(x0, abs=1e-13)
        assert v[0] == pytest.approx(v0, abs=1e-13)

    def test_dtype_preserved(self):
        p = ImpactOscillatorParams(zeta=0.05, eta=0.712, wall_enabled=False)
        x, v = segment_states(
            p,
            np.longdouble("0.3"),
            np.longdouble("-0.4"),
            np.longdouble(0),
            np.array([0.5], dtype=np.longdouble),
        )
        assert x.dtype == np.longdouble
        assert v.dtype == np.longdouble


class TestImpacts:
    def test_detection_lands_on_wall(self, elastic):
        s0 = OscState(0.0, 0.0, 0.0)
        tau_c = detect_next_impact(elastic, s0, 3 * elastic.forcing_period)
        assert tau_c is not None
        hit = propagate_free(elastic, s0, tau_c - s0.tau)
        assert hit.x == pytest.approx(elastic.x_w, abs=1e-9)
        assert hit.v > 0.0

    def test_no_impact_without_crossing(self):
        p = ImpactOscillatorParams(zeta=0.05, eta=0.712, x_w=50.0)
        assert detect_next_impact(p, OscState(0.0, 0.0, 0.0), 20.0) is None

    def test_detection_is_the_first_crossing(self, elastic):
        s0 = OscState(0.0, 0.0, 0.0)
        tau_c = detect_next_impact(elastic, s0, 3 * elastic.forcing_period)
        dts = np.linspace(1e-6, tau_c - s0.tau - BISECTION_TOL, 5000)
        xs, _ = segment_states(elastic, s0.x, s0.v, s0.tau, dts)
        assert np.all(xs <= elastic.x_w + 1e-9)

    def test_velocity_reversal_exact(self, inelastic):
        record = oscillator._impact_record(inelastic, 5.0, 1.37)
        assert record.v_post == -inelastic.R * 1.37
        assert (record.tau_c, record.v_pre) == (5.0, 1.37)
        assert not record.grazing

    def test_grazing_flagged(self, elastic):
        assert oscillator._impact_record(elastic, 0.0, 1e-9).grazing

    def test_inelastic_impacts_dissipate(self, inelastic):
        _, events = simulate(
            inelastic, OscState(0.0, 0.0, 0.0), 30 * inelastic.forcing_period
        )
        assert events
        for e in events:
            assert abs(e.v_post) < abs(e.v_pre)

    def test_elastic_impacts_preserve_speed(self, elastic):
        _, events = simulate(
            elastic, OscState(0.0, 0.0, 0.0), 30 * elastic.forcing_period
        )
        assert events
        for e in events:
            assert e.v_post == -e.v_pre

    def test_chatter_raises(self):
        # Complete chatter: the interval ratios settle at R = 0.3 long before the cap.
        p = ImpactOscillatorParams(zeta=0.05, eta=0.5975, f=1.0, x_w=0.05, R=0.3)
        with pytest.raises(ChatterError) as info:
            simulate(p, OscState(0.0, 0.0, 0.0), 10 * p.forcing_period, chatter_cap=200)
        assert info.value.accumulating

    @pytest.mark.parametrize("preset", ["elastic", "inelastic"])
    def test_chatter_cap_raises(self, preset, request):
        # The cap path: two impacts within one forcing period.  R = 1 never
        # accumulates, and the inelastic preset's ratios are nowhere near 0.9.
        p = request.getfixturevalue(preset)
        with pytest.raises(ChatterError, match="chatter: 2 impacts within one forcing period") as info:
            simulate(p, OscState(0.0, 0.0, 0.0), 100 * p.forcing_period, chatter_cap=1)
        assert not info.value.accumulating and info.value.count == 2

    def test_chatter_messages_name_tau_to_six_decimals(self):
        accumulating = ChatterError(19.18511, 14, 2 * math.pi, accumulating=True)
        assert str(accumulating) == "chatter: impacts accumulate at tau=19.185110 after 14 impacts"
        assert str(ChatterError(7.5, 2, 2 * math.pi)).endswith("(6.28319) ending at tau=7.500000")

    @pytest.mark.parametrize("cap", [0, -1, -2, True, 1.5, "3", sys.maxsize])
    def test_bad_chatter_cap_rejected(self, elastic, cap):
        with pytest.raises(InvalidParameterError, match="chatter_cap"):
            simulate(elastic, OscState(0.0, 0.0, 0.0), 1.0, chatter_cap=cap)


def _geometric_taus(tau0, dt0, r, n):
    """n impact times from tau0 whose intervals start at dt0 and shrink by r."""
    taus, dt = [tau0], dt0
    for _ in range(n - 1):
        taus.append(taus[-1] + dt)
        dt *= r
    return taus


def _first_chatter(p, taus):
    """(index, ChatterError) of the first impact time the guard raises on, or None."""
    guard = oscillator._ChatterGuard(p)
    for i, tau in enumerate(taus):
        try:
            guard.push(tau)
        except ChatterError as exc:
            return i, exc
    return None


class TestAccumulation:
    """The chatter guard's running interval-ratio test for complete chatter."""

    # x_w = -2 puts f*cos(eta*tau) - x_w >= 1 into the wall at every tau; x_w = 2 away from it.
    @settings(max_examples=200, deadline=None)
    @given(
        R=st.floats(0.05, 0.99),
        offset=st.floats(-0.9, 0.9),
        tau0=st.floats(0.0, 1e3),
        dt0=st.floats(1e-3, 10.0),
    )
    # Rounding the impact times moves the limit by about ulp(tau)*dt/(1 - r)**2,
    # here 1e-9: the limit checked is the one of the times the guard receives.
    @example(R=0.9899999999999999, offset=0.0, tau0=512.0, dt0=0.39904435519071935)
    def test_geometric_sequence_fires_at_its_limit(self, R, offset, tau0, dt0):
        r = R + offset * oscillator.ACCUMULATION_TOL * (1.0 - R)
        n = oscillator.ACCUMULATION_RATIOS + 2  # impacts that give that many ratios
        taus = _geometric_taus(tau0, dt0, r, n)
        p = ImpactOscillatorParams(zeta=0.05, eta=1.0, x_w=-2.0, R=R)
        i, exc = _first_chatter(p, taus)
        assert i == n - 1 and exc.accumulating and exc.count == n
        t1, t2, t3 = map(Fraction, taus[-3:])
        ratio = (t3 - t2) / (t2 - t1)
        limit = t3 + (t3 - t2) * ratio / (1 - ratio)
        assert exc.tau == pytest.approx(float(limit), rel=1e-12, abs=1e-9)
        assert _first_chatter(replace(p, x_w=2.0), taus) is None

    @settings(max_examples=100, deadline=None)
    @given(
        R=st.floats(0.01, 1.0),
        a=st.floats(1e-6, 10.0),
        b=st.floats(1e-6, 10.0),
    )
    @example(R=1.0, a=1.0, b=1.0)  # equal intervals exactly: r = R = 1
    def test_constant_or_alternating_intervals_never_fire(self, R, a, b):
        p = ImpactOscillatorParams(zeta=0.05, eta=1.0, x_w=-2.0, R=R)
        for first, second in ((a, a), (a, b)):
            taus = list(itertools.accumulate([first, second] * 25, initial=0.0))
            assert _first_chatter(p, taus) is None

    @settings(max_examples=100, deadline=None)
    @given(r=st.floats(1e-3, 1.0, exclude_max=True), dt0=st.floats(1e-3, 10.0))
    def test_elastic_never_fires(self, r, dt0):
        p = ImpactOscillatorParams(zeta=0.05, eta=1.0, x_w=-2.0, R=1.0)
        taus = _geometric_taus(0.0, dt0, r, 40)
        assert _first_chatter(p, taus) is None


_CATALOGUE = json.loads((Path(__file__).parent / "catalogue_points.json").read_text())
_CHATTER_POINT = 42  # the catalogue's one complete-chatter point
_TRAP_POINT = 69     # R = 0.979 with about one impact per period


def _settle_from_rest(p):
    """simulate over the random_impacting transient of 100 periods from rest:
    (final state, events), or the ChatterError it raised."""
    try:
        return simulate(p, OscState(0.0, 0.0, 0.0), 100 * p.forcing_period)
    except ChatterError as exc:
        return exc


@pytest.fixture(scope="module")
def catalogue_settled():
    """Each catalogue point with its _settle_from_rest outcome."""
    points = [ImpactOscillatorParams(**pt) for pt in _CATALOGUE]
    return [(p, _settle_from_rest(p)) for p in points]


def test_catalogue_accumulation_fires_only_on_chatter_point(elastic, inelastic, catalogue_settled):
    """Settling every catalogue point, the ROADMAP grazing point and both
    presets from rest over the 100-period transient, only the chatter point
    raises.  Point 69 is the trap for a tolerance relative to R: with
    R = 0.979 and about one impact a period its interval ratios sit near 1,
    within 2% of R, yet off R by most of 1 - R."""
    roadmap = ImpactOscillatorParams(
        zeta=0.015380737517637964, eta=0.6355648465488226, x_w=2.011873244080891, R=0.823594755787125,
    )
    settled = catalogue_settled + [(p, _settle_from_rest(p)) for p in (roadmap, elastic, inelastic)]
    raised = []
    for i, (p, outcome) in enumerate(settled):
        if isinstance(outcome, ChatterError):
            assert outcome.accumulating
            raised.append(i)
            continue
        if i == _TRAP_POINT:
            dts = np.diff([e.tau_c for e in outcome[1]])
            ratios = dts[1:] / dts[:-1]
            m = oscillator.ACCUMULATION_RATIOS
            relative = np.abs(ratios - p.R) <= 0.02 * p.R
            assert any(relative[k:k + m].all() for k in range(len(ratios) - m + 1))
    assert raised == [_CHATTER_POINT]


def test_catalogue_exponent_outcomes(catalogue_settled):
    """alpha = -1 from each settled catalogue point on the random_impacting
    protocol (a 150-period cap, sample window 50): every point gives a
    finite exponent but the chatter point, whose settling raised, and point
    48, whose window at tau = 630.488 is too close to grazing."""
    s = TLESettings(transient_periods=100, max_periods=150, sample_window=50)
    failures, values = {}, 0
    for i, (p, outcome) in enumerate(catalogue_settled):
        if isinstance(outcome, Exception):
            failures[i] = outcome
            continue
        try:
            r = compute_tle(p, SPRING_COUPLING, MSFQuery(-1.0), s, base_state=outcome[0])
        except Exception as exc:
            failures[i] = exc
            continue
        assert math.isfinite(r.tle), i
        values += 1
    assert values == 78 and sorted(failures) == [_CHATTER_POINT, 48]
    assert type(failures[_CHATTER_POINT]) is ChatterError
    assert type(failures[48]) is GrazingSingularityError
    assert "tau=19.188249 " in str(failures[_CHATTER_POINT])
    assert "tau=630.488363 " in str(failures[48])
    for exc in failures.values():
        assert type(exc).__module__.split(".")[0] == "msflab"


def _trajectory_states(p, base, periods):
    """States along the trajectory from base, each with a scan step and horizon.

    Per impact: the post-impact state, a mid-flight state, a state whose
    grid point 300 sits on the crossing (a table sample within the guard
    band), and a window-style start 1.5 steps before the crossing with the
    event window's fine scan step.
    """
    h = 1e-3
    _, events = simulate(p, base, periods * p.forcing_period)
    cases, prev = [], base
    for e in events:
        lead = e.tau_c - prev.tau
        cases.append((prev, h, 3 * p.forcing_period))
        if lead > 400 * h:
            mid = propagate_free(p, prev, 0.5 * lead)
            cases.append((mid, h, 3 * p.forcing_period))
            cases.append((propagate_free(p, prev, lead - 300 * h), h, 3 * p.forcing_period))
            start = propagate_free(p, prev, lead - 1.5 * h)
            cases.append((start, 2 * h / 16.0, 2 * h))
        prev = OscState(p.x_w, e.v_post, e.tau_c)
    return cases


def _nonresonant(draw, x_w=0.0):
    """Oscillator parameters with zeta in [0, 0.2] and eta in [0.3, 3] that have a steady state."""
    zeta, eta = draw(st.floats(0.0, 0.2)), draw(st.floats(0.3, 3.0))
    p = ImpactOscillatorParams(zeta=zeta, eta=eta, x_w=x_w, R=0.5)
    try:
        steady_state_coefficients(p)
    except ResonanceError:
        assume(False)
    return p


def _monotonicity_bound(p, s, step):
    """The crossing velocity below which bisect_crossing's model certifies nothing.

    The first bisection step leaves a bracket of step/2, over which the
    model's accel must stay below half the velocity: v > accel*step.
    """
    c = oscillator._constants(p)
    _, model = oscillator._wall_distance(c, s.tau, *oscillator._homogeneous(c, s.x, s.v, s.tau))
    return model(0.0, step)[2] * step


@st.composite
def _crossings(draw):
    """(p, s, horizon, step) with an upward wall crossing at tau_c, lead after s.

    The crossing velocity is spread over seven decades, or lies a relative
    1e-4 to 1e-2 above or below the model's monotonicity bound.  Leads of
    less than a step put the crossing in the first cell; small velocities
    leave and re-enter the wall within a few cells.
    """
    p = _nonresonant(draw, draw(st.floats(-1.0, 2.0)))
    tau_c = draw(st.floats(0.0, 1e5))
    step = draw(st.sampled_from([1e-3, 1e-3 / 16.0, 2e-3 / 16.0]))
    lead = (draw(st.integers(0, 40)) + draw(st.floats(0.0, 0.999))) * step

    def start(v_c):
        x, v = segment_states(p, p.x_w, v_c, tau_c, -lead)
        return OscState(float(x), float(v), tau_c - lead)

    if draw(st.booleans()):
        v_c = 10.0 ** draw(st.floats(-7.0, 0.5))
    else:
        side = draw(st.sampled_from([-1.0, 1.0]))
        v_c = _monotonicity_bound(p, start(0.0), step) * (1.0 + side * 10.0 ** draw(st.floats(-4.0, -2.0)))
    horizon = lead + draw(st.sampled_from([0.5, 3.0, 50.0, 3000.0])) * step
    return p, start(v_c), horizon, step


@st.composite
def _on_wall_states(draw):
    """(p, s, horizon, step): on the wall, leaving it at 1e-12 to 1e-8, pushed back.

    With x_w below f*cos(eta*tau) the force x'' = cos(eta*tau) - x_w - 2*zeta*v
    returns the mass to the wall within the first cell, as in chatter, unless
    the closed form's rounding at large tau or amplitude hides the excursion.
    """
    p = _nonresonant(draw)
    tau = draw(st.floats(0.0, 1e5))
    p = replace(p, x_w=math.cos(p.eta * tau) - draw(st.floats(0.05, 1.0)))
    s = OscState(p.x_w, -(10.0 ** draw(st.floats(-12.0, -8.0))), tau)
    step = draw(st.sampled_from([1e-3, 1e-3 / 16.0]))
    return p, s, draw(st.sampled_from([0.5, 20.0, 5000.0])) * step, step


class TestImpactLocation:
    """detect_next_impact equals the direct grid scan and bisection, bit for bit."""

    @pytest.mark.usefixtures("libm_trig_matches_numpy", "numpy_exp_scalar_matches_array")
    @pytest.mark.parametrize("preset", ["elastic", "inelastic"])
    def test_matches_direct_scan(self, preset, request):
        p = request.getfixturevalue(preset)
        base = request.getfixturevalue(f"{preset}_base")
        cases = _trajectory_states(p, base, 60)
        assert len(cases) >= 150
        in_guard_band = 0
        for s, step, horizon in cases:
            x300, _ = segment_states(p, s.x, s.v, s.tau, 300 * step)
            in_guard_band += abs(x300 - p.x_w) < 1e-8
            tau_c = grid_scan_impact(p, s, horizon, step)
            assert detect_next_impact(p, s, horizon, step) == tau_c
            if tau_c is None:
                continue
            # A horizon that ends inside the crossing's grid cell: the last
            # sample is clamped onto the horizon and closes the bracket.
            offset = tau_c - s.tau
            cell_end = math.ceil(offset / step) * step
            short = offset + 0.5 * (cell_end - offset)
            assert detect_next_impact(p, s, short, step) == grid_scan_impact(p, s, short, step)
        assert in_guard_band >= 10

    @pytest.mark.usefixtures("libm_trig_matches_numpy", "numpy_exp_scalar_matches_array")
    @settings(max_examples=300, deadline=None)
    @given(case=_crossings())
    def test_crossings_match_direct_scan(self, case):
        p, s, horizon, step = case
        assert detect_next_impact(p, s, horizon, step) == grid_scan_impact(p, s, horizon, step)

    @pytest.mark.usefixtures("libm_trig_matches_numpy", "numpy_exp_scalar_matches_array")
    @settings(max_examples=150, deadline=None)
    @given(case=_on_wall_states())
    def test_on_wall_states_match_direct_scan(self, case):
        p, s, horizon, step = case
        assert detect_next_impact(p, s, horizon, step) == grid_scan_impact(p, s, horizon, step)

    @pytest.mark.parametrize("preset", ["elastic", "inelastic"])
    def test_transversal_crossings_evaluate_few_midpoints(self, preset, request, monkeypatch):
        p = request.getfixturevalue(preset)
        base = request.getfixturevalue(f"{preset}_base")
        counts = []
        real = oscillator.bisect_crossing

        def counting(distance, lo, hi, model):
            calls = [0]

            def counted(f):
                def wrapper(dt):
                    calls[0] += 1
                    return f(dt)
                return wrapper

            motion, err, accel = model
            tau = real(counted(distance), lo, hi, (counted(motion), err, accel))
            counts.append(calls[0])
            return tau

        monkeypatch.setattr(oscillator, "bisect_crossing", counting)
        _, events = simulate(p, base, 60 * p.forcing_period)
        transversal = [n for n, e in zip(counts, events) if abs(e.v_pre) > 0.05]
        assert len(transversal) >= 40
        assert max(transversal) <= 14

    @pytest.mark.usefixtures("libm_trig_matches_numpy", "numpy_exp_scalar_matches_array")
    def test_horizon_spanning_many_chunks(self):
        # Undamped and off resonance: the beat envelope keeps the first
        # crossing of a wall just above the early maxima tens of time
        # units (and many scan chunks) away.
        s = OscState(0.2, -0.1, 1.0e4)
        free = ImpactOscillatorParams(zeta=0.0, eta=0.712, wall_enabled=False)
        xs, _ = segment_states(free, s.x, s.v, s.tau, np.arange(1, 200_001) * 1e-3)
        found = []
        for x_w in (float(xs[:30_000].max()) + 1e-3, float(xs.max()) + 1e-3):
            p = ImpactOscillatorParams(zeta=0.0, eta=0.712, x_w=x_w)
            found.append(detect_next_impact(p, s, 200.0))
            assert found[-1] == grid_scan_impact(p, s, 200.0)
        assert found[0] - s.tau > 30.0
        assert found[1] is None

    def test_bisection_converges_on_the_crossing(self):
        root = bisect_crossing(lambda t: t - 0.3, 0.0, 1.0)
        assert abs(root - 0.3) < BISECTION_TOL

    @pytest.mark.parametrize("err", [0.0, 1e-13, 1e-9])
    def test_model_keeps_the_plain_midpoints(self, err):
        # A line of slope 1 rounded nowhere: the model certifies all but the
        # midpoints within its band, and the result is the plain bisection's.
        root = 0.3 + 2.0 ** -40
        evaluated = []

        def line(t):
            evaluated.append(t)
            return t - root

        plain = bisect_crossing(line, 0.0, 1.0)
        assert len(evaluated) == 40
        evaluated.clear()
        model = (lambda t: (line(t), 1.0), err, 0.0)
        assert bisect_crossing(line, 0.0, 1.0, model) == plain
        # Two Newton points, then the midpoints within about 2*err of the root.
        assert len(evaluated) <= 4 + math.log2(1.0 + 4.0 * err / BISECTION_TOL)


# Both presets and every eighth catalogue point.
_SKIP_POINTS = [load_preset(name).oscillator for name in ("elastic", "inelastic")] + [
    ImpactOscillatorParams(**point) for point in _CATALOGUE[::8]
]


def _window_scan(draw):
    """(horizon, step): an event window's inner scan, window/16, over part of, all or
    more than one window, up to a scan past _SCALAR_SCAN points."""
    window = draw(st.sampled_from([1e-3, 2e-3]))
    step = window / 16.0
    return draw(st.sampled_from([window, window - step / 3.0, 0.5 * window, 2.0 * window, 40 * step])), step


@st.composite
def _post_reset_states(draw):
    """(p, s, horizon, step): on the wall just after a reset, v_post from -3 to below
    GRAZING_TOL, where the scan's bound certifies every window point unless |v_post|
    is tiny or the force returns the mass within the window."""
    p = draw(st.sampled_from(_SKIP_POINTS))
    v_post = -(10.0 ** draw(st.floats(math.log10(GRAZING_TOL) - 2.0, math.log10(3.0))))
    s = OscState(p.x_w, v_post, draw(st.floats(0.0, 2e4)))
    return (p, s, *_window_scan(draw))


@st.composite
def _window_starts(draw):
    """(p, s, horizon, step): a window start up to one window before an upward wall
    crossing at speed 1e-7 to 3, where the bound certifies the leading points."""
    p = draw(st.sampled_from(_SKIP_POINTS))
    tau_c = draw(st.floats(1.0, 2e4))
    horizon, step = _window_scan(draw)
    lead = draw(st.floats(0.0, 0.999)) * 16.0 * step
    x, v = segment_states(p, p.x_w, 10.0 ** draw(st.floats(-7.0, 0.5)), tau_c, -lead)
    return p, OscState(float(x), float(v), tau_c - lead), horizon, step


@st.composite
def _tight_bound_states(draw):
    """(p, s, horizon, step) where the scan's quadratic bound is exact but for O(t**4).

    Undamped, with the steady state at its extreme (cos(eta*tau) = -1), the
    homogeneous velocity zero and its displacement y < 0, the pull towards
    the wall at t = 0 equals the model's accel, |y| + eta**2*a_p.  The wall
    sits where the bound reaches it at grid point k, give or take a few
    rounding units, so only the model's err term stops the skip from
    certifying a point the plain scan may see beyond the wall.
    """
    eta = draw(st.floats(0.3, 0.9))
    tau = (2 * draw(st.integers(0, 50)) + 1) * math.pi / eta
    a_p, b_p = steady_state_coefficients(ImpactOscillatorParams(zeta=0.0, eta=eta, wall_enabled=False))
    cp, sp = math.cos(eta * tau), math.sin(eta * tau)
    y = -draw(st.floats(0.1, 2.0))
    x, v = y + (a_p * cp + b_p * sp), eta * (b_p * cp - a_p * sp)  # w = 0
    step = draw(st.sampled_from([1e-3 / 16.0, 2e-3 / 16.0]))
    t = draw(st.integers(1, 2)) * step
    x_w = x + 0.5 * (abs(y) + eta * eta * a_p) * t * t + draw(st.floats(-1e-15, 1e-15))
    return ImpactOscillatorParams(zeta=0.0, eta=eta, x_w=x_w, R=0.5), OscState(x, v, tau), 16.0 * step, step


class TestCertifiedSkip:
    """The short scan's certified skip keeps detect_next_impact equal to the direct scan."""

    @pytest.mark.usefixtures("libm_trig_matches_numpy", "numpy_exp_scalar_matches_array")
    @settings(max_examples=300, deadline=None)
    @given(case=_post_reset_states())
    def test_post_reset_states(self, case):
        p, s, horizon, step = case
        assert detect_next_impact(p, s, horizon, step) == grid_scan_impact(p, s, horizon, step)

    @pytest.mark.usefixtures("libm_trig_matches_numpy", "numpy_exp_scalar_matches_array")
    @settings(max_examples=300, deadline=None)
    @given(case=_window_starts())
    def test_window_starts(self, case):
        p, s, horizon, step = case
        assert detect_next_impact(p, s, horizon, step) == grid_scan_impact(p, s, horizon, step)

    @pytest.mark.usefixtures("libm_trig_matches_numpy", "numpy_exp_scalar_matches_array")
    @settings(max_examples=300, deadline=None)
    @given(case=_tight_bound_states())
    # Draws where the bound without its err term certifies the point just
    # before the one the plain scan sees beyond the wall (about one in 300).
    @example(case=(
        ImpactOscillatorParams(zeta=0.0, eta=0.712, x_w=-2.7969367485273504, R=0.5),
        OscState(-2.796936762565919, -2.547114929658596e-14, 251.50390625648623), 0.001, 6.25e-05,
    ))
    @example(case=(
        ImpactOscillatorParams(zeta=0.0, eta=0.8999999999999999, x_w=-7.043304262829639, R=0.5),
        OscState(-7.043304310042954, -2.5530081525101965e-14, 52.35987755982989), 0.002, 0.000125,
    ))
    @example(case=(
        ImpactOscillatorParams(zeta=0.0, eta=0.8114373980767153, x_w=-3.0276631570357893, R=0.5),
        OscState(-3.027663160996069, -2.909289768432534e-16, 3.8716389718246376), 0.001, 6.25e-05,
    ))
    def test_tight_bound_states(self, case):
        p, s, horizon, step = case
        assert detect_next_impact(p, s, horizon, step) == grid_scan_impact(p, s, horizon, step)

    def test_window_points_skipped_after_reset(self, monkeypatch):
        # A transversal reset in an event window: no scan point is evaluated.
        p = _SKIP_POINTS[0]
        evaluated = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def exp(self, a):
                evaluated.append(a)
                return np.exp(a)

        monkeypatch.setattr(oscillator, "np", CountingNumpy())
        s = OscState(p.x_w, -0.5, 123.4)
        assert detect_next_impact(p, s, 2e-3, 2e-3 / 16.0) is None
        assert evaluated == []


    @pytest.mark.usefixtures("libm_trig_matches_numpy", "numpy_exp_scalar_matches_array")
    @pytest.mark.parametrize("tau", [0.0, 0.11663460848882778])
    @pytest.mark.parametrize("v_post", [-1e-4, -2e-4, -3e-4])
    def test_bound_certifies_one_end_only(self, monkeypatch, tau, v_post):
        # A slow reset where the force returns the mass to the wall within the
        # window: the bound certifies the first point, not the last, so the
        # points are tested one by one and the re-impact is found.
        p = ImpactOscillatorParams(
            zeta=0.14606574961995963, eta=2.762598814470055, x_w=0.09579605151396392,
            R=0.9632881914323254,
        )
        s, horizon, step = OscState(p.x_w, v_post, tau), 1e-3, 1e-3 / 16.0
        evaluated = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def exp(self, a):
                evaluated.append(a)
                return np.exp(a)

        expected = grid_scan_impact(p, s, horizon, step)
        monkeypatch.setattr(oscillator, "np", CountingNumpy())
        found = detect_next_impact(p, s, horizon, step)
        assert found is not None and found == expected
        assert evaluated and -p.zeta * step not in evaluated  # first point skipped


class TestChunkCrossing:
    """A table chunk whose first sample above -guard is at or above guard, after one
    inside the wall and before the horizon, holds the crossing; the scan returns it
    at once and still equals the direct scan on every edge of that test."""

    @staticmethod
    def _towards(p, cells, step):
        """The state cells*step before an upward wall crossing at tau = 1000, speed 0.8."""
        x, v = segment_states(p, p.x_w, 0.8, 1000.0, -cells * step)
        return OscState(float(x), float(v), 1000.0 - cells * step)

    @pytest.mark.usefixtures("libm_trig_matches_numpy", "numpy_exp_scalar_matches_array")
    @pytest.mark.parametrize("cells, horizon, cell", [
        # The clamped horizon sample is the first beyond the wall, or the
        # horizon ends before the crossing while the table's sample past it is beyond.
        (2100.3, 2100.8, 2101), (2100.3, 2100.2, None),
        # The first near sample lies within 1e-12 of the wall, beyond it or inside.
        (2101 - 1e-9, 3000, 2101), (2100 + 1e-9, 3000, 2101),
    ])
    def test_crossings_at_the_edges(self, elastic, cells, horizon, cell):
        step = 1e-3
        s = self._towards(elastic, cells, step)
        tau_c = detect_next_impact(elastic, s, horizon * step, step)
        assert tau_c == grid_scan_impact(elastic, s, horizon * step, step)
        assert (None if tau_c is None else math.ceil((tau_c - s.tau) / step)) == cell

    @pytest.mark.usefixtures("libm_trig_matches_numpy", "numpy_exp_scalar_matches_array")
    def test_crossing_opens_the_second_chunk(self, elastic):
        # The first sample beyond the wall opens the second chunk; the finer
        # step keeps the lead, 2.05 time units, free of other crossings.
        step = 2.5e-4
        s = self._towards(elastic, oscillator._DETECT_CHUNK + 0.4, step)
        tau_c = detect_next_impact(elastic, s, 12000 * step, step)
        assert tau_c == grid_scan_impact(elastic, s, 12000 * step, step)
        assert math.ceil((tau_c - s.tau) / step) == oscillator._DETECT_CHUNK + 1

    @pytest.mark.usefixtures("libm_trig_matches_numpy", "numpy_exp_scalar_matches_array")
    def test_start_beyond_the_wall(self):
        # Beyond the wall from the start into the second chunk: both chunks
        # open with a sample beyond it that follows one beyond it, no crossing.
        p = ImpactOscillatorParams(zeta=0.05, eta=0.712, x_w=-2.6)
        s = OscState(0.0, 0.0, 0.0)
        first = segment_states(p, s.x, s.v, s.tau, np.arange(oscillator._DETECT_CHUNK + 2) * 1e-3)[0]
        assert np.all(first > p.x_w)
        tau_c = detect_next_impact(p, s, 20.0)
        assert tau_c == grid_scan_impact(p, s, 20.0)
        assert tau_c > oscillator._DETECT_CHUNK * 1e-3


class TestSimulate:
    def test_wall_never_penetrated_on_samples(self, elastic):
        taus, xs, vs, events = sample_trajectory(
            elastic, OscState(0.0, 0.0, 0.0), 40 * elastic.forcing_period
        )
        assert len(events) > 10
        assert np.max(xs) <= elastic.x_w + 1e-9

    def test_event_times_strictly_increase(self, elastic):
        _, events = simulate(
            elastic, OscState(0.0, 0.0, 0.0), 40 * elastic.forcing_period
        )
        times = [e.tau_c for e in events]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_smooth_limit_matches_free_flight(self):
        p = ImpactOscillatorParams(zeta=0.05, eta=0.712, x_w=2.0, wall_enabled=False)
        s_end, events = simulate(p, OscState(0.3, -0.2, 0.0), 7.0)
        assert events == []
        direct = propagate_free(p, OscState(0.3, -0.2, 0.0), 7.0)
        assert s_end.x == pytest.approx(direct.x, abs=1e-12)
        assert s_end.v == pytest.approx(direct.v, abs=1e-12)

    def test_zero_duration(self, elastic):
        s0 = OscState(0.1, 0.2, 3.0)
        s_end, events = simulate(elastic, s0, 0.0)
        assert s_end == s0
        assert events == []

    def test_negative_duration_rejected(self, elastic):
        with pytest.raises(InvalidParameterError):
            simulate(elastic, OscState(0.0, 0.0, 0.0), -1.0)

    @pytest.mark.parametrize("duration, sample_step", [(-1.0, 0.1), (1.0, -0.1), (1.0, 0.0)])
    def test_bad_sample_grid_rejected(self, elastic, duration, sample_step):
        with pytest.raises(InvalidParameterError):
            sample_trajectory(elastic, OscState(0.0, 0.0, 0.0), duration, sample_step)

    @settings(max_examples=25, deadline=None)
    @given(
        x0=st.floats(-1.5, 1.5),
        v0=st.floats(-2.0, 2.0),
        split=st.floats(0.1, 0.9),
    )
    def test_split_run_equals_single_run(self, x0, v0, split):
        p = ImpactOscillatorParams(zeta=0.05, eta=0.712, x_w=2.0, R=1.0)
        total = 2.5 * p.forcing_period
        mid, ev1 = simulate(p, OscState(x0, v0, 0.0), split * total)
        end_a, ev2 = simulate(p, mid, total - split * total)
        end_b, ev_all = simulate(p, OscState(x0, v0, 0.0), total)
        assert len(ev1) + len(ev2) == len(ev_all)
        assert end_a.x == pytest.approx(end_b.x, abs=1e-6)
        assert end_a.v == pytest.approx(end_b.v, abs=1e-6)

    def test_sample_grid_matches_event_run(self, elastic):
        duration = 15 * elastic.forcing_period
        taus, xs, vs, ev_a = sample_trajectory(elastic, OscState(0.0, 0.0, 0.0), duration)
        s_direct, ev_b = simulate(elastic, OscState(0.0, 0.0, 0.0), taus[-1])
        assert ev_a == ev_b
        assert xs[-1] == pytest.approx(s_direct.x, abs=1e-9)
        assert vs[-1] == pytest.approx(s_direct.v, abs=1e-9)

    def test_catalogue_chatter_point_accumulates(self):
        # random_impacting catalogue point 42, settled from rest over its
        # 100-period transient: the impact intervals shrink by a ratio that
        # tends to R, and the sequence's limit is tau = 19.188244.
        p = ImpactOscillatorParams(
            zeta=0.07424109529981779, eta=0.34478727863484854,
            x_w=0.5666034302401003, R=0.5409710972632726,
        )
        with pytest.raises(ChatterError) as info:
            simulate(p, OscState(0.0, 0.0, 0.0), 100 * p.forcing_period)
        assert str(info.value).startswith("chatter: impacts accumulate at tau=19.1882")
        assert info.value.accumulating and info.value.count == 14
        assert info.value.tau == pytest.approx(19.188244, abs=1e-4)

    def test_sample_trajectory_raises_chatter_like_simulate(self):
        # A catalogue point whose impacts accumulate near tau = 19.
        p = ImpactOscillatorParams(
            zeta=0.07424109529981779, eta=0.34478727863484854,
            x_w=0.5666034302401003, R=0.5409710972632726,
        )
        with pytest.raises(ChatterError):
            sample_trajectory(p, OscState(0.0, 0.0, 0.0), 20.0, sample_step=0.1)


class TestNonFiniteArguments:
    """Every entry point names the argument that is not finite."""

    @pytest.mark.parametrize("duration", [math.nan, math.inf])
    def test_simulate(self, elastic, duration):
        with pytest.raises(InvalidParameterError, match="duration"):
            simulate(elastic, OscState(0.0, 0.0, 0.0), duration)

    @pytest.mark.parametrize("duration", [math.nan, math.inf])
    def test_sample_trajectory(self, elastic, duration):
        with pytest.raises(InvalidParameterError, match="duration"):
            sample_trajectory(elastic, OscState(0.0, 0.0, 0.0), duration)

    @pytest.mark.parametrize("horizon, scan_step, name", [
        (math.inf, 1e-3, "horizon"), (math.nan, 1e-3, "horizon"), (1e300, 1e-10, "horizon"),
        (1.0, math.nan, "scan_step"), (1.0, math.inf, "scan_step"),
    ])
    def test_detect_next_impact(self, elastic, horizon, scan_step, name):
        with pytest.raises(InvalidParameterError, match=name):
            detect_next_impact(elastic, OscState(0.0, 0.0, 0.0), horizon, scan_step)

    @pytest.mark.parametrize("name", ["x", "v", "tau"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_simulate_start_state(self, elastic, name, value):
        s0 = replace(OscState(0.0, 0.0, 0.0), **{name: value})
        with pytest.raises(InvalidParameterError, match=f"start state {name} must be finite"):
            simulate(elastic, s0, 10.0)

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_propagate_free(self, elastic, dt):
        with pytest.raises(InvalidParameterError, match="dt"):
            propagate_free(elastic, OscState(0.0, 0.0, 0.0), dt)
