import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import grid_scan_impact, oscillator_rhs, rk4_integrate, taylor_expm
from msflab.oscillator import (
    BISECTION_TOL,
    ChatterError,
    DimensionalParams,
    ImpactOscillatorParams,
    InvalidParameterError,
    OscState,
    ResonanceError,
    apply_impact,
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
            dict(zeta=0.05, eta=1.0, R=0.0, x_w=2.0),
            dict(zeta=0.05, eta=1.0, R=1.5, x_w=2.0),
            dict(zeta=0.05, eta=1.0, x_w=math.inf),
        ],
    )
    def test_bad_parameters(self, kwargs):
        with pytest.raises(InvalidParameterError):
            ImpactOscillatorParams(**kwargs)

    def test_without_wall_allows_infinite_position(self):
        p = ImpactOscillatorParams(zeta=0.05, eta=1.0, wall_enabled=False)
        assert not p.wall_enabled

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
        s = OscState(inelastic.x_w, 1.37, 5.0)
        after, record = apply_impact(inelastic, s)
        assert after.v == -inelastic.R * 1.37
        assert after.x == inelastic.x_w
        assert record.v_pre == 1.37
        assert not record.grazing

    def test_grazing_flagged(self, elastic):
        s = OscState(elastic.x_w, 1e-9, 0.0)
        _, record = apply_impact(elastic, s)
        assert record.grazing

    def test_impact_requires_wall_contact(self, elastic):
        with pytest.raises(InvalidParameterError):
            apply_impact(elastic, OscState(0.5, 1.0, 0.0))

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
        p = ImpactOscillatorParams(zeta=0.05, eta=0.5975, f=1.0, x_w=0.05, R=0.3)
        with pytest.raises(ChatterError):
            simulate(p, OscState(0.0, 0.0, 0.0), 10 * p.forcing_period, chatter_cap=200)


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


@pytest.fixture(scope="module")
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


class TestImpactLocation:
    """detect_next_impact equals the direct grid scan and bisection, bit for bit."""

    @pytest.mark.usefixtures("libm_trig_matches_numpy")
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

    @pytest.mark.usefixtures("libm_trig_matches_numpy")
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

    def test_sample_trajectory_raises_chatter_like_simulate(self):
        # A catalogue point whose impacts accumulate near tau = 19.
        p = ImpactOscillatorParams(
            zeta=0.07424109529981779, eta=0.34478727863484854,
            x_w=0.5666034302401003, R=0.5409710972632726,
        )
        with pytest.raises(ChatterError):
            sample_trajectory(p, OscState(0.0, 0.0, 0.0), 20.0, sample_step=0.1)
