import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from oracles import loop_event_window, saltation_matrix
from msflab import msf
from msflab.config import load_preset
from msflab.jacobian import (
    DEFAULT_DELTA,
    GrazingSingularityError,
    InvalidWindowError,
    JacobiEstimate,
    PropagationError,
    estimate_jacobian,
    event_window_jacobian,
    oscillator_flow,
)
from msflab.msf import TLESettings, settle_transient
from msflab.oscillator import (
    ImpactOscillatorParams,
    OscState,
    detect_next_impact,
    propagate_free,
    simulate,
)


def _smooth_params():
    return ImpactOscillatorParams(zeta=0.05, eta=0.712, x_w=2.0, wall_enabled=False)


class TestEstimateJacobian:
    def test_linear_flow_recovered(self):
        p = _smooth_params()
        j = np.array([[0.0, 1.0], [-1.0, -2 * p.zeta]])
        flow = oscillator_flow(p, tau0=0.4)
        est = estimate_jacobian(flow, np.array([0.6, -0.1]), 0.8)
        assert est.consistent
        assert np.max(np.abs(est.phi - expm(j * 0.8))) < 1e-8

    def test_base_point_independence(self):
        # The variational flow of a linear system cannot depend on the state.
        p = _smooth_params()
        flow = oscillator_flow(p, tau0=0.0)
        a = estimate_jacobian(flow, np.array([0.3, 0.9]), 1.1)
        b = estimate_jacobian(flow, np.array([-1.4, 0.2]), 1.1)
        assert np.max(np.abs(a.phi - b.phi)) < 1e-7

    def test_longdouble_delta_sweep(self):
        p = _smooth_params()
        j = np.array([[0.0, 1.0], [-1.0, -2 * p.zeta]])
        flow = oscillator_flow(p, tau0=0.0)
        x0 = np.array([0.7, -0.2], dtype=np.longdouble)
        ref = expm(j * 1.0)
        for delta in (1e-9, 1e-6, 1e-3):
            est = estimate_jacobian(flow, x0, 1.0, delta=delta)
            assert np.max(np.abs(est.phi - ref)) < 1e-9

    def test_delta_recorded(self):
        p = _smooth_params()
        flow = oscillator_flow(p, tau0=0.0)
        est = estimate_jacobian(flow, np.array([0.1, 0.1]), 0.5, delta=1e-5)
        assert est.delta_used == 1e-5
        est2 = estimate_jacobian(flow, np.array([0.1, 0.1]), 0.5)
        assert est2.delta_used == DEFAULT_DELTA

    def test_event_count_mismatch_flagged(self):
        # Synthetic flow whose event count flips across a threshold.
        def flow(x, t):
            crossed = int(x[0] > 0.5)
            return x * (1.0 + 0.1 * crossed), crossed

        est = estimate_jacobian(flow, np.array([0.5, 0.0]), 1.0, delta=1e-3)
        assert not est.consistent
        assert len(set(est.event_counts)) > 1

    def test_non_finite_output_rejected(self):
        def flow(x, t):
            return np.array([np.inf, 0.0]), 0

        with pytest.raises(PropagationError):
            estimate_jacobian(flow, np.array([0.0, 0.0]), 1.0)

    def test_empty_state_rejected(self):
        with pytest.raises(ValueError, match="at least one component"):
            estimate_jacobian(lambda z, t: (z, 0), np.array([]), 1.0)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, 0.0, -1e-7])
    def test_bad_delta_rejected(self, delta):
        flow = oscillator_flow(_smooth_params(), tau0=0.0)
        with pytest.raises(ValueError, match="delta must be finite and positive"):
            estimate_jacobian(flow, np.array([0.6, -0.1]), 0.8, delta)

    def test_vanishing_perturbation_rejected(self, elastic):
        # (2.0 + 1e-300) - 2.0 is 0: a quotient over it would be nan.
        flow = oscillator_flow(elastic, tau0=0.0)
        with pytest.raises(InvalidWindowError,
                           match=r"delta=1e-300 in direction 0 vanishes against x0\[0\]=2\.0:"):
            estimate_jacobian(flow, [2.0, 0.5], 0.1, delta=1e-300)

    def test_nan_t_rejected(self):
        flow = oscillator_flow(_smooth_params(), tau0=0.0)
        with pytest.raises(ValueError, match="t must be non-negative, got nan"):
            estimate_jacobian(flow, np.array([0.6, -0.1]), math.nan)

    @settings(max_examples=60, deadline=None)
    @given(
        x0=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3),
        delta=st.sampled_from([1e-9, 1e-7, 1e-3]),
        dtype=st.sampled_from([np.float64, np.longdouble]),
    )
    def test_equals_stacked_columns(self, x0, delta, dtype):
        # The realized-perturbation columns, stacked and cast to float64 at the end.
        def flow(z, t):
            return np.sin(z * t) + z[::-1] * z, int(z[0] > 0.5)

        x0 = np.array(x0, dtype=dtype)
        y0 = flow(x0, 0.7)[0]
        columns = []
        for i in range(len(x0)):
            xp = x0.copy()
            xp[i] = xp[i] + delta
            columns.append((flow(xp, 0.7)[0] - y0) / (xp[i] - x0[i]))
        est = estimate_jacobian(flow, x0, 0.7, delta)
        assert est.phi.tobytes() == np.stack(columns, axis=1).astype(float).tobytes()
        assert est.phi.flags.c_contiguous

    def test_wall_flow_counts_events(self, elastic, elastic_base):
        flow = oscillator_flow(elastic, tau0=elastic_base.tau)
        x0 = np.array([elastic_base.x, elastic_base.v])
        _, n_events = flow(x0, 2 * elastic.forcing_period)
        assert n_events >= 1


class TestEventWindowJacobian:
    def _window_around_first_impact(self, p, base):
        tau_c = detect_next_impact(p, base, 5 * p.forcing_period)
        assert tau_c is not None
        window = 2e-3
        s_pre = propagate_free(p, base, (tau_c - base.tau) - window / 2)
        return s_pre, window, tau_c

    def test_approximates_saltation_composition(self, elastic, elastic_base):
        s_pre, window, tau_c = self._window_around_first_impact(elastic, elastic_base)
        est = event_window_jacobian(elastic, s_pre, window)
        assert est.consistent
        # Reference: free flight to the impact, saltation, free flight out.
        j = np.array([[0.0, 1.0], [-1.0, -2 * elastic.zeta]])
        state_hit, events = simulate(elastic, s_pre, window)
        assert len(events) == 1
        ev = events[0]
        ref = (
            expm(j * (s_pre.tau + window - ev.tau_c))
            @ saltation_matrix(elastic, ev.tau_c, ev.v_pre)
            @ expm(j * (ev.tau_c - s_pre.tau))
        )
        assert np.max(np.abs(est.phi - ref)) < 1e-4 * np.linalg.norm(ref)

    def test_determinant_reflects_restitution(self, inelastic, inelastic_base):
        s_pre, window, _ = self._window_around_first_impact(inelastic, inelastic_base)
        est = event_window_jacobian(inelastic, s_pre, window)
        # det(saltation) = R^2; the free-flight factor contributes
        # exp(-2 zeta window) which is within a percent of one here.
        assert np.linalg.det(est.phi) == pytest.approx(
            inelastic.R**2, rel=2e-2
        )

    def test_central_run_returned(self, elastic, elastic_base):
        s_pre, window, _ = self._window_around_first_impact(elastic, elastic_base)
        est = event_window_jacobian(elastic, s_pre, window)
        final, events = simulate(elastic, s_pre, window, scan_step=window / 16.0)
        assert est.final == final
        assert list(est.events) == events

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_bad_delta_rejected(self, elastic, elastic_base, delta):
        s_pre, window, _ = self._window_around_first_impact(elastic, elastic_base)
        with pytest.raises(ValueError, match="delta must be finite and positive"):
            event_window_jacobian(elastic, s_pre, window, delta)

    def test_vanishing_perturbation_rejected(self, elastic, elastic_base):
        # Every window starts near x_w = 2, where x + 1e-300 rounds back to x.
        settings = TLESettings(max_periods=6, sample_window=2, jacobi_delta=1e-300)
        with pytest.raises(InvalidWindowError, match=r"delta=1e-300 in direction 0 vanishes "
                           r"against the window start state at tau=\d+\.\d{6}:"):
            msf.compute_tle(elastic, msf.SPRING_COUPLING, msf.MSFQuery(alpha=-1.0), settings,
                            base_state=elastic_base)

    def test_windows_without_event_rejected(self, elastic, elastic_base):
        with pytest.raises(InvalidWindowError):
            event_window_jacobian(elastic, elastic_base, 1e-3)

    def test_error_hierarchy(self):
        assert issubclass(GrazingSingularityError, RuntimeError)
        assert issubclass(InvalidWindowError, ValueError)
        assert isinstance(
            JacobiEstimate(np.eye(2), 1e-7, (0, 0, 0), True), JacobiEstimate
        )


@functools.lru_cache(maxsize=None)
def _trajectory(preset: str):
    """(p, base, starts, impacts): 30 periods from the settled base state.

    starts[i] is the state segment i starts from (the base, then each
    post-impact state) and impacts[i] the impact that ends it.
    """
    p = load_preset(preset).oscillator
    base = settle_transient(p, TLESettings())
    _, events = simulate(p, base, 30 * p.forcing_period)
    starts = [base] + [OscState(p.x_w, e.v_post, e.tau_c) for e in events]
    return p, base, starts, [e.tau_c for e in events]


@st.composite
def _windows(draw):
    """(p, s_pre, window): an event window on a preset's trajectory.

    Placed on the scan grid from the base state as the event record places
    it, one or two cells wide, and sometimes shifted by whole cells so that
    it holds no impact, or two.
    """
    p, base, starts, impacts = _trajectory(draw(st.sampled_from(["elastic", "inelastic"])))
    i = draw(st.integers(0, len(impacts) - 1))
    h = TLESettings().scan_step
    cells = draw(st.integers(1, 2))
    shift = draw(st.sampled_from([0, 0, 0, -2, -1, 1]))
    w_start = int((impacts[i] - base.tau) // h) - (cells - 1) + shift
    # The start state comes from the last segment that begins before the window.
    j = max(k for k in range(i + 2) if k < len(starts) and starts[k].tau <= base.tau + w_start * h)
    s_pre = propagate_free(p, starts[j], (base.tau + w_start * h) - starts[j].tau)
    return p, s_pre, cells * h


def _window_outcome(run):
    """run()'s (phi bytes, final, events, event_counts, consistent), or its typed failure."""
    try:
        phi, final, events, counts, consistent = run()
    except (InvalidWindowError, GrazingSingularityError) as exc:
        return type(exc), str(exc)
    return phi.tobytes(), final, list(events), counts, consistent


# Windows of scripts/domain_census.py's draws (seed 2026) whose perturbed runs
# disagree with the central run's one impact at the record's delta, missing
# the wall or meeting it twice, and agree at its retry delta/10:
# (p, s_pre, window, the counts at delta, the counts at delta/10).
_DISAGREEING_WINDOWS = [
    (
        ImpactOscillatorParams(
            zeta=0.11375144368112207, eta=2.77661090903567, x_w=0.09637394667757265,
            R=0.6166316031000694,
        ),
        OscState(x=0.09637385092825965, v=0.01189838699257123, tau=457.67972920666676),
        0.001, (1, 0, 1), (1, 1, 1),
    ),
    (
        ImpactOscillatorParams(
            zeta=0.14606574961995963, eta=2.762598814470055, x_w=0.09579605151396392,
            R=0.9632881914323254,
        ),
        OscState(x=0.09579594154101695, v=0.00019800509306669434, tau=550.1744865532141),
        0.001, (1, 2, 1), (1, 1, 1),
    ),
]


class TestWindowEqualsLoop:
    """event_window_jacobian against estimate_jacobian on simulate's reference loop."""

    @staticmethod
    def _both(p, s_pre, window, delta=DEFAULT_DELTA):
        def lean():
            est = event_window_jacobian(p, s_pre, window, delta)
            return est.phi, est.final, est.events, est.event_counts, est.consistent

        return (
            _window_outcome(lean),
            _window_outcome(lambda: loop_event_window(p, s_pre, window, delta)),
        )

    @pytest.mark.usefixtures("libm_trig_matches_numpy", "numpy_exp_scalar_matches_array")
    @settings(max_examples=80, deadline=None)
    @given(case=_windows())
    def test_random_windows(self, case):
        lean, loop = self._both(*case)
        assert lean == loop

    @pytest.mark.usefixtures("libm_trig_matches_numpy", "numpy_exp_scalar_matches_array")
    @settings(max_examples=80, deadline=None)
    @given(case=_windows())
    def test_random_windows_at_retry_delta(self, case):
        # The event record's retry when the runs disagree on event counts.
        lean, loop = self._both(*case, DEFAULT_DELTA / 10.0)
        assert lean == loop

    @pytest.mark.usefixtures("libm_trig_matches_numpy", "numpy_exp_scalar_matches_array")
    @pytest.mark.parametrize("case", _DISAGREEING_WINDOWS)
    def test_runs_disagreeing_on_event_counts(self, case):
        p, s_pre, window, counts, retry_counts = case
        lean, loop = self._both(p, s_pre, window)
        assert lean == loop
        assert lean[3:] == (counts, False)
        lean, loop = self._both(p, s_pre, window, DEFAULT_DELTA / 10.0)
        assert lean == loop
        assert lean[3:] == (retry_counts, True)

    @pytest.mark.usefixtures("libm_trig_matches_numpy", "numpy_exp_scalar_matches_array")
    def test_grazing_window(self, monkeypatch):
        # The ROADMAP grazing point: the window at tau = 1174.72 is singular.
        p = ImpactOscillatorParams(
            zeta=0.015380737517637964, eta=0.6355648465488226,
            x_w=2.011873244080891, R=0.823594755787125,
        )
        settings_ = TLESettings(transient_periods=100, max_periods=150)
        starts = []
        real = msf.event_window_jacobian

        def recording(p_, s_pre, window, *args):
            starts.append((s_pre, window))
            return real(p_, s_pre, window, *args)

        monkeypatch.setattr(msf, "event_window_jacobian", recording)
        _, _, entries = msf._event_record(p, settle_transient(p, settings_), settings_)
        assert type(entries[-1][3]) is GrazingSingularityError
        assert len(starts) == len(entries)
        lean, loop = self._both(p, *starts[-1])
        assert lean[0] is GrazingSingularityError
        assert lean == loop
        # The windows before it are regular, and equal too.
        for s_pre, window in starts[-4:-1]:
            lean, loop = self._both(p, s_pre, window)
            assert lean == loop
