import numpy as np
import pytest
from scipy.linalg import expm

from oracles import saltation_matrix
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

    def test_windows_without_event_rejected(self, elastic, elastic_base):
        with pytest.raises(InvalidWindowError):
            event_window_jacobian(elastic, elastic_base, 1e-3)

    def test_error_hierarchy(self):
        assert issubclass(GrazingSingularityError, RuntimeError)
        assert issubclass(InvalidWindowError, ValueError)
        assert isinstance(
            JacobiEstimate(np.eye(2), 1e-7, (0, 0, 0), True), JacobiEstimate
        )
