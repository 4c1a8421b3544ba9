import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import literal_march_samples, literal_power, literal_steps, smooth_tle_oracle
from msflab import jacobian, msf
from msflab.matfuncs import exp_flow, mat_exp, mat_log
from msflab.msf import (
    MSFQuery,
    SPRING_COUPLING,
    TLESettings,
    compute_tle,
    coupled_step_propagator,
    msf_sweep,
    settle_transient,
)
from msflab.oscillator import ImpactOscillatorParams, OscState, segment_propagator, simulate


def _smooth(eta=0.712):
    return ImpactOscillatorParams(zeta=0.05, eta=eta, x_w=2.0, wall_enabled=False)


class TestCoupledStepPropagator:
    def test_zero_coupling_round_trip(self):
        phi = np.array([[0.99, 0.001], [-0.002, 0.97]])
        out, discard = coupled_step_propagator(phi, SPRING_COUPLING, MSFQuery(0.0, 0.0), 1e-3)
        assert np.max(np.abs(out - phi)) < 1e-12
        assert discard < 1e-12

    def test_real_alpha_real_output(self):
        phi = np.array([[0.99, 0.001], [-0.002, 0.97]])
        out, _ = coupled_step_propagator(phi, SPRING_COUPLING, MSFQuery(-0.7, 0.0), 1e-3)
        assert not np.iscomplexobj(out)

    def test_complex_beta_complex_output(self):
        phi = np.array([[0.99, 0.001], [-0.002, 0.97]])
        out, discard = coupled_step_propagator(
            phi, SPRING_COUPLING, MSFQuery(-0.5, 0.3), 1e-3
        )
        assert np.iscomplexobj(out)
        assert discard == 0.0

    def test_negative_eigenvalue_propagator_stays_usable(self):
        # The shape produced by an impact window: double eigenvalue -R.
        phi = np.array([[-0.9, 0.0], [4.7, -0.9]])
        out, discard = coupled_step_propagator(phi, SPRING_COUPLING, MSFQuery(0.0, 0.0), 1e-3)
        assert np.max(np.abs(out - phi)) < 1e-9
        # Branch-cut reconstruction leaves a genuinely nonzero residue once
        # alpha shifts the exponent away from the pure logarithm.
        out2, discard2 = coupled_step_propagator(
            phi, SPRING_COUPLING, MSFQuery(-0.8, 0.0), 1e-3
        )
        assert np.all(np.isfinite(out2))
        assert discard2 >= 0.0


class TestPowerStepper:
    @settings(max_examples=60, deadline=None)
    @given(
        a=st.floats(-1.2, 1.2), b=st.floats(-1.2, 1.2),
        c=st.floats(-1.2, 1.2), d=st.floats(-1.2, 1.2),
        k=st.integers(1, 200),
    )
    def test_grouped_equals_direct(self, a, b, c, d, k):
        # exp(k*log(m)) applied once, renormalized, against m applied k times.
        m = np.array([[a, b], [c, d]]) * 0.1 + np.eye(2)
        xi = np.array([0.6, -0.8])
        y = exp_flow(mat_log(m))(k) @ xi
        nrm = np.linalg.norm(y)
        ref_xi, ref_log = literal_steps(m, xi, k)
        assert np.log(nrm) == pytest.approx(ref_log, abs=1e-8)
        assert np.max(np.abs(y / nrm - ref_xi)) < 1e-8

    def test_unit_norm_output(self):
        # The march's power step, renormalized once, leaves a unit vector
        # along the direction of the literal loop.
        m = np.array([[1.01, 0.02], [0.0, 0.97]])
        y = exp_flow(mat_log(m))(50).real @ np.array([1.0, 0.0])
        xi = y / float(np.linalg.norm(y))
        assert np.linalg.norm(xi) == pytest.approx(1.0, abs=1e-12)
        ref_xi, _ = literal_steps(m, np.array([1.0, 0.0]), 50)
        assert np.max(np.abs(xi - ref_xi)) < 1e-12

    @pytest.mark.parametrize("query", [MSFQuery(-0.6, 0.0), MSFQuery(-0.4, 0.6)])
    def test_march_matches_literal_steps(self, query):
        p = ImpactOscillatorParams(zeta=0.05, eta=3.0, wall_enabled=False)
        s = TLESettings(max_periods=20, sample_window=20)
        xi = np.array([0.3, 0.9])
        r = compute_tle(
            p, SPRING_COUPLING, query, s,
            base_state=OscState(0.1, -0.2, 0.0), initial_perturbation=xi,
        )
        m_free, _ = coupled_step_propagator(
            segment_propagator(p, s.scan_step), SPRING_COUPLING, query, s.scan_step
        )
        want = literal_march_samples(m_free, xi, s.scan_step, p.forcing_period, 20)
        assert np.max(np.abs(np.array(r.samples) - want)) < 1e-10


class TestSettings:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(transient_periods=0),
            dict(max_periods=0),
            dict(sample_window=0),
            dict(sample_window=3000),
            dict(std_tolerance=0.0),
            dict(scan_step=-1e-3),
            dict(jacobi_delta=0.0),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TLESettings(**kwargs)

    def test_protocol_defaults(self):
        s = TLESettings()
        assert s.transient_periods == 500
        assert s.max_periods == 2000
        assert s.sample_window == 100
        assert s.std_tolerance == 1e-5
        assert s.scan_step == 1e-3


class TestSmoothLimit:
    def test_matches_characteristic_polynomial(self):
        p = _smooth()
        for alpha in (-1.0, 0.0, 0.5):
            r = compute_tle(p, SPRING_COUPLING, MSFQuery(alpha, 0.0), TLESettings())
            assert r.tle == pytest.approx(smooth_tle_oracle(p.zeta, alpha), abs=1e-3)

    def test_oscillatory_regime_hits_damping_rate(self):
        # Complex eigenvalues: the exponent is exactly -zeta.
        p = _smooth()
        r = compute_tle(p, SPRING_COUPLING, MSFQuery(0.0, 0.0), TLESettings())
        assert r.tle == pytest.approx(-0.05, abs=1e-3)

    def test_imaginary_discard_negligible_without_impacts(self):
        p = _smooth()
        r = compute_tle(p, SPRING_COUPLING, MSFQuery(-0.3, 0.0), TLESettings())
        assert r.imag_discard_free < 1e-6
        assert r.imag_discard_events == []

    def test_complex_query_beta(self):
        # beta != 0 keeps the complex propagator; smooth-limit oracle:
        # max Re of roots of s^2 + 2 zeta s + (1 - alpha - i beta) = 0.
        p = _smooth()
        alpha, beta = -0.4, 0.6
        roots = np.roots([1.0, 2 * p.zeta, 1.0 - alpha - 1j * beta])
        want = max(roots.real)
        r = compute_tle(p, SPRING_COUPLING, MSFQuery(alpha, beta), TLESettings())
        assert r.tle == pytest.approx(want, abs=1e-3)


class TestProtocolMetadata:
    def test_converged_run_satisfies_protocol(self):
        p = _smooth()
        r = compute_tle(p, SPRING_COUPLING, MSFQuery(0.0, 0.0), TLESettings())
        assert r.converged
        assert r.transient_periods == 500
        assert r.periods_used <= 2000
        assert len(r.samples) == r.periods_used
        assert np.std(r.samples[-100:]) < 1e-5
        assert r.tle == r.samples[-1]

    def test_unconverged_run_is_capped_and_flagged(self, elastic, elastic_base):
        r = compute_tle(
            elastic, SPRING_COUPLING, MSFQuery(0.0, 0.0),
            TLESettings(max_periods=150, sample_window=100),
            base_state=elastic_base,
        )
        assert not r.converged
        assert r.periods_used == 150

    def test_event_windows_record_imag_discard(self, elastic, elastic_base):
        r = compute_tle(
            elastic, SPRING_COUPLING, MSFQuery(-0.4, 0.0),
            TLESettings(max_periods=120, sample_window=100),
            base_state=elastic_base,
        )
        assert len(r.imag_discard_events) >= 1
        assert all(d >= 0.0 for d in r.imag_discard_events)


class TestEventWindows:
    def test_three_flow_runs_and_advance_along_central_run(
        self, elastic, elastic_base, monkeypatch
    ):
        runs, windows, starts = [], [], []
        real_simulate = jacobian.simulate
        real_window = msf.event_window_jacobian
        real_detect = msf.detect_next_impact

        def counting_simulate(*args, **kwargs):
            runs.append(args[1])
            return real_simulate(*args, **kwargs)

        def recording_window(p, s_pre, window, *args, **kwargs):
            before = len(runs)
            est = real_window(p, s_pre, window, *args, **kwargs)
            windows.append((s_pre, window, est, len(runs) - before))
            return est

        def recording_detect(p, s, *args, **kwargs):
            starts.append(s)
            return real_detect(p, s, *args, **kwargs)

        monkeypatch.setattr(jacobian, "simulate", counting_simulate)
        monkeypatch.setattr(msf, "simulate", counting_simulate)
        monkeypatch.setattr(msf, "event_window_jacobian", recording_window)
        monkeypatch.setattr(msf, "detect_next_impact", recording_detect)
        compute_tle(
            elastic, SPRING_COUPLING, MSFQuery(-0.5, 0.0),
            TLESettings(max_periods=4, sample_window=2), base_state=elastic_base,
        )
        assert len(windows) >= 2
        assert len(runs) == 3 * len(windows)
        for i, (s_pre, window, est, n_runs) in enumerate(windows):
            assert n_runs == 3
            final, events = real_simulate(elastic, s_pre, window, scan_step=window / 16.0)
            assert est.final == final
            assert list(est.events) == events
            # The march resumes from the central run's final state.
            if i + 1 < len(starts):
                assert starts[i + 1] == est.final


class TestDeterminism:
    def test_identical_reruns(self, elastic, elastic_base):
        s = TLESettings(max_periods=120, sample_window=100)
        a = compute_tle(elastic, SPRING_COUPLING, MSFQuery(-0.5, 0.0), s, base_state=elastic_base)
        b = compute_tle(elastic, SPRING_COUPLING, MSFQuery(-0.5, 0.0), s, base_state=elastic_base)
        assert a.tle == b.tle
        assert a.samples == b.samples

    def test_step_modes_agree(self, elastic, elastic_base, monkeypatch):
        # The grouped march against one in which each impact-free stretch
        # applies the free step literally, step by step, on an impacting run.
        s = TLESettings(max_periods=60, sample_window=50)
        a = compute_tle(elastic, SPRING_COUPLING, MSFQuery(-0.5, 0.0), s, base_state=elastic_base)
        monkeypatch.setattr(
            msf, "exp_flow", lambda g: (lambda k: literal_power(mat_exp(g), int(k)))
        )
        b = compute_tle(elastic, SPRING_COUPLING, MSFQuery(-0.5, 0.0), s, base_state=elastic_base)
        assert len(a.samples) == len(b.samples)
        assert a.tle == pytest.approx(b.tle, abs=1e-10)

    def test_sweep_worker_counts_agree(self, elastic, elastic_base):
        s = TLESettings(max_periods=60, sample_window=50)
        alphas = [-0.6, -0.2, 0.0]
        serial = msf_sweep(elastic, SPRING_COUPLING, alphas, [0.0], s, jobs=1, base_state=elastic_base)
        pooled = msf_sweep(elastic, SPRING_COUPLING, alphas, [0.0], s, jobs=2, base_state=elastic_base)
        assert [pt.alpha for pt in serial] == [pt.alpha for pt in pooled]
        for a, b in zip(serial, pooled):
            assert a.error == b.error
            assert a.result.tle == b.result.tle
            assert a.result.samples == b.result.samples


class TestSweep:
    def test_grid_order_row_major(self, elastic, elastic_base):
        s = TLESettings(max_periods=30, sample_window=20)
        pts = msf_sweep(
            elastic, SPRING_COUPLING, [-0.4, 0.0], [0.0, 0.2], s,
            jobs=1, base_state=elastic_base,
        )
        assert [(p.alpha, p.beta) for p in pts] == [
            (-0.4, 0.0), (-0.4, 0.2), (0.0, 0.0), (0.0, 0.2),
        ]

    def test_failures_captured_per_point(self, elastic, elastic_base):
        # An invalid delta cannot be injected through settings (validated),
        # so check the error channel stays None on a healthy grid instead.
        s = TLESettings(max_periods=30, sample_window=20)
        pts = msf_sweep(elastic, SPRING_COUPLING, [0.0], [0.0], s, jobs=1, base_state=elastic_base)
        assert pts[0].error is None
        assert pts[0].result is not None


class TestTransient:
    def test_settle_advances_500_periods(self, elastic):
        base = settle_transient(elastic, TLESettings())
        assert base.tau == pytest.approx(500 * elastic.forcing_period, rel=1e-12)

    def test_settled_state_is_reused(self, elastic, elastic_base):
        # Passing base_state must skip the internal transient.
        s = TLESettings(max_periods=30, sample_window=20)
        r = compute_tle(elastic, SPRING_COUPLING, MSFQuery(0.0, 0.0), s, base_state=elastic_base)
        assert r.transient_periods == 500


def test_runs_without_scipy():
    # scipy is a test-only dependency: the package must import and run an
    # impacting exponent with every scipy import failing.
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from msflab import MSFQuery, SPRING_COUPLING, TLESettings, compute_tle, load_preset\n"
        "s = TLESettings(transient_periods=50, max_periods=30, sample_window=20)\n"
        "r = compute_tle(load_preset('elastic').oscillator, SPRING_COUPLING, MSFQuery(-0.5), s)\n"
        "assert r.periods_used == 30 and r.imag_discard_events, r\n"
    )
    src = str(Path(msf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
