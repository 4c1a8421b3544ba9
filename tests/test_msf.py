import cmath
import copy
import dataclasses
import itertools
import math
import os
import pickle
import re
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    direct_tle, literal_march_samples, literal_power, literal_steps, record_saltation_tles,
    smooth_tle_oracle,
)
from msflab import jacobian, msf, network, oscillator
from msflab.jacobian import GrazingSingularityError, PropagationError
from msflab.config import ConfigError
from msflab.matfuncs import NonInvertibleMatrixError, exp_flow, mat_exp, mat_log
from msflab.msf import (
    MSFQuery,
    SPRING_COUPLING,
    TLESettings,
    compute_tle,
    coupled_step_propagator,
    msf_sweep,
    settle_transient,
)
from msflab.network import ProbeSettings, bifurcation_scan
from msflab.oscillator import (
    ChatterError, ImpactOscillatorParams, OscState, segment_propagator, simulate,
)


# random_impacting catalogue point 42, whose impacts accumulate near tau = 19.19.
CHATTER_POINT = ImpactOscillatorParams(
    zeta=0.07424109529981779, eta=0.34478727863484854,
    x_w=0.5666034302401003, R=0.5409710972632726,
)


def _smooth(eta=0.712):
    return ImpactOscillatorParams(zeta=0.05, eta=eta, x_w=2.0, wall_enabled=False)


def _evict(settings=TLESettings(max_periods=1, sample_window=1)):
    """Replace the process's event record by one on another elastic base state."""
    compute_tle(
        ImpactOscillatorParams(zeta=0.05, eta=0.712, x_w=2.0), SPRING_COUPLING,
        MSFQuery(0.0), settings, base_state=OscState(0.0, 0.0, 0.0),
    )


def _outcome(r):
    return (
        r.tle, r.samples, r.warnings, r.imag_discard_free, r.imag_discard_events,
        r.converged, r.periods_used,
    )


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("coupling", [
        [1.0, 0.0], 1.0, np.eye(3),
        [[0.0, 0.0], [math.nan, 0.0]], [[0.0, math.inf], [-math.inf, 0.0]],
    ])
    def test_rejects_coupling_not_2x2(self, coupling, monkeypatch):
        # Every entry point rejects the coupling before any simulation runs.
        def never(*args, **kwargs):
            raise AssertionError("a simulation ran")

        monkeypatch.setattr(oscillator, "_runner", never)
        monkeypatch.setattr(network, "_simulate_coupled", never)
        p = ImpactOscillatorParams(zeta=0.05, eta=0.712, x_w=2.0)
        phi = np.array([[0.99, 0.001], [-0.002, 0.97]])
        entry_points = [
            lambda: coupled_step_propagator(phi, coupling, MSFQuery(-0.5), 1e-3),
            lambda: compute_tle(p, coupling, MSFQuery(-0.5)),
            lambda: msf_sweep(p, coupling, [-0.5], [0.0], jobs=1),
            lambda: network.analyze_network(p, coupling, network.TWO_NODE_GRAPH, 0.5),
            lambda: network.run_probe(p, coupling, ProbeSettings(sigma=0.5)),
            lambda: bifurcation_scan(p, coupling, [0.5], ProbeSettings(sigma=0.5), jobs=1),
        ]
        for call in entry_points:
            with pytest.raises(ValueError, match="coupling matrix must be 2x2 and finite"):
                call()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf, 0.0, -1e-3])
    def test_rejects_step_not_finite_positive(self, h):
        phi = np.array([[0.99, 0.001], [-0.002, 0.97]])
        with pytest.raises(ValueError, match="h must be finite and positive"):
            coupled_step_propagator(phi, SPRING_COUPLING, MSFQuery(-0.5), h)


_ENTRY = st.builds(complex, st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))


class TestWindowStep:
    """compute_tle's scalar window step against mat_exp, and its failures."""

    @settings(max_examples=300, deadline=None)
    @given(
        log_phi=st.lists(_ENTRY, min_size=4, max_size=4),
        coupling=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
        defective=st.booleans(),
        alpha=st.floats(-3.0, 3.0),
        beta=st.one_of(st.just(0.0), st.floats(-3.0, 3.0).filter(bool)),
        width=st.sampled_from([1, 2]),
    )
    def test_equals_mat_exp_real_and_norm(self, log_phi, coupling, defective, alpha, beta, width):
        coupling = np.array(coupling).reshape(2, 2)
        if defective:
            # a = d and b = 0 stay so under the spring coupling: s = 0.
            log_phi[1], log_phi[3], coupling = 0j, log_phi[0], SPRING_COUPLING
        query = MSFQuery(alpha, beta)
        dt = width * TLESettings().scan_step
        prop = mat_exp(np.array(log_phi).reshape(2, 2) + (alpha + 1j * beta) * coupling * dt)
        if beta == 0.0:
            a, b, c, d = np.imag(prop).ravel().tolist()
            want = np.real(prop).copy(), math.sqrt(a * a + b * b + c * c + d * d)
        else:
            want = prop, 0.0
        shift = msf._coupling_shift(coupling, query, dt).ravel().tolist()
        step, discarded = msf._window_step(log_phi, shift, beta == 0.0)
        got = np.array(step).reshape(2, 2)
        assert got.dtype == want[0].dtype
        assert got.tobytes() == want[0].tobytes()
        assert discarded.hex() == want[1].hex()

    def test_non_finite_generator_names_the_window(self, elastic, elastic_base, monkeypatch):
        # A window logarithm patched to overflow: the window step raises the
        # message mat_exp gives, with the window's impact time.
        real = msf.scalar_log
        calls = []

        def overflowing_windows(entries, is_complex):
            calls.append(entries)
            return real(entries, is_complex) if len(calls) == 1 else (complex(math.inf, 0.0),) * 4

        monkeypatch.setattr(msf, "scalar_log", overflowing_windows)
        s = TLESettings(max_periods=30, sample_window=20)
        with pytest.raises(ValueError) as info:
            compute_tle(elastic, SPRING_COUPLING, MSFQuery(-0.5), s, base_state=elastic_base)
        assert type(info.value) is ValueError
        assert re.fullmatch(
            r"matrix contains non-finite entries \(event window at tau_c=\d+\.\d{6}\)",
            str(info.value),
        )


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
            dict(sample_window=10.0),
            dict(max_periods=50.5),
            dict(transient_periods=True),
            dict(std_tolerance=math.nan),
            dict(scan_step=math.inf),
            dict(jacobi_delta=math.inf),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            TLESettings(**kwargs)

    def test_accepts_numpy_counts(self):
        s = TLESettings(
            transient_periods=np.int64(50), max_periods=np.int32(20), sample_window=np.uint8(5)
        )
        assert (s.transient_periods, s.max_periods, s.sample_window) == (50, 20, 5)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            (dict(alpha=float("nan")), "alpha"),
            (dict(alpha=float("-inf")), "alpha"),
            (dict(alpha=0.0, beta=float("inf")), "beta"),
            (dict(alpha=0.0, beta=float("nan")), "beta"),
        ],
    )
    def test_query_rejects_non_finite(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            MSFQuery(**kwargs)

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

    @pytest.mark.parametrize("alpha, beta", [(5e3, 0.0), (1e4, 0.0), (1e6, 0.0), (0.0, 1e5)])
    def test_strong_coupling_stays_in_float_range(self, alpha, beta):
        # A period's free steps in one power would grow past e^709.
        p = _smooth()
        want = -p.zeta + cmath.sqrt(p.zeta**2 - 1.0 + alpha + 1j * beta).real
        s = TLESettings(transient_periods=1, max_periods=20, sample_window=5)
        r = compute_tle(p, SPRING_COUPLING, MSFQuery(alpha, beta), s)
        assert r.tle == pytest.approx(want, rel=1e-3)

    def test_strong_coupling_on_the_elastic_preset(self, elastic, elastic_base):
        s = TLESettings(max_periods=20, sample_window=5)
        r = compute_tle(elastic, SPRING_COUPLING, MSFQuery(1e4), s, base_state=elastic_base)
        assert math.isfinite(r.tle) and r.tle > 90.0

    def test_overflowing_free_step_names_the_query(self):
        s = TLESettings(transient_periods=1, max_periods=20, sample_window=5)
        with pytest.raises(PropagationError, match=r"alpha=1000000000000\.0, beta=0\.0"):
            compute_tle(_smooth(), SPRING_COUPLING, MSFQuery(1e12, 0.0), s)


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


def _verdicts(samples, n, tol):
    """compute_tle's screen fed samples in order and consulted at the counts it
    names, as if np.std never passed: (may_pass for the windows at counts n,
    n + 1, ..., the counts consulted).  A window may pass when its count is
    consulted and answers itself."""
    seen, verdicts, wake, consulted = [], [], n, []
    screen = msf._std_screen(seen, n, tol)
    for x in samples:
        seen.append(x)
        if len(seen) >= wake:
            wake = next(screen)
            consulted.append(len(seen))
        if len(seen) >= n:
            verdicts.append(wake == len(seen))
    return verdicts, consulted


def _exact_spreads(x, n):
    """n*Var of each window of x, in order, exactly."""
    spreads = []
    for end in range(n, len(x) + 1):
        window = [Fraction(v) for v in x[end - n:end]]
        centre = sum(window) / n
        spreads.append(sum((v - centre) ** 2 for v in window))
    return spreads


def _tols_near(spread, n, offsets):
    """The tol at which n*tol**2*(1 + 1e-9) equals spread, 6 ulps either
    side of it, and it moved by each relative offset of its square."""
    base = math.sqrt(float(spread) / n / (1.0 + 1e-9))
    tols = [base * math.sqrt(1.0 + r) for r in offsets]
    tol = base
    for _ in range(6):
        tol = math.nextafter(tol, 0.0)
    for _ in range(13):
        tols.append(tol)
        tol = math.nextafter(tol, math.inf)
    return tols


def _bound_holds(x, n, exact, tols):
    """Checks that at each tol the screen rules out only windows of x whose
    exact n*Var (exact, per window) clears n*tol**2 by the room it keeps for
    np.std's rounding, a relative 1e-9, and so never one whose np.std is
    below tol.  Returns how many windows it ruled out."""
    ruled_out = 0
    for tol in tols:
        room = n * Fraction(tol) ** 2 * (1 + Fraction(1, 10**9))
        verdicts, _ = _verdicts(x, n, tol)
        for end, may_pass, spread in zip(range(n, len(x) + 1), verdicts, exact):
            if float(np.std(x[end - n:end])) < tol:
                assert may_pass
            if not may_pass:
                assert spread > room
                ruled_out += 1
    return ruled_out


# Examples of the screen's property; CI runs it with 3000 as well.
SCREEN_EXAMPLES = int(os.environ.get("MSFLAB_SCREEN_EXAMPLES", "300"))


class TestWindowMoments:
    @settings(max_examples=SCREEN_EXAMPLES, deadline=None)
    @given(
        n=st.integers(1, 200),
        history=st.integers(0, 250),
        mean=st.floats(-1e3, 1e3),
        spread=st.one_of(st.just(0.0), st.floats(-14.0, 0.0).map(lambda e: 10.0**e)),
        drift=st.floats(-50.0, 50.0),
        constant_tail=st.booleans(),
        bad=st.lists(
            st.tuples(st.integers(0, 449), st.sampled_from([np.inf, -np.inf, np.nan])),
            max_size=3,
        ),
        ulps=st.integers(-4, 4),
        tol=st.one_of(st.none(), st.floats(5e-324, 1.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_never_rules_out_a_pass(
        self, n, history, mean, spread, drift, constant_tail, bad, ulps, tol, seed
    ):
        # Whenever np.std of a full window is below tol, the screen must be
        # consulted at its count and say "may pass".
        count = n + history
        k = np.arange(count) / count
        x = mean + spread * (np.random.default_rng(seed).standard_normal(count) + drift * k)
        if constant_tail:
            x[-n:] = x[-1]
        for i, value in bad:
            x[i % count] = value
        with np.errstate(invalid="ignore", over="ignore"):
            if tol is None:
                # Within a few ulps of the last window's std.
                tol = float(np.std(x[-n:]))
                if not (math.isfinite(tol) and tol > 0.0):
                    tol = 1e-5
                for _ in range(abs(ulps)):
                    tol = float(np.nextafter(tol, math.inf if ulps > 0 else 0.0))
                tol = max(tol, 5e-324)
            verdicts, _ = _verdicts(x.tolist(), n, tol)
            for end, may_pass in enumerate(verdicts, n):
                if float(np.std(x[end - n:end])) < tol:
                    assert may_pass

    def test_rules_out_wide_windows(self):
        # A spread twice the tolerance is ruled out.  A window holding a nan
        # (np.std nan, so it never passes) is ruled out behind a certified
        # suffix, and may pass while every suffix holds the nan.
        n, tol = 100, 1e-5
        wide = [1e3 + 2e-5 * (-1) ** i for i in range(3 * n)]
        wide[n // 2] = math.nan
        assert _verdicts(wide, n, tol)[0] == [False] * (2 * n + 1)
        wide[n // 2], wide[n - 1] = wide[n // 2 + 2], math.nan
        assert _verdicts(wide, n, tol)[0] == [True] * n + [False] * (n + 1)
        narrow = [0.25 + 1e-7 * (-1) ** i for i in range(2 * n)]
        assert _verdicts(narrow, n, tol)[0] == [True] * (n + 1)

    def test_skips_windows_behind_a_drifting_suffix(self):
        # Running averages settling like 1/k, up to the first window with
        # np.std < tol: the screen rules out every earlier window, in fewer
        # consultations than a tenth of the samples.
        n, tol = 100, 1e-5
        x = [0.3 + 0.2 / k + 1e-6 * math.sin(k) for k in range(1, 813)]
        verdicts, consulted = _verdicts(x, n, tol)
        stds = [float(np.std(x[end - n:end])) for end in range(n, len(x) + 1)]
        assert verdicts == [std < tol for std in stds] == [False] * (len(x) - n) + [True]
        assert len(consulted) < len(x) // 10

    def test_hovering_window_is_screened_at_every_count(self):
        # A window 0.1% above the tolerance needs the whole window as its
        # suffix: the screen is consulted at each count and rules each window
        # out.  Once the spread widens it skips again, and once it narrows
        # the windows may pass.
        n, tol = 100, 1e-5
        hover = [0.3 + 1.001e-5 * (-1) ** i for i in range(3 * n)]
        wide = [0.3 + 3e-5 * (-1) ** i for i in range(2 * n)]
        x = hover + wide + [0.3] * (2 * n)
        verdicts, consulted = _verdicts(x, n, tol)
        stds = [float(np.std(x[end - n:end])) for end in range(n, len(x) + 1)]
        assert all(may_pass for std, may_pass in zip(stds, verdicts) if std < tol)
        assert not any(verdicts[:len(hover) + len(wide) - n])
        assert set(range(n + 2, len(hover) + 1)) <= set(consulted)
        assert len([c for c in consulted if len(hover) < c <= len(hover) + len(wide)]) < n // 4

    def test_windows_of_nearly_equal_samples(self):
        # Windows one ulp apart hover at these tolerances, also for n <= 8,
        # where the suffix search starts at or near the whole window.
        x = [1.0 + (i % 3 == 0) * 2.0**-52 for i in range(30)]
        for n, tol in itertools.product(range(1, 10), (5e-324, 1e-300)):
            verdicts, _ = _verdicts(x, n, tol)
            stds = [float(np.std(x[end - n:end])) for end in range(n, len(x) + 1)]
            assert all(may_pass for std, may_pass in zip(stds, verdicts) if std < tol)

    @pytest.mark.parametrize("mean, std, n, pad", [
        (0.3, 1e-5, 100, 0),
        (-2.0, 3e-7, 100, 0),
        (1e3, 2e-9, 100, 0),
        (-3e5, 1e-6, 100, 0),
        (0.3, 1e-5, 40, 15),
        (7.0, 2e-9, 40, 15),
    ])
    def test_bound_holds_near_the_tolerance(self, mean, std, n, pad):
        # Windows whose exact n*Var sits within 1e-12 to 1e-2, relative, and
        # within 6 ulps of tol, of n*tol**2; some about a mean 10**11 times
        # their std, where the suffix's computed mean is off by a share of
        # the spread that the 1e-9 room does not cover.  pad > 0 puts the
        # n - pad spread samples between runs of their rounded mean, so that
        # the suffix that rules windows out is shorter than n.
        spread = (mean + std * np.random.default_rng(27).standard_normal(n - pad)).tolist()
        x = [float(np.mean(spread))] * pad + spread + [float(np.mean(spread))] * pad
        exact = _exact_spreads(x, n)
        offsets = (-1e-2, -1e-4, -1e-6, -1e-8, -1e-10, -1e-12, 1e-12, 1e-10, 1e-8, 1e-6)
        assert _bound_holds(x, n, exact, _tols_near(max(exact), n, offsets))

    def test_bound_holds_within_ulps_of_the_tolerance(self):
        # Short windows at tolerances 6 ulps either side of their exact
        # spread: some dozen of them land between the exact n*Var and the
        # bound computed without its 8*eps shrink.
        rng = np.random.default_rng(27)
        for _ in range(1000):
            n = int(rng.integers(2, 30))
            x = (0.3 + 1e-5 * rng.standard_normal(n)).tolist()
            exact = _exact_spreads(x, n)
            _bound_holds(x, n, exact, _tols_near(exact[0], n, ()))

    def test_window_may_pass_just_above_its_own_std(self):
        # At the next float above its np.std a window passes, so the screen
        # must say it may.  About a mean of 1e3 the L*delta**2 term is what
        # keeps such windows; elsewhere either of the 8*eps shrink and the
        # 1e-9 room does, and without both about one window in 100 is ruled
        # out.
        rng = np.random.default_rng(27)
        for _ in range(2000):
            n = int(rng.integers(2, 101))
            mean = float(rng.choice([0.0, 0.3, -2.0, 1e3]))
            x = (mean + 10.0 ** rng.uniform(-9, -3) * rng.standard_normal(n)).tolist()
            assert _verdicts(x, n, math.nextafter(float(np.std(x)), math.inf))[0] == [True]


class TestEventWindows:
    def test_three_flow_runs_and_advance_along_central_run(
        self, elastic, elastic_base, monkeypatch
    ):
        # Each window makes one central run, in the walk, and two perturbed
        # runs, as lanes of the batch, from its start; the march goes on
        # along the central run.
        runs, lanes, windows, starts = [], [], [], []
        real_simulate = jacobian.simulate
        real_runner = jacobian._runner
        real_lanes = jacobian.one_impact_runs
        real_window = msf._window
        real_detect = msf.detect_next_impact

        def counting_simulate(*args, **kwargs):
            runs.append(args[1])
            return real_simulate(*args, **kwargs)

        def counting_runner(p, tau0, *args, **kwargs):
            run = real_runner(p, tau0, *args, **kwargs)

            def counted(x, v):
                runs.append(OscState(x, v, tau0))
                return run(x, v)

            return counted

        def counting_lanes(p, tau0, duration, scan_step, x0, v0):
            lanes.extend(zip(tau0.tolist(), x0.tolist(), v0.tolist()))
            return real_lanes(p, tau0, duration, scan_step, x0, v0)

        def recording_window(p, s_pre, window, *args, **kwargs):
            est = real_window(p, s_pre, window, *args, **kwargs)
            windows.append((s_pre, window, est))
            return est

        def recording_detect(p, s, *args, **kwargs):
            starts.append(s)
            return real_detect(p, s, *args, **kwargs)

        monkeypatch.setattr(jacobian, "simulate", counting_simulate)
        monkeypatch.setattr(jacobian, "_runner", counting_runner)
        monkeypatch.setattr(jacobian, "one_impact_runs", counting_lanes)
        monkeypatch.setattr(msf, "simulate", counting_simulate)
        monkeypatch.setattr(msf, "_window", recording_window)
        monkeypatch.setattr(msf, "detect_next_impact", recording_detect)
        compute_tle(
            elastic, SPRING_COUPLING, MSFQuery(-0.5, 0.0),
            TLESettings(max_periods=4, sample_window=2), base_state=elastic_base,
        )
        delta = TLESettings().jacobi_delta
        assert len(windows) >= 2
        assert runs == [s_pre for s_pre, _, _ in windows]
        assert lanes == [
            lane for s_pre, _, _ in windows
            for lane in ((s_pre.tau, s_pre.x + delta, s_pre.v), (s_pre.tau, s_pre.x, s_pre.v + delta))
        ]
        for i, (s_pre, window, est) in enumerate(windows):
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
        # A rerun after another base state has replaced the record rebuilds it.
        _evict(s)
        c = compute_tle(elastic, SPRING_COUPLING, MSFQuery(-0.5, 0.0), s, base_state=elastic_base)
        assert a.tle == b.tle == c.tle
        assert a.samples == b.samples == c.samples

    def test_step_modes_agree(self, elastic, elastic_base, monkeypatch):
        # The grouped march against one in which each impact-free stretch
        # applies the free step literally, step by step, on an impacting run.
        s = TLESettings(max_periods=60, sample_window=50)
        a = compute_tle(elastic, SPRING_COUPLING, MSFQuery(-0.5, 0.0), s, base_state=elastic_base)
        def literal_flow(entries, is_complex):
            m = mat_exp(np.reshape(entries, (2, 2)))
            return lambda k: tuple(literal_power(m, int(k)).ravel().tolist())

        monkeypatch.setattr(msf, "scalar_exp_flow", literal_flow)
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


# The grazing failure recorded in ROADMAP.md: after a 100-period transient
# the window starting at tau = 1174.72 raises.  Under GRAZING_SETTINGS
# alpha = -1 converges after 11 periods, before that window, and alpha = 0
# reaches it.
GRAZING_POINT = ImpactOscillatorParams(
    zeta=0.015380737517637964, eta=0.6355648465488226,
    x_w=2.011873244080891, R=0.823594755787125,
)
GRAZING_SETTINGS = TLESettings(
    transient_periods=100, max_periods=150, sample_window=10, std_tolerance=1e-3
)
GRAZING_MESSAGE = (
    "window propagator at tau=1174.718621 is numerically singular (singular values "
    "2.382e-08/4.421e+07); the impact is too close to grazing for a logarithm to exist"
)
# Queries that stop at different periods (64 to 95 on the elastic preset),
# with a complex one and a second coupling matrix among them.
REPLAY_SETTINGS = TLESettings(max_periods=120, sample_window=20, std_tolerance=1e-3)
REPLAY_QUERIES = [
    (MSFQuery(-0.5), SPRING_COUPLING),
    (MSFQuery(-0.4, 0.6), SPRING_COUPLING),
    (MSFQuery(-1.0), np.array([[0.0, 0.0], [0.0, 1.0]])),
    (MSFQuery(-3.0), SPRING_COUPLING),
    (MSFQuery(0.0), SPRING_COUPLING),
]


@pytest.fixture(scope="module")
def grazing_base():
    return settle_transient(GRAZING_POINT, GRAZING_SETTINGS)


def _flag_windows(monkeypatch):
    """Make some event windows inconsistent and some grazing, so they warn."""
    real = msf._window

    def flagged(p, s_pre, *args, **kwargs):
        est = real(p, s_pre, *args, **kwargs)
        cell = int(s_pre.tau * 1e3)
        if cell % 3 == 0:
            est = dataclasses.replace(est, consistent=False)
        if cell % 5 == 0:
            events = tuple(dataclasses.replace(e, grazing=True) for e in est.events)
            est = dataclasses.replace(est, events=events)
        return est

    monkeypatch.setattr(msf, "_window", flagged)


class TestEventRecord:
    @pytest.mark.parametrize("flag", [False, True])
    def test_replay_equals_cold_and_direct(self, elastic, elastic_base, flag, monkeypatch):
        if flag:
            _flag_windows(monkeypatch)

        def run(queries):
            return [
                _outcome(compute_tle(elastic, c, q, REPLAY_SETTINGS, base_state=elastic_base))
                for q, c in queries
            ]

        # Evicting with the same p and settings: only the base state differs.
        cold = []
        for query in REPLAY_QUERIES:
            _evict(REPLAY_SETTINGS)
            cold += run([query])
        _evict(REPLAY_SETTINGS)
        warm = run(REPLAY_QUERIES)
        _evict(REPLAY_SETTINGS)
        backward = run(REPLAY_QUERIES[::-1])[::-1]
        direct = [
            _outcome(direct_tle(elastic, c, q, REPLAY_SETTINGS, elastic_base))
            for q, c in REPLAY_QUERIES
        ]
        assert len({r[-1] for r in cold}) > 2
        assert any(r[2] for r in cold) == flag
        assert warm == cold
        assert backward == cold
        assert direct == cold

    def test_retry_at_reduced_delta(self, elastic, elastic_base, monkeypatch):
        # The first window's runs disagree on their event counts at delta and
        # agree at delta/10, whose estimate the march then takes.
        real = msf._window
        first = []

        def disagreeing_once(p, s_pre, window, delta, *batch):
            est = real(p, s_pre, window, delta, *batch)
            if not first:
                first.append(s_pre.tau)
            if s_pre.tau == first[0] and delta == REPLAY_SETTINGS.jacobi_delta:
                est = dataclasses.replace(est, consistent=False)
            return est

        monkeypatch.setattr(msf, "_window", disagreeing_once)
        query = MSFQuery(-0.5)
        r = compute_tle(elastic, SPRING_COUPLING, query, REPLAY_SETTINGS, base_state=elastic_base)
        tau_c = msf._event_record(elastic, elastic_base, REPLAY_SETTINGS)[2][0][0]
        assert [w for w in r.warnings if "disagreed" in w] == [
            f"event counts disagreed at tau_c={tau_c:.6f}; retry with delta/10 succeeded"
        ]
        assert _outcome(r) == _outcome(
            direct_tle(elastic, SPRING_COUPLING, query, REPLAY_SETTINGS, elastic_base)
        )

    @pytest.mark.parametrize(
        "query", [MSFQuery(-1.0), MSFQuery(0.5), MSFQuery(-0.4, 0.6), MSFQuery(1.0, 0.5)]
    )
    def test_default_protocol_equals_direct(self, query):
        # Wall-free queries that converge under the paper protocol (tol 1e-5,
        # window 100): every field equals the march that runs np.std per period.
        p = _smooth()
        base = settle_transient(p, TLESettings())
        r = compute_tle(p, SPRING_COUPLING, query, base_state=base)
        assert r.converged and r.periods_used > TLESettings().sample_window
        assert r == direct_tle(p, SPRING_COUPLING, query, TLESettings(), base)

    @pytest.mark.parametrize("order", [("stop", "reach"), ("reach", "stop")])
    def test_failure_kept_at_its_window(self, grazing_base, order):
        def stop():
            r = compute_tle(
                GRAZING_POINT, SPRING_COUPLING, MSFQuery(-1.0), GRAZING_SETTINGS,
                base_state=grazing_base,
            )
            assert r.converged and r.periods_used == 11
            assert grazing_base.tau + 12 * GRAZING_POINT.forcing_period < 1174.7
            return _outcome(r)

        def reach():
            with pytest.raises(GrazingSingularityError) as info:
                compute_tle(
                    GRAZING_POINT, SPRING_COUPLING, MSFQuery(0.0), GRAZING_SETTINGS,
                    base_state=grazing_base,
                )
            assert type(info.value) is GrazingSingularityError
            assert str(info.value) == GRAZING_MESSAGE
            return info.value

        _evict()
        cold = [{"stop": stop, "reach": reach}[kind]() for kind in order]
        warm = [{"stop": stop, "reach": reach}[kind]() for kind in order]
        assert cold[order.index("stop")] == warm[order.index("stop")]
        # Each query that reaches the window gets an exception of its own.
        assert cold[order.index("reach")] is not warm[order.index("reach")]

    def test_failure_replays_constructor_state(self, elastic, elastic_base, monkeypatch):
        # ChatterError's constructor takes (tau, count, period), not a message.
        real = msf._window
        calls = []

        def chatter_on_third(p, s_pre, *args, **kwargs):
            calls.append(s_pre)
            if len(calls) == 3:
                raise ChatterError(s_pre.tau, 10_001, p.forcing_period)
            return real(p, s_pre, *args, **kwargs)

        monkeypatch.setattr(msf, "_window", chatter_on_third)
        s = TLESettings(max_periods=30, sample_window=20)
        raised = []
        for _ in range(2):
            with pytest.raises(ChatterError) as info:
                compute_tle(elastic, SPRING_COUPLING, MSFQuery(0.0), s, base_state=elastic_base)
            raised.append(info.value)
        assert len(calls) == 3
        cold, warm = raised
        assert warm is not cold
        assert str(warm) == str(cold)
        assert (warm.tau, warm.count, warm.period) == (cold.tau, cold.count, cold.period)

    def test_each_window_estimated_once(self, elastic, elastic_base, monkeypatch):
        # Queries that stop at different periods, one at a time or in a sweep:
        # the record estimates every window of the base state to the horizon,
        # each once.
        calls = []
        real = msf._window

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(msf, "_window", counting)
        alphas = [-3.0, -0.5, -1.0]
        estimated, stops = [], []
        for alpha in alphas:
            _evict()
            before = len(calls)
            r = compute_tle(
                elastic, SPRING_COUPLING, MSFQuery(alpha), REPLAY_SETTINGS,
                base_state=elastic_base,
            )
            estimated.append(calls[before:])
            stops.append((r.periods_used, len(r.imag_discard_events)))
        _, _, entries = msf._event_record(elastic, elastic_base, REPLAY_SETTINGS)
        assert not any(isinstance(entry[3], Exception) for entry in entries)
        assert len(set(stops)) == 3 and min(n for _, n in stops) < len(entries)
        assert estimated[0] == estimated[1] == estimated[2]
        assert len(set(estimated[0])) == len(estimated[0]) == len(entries)
        _evict()
        before = len(calls)
        pts = msf_sweep(
            elastic, SPRING_COUPLING, alphas, [0.0, 0.5], REPLAY_SETTINGS, jobs=1,
            base_state=elastic_base,
        )
        assert all(pt.error is None for pt in pts)
        assert calls[before:] == estimated[0]
        compute_tle(elastic, SPRING_COUPLING, MSFQuery(0.0), REPLAY_SETTINGS, base_state=elastic_base)
        assert calls[before:] == estimated[0]

    def test_patched_kernel_sees_every_window(self, elastic, elastic_base, monkeypatch):
        # The process keeps its record whatever kernels built it: a kernel
        # patched after the record was built sees every window once the
        # record is cleared.
        s = TLESettings(max_periods=6, sample_window=2)
        first = compute_tle(elastic, SPRING_COUPLING, MSFQuery(-0.5), s, base_state=elastic_base)
        seen = []
        real = msf._window

        def recording(p, s_pre, *args, **kwargs):
            seen.append(s_pre)
            return real(p, s_pre, *args, **kwargs)

        monkeypatch.setattr(msf, "_window", recording)
        kept = compute_tle(elastic, SPRING_COUPLING, MSFQuery(-0.5), s, base_state=elastic_base)
        assert seen == []
        msf._event_record.cache_clear()
        again = compute_tle(elastic, SPRING_COUPLING, MSFQuery(-0.5), s, base_state=elastic_base)
        _, _, entries = msf._event_record(elastic, elastic_base, s)
        assert len(seen) == len(entries) == len(again.imag_discard_events) >= 2
        assert _outcome(again) == _outcome(kept) == _outcome(first)

    @pytest.mark.parametrize("bad, entry", [(math.nan, 0), (math.inf, 1), (-math.inf, 2), (math.nan, 3)])
    def test_non_finite_phi_entry(self, elastic, elastic_base, monkeypatch, bad, entry):
        # A window estimate whose phi has one non-finite entry fails the
        # window with the logarithm's message, naming the impact, and every
        # query that reaches the window raises it.
        s = TLESettings(max_periods=6, sample_window=2)
        real = msf._window
        calls = []

        def corrupt_second(p, s_pre, *args, **kwargs):
            est = real(p, s_pre, *args, **kwargs)
            calls.append(s_pre)
            if len(calls) == 2:
                phi = est.phi.copy()
                phi.flat[entry] = bad
                est = dataclasses.replace(est, phi=phi)
            return est

        monkeypatch.setattr(msf, "_window", corrupt_second)
        raised = []
        for _ in range(2):
            with pytest.raises(ValueError) as info:
                compute_tle(elastic, SPRING_COUPLING, MSFQuery(-0.5), s, base_state=elastic_base)
            raised.append(info.value)
        assert len(calls) == 2
        _, _, entries = msf._event_record(elastic, elastic_base, s)
        assert len(entries) == 2
        tau_c, _, _, window = entries[1]
        assert type(window) is ValueError
        for exc in raised:
            assert type(exc) is ValueError
            assert str(exc) == (
                f"matrix contains non-finite entries (event window at tau_c={tau_c:.6f})"
            )
        assert raised[0] is not raised[1]

    def test_failure_between_impact_and_window(self, elastic, elastic_base, monkeypatch):
        # alpha = -3 stops after 64 periods, having crossed 46 windows, before
        # window 46 starts; alpha = -0.5 runs on to cross 60.  A kernel that
        # fails on window 46 ends the record there: the first result stays as
        # it was, and every query that reaches the window raises a copy of
        # its own.
        def run(alpha):
            return compute_tle(
                elastic, SPRING_COUPLING, MSFQuery(alpha), REPLAY_SETTINGS,
                base_state=elastic_base,
            )

        stop = run(-3.0)
        n = len(stop.imag_discard_events)
        _, _, entries = msf._event_record(elastic, elastic_base, REPLAY_SETTINGS)
        assert n == 46 and entries[n][1] >= _stop_index(stop, elastic, REPLAY_SETTINGS)
        real = msf._window
        calls, raised = [], []

        def failing(p, s_pre, *args, **kwargs):
            calls.append(s_pre)
            if len(calls) == n + 1:
                raised.append(ChatterError(s_pre.tau, 10_001, p.forcing_period))
                raise raised[0]
            return real(p, s_pre, *args, **kwargs)

        monkeypatch.setattr(msf, "_window", failing)
        msf._event_record.cache_clear()
        assert _outcome(run(-3.0)) == _outcome(stop)
        assert len(calls) == n + 1 and len(raised) == 1
        _, _, entries = msf._event_record(elastic, elastic_base, REPLAY_SETTINGS)
        assert len(entries) == n + 1 and type(entries[n][3]) is ChatterError
        copies = []
        for _ in range(2):
            with pytest.raises(ChatterError) as info:
                run(-0.5)
            copies.append(info.value)
        assert len(calls) == n + 1
        _assert_fresh_copies(copies, raised[0])

    def test_failed_impact_search_kept(self, elastic, elastic_base, monkeypatch):
        # A failure to find the next impact ends the record like a window's,
        # at the end of the window before it, and is not searched again:
        # alpha = -3 stops before search k starts, at the end of window
        # k - 2, and alpha = -0.5 runs past it.
        def run(alpha):
            return compute_tle(
                elastic, SPRING_COUPLING, MSFQuery(alpha), REPLAY_SETTINGS,
                base_state=elastic_base,
            )

        stop = run(-3.0)
        _, _, entries = msf._event_record(elastic, elastic_base, REPLAY_SETTINGS)
        j_stop = _stop_index(stop, elastic, REPLAY_SETTINGS)
        k = 2 + next(i for i, entry in enumerate(entries) if entry[2] >= j_stop)
        assert k == len(stop.imag_discard_events) + 2
        real = msf.detect_next_impact
        calls, raised = [], []

        def failing(p, s, *args, **kwargs):
            calls.append(s)
            if len(calls) == k:
                raised.append(ChatterError(s.tau, 10_001, p.forcing_period))
                raise raised[0]
            return real(p, s, *args, **kwargs)

        monkeypatch.setattr(msf, "detect_next_impact", failing)
        msf._event_record.cache_clear()
        copies = []
        for _ in range(2):
            assert _outcome(run(-3.0)) == _outcome(stop)
            with pytest.raises(ChatterError) as info:
                run(-0.5)
            copies.append(info.value)
        assert len(calls) == k and len(raised) == 1
        _assert_fresh_copies(copies, raised[0])
        _, _, failed = msf._event_record(elastic, elastic_base, REPLAY_SETTINGS)
        w_end = entries[k - 2][2]
        assert failed[:-1] == entries[:k - 1]
        assert failed[-1][:3] == (None, w_end, w_end)
        assert type(failed[-1][3]) is ChatterError


def _stop_index(r, p, settings):
    """The grid index at which r's march took its last sample."""
    return int(math.ceil(r.periods_used * p.forcing_period / settings.scan_step))


def _assert_fresh_copies(copies, original):
    """Each of copies is an exception of its own, equal to the ChatterError original."""
    assert len({id(exc) for exc in [original, *copies]}) == len(copies) + 1
    for exc in copies:
        assert str(exc) == str(original)
        assert (exc.tau, exc.count, exc.period) == (original.tau, original.count, original.period)


def _assert_stop_rule(r, settings):
    """compute_tle's stop rule on its own samples: every full window before the
    last has np.std >= tol, and r converged iff the last window's is below tol,
    else it ran to the cap."""
    n, tol = settings.sample_window, settings.std_tolerance
    stds = [float(np.std(r.samples[i - n:i])) for i in range(n, r.periods_used + 1)]
    assert all(std >= tol for std in stds[:-1])
    assert r.converged == (bool(stds) and stds[-1] < tol)
    assert r.converged or r.periods_used == settings.max_periods


def _flag_every_event(monkeypatch):
    """Flag every impact of every window as grazing, so each window warns."""
    real = msf._window

    def flagged(*args, **kwargs):
        est = real(*args, **kwargs)
        return dataclasses.replace(
            est, events=tuple(dataclasses.replace(e, grazing=True) for e in est.events)
        )

    monkeypatch.setattr(msf, "_window", flagged)


STOP_RULE_CASES = [
    # (preset, or None for the wall-free oscillator, query, settings)
    (None, MSFQuery(-1.0), TLESettings(max_periods=300, sample_window=20, std_tolerance=1e-4)),
    (None, MSFQuery(0.5, 0.8), TLESettings(max_periods=300, sample_window=20, std_tolerance=1e-4)),
    (None, MSFQuery(0.3), TLESettings(max_periods=40, sample_window=20, std_tolerance=1e-6)),
    (None, MSFQuery(-2.0, 1.0), TLESettings(max_periods=40, sample_window=20, std_tolerance=1e-6)),
    ("elastic", MSFQuery(-0.5), TLESettings(max_periods=60, sample_window=10, std_tolerance=2e-3)),
    ("elastic", MSFQuery(-0.4, 0.6), TLESettings(max_periods=60, sample_window=10, std_tolerance=2e-3)),
    ("inelastic", MSFQuery(-1.0), TLESettings(max_periods=40, sample_window=10, std_tolerance=1e-3)),
    ("inelastic", MSFQuery(0.0, 0.5), TLESettings(max_periods=40, sample_window=10, std_tolerance=1e-6)),
    # A free stretch past the growth bound, split into several powers.
    (None, MSFQuery(1e4), TLESettings(max_periods=6, sample_window=3)),
    (None, MSFQuery(1e4, 50.0), TLESettings(max_periods=6, sample_window=3)),
    # The paper's window and cap: the cap, late and early stops, real and complex.
    (None, MSFQuery(-3.0), TLESettings()),
    (None, MSFQuery(-1.5), TLESettings()),
    (None, MSFQuery(0.0), TLESettings()),
    (None, MSFQuery(-1.5, 1.0), TLESettings()),
    (None, MSFQuery(0.9, 0.5), TLESettings()),
    (None, MSFQuery(1.2, 1.0), TLESettings()),
]


class TestStopRule:
    """Where compute_tle's one march loop stops, against direct_tle's march."""

    @pytest.mark.parametrize("preset, query, s", STOP_RULE_CASES)
    def test_stops_where_the_window_first_passes(self, preset, query, s, request):
        if preset is None:
            p = _smooth()
            base = settle_transient(p, s)
        else:
            p, base = request.getfixturevalue(preset), request.getfixturevalue(preset + "_base")
        r = compute_tle(p, SPRING_COUPLING, query, s, base_state=base)
        _assert_stop_rule(r, s)
        assert r == direct_tle(p, SPRING_COUPLING, query, s, base)

    def test_cases_converge_and_reach_the_cap(self, elastic, elastic_base, inelastic,
                                              inelastic_base):
        # STOP_RULE_CASES cover both stops on both kinds of oscillator.
        bases = {"elastic": (elastic, elastic_base), "inelastic": (inelastic, inelastic_base)}
        outcomes = set()
        for preset, query, s in STOP_RULE_CASES:
            p, base = bases[preset] if preset else (_smooth(), settle_transient(_smooth(), s))
            r = compute_tle(p, SPRING_COUPLING, query, s, base_state=base)
            outcomes.add((preset is None, r.converged))
        assert outcomes == {(True, True), (True, False), (False, True), (False, False)}

    def test_sample_after_a_window_then_a_failure_at_its_end(self, elastic, elastic_base,
                                                             monkeypatch):
        # A base state moved along the trajectory so that the record's third
        # window ends on the grid index of sample n: the sample is taken
        # right after the window step.  The next impact search fails there,
        # a failure entry at j == w_start.  At the tolerance just above the
        # first full window's std the march converges on that sample and
        # keeps the window's discard and warning; at a tiny one it raises.
        n = 4
        s = TLESettings(max_periods=12, sample_window=n, std_tolerance=1e-12)
        h = s.scan_step
        j_n = math.ceil(n * elastic.forcing_period / h)
        entries = msf._event_record(elastic, elastic_base, s)[2]
        tau_c = next(e[0] for e in entries if e[0] - elastic_base.tau > j_n * h)
        base, _ = simulate(elastic, elastic_base, tau_c - (j_n - 0.5) * h - elastic_base.tau)
        query = MSFQuery(-0.5)
        plain = compute_tle(elastic, SPRING_COUPLING, query, s, base_state=base)
        tol = float(np.nextafter(np.std(plain.samples[:n]), math.inf))
        converging = dataclasses.replace(s, std_tolerance=tol)

        _flag_every_event(monkeypatch)
        real = msf.detect_next_impact

        def failing_after(p, state, *args, **kwargs):
            if state.tau > tau_c:
                raise ChatterError(state.tau, 10_001, p.forcing_period)
            return real(p, state, *args, **kwargs)

        monkeypatch.setattr(msf, "detect_next_impact", failing_after)
        msf._event_record.cache_clear()
        r = compute_tle(elastic, SPRING_COUPLING, query, converging, base_state=base)
        windows = msf._event_record(elastic, base, converging)[2]
        assert [e[1:3] for e in windows[2:]] == [(j_n - 1, j_n), (j_n, j_n)]
        assert type(windows[-1][3]) is ChatterError
        assert r.converged and r.periods_used == n and r.samples == plain.samples[:n]
        assert len(r.imag_discard_events) == 3
        assert r.warnings[-1].startswith(f"grazing impact at tau_c={windows[2][0]:.6f}")
        assert r == direct_tle(elastic, SPRING_COUPLING, query, converging, base)
        _assert_stop_rule(r, converging)
        with pytest.raises(ChatterError) as info:
            compute_tle(elastic, SPRING_COUPLING, query, s, base_state=base)
        with pytest.raises(ChatterError) as direct:
            direct_tle(elastic, SPRING_COUPLING, query, s, base)
        assert str(info.value) == str(direct.value) == str(windows[-1][3])

    @pytest.mark.parametrize("query", [MSFQuery(-0.5), MSFQuery(-0.4, 0.6)])
    def test_cap_reached_inside_a_free_stretch(self, elastic, elastic_base, query):
        # The record's last window ends before the last two samples, so the
        # march takes both, and reaches the cap, in its final free stretch.
        s = TLESettings(max_periods=3, sample_window=2, std_tolerance=1e-12)
        entries = msf._event_record(elastic, elastic_base, s)[2]
        assert entries[-1][2] < math.ceil(2 * elastic.forcing_period / s.scan_step)
        r = compute_tle(elastic, SPRING_COUPLING, query, s, base_state=elastic_base)
        assert not r.converged and r.periods_used == 3
        assert len(r.imag_discard_events) == (len(entries) if query.beta == 0.0 else 0)
        assert r == direct_tle(elastic, SPRING_COUPLING, query, s, elastic_base)
        _assert_stop_rule(r, s)


# One instance of each typed failure msflab raises, ChatterError in both forms.
TYPED_FAILURES = [
    ChatterError(7.5, 10_001, 2 * math.pi),
    ChatterError(19.18511, 14, 2 * math.pi, accumulating=True),
    oscillator.InvalidParameterError("zeta must be non-negative, got -1.0"),
    oscillator.ResonanceError("undamped resonance: zeta = 0 with eta = 1"),
    PropagationError("one free step grows by e^1000, past e^300"),
    jacobian.InvalidWindowError("window holds 2 impacts of the central run"),
    GrazingSingularityError("window propagator is singular"),
    NonInvertibleMatrixError("matrix is numerically singular"),
    network.InvalidGraphError("rows of the coupling matrix must sum to zero"),
    ConfigError("[tle] max_periods: must be at least 1, got 0"),
]


@pytest.mark.parametrize("exc", TYPED_FAILURES, ids=lambda exc: (
    "AccumulatingChatterError" if getattr(exc, "accumulating", False) else type(exc).__name__))
def test_typed_failures_survive_pickle_and_copy(exc):
    # A failure raised in a worker process reaches the parent by pickle, and
    # the event record keeps a copy of one.
    for twin in (pickle.loads(pickle.dumps(exc)), copy.copy(exc)):
        assert type(twin) is type(exc) and twin is not exc
        assert str(twin) == str(exc) and twin.args == exc.args
        assert vars(twin) == vars(exc)


def test_chatter_in_worker_arrives_as_itself():
    with ProcessPoolExecutor(1) as pool:
        future = pool.submit(simulate, CHATTER_POINT, OscState(0.0, 0.0, 0.0), 30.0)
        with pytest.raises(ChatterError, match="impacts accumulate") as info:
            future.result()
    assert info.value.accumulating and 19.0 < info.value.tau < 19.5


# A shortened horizon keeps four record marches under ten seconds; the
# sample times are the protocol's.  The worst difference measured was
# 2.6e-6 here (7.5e-6 over the full 2000 periods).
SAME_TRAJECTORY_SETTINGS = TLESettings(max_periods=500)
SAME_TRAJECTORY_ALPHAS = (0.0, -0.4, -0.8, -1.2)


class TestSameTrajectory:
    """compute_tle against saltation matrices composed along its own impacts.

    Unlike the saltation and divergence gates, which follow simulate's
    trajectory, this compares the estimator with a classical construction
    on the trajectory it used, so it does not depend on which chaotic orbit
    a base state's last bits select.
    """

    @pytest.mark.parametrize("later_periods", [0, 3])
    @pytest.mark.parametrize("preset", ["elastic", "inelastic"])
    def test_exponents_match_saltation_composition(self, preset, later_periods, request):
        p = request.getfixturevalue(preset)
        base = request.getfixturevalue(f"{preset}_base")
        if later_periods:
            base, _ = simulate(p, base, later_periods * p.forcing_period)
        s, alphas = SAME_TRAJECTORY_SETTINGS, SAME_TRAJECTORY_ALPHAS
        expected = record_saltation_tles(p, alphas, s, base)
        for alpha, want in zip(alphas, expected):
            r = compute_tle(p, SPRING_COUPLING, MSFQuery(alpha), s, base_state=base)
            assert abs(r.tle - want) <= 1e-4, (alpha, r.tle, want)


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

    def test_failure_recorded_as_type_and_message(self):
        s = TLESettings(transient_periods=1, max_periods=5, sample_window=5)
        p = _smooth()
        serial, pooled = (msf_sweep(p, SPRING_COUPLING, [1e12, 0.0], [0.0], s, jobs=j) for j in (1, 2))
        assert serial[0].result is None
        assert serial[0].error.startswith("PropagationError: one free step grows by e^")
        assert serial[1].error is None and serial[1].result.tle == pytest.approx(-0.05, abs=0.1)
        assert [(q.error, q.result) for q in pooled] == [(q.error, q.result) for q in serial]


    @pytest.mark.parametrize(
        "jobs, n_tasks, pools", [(5000, 25, [25]), (2, 25, [2]), (1, 25, []), (4, 1, []), (None, 0, [])]
    )
    def test_no_more_workers_than_tasks(self, monkeypatch, jobs, n_tasks, pools):
        # A process pool may fork every worker at its first submit, so a pool
        # that records its size and maps in this process stands in for it.
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(msf, "ProcessPoolExecutor", RecordingPool)
        tasks = [(abs, (-i,)) for i in range(n_tasks)]
        assert msf._run_grid(tasks, jobs) == [(i, None) for i in range(n_tasks)]
        assert started == pools

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, elastic, elastic_base, jobs, monkeypatch):
        # Without a base state the check comes before the transient is settled.
        def settle(*args):
            raise AssertionError("settled before jobs was checked")

        monkeypatch.setattr(msf, "settle_transient", settle)
        monkeypatch.setattr(network, "settle_transient", settle)
        for base_state in (elastic_base, None):
            with pytest.raises(ValueError, match=f"^jobs must be at least 1, got {jobs}$"):
                msf_sweep(elastic, SPRING_COUPLING, [0.0], [0.0], jobs=jobs, base_state=base_state)
            with pytest.raises(ValueError, match=f"^jobs must be at least 1, got {jobs}$"):
                bifurcation_scan(elastic, SPRING_COUPLING, [0.5], ProbeSettings(sigma=0.0),
                                 jobs=jobs, base_state=base_state)


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
