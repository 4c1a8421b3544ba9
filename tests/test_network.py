import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from oracles import LoopObserver, complex_mode_eval, complex_position_of, fixed_chunk_probe
from msflab.jacobian import PropagationError
from msflab.msf import (
    SPRING_COUPLING, MSFQuery, TLEResult, TLESettings, compute_tle, settle_transient,
)
from msflab.network import (
    CouplingGraph,
    InvalidGraphError,
    ModeSpectrum,
    ProbeSettings,
    TWO_NODE_GRAPH,
    _ModeSegments,
    _simulate_coupled,
    _SyncObserver,
    _sync_measures,
    all_to_all_graph,
    analyze_network,
    bifurcation_scan,
    graph_spectrum,
    load_graph,
    run_probe,
    sync_verdict,
)
from msflab.oscillator import (
    ChatterError,
    ImpactOscillatorParams,
    OscState,
    bisect_crossing,
    segment_states,
    simulate,
)
from conftest import ELASTIC, INELASTIC

COUPLING = np.asarray(SPRING_COUPLING, dtype=float)


class TestCouplingGraph:
    def test_two_node_spectrum(self):
        values = graph_spectrum(TWO_NODE_GRAPH)
        assert np.allclose(values, [0.0, -2.0])
        assert np.all(values.imag == 0.0)

    def test_all_to_all_spectrum(self):
        values = graph_spectrum(all_to_all_graph(3))
        assert np.allclose(sorted(values.real), [-3.0, -3.0, 0.0])
        assert np.all(values.imag == 0.0)

    def test_descending_order(self):
        values = graph_spectrum(all_to_all_graph(4))
        assert np.all(np.diff(values.real) <= 1e-12)

    def test_directed_ring_complex_spectrum(self):
        ring = CouplingGraph(
            np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, -1.0]])
        )
        assert not ring.is_symmetric
        values = graph_spectrum(ring)
        assert abs(values[0]) < 1e-12
        assert np.any(np.abs(values.imag) > 0.1)

    def test_row_sum_violation_rejected(self):
        with pytest.raises(InvalidGraphError):
            CouplingGraph(np.array([[-1.0, 0.9], [1.0, -1.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(InvalidGraphError):
            CouplingGraph(np.ones((2, 3)))

    def test_single_node_rejected(self):
        with pytest.raises(InvalidGraphError):
            CouplingGraph(np.zeros((1, 1)))

    def test_load_graph(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("-1.0 1.0\n1.0 -1.0\n")
        g = load_graph(path)
        assert g.n_nodes == 2
        assert np.allclose(g.matrix, TWO_NODE_GRAPH.matrix)

    def test_load_graph_malformed(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("-1.0 nope\n1.0 -1.0\n")
        with pytest.raises(InvalidGraphError):
            load_graph(path)


def _fake_result(alpha: float, tle: float) -> TLEResult:
    return TLEResult(
        alpha=alpha, beta=0.0, tle=tle, converged=True,
        periods_used=700, samples=[tle],
    )


class TestVerdict:
    def _spectrum(self, tles):
        values = np.array([0.0] + [-2.0] * len(tles), dtype=complex)
        results = [_fake_result(0.0, 0.02)] + [
            _fake_result(-1.0, t) for t in tles
        ]
        return ModeSpectrum(sigma=0.5, eigenvalues=values, results=results)

    def test_stable(self):
        assert sync_verdict(self._spectrum([-0.05, -0.02])) == "stable"

    def test_unstable(self):
        assert sync_verdict(self._spectrum([-0.05, 0.04])) == "unstable"

    def test_marginal(self):
        assert sync_verdict(self._spectrum([-0.05, 0.0005])) == "marginal"

    def test_zero_mode_excluded(self):
        # The synchronization-manifold exponent is positive here (chaotic
        # base), yet the verdict only reads the transverse modes.
        assert sync_verdict(self._spectrum([-0.05])) == "stable"

    def test_analyze_rejects_disconnected(self, elastic):
        block = np.zeros((4, 4))
        block[:2, :2] = TWO_NODE_GRAPH.matrix
        block[2:, 2:] = TWO_NODE_GRAPH.matrix
        with pytest.raises(InvalidGraphError):
            analyze_network(elastic, COUPLING, CouplingGraph(block), 0.5)

    def test_zero_mode_queried_at_zero(self):
        # The zero eigenvalue may come out of the eigensolver as a rounding
        # error (1.1e-16 for this graph); its mode is still queried at 0.
        p = ImpactOscillatorParams(zeta=0.05, eta=0.712, wall_enabled=False)
        s = TLESettings(transient_periods=20, max_periods=40, sample_window=20)
        base = settle_transient(p, s)
        spectrum = analyze_network(p, COUPLING, all_to_all_graph(3), 0.5, s, base_state=base)
        assert spectrum.eigenvalues[0] == 0.0
        zero = spectrum.results[0]
        assert zero.alpha == 0.0 and zero.beta == 0.0
        assert zero == compute_tle(p, COUPLING, MSFQuery(0.0, 0.0), s, base_state=base)


class TestCoupledSimulation:
    def test_uncoupled_matches_scalar_events(self, elastic):
        s0a = OscState(0.31, -0.12, 0.0)
        s0b = OscState(-0.55, 0.40, 0.0)
        horizon = 30
        settings = ProbeSettings(
            sigma=0.0, max_periods=horizon, record_window=10, sync_threshold=1e-300
        )
        x0 = np.array([s0a.x, s0a.v, s0b.x, s0b.v])
        res = _simulate_coupled(elastic, TWO_NODE_GRAPH, COUPLING, x0, 0.0, settings)
        assert res.sigma == settings.sigma
        _, ev_a = simulate(elastic, s0a, horizon * elastic.forcing_period)
        _, ev_b = simulate(elastic, s0b, horizon * elastic.forcing_period)
        scalar = sorted([e.tau_c for e in ev_a] + [e.tau_c for e in ev_b])
        coupled = sorted(res.impact_times)
        assert len(scalar) == len(coupled)
        assert max(abs(a - b) for a, b in zip(scalar, coupled)) < 1e-6

    def test_sync_manifold_invariant(self, elastic):
        s = OscState(0.31, -0.12, 0.0)
        x0 = np.array([s.x, s.v, s.x, s.v])
        res = _simulate_coupled(
            elastic, TWO_NODE_GRAPH, COUPLING, x0, 0.0,
            ProbeSettings(sigma=0.7, max_periods=5, record_window=2),
        )
        assert res.synchronized
        assert res.local_maxima == [0.0]

    def test_three_node_sync_manifold(self, elastic):
        s = OscState(0.2, 0.1, 0.0)
        x0 = np.tile([s.x, s.v], 3)
        res = _simulate_coupled(
            elastic, all_to_all_graph(3), COUPLING, x0, 0.0,
            ProbeSettings(sigma=0.4, max_periods=5, record_window=2),
        )
        assert res.synchronized

    def test_asymmetric_graph_rejected(self, elastic):
        ring = CouplingGraph(
            np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, -1.0]])
        )
        x0 = np.zeros(6)
        with pytest.raises(InvalidGraphError):
            _simulate_coupled(
                elastic, ring, COUPLING, x0, 0.0, ProbeSettings(sigma=0.5)
            )


def _perturbed_start(base: OscState, n_nodes: int, seed: int) -> np.ndarray:
    """All nodes on the base state, node 2 displaced by 1e-3 along a seeded direction."""
    angle = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi)
    x0 = np.tile([base.x, base.v], n_nodes)
    x0[2] -= 1e-3 * abs(math.cos(angle))  # inward: the base state may sit at the wall
    x0[3] += 1e-3 * math.sin(angle)
    return x0


@pytest.mark.usefixtures(
    "libm_trig_matches_numpy", "numpy_exp_scalar_matches_array", "numpy_hyperbolic_scalar_matches_array"
)
class TestBlockedProbeMatchesFixedChunks:
    """The table-scanned probe equals the fixed 4096-sample chunk loop bit for bit."""

    def _assert_matches(self, p, base, graph, sigma, periods, seed, record_window=None):
        settings = ProbeSettings(
            sigma=sigma, max_periods=periods, record_window=record_window or periods // 2
        )
        x0 = _perturbed_start(base, graph.n_nodes, seed)
        res = _simulate_coupled(p, graph, COUPLING, x0, base.tau, settings)
        ref = fixed_chunk_probe(p, graph, COUPLING, sigma, x0, base.tau, settings)
        assert (res.impact_times, res.local_maxima, res.sync_time, res.periods_run) == ref
        assert res.impact_times
        return res

    @pytest.mark.parametrize("preset", ["elastic", "inelastic"])
    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_two_node(self, preset, sigma, request):
        p = request.getfixturevalue(preset)
        base = request.getfixturevalue(f"{preset}_base")
        res = self._assert_matches(p, base, TWO_NODE_GRAPH, sigma, periods=40, seed=7)
        assert res.synchronized or len(res.local_maxima) > 1

    def test_crossing_on_first_sample_of_a_later_block(self, elastic):
        # Node 1 hits the wall first; node 2 crosses about 512 samples later, in
        # the window anchored at node 1's impact.
        x0 = np.array([elastic.x_w - 0.01, 1.0, elastic.x_w - 0.407, 1.0])
        settings = ProbeSettings(sigma=0.0, max_periods=2, record_window=1)
        res = _simulate_coupled(elastic, TWO_NODE_GRAPH, COUPLING, x0, 0.0, settings)
        ref = fixed_chunk_probe(elastic, TWO_NODE_GRAPH, COUPLING, 0.0, x0, 0.0, settings)
        assert (res.impact_times, res.local_maxima, res.sync_time, res.periods_run) == ref

    def test_three_node(self, elastic, elastic_base):
        # all_to_all_graph(3) has two transverse modes with one generator.
        segs = _ModeSegments(elastic, all_to_all_graph(3), COUPLING, 0.3)
        assert len(segs._generators) == 2
        self._assert_matches(elastic, elastic_base, all_to_all_graph(3), 0.3, periods=30, seed=8)

    def test_overdamped_mode(self, elastic, elastic_base):
        # At sigma = -0.6 the transverse mode has s^2 > 0: cosh and sinh columns.
        assert max(_ModeSegments(elastic, TWO_NODE_GRAPH, COUPLING, -0.6).s_squares) > 0.0
        res = self._assert_matches(elastic, elastic_base, TWO_NODE_GRAPH, -0.6, periods=40, seed=9)
        assert not res.synchronized

    def test_critical_mode(self):
        # zeta = 0 and sigma*gamma = 1 give the transverse mode s^2 = 0.
        p = ImpactOscillatorParams(zeta=0.0, eta=0.712, f=1.0, x_w=2.0, R=1.0)
        assert 0.0 in _ModeSegments(p, TWO_NODE_GRAPH, COUPLING, -0.5).s_squares
        self._assert_matches(p, OscState(1.2, 0.4, 0.0), TWO_NODE_GRAPH, -0.5, periods=30, seed=10)

    def test_late_start(self, elastic, elastic_base):
        # Near tau = 2e4 the table and the closed form differ by about 1e-11.
        tau = elastic_base.tau + 1780 * elastic.forcing_period
        assert 1.9e4 < tau < 2.1e4
        base = OscState(elastic_base.x, elastic_base.v, tau)
        self._assert_matches(elastic, base, TWO_NODE_GRAPH, 0.125, periods=40, seed=11)

    def test_record_window_is_the_whole_run(self, elastic, monkeypatch):
        # Maxima are read from the first sample on, and some sit on the
        # first sample after an impact: a window's first sample.
        firsts = []
        observe = _SyncObserver.observe

        def spy(obs, k, dev, dx, margin, exact):
            d = np.abs(dx)
            if d.size > 1 and obs.prev_diff < d[0] > d[1]:
                firsts.append(obs.tau0 + k * obs.step)
            return observe(obs, k, dev, dx, margin, exact)

        monkeypatch.setattr(_SyncObserver, "observe", spy)
        x0 = np.array([0.31, -0.12, -0.55, 0.40])
        settings = ProbeSettings(sigma=0.0, max_periods=30, record_window=30)
        res = _simulate_coupled(elastic, TWO_NODE_GRAPH, COUPLING, x0, 0.0, settings)
        ref = fixed_chunk_probe(elastic, TWO_NODE_GRAPH, COUPLING, 0.0, x0, 0.0, settings)
        assert (res.impact_times, res.local_maxima, res.sync_time, res.periods_run) == ref
        assert any(t - settings.scan_step < tau_c < t for t in firsts for tau_c in res.impact_times)

    @pytest.mark.parametrize("seed", [1, 4, 8])
    def test_threshold_equal_to_a_sample_deviation(self, elastic, elastic_base, seed, monkeypatch):
        # The threshold is the exact deviation of the largest sample in the
        # run that synchronizes: only its last bit breaks the run there.
        fed = []
        observe = LoopObserver.observe
        monkeypatch.setattr(
            LoopObserver, "observe",
            lambda obs, taus, xs, vs: fed.append((taus, xs, vs)) or observe(obs, taus, xs, vs),
        )
        settings = ProbeSettings(sigma=0.5, max_periods=60, record_window=20)
        x0 = _perturbed_start(elastic_base, 2, seed)
        args = (elastic, TWO_NODE_GRAPH, COUPLING, 0.5, x0, elastic_base.tau)
        _, _, sync_time, _ = fixed_chunk_probe(*args, settings)
        taus = np.concatenate([t for t, _, _ in fed])
        devs = np.concatenate(
            [_sync_measures(xs[1:] - xs[0], vs[1:] - vs[0])[0] for _, xs, vs in fed]
        )
        run = np.flatnonzero(taus >= sync_time)
        settings = replace(settings, sync_threshold=float(devs[run].max()))
        res = _simulate_coupled(elastic, TWO_NODE_GRAPH, COUPLING, x0, elastic_base.tau, settings)
        ref = fixed_chunk_probe(*args, settings)
        assert (res.impact_times, res.local_maxima, res.sync_time, res.periods_run) == ref
        assert res.sync_time > sync_time

    @pytest.mark.parametrize("k_hit", [700, 5000, 7000])
    def test_node_within_the_guard_of_the_wall(self, elastic, k_hit):
        # Node 1 first reaches the wall on grid sample k_hit, up to rounding:
        # the table cannot tell on which side, the closed form decides.
        settings = ProbeSettings(sigma=0.0, max_periods=1, record_window=1)
        segs = _ModeSegments(elastic, TWO_NODE_GRAPH, COUPLING, 0.0)
        for v_hit in (0.05, 0.3, 0.55, 0.9, 1.2, 2.0):
            tau_hit = k_hit * settings.scan_step
            x1, v1 = segment_states(elastic, elastic.x_w, v_hit, tau_hit, -tau_hit)
            x0 = np.array([x1, v1, x1 - 0.3, v1])
            terms = segs.terms(segs.to_modes(x0, 0.0))
            x_hit = segs.eval(terms, 0.0, np.array([tau_hit]))[0][0, 0]
            assert abs(x_hit - elastic.x_w) < 1e-12
            res = _simulate_coupled(elastic, TWO_NODE_GRAPH, COUPLING, x0, 0.0, settings)
            ref = fixed_chunk_probe(elastic, TWO_NODE_GRAPH, COUPLING, 0.0, x0, 0.0, settings)
            assert (res.impact_times, res.local_maxima, res.sync_time, res.periods_run) == ref
            assert abs(res.impact_times[0] - tau_hit) < 1e-9


class TestProbe:
    def test_settings_validation(self):
        with pytest.raises(ValueError):
            ProbeSettings(sigma=0.5, perturbation_magnitude=0.0)
        with pytest.raises(ValueError):
            ProbeSettings(sigma=0.5, record_window=300, max_periods=200)
        for name, value in [
            ("scan_step", math.inf), ("sync_threshold", math.nan),
            ("perturbation_magnitude", math.inf), ("max_periods", 50.5),
            ("record_window", True), ("transient_periods", 10.0),
        ]:
            with pytest.raises(ValueError, match=name):
                ProbeSettings(sigma=0.5, **{name: value})
        assert ProbeSettings(sigma=0.5, max_periods=np.int64(20), record_window=np.int32(5))

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma must be finite"):
            ProbeSettings(sigma=sigma)

    @pytest.mark.parametrize("seed", [-1, np.int64(-3), (-1, 0), (7, -2), ((1, -1), 0)])
    def test_rejects_negative_seed(self, seed):
        with pytest.raises(ValueError, match="rng_seed must be non-negative"):
            ProbeSettings(sigma=0.5, rng_seed=seed)

    @pytest.mark.parametrize("seed", [1.5, "abc", (1, 2.5), [3, "x"], 2**70 + 0.5, {"a": 1}])
    def test_rejects_seeds_numpy_rejects(self, seed):
        # Rejected when the settings are built, not as an untyped error in run_probe.
        with pytest.raises(ValueError, match="rng_seed must be non-negative ints"):
            ProbeSettings(sigma=0.5, rng_seed=seed)

    @pytest.mark.parametrize("seed", [0, 12345, (7, 3), ((99, 0), 1), None])
    def test_accepts_seeds_numpy_accepts(self, seed):
        np.random.default_rng(ProbeSettings(sigma=0.5, rng_seed=seed).rng_seed)

    def test_strong_coupling_synchronizes(self, elastic, elastic_base):
        res = run_probe(
            elastic, COUPLING,
            ProbeSettings(sigma=0.5, rng_seed=(99, 0)),
            base_state=elastic_base,
        )
        assert res.synchronized
        assert res.sync_time is not None
        assert res.local_maxima == [0.0]
        assert res.sigma == 0.5

    @pytest.mark.parametrize("inside", [1e-4, 1e-2])
    def test_perturbation_reflected_inside_wall(self, elastic, monkeypatch, inside):
        # Seed 3 displaces x outward by 8.6e-4: from 1e-4 inside the wall
        # node 2 would start beyond it, so its x offset is reflected.
        starts = []
        monkeypatch.setattr(
            "msflab.network._simulate_coupled", lambda p, graph, coupling, x0, *rest: starts.append(x0)
        )
        base = OscState(elastic.x_w - inside, 0.3, 5.0)
        run_probe(elastic, COUPLING, ProbeSettings(sigma=0.5, rng_seed=3), base_state=base)
        angle = np.random.default_rng(3).uniform(0.0, 2.0 * math.pi)
        dx, dv = 1e-3 * math.cos(angle), 1e-3 * math.sin(angle)
        assert dx > 1e-4
        dx = -dx if inside < dx else dx
        assert starts[0].tolist() == [base.x, base.v, base.x + dx, base.v + dv]

    def test_determinism_same_seed(self, elastic, elastic_base):
        settings = ProbeSettings(sigma=0.5, rng_seed=(7, 3))
        a = run_probe(elastic, COUPLING, settings, base_state=elastic_base)
        b = run_probe(elastic, COUPLING, settings, base_state=elastic_base)
        assert a.synchronized == b.synchronized
        assert a.sync_time == b.sync_time
        assert a.local_maxima == b.local_maxima
        assert a.impact_times == b.impact_times

    def test_wall_free_probe_records_no_impacts(self, elastic):
        # x_w stays at 2.0, which this motion crosses, but no wall is there.
        wall_free = replace(elastic, wall_enabled=False)
        base = settle_transient(wall_free, TLESettings())
        settings = ProbeSettings(sigma=0.5, max_periods=120)
        res = run_probe(wall_free, COUPLING, settings, base_state=base)
        ref = run_probe(replace(wall_free, x_w=math.inf), COUPLING, settings, base_state=base)
        assert res.impact_times == ref.impact_times == []
        assert (res.synchronized, res.sync_time, res.local_maxima, res.periods_run) == (
            ref.synchronized, ref.sync_time, ref.local_maxima, ref.periods_run
        )

    def test_diverging_probe_raises(self, inelastic, inelastic_base):
        # The overdamped transverse mode grows until the state overflows;
        # the node differences overflow first, without a warning.
        settings = ProbeSettings(sigma=-0.6, rng_seed=(0, 0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PropagationError, match=r"not finite at tau=7086\.236655$"):
                run_probe(inelastic, COUPLING, settings, base_state=inelastic_base)

    def test_overflowing_probe_returns_quietly(self, inelastic, inelastic_base):
        # The horizon ends after the node differences overflow, before the state does.
        settings = ProbeSettings(sigma=-0.6, rng_seed=(0, 0), max_periods=150)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_probe(inelastic, COUPLING, settings, base_state=inelastic_base)
        assert not res.synchronized and res.periods_run == 150

    def test_overdamped_probe_returns(self, elastic, elastic_base):
        settings = ProbeSettings(sigma=-0.6, rng_seed=(0, 0), max_periods=300)
        res = run_probe(elastic, COUPLING, settings, base_state=elastic_base)
        assert not res.synchronized and res.periods_run == 300
        assert res.local_maxima and all(map(math.isfinite, res.local_maxima))

    def test_complete_chatter_raises_like_simulate(self):
        # Catalogue point 42 from rest: node impacts accumulate near tau = 19.19.
        p = ImpactOscillatorParams(
            zeta=0.07424109529981779, eta=0.34478727863484854,
            x_w=0.5666034302401003, R=0.5409710972632726,
        )
        settings = ProbeSettings(sigma=0.0, max_periods=5, record_window=5)
        with pytest.raises(ChatterError, match="chatter: impacts accumulate") as info:
            run_probe(p, COUPLING, settings, base_state=OscState(0.0, 0.0, 0.0))
        assert info.value.accumulating
        assert info.value.tau == pytest.approx(19.185, abs=5e-3)

    def test_bifurcation_scan_worker_counts_agree(self, elastic, elastic_base):
        settings = ProbeSettings(
            sigma=0.5, rng_seed=123, max_periods=40, record_window=20
        )
        sigmas = [0.45, 0.55]
        serial = bifurcation_scan(
            elastic, COUPLING, sigmas, settings, jobs=1, base_state=elastic_base
        )
        pooled = bifurcation_scan(
            elastic, COUPLING, sigmas, settings, jobs=2, base_state=elastic_base
        )
        for a, b in zip(serial, pooled):
            assert a.sigma == b.sigma
            assert a.error == b.error
            assert a.result.synchronized == b.result.synchronized
            assert a.result.local_maxima == b.result.local_maxima

    def test_bifurcation_seeds_differ_across_grid(self, elastic, elastic_base):
        # Same sigma twice in the grid: derived seeds must differ by index,
        # so the perturbation directions (and thus impact times) may differ
        # while outcomes stay deterministic.
        settings = ProbeSettings(
            sigma=0.5, rng_seed=123, max_periods=30, record_window=10
        )
        points = bifurcation_scan(
            elastic, COUPLING, [0.5, 0.5], settings, jobs=1, base_state=elastic_base
        )
        again = bifurcation_scan(
            elastic, COUPLING, [0.5, 0.5], settings, jobs=1, base_state=elastic_base
        )
        for a, b in zip(points, again):
            assert a.result.impact_times == b.result.impact_times


# Exact binary grid: 8 samples per period, so every tau difference is exact.
STEP = 0.125
PERIOD = 1.0
THRESHOLD = 1e-10
MARGIN = 1e-12


def _stream(diffs, tau0=0.0):
    """Two-node samples whose deviation and |x1 - x2| both equal diffs."""
    diffs = np.asarray(diffs, dtype=float)
    taus = tau0 + np.arange(1, diffs.size + 1, dtype=float) * STEP
    xs = np.vstack([np.zeros_like(diffs), diffs])
    return taus, xs, np.zeros_like(xs)


def _feed(observer, stream, cuts, noise=None) -> bool:
    taus, xs, vs = stream
    bounds = [0, *cuts, taus.size]
    for a, b in zip(bounds[:-1], bounds[1:]):
        if a == b:
            continue
        if isinstance(observer, _SyncObserver):
            # The table's values: the exact ones, or with noise within a quarter
            # margin of them; dev None where every deviation clears the threshold.
            dev, d = _sync_measures(xs[1:, a:b] - xs[0, a:b], vs[1:, a:b] - vs[0, a:b])
            table_dev, table_dx = dev, xs[1, a:b] - xs[0, a:b]
            if noise is not None:
                table_dev = dev + noise.uniform(-0.25, 0.25, dev.size) * MARGIN
                table_dx = table_dx + noise.uniform(-0.25, 0.25, table_dx.size) * MARGIN
            stop = observer.observe(
                a + 1, None if dev.min() >= THRESHOLD + 2 * MARGIN else table_dev, table_dx,
                MARGIN, lambda idx, dev=dev, d=d: (dev[idx], d[idx]),
            )
        else:
            stop = observer.observe(taus[a:b], xs[:, a:b], vs[:, a:b])
        if stop:
            return True
    return False


def _outcome(observer_cls, stream, cuts, record_from, diff0=0.5, tau0=0.0, noise=None):
    if observer_cls is _SyncObserver:
        obs = _SyncObserver(tau0, STEP, diff0, PERIOD, THRESHOLD, record_from)
    else:
        obs = observer_cls(tau0, diff0, PERIOD, THRESHOLD, record_from)
    stopped = _feed(obs, stream, cuts, noise)
    periods_run = int(math.floor((obs.prev_diff_tau - tau0) / PERIOD))
    return stopped, obs.sync_time, obs.maxima, periods_run, obs.prev_diff_tau


def _assert_matches_loop(stream, cuts, record_from, noise=None, **kwargs):
    fast = _outcome(_SyncObserver, stream, cuts, record_from, noise=noise, **kwargs)
    assert fast == _outcome(LoopObserver, stream, cuts, record_from, **kwargs)
    return fast


def _random_stream(rng):
    """Random diffs, chunk cuts and observer start for the random stream tests.

    Stretches below the threshold (0 or 1e-12) alternate with stretches of
    quantized levels, which also make plateaus.
    """
    pieces = []
    for _ in range(int(rng.integers(1, 8))):
        length = int(rng.integers(1, 14))
        if rng.random() < 0.4:
            pieces.append(rng.choice([0.0, 1e-12], size=length))
        else:
            pieces.append(rng.choice([1e-3, 2e-3, 3e-3, 0.5], size=length))
    diffs = np.concatenate(pieces)
    size = diffs.size
    cuts = sorted(set(rng.integers(1, size + 1, int(rng.integers(0, 6))).tolist()))
    tau0 = float(rng.choice([0.0, 3.375]))
    return _stream(diffs, tau0), cuts, dict(
        record_from=tau0 + STEP * int(rng.integers(-1, size + 1)),
        diff0=float(rng.choice([0.0, 1e-3, 0.5])), tau0=tau0,
    )


class TestSyncObserver:
    """The one-pass observer equals the per-sample loop, bit for bit."""

    def test_below_run_straddling_chunks_synchronizes(self):
        # Below threshold from sample 21 on; chunks cut inside the run.
        diffs = [0.3, 0.1] * 10 + [0.0] + [1e-12] * 20
        stopped, sync_time, _, periods_run, _ = _assert_matches_loop(
            _stream(diffs), [16, 24, 27], record_from=0.0
        )
        assert stopped and sync_time == 21 * STEP
        assert periods_run == 3

    def test_interrupted_runs_across_chunks(self):
        # Two below runs of 7 samples (< one period), each broken across a
        # chunk boundary, then a run that lasts.
        diffs = [0.2] + [0.0] * 7 + [0.4] + [0.0] * 7 + [0.3, 0.1] + [0.0] * 12
        stopped, sync_time, *_ = _assert_matches_loop(
            _stream(diffs), [5, 9, 12, 20], record_from=0.0
        )
        assert stopped and sync_time == 19 * STEP

    @pytest.mark.parametrize("stop_cut", [True, False])
    def test_sync_exit_on_first_sample_of_chunk(self, stop_cut):
        diffs = [0.3, 0.5, 0.2] + [0.0] * 12
        # The run starts at sample index 3 and lasts a period at index 11.
        cuts = [11] if stop_cut else [10]
        stopped, sync_time, maxima, _, last_tau = _assert_matches_loop(
            _stream(diffs), cuts, record_from=0.0
        )
        assert stopped and sync_time == 4 * STEP
        assert last_tau == 11 * STEP  # the sample before the stop sample
        assert maxima == [0.5]

    @pytest.mark.parametrize("cut", [3, 4])
    def test_maximum_with_neighbours_in_two_chunks(self, cut):
        # The maximum is sample index 3: the last of the first chunk (cut 4)
        # or the first of the second (cut 3).
        diffs = [0.1, 0.2, 0.3, 0.9, 0.4, 0.2, 0.6, 0.1]
        *_, maxima, _, _ = _assert_matches_loop(_stream(diffs), [cut], record_from=0.0)
        assert maxima == [0.9, 0.6]

    def test_maximum_exactly_at_record_from(self):
        diffs = [0.1, 0.7, 0.2, 0.8, 0.3, 0.9, 0.1]
        # Samples index 3 (tau 0.5) and 5 are kept, index 1 (tau 0.25) is not.
        *_, maxima, _, _ = _assert_matches_loop(_stream(diffs), [4], record_from=4 * STEP)
        assert maxima == [0.8, 0.9]

    def test_no_maximum_at_the_start(self):
        # diff0 exceeds the first sample, but nothing precedes diff0.
        *_, maxima, _, _ = _assert_matches_loop(
            _stream([0.1, 0.2, 0.1]), [1], record_from=-1.0, diff0=0.5
        )
        assert maxima == [0.2]

    def test_run_after_chunks_with_nothing_below(self):
        # A run carried out of the first chunk is broken by a chunk with no
        # sample below; the run that lasts straddles the next boundary.
        diffs = [0.3, 0.6, 0.2, 0.0, 0.0, 0.0] + [0.4, 0.7, 0.4, 0.5, 0.3] + [0.0] * 14
        stopped, sync_time, maxima, _, last_tau = _assert_matches_loop(
            _stream(diffs), [6, 11, 15], record_from=0.0
        )
        assert stopped and sync_time == 12 * STEP
        assert last_tau == 19 * STEP
        assert maxima == [0.6, 0.7, 0.5]

    @pytest.mark.parametrize("cuts", [[2, 5, 7], [2, 4, 5, 7]])
    def test_chunks_before_record_from_then_across_it(self, cuts):
        # Every chunk before the cut at 5 ends before record_from (tau of
        # sample index 5), so the maximum there takes both its earlier
        # neighbours from them; cut 4 leaves a one-sample chunk between.
        diffs = [0.1, 0.5, 0.2, 0.6, 0.1, 0.7, 0.3, 0.8, 0.2, 0.9, 0.1]
        *_, maxima, _, _ = _assert_matches_loop(_stream(diffs), cuts, record_from=6 * STEP)
        assert maxima == [0.7, 0.8, 0.9]

    def test_random_streams_in_random_chunks(self):
        rng = np.random.default_rng(2024)
        synced = with_maxima = 0
        for _ in range(400):
            stream, cuts, start = _random_stream(rng)
            outcome = _assert_matches_loop(stream, cuts, **start)
            synced += outcome[0]
            with_maxima += bool(outcome[2])
        assert synced > 50 and with_maxima > 100

    def test_random_streams_from_a_rounded_table(self):
        # The table's values lie within a quarter margin of the exact ones,
        # plateaus included: every decision is still the exact stream's.
        rng = np.random.default_rng(2025)
        synced = with_maxima = 0
        for _ in range(400):
            stream, cuts, start = _random_stream(rng)
            outcome = _assert_matches_loop(stream, cuts, noise=rng, **start)
            synced += outcome[0]
            with_maxima += bool(outcome[2])
        assert synced > 50 and with_maxima > 100


def _kept(dev=None, d=None, prev_d=0.05, peaks=True, prev_prev_d=math.nan) -> list[int]:
    """Samples one observed block asks eval for, on synthetic table values.

    d defaults to a rising ramp and dev to values far above THRESHOLD.  The
    block is samples 1..size of the grid; with peaks its centres lie at or
    after record_from, without it the next block's first one lies more than
    two steps before record_from.
    """
    size = len(d if d is not None else dev)
    d = np.linspace(0.1, 0.9, size) if d is None else np.asarray(d, dtype=float)
    dev = None if dev is None else np.asarray(dev, dtype=float)
    record_from = 0.0 if peaks else (size + 4) * STEP
    obs = _SyncObserver(0.0, STEP, prev_d, 1e9, THRESHOLD, record_from)
    obs.prev_prev_diff = prev_prev_d
    asked = set()

    def exact(idx):
        asked.update(np.asarray(idx).tolist())
        return np.ones(len(idx)), d[idx]

    obs.observe(1, dev, d, MARGIN, exact)
    return sorted(asked)


class TestKeptSamples:
    """Which samples the observer recomputes with the closed form."""

    @pytest.mark.parametrize("peaks", [True, False])
    def test_last_two_only_without_close_calls(self, peaks):
        # Where no maximum can read them, the table's last two are carried.
        last_two = [[3, 4], [0], [0, 1]] if peaks else [[], [], []]
        assert _kept(d=[0.1, 0.2, 0.3, 0.4, 0.5], peaks=peaks) == last_two[0]
        assert _kept(d=[0.1], peaks=peaks) == last_two[1]
        assert _kept(d=[0.1, 0.2], peaks=peaks) == last_two[2]

    @pytest.mark.parametrize("peaks", [True, False])
    def test_deviation_within_margin_of_threshold(self, peaks):
        dev = [1.0, THRESHOLD + 0.5 * MARGIN, THRESHOLD - 0.5 * MARGIN, THRESHOLD,
               THRESHOLD + 2 * MARGIN, THRESHOLD - 2 * MARGIN, 0.0, 1.0, 1.0]
        assert _kept(dev=dev, peaks=peaks) == ([1, 2, 3, 7, 8] if peaks else [1, 2, 3])

    def test_close_steps_keep_both_samples(self):
        # Candidates 1 and 3 take their neighbours across the close steps.
        d = [0.1, 0.2, 0.2 + 0.5 * MARGIN, 0.3, 0.3, 0.4, 0.5, 0.6, 0.7]
        assert _kept(d=d) == [1, 2, 3, 4, 7, 8]
        assert _kept(d=d, peaks=False) == []

    def test_step_from_the_carried_difference(self):
        # The close step from the carried 0.1 matters where 0.1 may be a maximum.
        d = [0.1 + 0.5 * MARGIN, 0.2, 0.3, 0.4, 0.5]
        assert _kept(d=d, prev_d=0.1, prev_prev_d=0.05) == [0, 3, 4]
        assert _kept(d=d, prev_d=0.1, prev_prev_d=0.2) == [3, 4]
        assert _kept(d=d, prev_d=0.1) == [3, 4]  # nothing precedes the start
        assert _kept(d=d, prev_d=0.1, prev_prev_d=0.05, peaks=False) == []

    def test_peaks_including_the_first_sample(self):
        # Peaks centred on samples 0 (after the carried 0.1) and 3.
        d = [0.5, 0.2, 0.3, 0.6, 0.4, 0.45, 0.5, 0.55]
        assert _kept(d=d, prev_d=0.1) == [0, 3, 6, 7]
        assert _kept(d=d, prev_d=0.7) == [3, 6, 7]
        assert _kept(d=d, prev_d=0.1, peaks=False) == []

    def test_plateau_is_recomputed_whole(self):
        # More candidates than the scalar path takes: every sample is exact.
        d = [0.3] * 12
        assert _kept(d=d) == list(range(12))


def _real_parts_match_complex(kind: str, lib) -> str | None:
    """Why lib's real flow functions cannot equal the complex form here, or None.

    The real mode flows equal the complex cosh(s dt), sinh(s dt)/s only
    where lib's cos/sin (s = i*w) or cosh/sinh (real s) round as the parts
    of numpy's complex cosh and sinh do.
    """
    args = np.random.default_rng(11).uniform(0.0, 12.0, 4000)
    if kind == "oscillatory":
        z, funcs = 1j * args, (("cos", "cosh", "real"), ("sin", "sinh", "imag"))
    else:
        z, funcs = args + 0j, (("cosh", "cosh", "real"), ("sinh", "sinh", "real"))
    for real_name, complex_name, part in funcs:
        expected = getattr(getattr(np, complex_name)(z), part)
        if lib is np:
            got = getattr(np, real_name)(args)
        else:
            got = np.array([getattr(math, real_name)(a) for a in args.tolist()])
        if not np.array_equal(got, expected):
            return (
                f"{lib.__name__}.{real_name} rounds differently from numpy's complex "
                f"{complex_name} on this host"
            )
    return None


def _skip_unless_real_parts_match(kind: str, lib) -> None:
    reason = _real_parts_match_complex(kind, lib)
    if reason:
        pytest.skip(reason)


def _elementwise_bits_depend_on_block() -> str | None:
    """Why an element of numpy's flow functions may change with its block here, or None.

    The probe evaluates a window in blocks and relies on every element of
    cos, sin, exp, cosh and sinh having the same bits whatever the array's
    length or the element's offset in it.
    """
    args = np.random.default_rng(5).uniform(-12.0, 12.0, 4096)
    blocks = [(0, 512), (512, 4096), (1, 4095), (3, 70), (17, 18), (4095, 4096)]
    for name in ("cos", "sin", "exp", "cosh", "sinh"):
        func = getattr(np, name)
        whole = func(args)
        for a, b in blocks:
            if not np.array_equal(func(args[a:b]), whole[a:b]):
                return f"numpy.{name} rounds an element differently by its block on this host"
    return None


def _mode_case(p, sigma, graph=TWO_NODE_GRAPH, seed=0):
    segs = _ModeSegments(p, graph, COUPLING, sigma)
    rng = np.random.default_rng(seed)
    modes0 = rng.normal(size=(graph.n_nodes, 2))
    dts = np.arange(1, 4097, dtype=float) * 1e-3 + rng.uniform(0.0, 1e-3)
    # Bisection-style offsets: arbitrary floats inside grid cells.
    scalars = rng.uniform(0.0, 4.1, 200).tolist()
    return segs, modes0, 317.25, dts, scalars


OSCILLATORY = [("elastic", 0.5), ("elastic", 0.0), ("inelastic", 1.0), ("inelastic", 0.25)]


class TestModeFlows:
    """Real-arithmetic mode flows against the complex cosh/sinh form."""

    @pytest.mark.parametrize("preset, sigma", OSCILLATORY)
    def test_oscillatory_eval_equals_complex(self, preset, sigma, request):
        _skip_unless_real_parts_match("oscillatory", np)
        segs, modes0, tau_a, dts, _ = _mode_case(request.getfixturevalue(preset), sigma)
        assert all(s2 < 0.0 for s2 in segs.s_squares)
        xs, vs = segs.eval(segs.terms(modes0), tau_a, dts)
        ox, ov = complex_mode_eval(segs, modes0, tau_a, dts)
        assert np.array_equal(xs, ox) and np.array_equal(vs, ov)

    def test_three_node_eval_equals_complex(self, elastic):
        _skip_unless_real_parts_match("oscillatory", np)
        segs, modes0, tau_a, dts, _ = _mode_case(elastic, 0.4, all_to_all_graph(3))
        xs, vs = segs.eval(segs.terms(modes0), tau_a, dts)
        ox, ov = complex_mode_eval(segs, modes0, tau_a, dts)
        assert np.array_equal(xs, ox) and np.array_equal(vs, ov)

    @pytest.mark.parametrize("preset, sigma, nodes", [
        ("elastic", 0.5, 2), ("elastic", 0.0, 2), ("inelastic", 1.0, 2),
        ("elastic", 0.4, 3), ("elastic", -1.0, 2),
    ])
    def test_eval_equals_concatenated_blocks(self, preset, sigma, nodes, request):
        reason = _elementwise_bits_depend_on_block()
        if reason:
            pytest.skip(reason)
        graph = all_to_all_graph(nodes) if nodes > 2 else TWO_NODE_GRAPH
        segs, modes0, tau_a, dts, _ = _mode_case(request.getfixturevalue(preset), sigma, graph)
        terms = segs.terms(modes0)
        xs, vs = segs.eval(terms, tau_a, dts)
        random_cuts = np.random.default_rng(3).integers(1, dts.size, 12).tolist()
        for cuts in ([512], [1, 2, 64, 65, 2048, 4095], sorted(set(random_cuts))):
            bounds = [0, *cuts, dts.size]
            parts = [segs.eval(terms, tau_a, dts[a:b]) for a, b in zip(bounds, bounds[1:])]
            assert np.array_equal(np.concatenate([x for x, _ in parts], axis=1), xs)
            assert np.array_equal(np.concatenate([v for _, v in parts], axis=1), vs)

    @pytest.mark.parametrize("preset, sigma", OSCILLATORY)
    def test_oscillatory_position_equals_complex(self, preset, sigma, request):
        _skip_unless_real_parts_match("oscillatory", math)
        segs, modes0, tau_a, _, scalars = _mode_case(request.getfixturevalue(preset), sigma)
        for node in range(2):
            distance, _ = segs.wall_distance(segs.terms(modes0), tau_a, node)
            for dt in scalars:
                expected = complex_position_of(segs, modes0, tau_a, node, dt) - segs.p.x_w
                assert distance(dt) == expected

    def test_overdamped_eval_equals_complex(self, elastic):
        _skip_unless_real_parts_match("overdamped", np)
        segs, modes0, tau_a, dts, _ = _mode_case(elastic, -1.0)
        assert max(segs.s_squares) > 0.0
        xs, vs = segs.eval(segs.terms(modes0), tau_a, dts)
        ox, ov = complex_mode_eval(segs, modes0, tau_a, dts)
        assert np.array_equal(xs, ox) and np.array_equal(vs, ov)

    def test_overdamped_position_equals_complex(self, elastic):
        _skip_unless_real_parts_match("overdamped", math)
        segs, modes0, tau_a, _, scalars = _mode_case(elastic, -1.0)
        for node in range(2):
            distance, _ = segs.wall_distance(segs.terms(modes0), tau_a, node)
            for dt in scalars:
                expected = complex_position_of(segs, modes0, tau_a, node, dt) - segs.p.x_w
                assert distance(dt) == expected

    def test_overdamped_eval_close_to_complex(self, elastic):
        # Runs on every host: the SIMD cosh/sinh may differ in the last bits.
        segs, modes0, tau_a, dts, _ = _mode_case(elastic, -1.0)
        xs, vs = segs.eval(segs.terms(modes0), tau_a, dts)
        ox, ov = complex_mode_eval(segs, modes0, tau_a, dts)
        scale = np.abs(ox).max() + np.abs(ov).max()
        assert np.abs(xs - ox).max() <= 1e-14 * scale
        assert np.abs(vs - ov).max() <= 1e-14 * scale

    def test_critical_mode_matches_expm(self):
        # zeta = 0 and sigma*gamma = 1 make B = [[0, 1], [0, 0]]: s^2 = 0.
        p = ImpactOscillatorParams(zeta=0.0, eta=0.712, f=1.0, x_w=2.0, R=1.0)
        sigma = -0.5
        segs, modes0, tau_a, dts, scalars = _mode_case(p, sigma)
        assert 0.0 in segs.s_squares
        xs, vs = segs.eval(segs.terms(modes0), tau_a, dts)
        gammas, q = np.linalg.eigh(TWO_NODE_GRAPH.matrix)
        base = np.array([[0.0, 1.0], [-1.0, 0.0]])
        for j in range(0, dts.size, 97):
            dt = float(dts[j])
            modes = np.array([
                scipy.linalg.expm((base + sigma * g * COUPLING) * dt) @ modes0[k]
                for k, g in enumerate(gammas)
            ])
            xp, vp = segs.steady(tau_a + dt)
            nodes = q @ modes
            assert np.allclose(xs[:, j], nodes[:, 0] + xp, rtol=0.0, atol=1e-12)
            assert np.allclose(vs[:, j], nodes[:, 1] + vp, rtol=0.0, atol=1e-12)
        for dt in scalars[:20]:
            modes = np.array([
                scipy.linalg.expm((base + sigma * g * COUPLING) * dt) @ modes0[k]
                for k, g in enumerate(gammas)
            ])
            xp, _ = segs.steady(tau_a + dt)
            expected = (q @ modes)[:, 0] + xp
            for node in range(2):
                x = segs.wall_distance(segs.terms(modes0), tau_a, node)[0](dt) + p.x_w
                assert abs(x - expected[node]) <= 1e-12



# zeta = 0 and sigma*gamma = 1 make the transverse generator [[0, 1], [0, 0]]: s^2 = 0.
CRITICAL = ImpactOscillatorParams(zeta=0.0, eta=0.712, f=1.0, x_w=2.0, R=1.0)
# (params, sigma, nodes) with the transverse modes oscillatory, overdamped or critical.
GENERATOR_KINDS = [
    (ELASTIC, 0.5, 2), (INELASTIC, 1.0, 2), (ELASTIC, 0.0, 2), (ELASTIC, 0.4, 3),
    (ELASTIC, -0.6, 2), (INELASTIC, -1.0, 2), (ELASTIC, -0.5, 3),
    (CRITICAL, -0.5, 2), (CRITICAL, -1.0 / 3.0, 3),
]


def _kinds_segments(case):
    p, sigma, nodes = case
    graph = all_to_all_graph(nodes) if nodes > 2 else TWO_NODE_GRAPH
    return _ModeSegments(p, graph, COUPLING, sigma)


def test_generator_kinds_cover_all_three_flows():
    s_squares = [s2 for case in GENERATOR_KINDS for s2 in _kinds_segments(case).s_squares]
    assert min(s_squares) < 0.0 < max(s_squares) and 0.0 in s_squares
    assert 0.0 in _kinds_segments(GENERATOR_KINDS[-1]).s_squares


@pytest.mark.usefixtures(
    "libm_trig_matches_numpy", "numpy_exp_scalar_matches_array", "numpy_hyperbolic_scalar_matches_array"
)
class TestScalarRecomputation:
    """_ModeSegments.point, in Python floats, equals the array eval bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        case=st.sampled_from(GENERATOR_KINDS),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(-4.0, 1.0),
        tau_a=st.floats(0.0, 2e4),
        dts=st.lists(st.floats(0.0, 4.2), min_size=1, max_size=6),
    )
    def test_point_equals_eval(self, case, seed, scale, tau_a, dts):
        segs = _kinds_segments(case)
        modes = np.random.default_rng(seed).normal(size=(segs.n, 2)) * 10.0**scale
        terms = segs.terms(modes)
        xs, vs = segs.eval(terms, tau_a, np.array(dts))
        for j, dt in enumerate(dts):
            assert segs.point(terms, tau_a, dt) == (xs[:, j].tolist(), vs[:, j].tolist())

    @pytest.mark.parametrize("case", GENERATOR_KINDS[:1] + GENERATOR_KINDS[3:5] + GENERATOR_KINDS[7:8])
    def test_measures_equal_sync_measures_of_eval(self, case):
        # A few offsets go through point, more through eval: the same measures.
        segs = _kinds_segments(case)
        modes = np.random.default_rng(1).normal(size=(segs.n, 2))
        terms = segs.terms(modes)
        dts = np.random.default_rng(2).uniform(0.0, 4.1, 20).tolist()
        xs, vs = segs.eval(terms, 317.25, np.array(dts))
        expected = [m.tolist() for m in _sync_measures(xs[1:] - xs[0], vs[1:] - vs[0])]
        assert [m.tolist() for m in segs.measures(terms, 317.25, np.array(dts))] == expected
        few = [segs.measures(terms, 317.25, np.array(dts[j:j + 3])) for j in range(0, 20, 3)]
        assert [v for dev, _ in few for v in dev] == expected[0]
        assert [v for _, d in few for v in d] == expected[1]

    @pytest.mark.parametrize("case", GENERATOR_KINDS[:1] + GENERATOR_KINDS[3:5] + GENERATOR_KINDS[7:8])
    def test_eval_reads_the_terms_it_is_given(self, case):
        # (A u) entries that are not A_k u: eval takes them as given, as point does.
        segs = _kinds_segments(case)
        terms = [tuple(t) for t in np.random.default_rng(5).normal(size=(segs.n, 4)).tolist()]
        actual = segs.terms(np.array(terms)[:, :2])
        assert all(t[2:] != a[2:] for t, a in zip(terms, actual))
        dts = [0.0, 0.3, 1.7, 4.1]
        xs, vs = segs.eval(terms, 211.5, np.array(dts))
        for j, dt in enumerate(dts):
            assert segs.point(terms, 211.5, dt) == (xs[:, j].tolist(), vs[:, j].tolist())


class TestCertifiedProbeBisection:
    """The probe's bisection with its crossing model keeps the plain bisection's bits."""

    @settings(max_examples=200, deadline=None)
    @given(
        case=st.sampled_from(GENERATOR_KINDS),
        gap=st.floats(1e-10, 2e-2),
        speed=st.floats(1e-4, 3.0),
        others=st.tuples(st.floats(1e-3, 1.0), st.floats(-2.0, 2.0)),
        tau_a=st.floats(0.0, 2e4),
    )
    def test_model_returns_the_plain_bisection(self, case, gap, speed, others, tau_a):
        # Node 0 starts gap inside the wall at speed towards it; the first grid
        # cell where its distance turns positive brackets the crossing.
        segs = _kinds_segments(case)
        x_w, h = segs.p.x_w, 1e-3
        state = [x_w - gap, speed] + [x_w - others[0], others[1]] * (segs.n - 1)
        distance, model = segs.wall_distance(segs.terms(segs.to_modes(state, tau_a)), tau_a, 0)
        cells = [j for j in range(1, 64) if distance(j * h) > 0.0]
        assume(cells and distance((cells[0] - 1) * h) <= 0.0)
        lo, hi = (cells[0] - 1) * h, cells[0] * h
        assert bisect_crossing(distance, lo, hi, model(lo, hi)) == bisect_crossing(distance, lo, hi)

    @pytest.mark.parametrize("preset, sigma", [("elastic", 0.25), ("inelastic", 0.5), ("elastic", -0.6)])
    def test_few_evaluations_per_impact(self, preset, sigma, request, monkeypatch):
        counts = {"refinements": 0, "evaluations": 0}
        wall_distance = _ModeSegments.wall_distance

        def counted(fn):
            def wrapper(dt):
                counts["evaluations"] += 1
                return fn(dt)
            return wrapper

        def counting(segs, terms, tau_a, node):
            distance, model = wall_distance(segs, terms, tau_a, node)
            counts["refinements"] += 1
            return counted(distance), lambda lo, hi: (counted(model(lo, hi)[0]), *model(lo, hi)[1:])

        monkeypatch.setattr(_ModeSegments, "wall_distance", counting)
        settings = ProbeSettings(sigma=sigma, rng_seed=(3, 1), max_periods=80, record_window=40)
        res = run_probe(request.getfixturevalue(preset), COUPLING, settings,
                        base_state=request.getfixturevalue(f"{preset}_base"))
        assert counts["refinements"] >= len(res.impact_times) > 40
        # The plain bisection takes about 30 per impact.
        assert counts["evaluations"] / counts["refinements"] < 12
