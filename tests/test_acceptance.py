"""Release gate for the whole pipeline, one test per check.

Each test prints a single PASS/FAIL line with the measured margin and wall
time so a log scan shows the gate status at a glance.  The expensive
artifacts (post-transient states, the 21-point exponent grids) are session
fixtures shared between gates; their cost is recorded and charged to the
gates that consume them.

Tolerances here are the release contract.  Do not loosen them to make a
red gate green; a genuine failure means the implementation regressed.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from oracles import (
    divergence_lle_oracle,
    saltation_tle_oracle,
    smooth_tle_oracle,
    taylor_expm,
    variational_matrix,
)

from msflab.cli import EXIT_OK, EXIT_UNCONVERGED, main
from msflab.jacobian import estimate_jacobian, oscillator_flow
from msflab.matfuncs import mat_exp, mat_log
from msflab.msf import (
    SPRING_COUPLING,
    MSFQuery,
    TLESettings,
    compute_tle,
    msf_sweep,
    settle_transient,
)
from msflab.network import (
    ProbeSettings,
    all_to_all_graph,
    analyze_network,
    graph_spectrum,
    run_probe,
    sync_verdict,
)
from msflab.oscillator import ImpactOscillatorParams

SIGMA_GRID = tuple(np.linspace(0.0, 1.25, 21))
SIGN_FLOOR = 0.01  # |exponent| below this is treated as numerically ambiguous

SMOOTH = ImpactOscillatorParams(zeta=0.05, eta=0.712, f=1.0, wall_enabled=False)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="session")
def smooth_scan():
    """Exponents of the wall-free oscillator at five coupling strengths."""
    t0 = time.perf_counter()
    base = settle_transient(SMOOTH, TLESettings())
    results = [
        compute_tle(SMOOTH, SPRING_COUPLING, MSFQuery(alpha, 0.0), base_state=base)
        for alpha in (-2.0, -1.0, 0.0, 1.0, 2.0)
    ]
    return results, time.perf_counter() - t0


def _sigma_sweep(p, base):
    t0 = time.perf_counter()
    alphas = [-2.0 * s for s in SIGMA_GRID]
    points = msf_sweep(p, SPRING_COUPLING, alphas, [0.0], jobs=1, base_state=base)
    return points, time.perf_counter() - t0


@pytest.fixture(scope="session")
def elastic_msf(elastic, elastic_base):
    return _sigma_sweep(elastic, elastic_base)


@pytest.fixture(scope="session")
def inelastic_msf(inelastic, inelastic_base):
    return _sigma_sweep(inelastic, inelastic_base)


def test_matrix_round_trips():
    rng = np.random.default_rng(20260819)
    t0 = time.perf_counter()
    worst_trip = 0.0
    worst_det = 0.0
    count = 0
    while count < 1000:
        m = rng.standard_normal((2, 2))
        if abs(np.linalg.det(m)) < 1e-3:
            continue
        count += 1
        back = mat_exp(mat_log(m))
        worst_trip = max(
            worst_trip, np.linalg.norm(back - m) / np.linalg.norm(m)
        )
        det = np.linalg.det(mat_exp(m))
        ref = np.exp(np.trace(m))
        worst_det = max(worst_det, abs(det - ref) / abs(ref))
    elapsed = time.perf_counter() - t0
    ok = worst_trip < 1e-9 and worst_det < 1e-9 and elapsed < 1.0
    _report(
        "matrix round trips",
        ok,
        f"1000 matrices, exp(log(M)) off by {worst_trip:.2e}, "
        f"det/trace identity off by {worst_det:.2e}, {elapsed:.2f}s",
    )


def test_jacobian_exact_on_wall_free_flow():
    t0 = time.perf_counter()
    flow = oscillator_flow(SMOOTH, 0.4)
    x0 = np.array([0.3, -0.2], dtype=np.longdouble)
    j = variational_matrix(SMOOTH.zeta, 0.0)
    worst = 0.0
    for t in (0.1, 0.5, 1.0):
        exact = taylor_expm(j * t).real
        for delta in (1e-9, 1e-6, 1e-3):
            est = estimate_jacobian(flow, x0, t, delta=delta)
            worst = max(worst, float(np.max(np.abs(est.phi - exact))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 1.0
    _report(
        "flow Jacobian estimator",
        ok,
        f"9 (t, delta) pairs, worst elementwise error {worst:.2e}, {elapsed:.2f}s",
    )


def test_smooth_limit_exponents(smooth_scan):
    results, elapsed = smooth_scan
    # The closed-form exponent at the two pinned points, to guard the oracle.
    assert abs(smooth_tle_oracle(0.05, 0.0) - (-0.0500)) < 1e-12
    assert abs(smooth_tle_oracle(0.05, 2.0) - 0.95125) < 1e-5
    worst = 0.0
    for r in results:
        worst = max(worst, abs(r.tle - smooth_tle_oracle(SMOOTH.zeta, r.alpha)))
    ok = worst < 1e-3 and elapsed < 60.0
    _report(
        "smooth-limit exponents",
        ok,
        f"5 coupling strengths, worst error {worst:.2e}, {elapsed:.1f}s",
    )


def test_zero_coupling_matches_divergence(
    elastic, elastic_base, inelastic, inelastic_base
):
    t0 = time.perf_counter()
    diffs = {}
    for label, p, base in (
        ("elastic", elastic, elastic_base),
        ("inelastic", inelastic, inelastic_base),
    ):
        r = compute_tle(p, SPRING_COUPLING, MSFQuery(0.0, 0.0), base_state=base)
        ref = divergence_lle_oracle(p, base)
        diffs[label] = abs(r.tle - ref)
    elapsed = time.perf_counter() - t0
    worst = max(diffs.values())
    ok = worst < 2e-3 and elapsed < 300.0
    _report(
        "zero-coupling divergence check",
        ok,
        f"elastic {diffs['elastic']:.2e}, inelastic {diffs['inelastic']:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_saltation_composition_agrees(elastic, elastic_base):
    t0 = time.perf_counter()
    worst = 0.0
    for alpha in (0.0, -0.4, -0.8, -1.2):
        r = compute_tle(
            elastic, SPRING_COUPLING, MSFQuery(alpha, 0.0), base_state=elastic_base
        )
        ref = saltation_tle_oracle(elastic, alpha, elastic_base)
        worst = max(worst, abs(r.tle - ref))
    elapsed = time.perf_counter() - t0
    ok = worst < 2e-3 and elapsed < 600.0
    _report(
        "saltation composition",
        ok,
        f"4 coupling strengths, worst disagreement {worst:.2e}, {elapsed:.1f}s",
    )


def test_sign_predicts_probe_outcome(
    elastic, elastic_base, elastic_msf, inelastic, inelastic_base, inelastic_msf
):
    t0 = time.perf_counter()
    rates = {}
    mismatched = []
    sweep_cost = 0.0
    for label, p, base, sweep in (
        ("elastic", elastic, elastic_base, elastic_msf),
        ("inelastic", inelastic, inelastic_base, inelastic_msf),
    ):
        points, cost = sweep
        sweep_cost += cost
        checked = 0
        agreed = 0
        for i, (sigma, point) in enumerate(zip(SIGMA_GRID, points)):
            assert point.error is None, f"{label} sweep failed at sigma={sigma}"
            tle = point.result.tle
            if abs(tle) <= SIGN_FLOOR:
                continue
            checked += 1
            settings = ProbeSettings(sigma=sigma, rng_seed=(20260819, i))
            outcome = run_probe(p, SPRING_COUPLING, settings, base_state=base)
            if outcome.synchronized == (tle < 0.0):
                agreed += 1
            else:
                mismatched.append((label, sigma, tle, outcome.synchronized))
        rates[label] = (agreed, checked)
    elapsed = time.perf_counter() - t0 + sweep_cost
    ok = elapsed < 1800.0 and all(a >= 0.9 * c for a, c in rates.values())
    detail = ", ".join(f"{k} {a}/{c}" for k, (a, c) in rates.items())
    if mismatched:
        detail += f", mismatches {mismatched}"
    _report("exponent sign vs probe", ok, f"{detail}, {elapsed:.0f}s")


def test_convergence_protocol_metadata(smooth_scan, elastic_msf, inelastic_msf):
    results = list(smooth_scan[0])
    for points, _ in (elastic_msf, inelastic_msf):
        results.extend(p.result for p in points if p.result is not None)
    converged = 0
    for r in results:
        assert r.transient_periods == 500
        assert r.periods_used <= 2000
        assert len(r.samples) == r.periods_used
        if r.converged:
            converged += 1
            assert float(np.std(r.samples[-100:])) < 1e-5
    ok = converged >= 1
    _report(
        "convergence protocol",
        ok,
        f"{len(results)} results checked, {converged} converged, "
        f"window std < 1e-5, transient 500, cap 2000",
    )


def test_three_node_network_verdict(elastic, elastic_base):
    t0 = time.perf_counter()
    graph = all_to_all_graph(3)
    spectrum = graph_spectrum(graph)
    assert np.allclose(spectrum, [0.0, -3.0, -3.0], atol=1e-12)
    # sigma = 0.5 lands at alpha = -1.5 where the exponent is clearly
    # negative; 0.875/3 lands at alpha = -0.875 where it is clearly positive.
    cases = ((0.5, True), (0.875 / 3.0, False))
    outcomes = []
    for sigma, expect_sync in cases:
        modes = analyze_network(
            elastic, SPRING_COUPLING, graph, sigma, base_state=elastic_base
        )
        transverse = max(r.tle for r in modes.results[1:])
        if expect_sync:
            assert transverse < -SIGN_FLOOR, f"premise lost: {transverse}"
            assert sync_verdict(modes) == "stable"
        else:
            assert transverse > SIGN_FLOOR, f"premise lost: {transverse}"
            assert sync_verdict(modes) == "unstable"
        probe = run_probe(
            elastic,
            SPRING_COUPLING,
            ProbeSettings(sigma=sigma, rng_seed=777),
            graph=graph,
            base_state=elastic_base,
        )
        outcomes.append((sigma, transverse, probe.synchronized))
        assert probe.synchronized == expect_sync
    elapsed = time.perf_counter() - t0
    ok = elapsed < 900.0
    detail = ", ".join(
        f"sigma={s:.4g} tle={t:+.4f} sync={y}" for s, t, y in outcomes
    )
    _report("three-node verdict", ok, f"{detail}, {elapsed:.0f}s")


def test_outputs_byte_identical(tmp_path):
    t0 = time.perf_counter()
    cfg = tmp_path / "gate.ini"
    cfg.write_text(
        "[oscillator]\n"
        "zeta = 0.05\neta = 0.712\nf = 1.0\nx_w = 2.0\nR = 1.0\n"
        "wall_enabled = true\n"
        "[tle]\nmax_periods = 120\n"
        "[sweep]\nalphas = 0.0,-0.5,-1.0\nbetas = 0.0\nsigmas = 0.5,0.55\n"
    )
    sweep_runs = []
    scan_runs = []
    study_runs = []
    for jobs, name in (("1", "a"), ("1", "b"), ("2", "c")):
        out = tmp_path / f"sweep_{name}"
        code = main(
            ["msf-sweep", "--config", str(cfg), "--out", str(out), "--jobs", jobs]
        )
        assert code in (EXIT_OK, EXIT_UNCONVERGED)
        sweep_runs.append(
            (
                code,
                (out / "msf_sweep.csv").read_bytes(),
                (out / "effective.ini").read_bytes(),
            )
        )
        out = tmp_path / f"scan_{name}"
        code = main(
            ["bifurcation", "--config", str(cfg), "--out", str(out), "--jobs", jobs]
        )
        assert code == EXIT_OK
        scan_runs.append((code, (out / "bifurcation.csv").read_bytes()))
        out = tmp_path / f"study_{name}"
        code = main(["study", "--config", str(cfg), "--out", str(out), "--jobs", jobs])
        assert code in (EXIT_OK, EXIT_UNCONVERGED)
        study_runs.append(
            (code,)
            + tuple(
                (out / f).read_bytes()
                for f in (
                    "sigma_exponents.csv",
                    "probe_outcomes.csv",
                    "bifurcation.csv",
                    "effective.ini",
                )
            )
        )
    elapsed = time.perf_counter() - t0
    ok = (
        sweep_runs[0] == sweep_runs[1] == sweep_runs[2]
        and scan_runs[0] == scan_runs[1] == scan_runs[2]
        and study_runs[0] == study_runs[1] == study_runs[2]
    )
    _report(
        "byte-identical outputs",
        ok,
        f"3 sweep, 3 scan and 3 study runs across 1 and 2 workers, {elapsed:.0f}s",
    )
