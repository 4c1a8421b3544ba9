"""Command line front end.

Subcommands mirror the library layers: ``tle`` for one exponent query,
``msf-sweep`` for a grid, ``probe`` and ``bifurcation`` for the direct
two-oscillator experiment, ``study`` for the paper's check of both over
one sigma grid, ``network`` for a per-mode verdict on an arbitrary
diffusive graph, and ``simulate`` for a raw trajectory dump.

Every run whose configuration is accepted, even one that fails later,
writes CSV output plus an ``effective.ini`` capturing the full configuration
actually used.  Floats are serialized with repr, so repeated runs (and runs
with different ``--jobs``) produce byte-identical files.

Exit codes: 0 success, 1 at least one grid point failed outright,
2 configuration or usage error, 3 run finished but some exponent did not
meet the convergence criterion.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    RunConfig,
    default_config,
    effective_ini,
    load_config,
    load_preset,
)
from .msf import SPRING_COUPLING, MSFQuery, compute_tle, msf_sweep
from .network import (
    CouplingGraph,
    TWO_NODE_GRAPH,
    all_to_all_graph,
    analyze_network,
    bifurcation_scan,
    load_graph,
    run_probe,
    sync_verdict,
)
from .oscillator import OscState, sample_trajectory
from .svgplot import EmptyPlotError, line_plot

EXIT_OK = 0
EXIT_POINT_FAILURES = 1
EXIT_CONFIG = 2
EXIT_UNCONVERGED = 3
AMBIGUOUS = 0.01  # study: an |exponent| at or below this predicts no probe outcome


def _fval(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _write_csv(path: Path, header: str, rows, footer: str | None = None) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(_fval(v) for v in row))
    if footer is not None:
        lines.append(footer)
    path.write_text("\n".join(lines) + "\n")


def _maybe_plot(args, out: Path, name: str, **kwargs) -> None:
    if not args.plot:
        return
    try:
        svg = line_plot(**kwargs)
    except EmptyPlotError as exc:
        print(f"plot skipped ({name}): {exc}", file=sys.stderr)
        return
    (out / name).write_text(svg)


def _resolve_graph(spec: str) -> CouplingGraph:
    if spec == "two_node":
        return TWO_NODE_GRAPH
    if spec.startswith("all_to_all:"):
        try:
            n = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad graph spec {spec!r}: {exc}") from exc
        if n < 2:
            raise ConfigError(f"all_to_all needs at least 2 nodes, got {n}")
        return all_to_all_graph(n)
    return load_graph(spec)


def _cmd_tle(cfg: RunConfig, args, out: Path) -> int:
    query = MSFQuery(cfg.query_alpha, cfg.query_beta)
    result = compute_tle(cfg.oscillator, SPRING_COUPLING, query, cfg.tle)
    _write_csv(
        out / "tle.csv",
        "alpha,beta,tle,converged,periods_used",
        [(result.alpha, result.beta, result.tle, result.converged, result.periods_used)],
    )
    _maybe_plot(
        args,
        out,
        "tle_convergence.svg",
        xs=np.arange(1, len(result.samples) + 1),
        ys=result.samples,
        title=f"running exponent, alpha={query.alpha:g} beta={query.beta:g}",
        xlabel="forcing periods",
        ylabel="running average exponent",
    )
    status = "converged" if result.converged else "NOT converged"
    print(
        f"alpha={query.alpha:g} beta={query.beta:g}: tle={result.tle!r} "
        f"({status} after {result.periods_used} periods)"
    )
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return EXIT_OK if result.converged else EXIT_UNCONVERGED


def _sweep(cfg: RunConfig, args, alphas, betas):
    """msf_sweep over the grid; returns (points, failures, unconverged)."""
    points = msf_sweep(
        cfg.oscillator, SPRING_COUPLING, alphas, betas, cfg.tle, jobs=args.jobs
    )
    failures = unconverged = 0
    for pt in points:
        if pt.result is None:
            failures += 1
            print(f"point alpha={pt.alpha:g} beta={pt.beta:g} failed: {pt.error}", file=sys.stderr)
        elif not pt.result.converged:
            unconverged += 1
    return points, failures, unconverged


def _plot_exponents(args, out: Path, name: str, xs, points, **labels) -> None:
    """Plot each sweep point's exponent at its x, flagging the unconverged; failed points drop."""
    good = [(x, pt.result) for x, pt in zip(xs, points) if pt.result is not None]
    _maybe_plot(
        args, out, name, xs=[x for x, _ in good], ys=[r.tle for _, r in good],
        flagged=[not r.converged for _, r in good], **labels,
    )


def _cmd_sweep(cfg: RunConfig, args, out: Path) -> int:
    for grid in ("alphas", "betas"):
        if not getattr(cfg, grid):
            raise ConfigError(f"msf-sweep needs a non-empty [sweep] {grid} grid")
    points, failures, unconverged = _sweep(cfg, args, cfg.alphas, cfg.betas)
    rows = [
        (pt.alpha, pt.beta, None, False, 0)
        if pt.result is None
        else (pt.alpha, pt.beta, pt.result.tle, pt.result.converged, pt.result.periods_used)
        for pt in points
    ]
    _write_csv(out / "msf_sweep.csv", "alpha,beta,tle,converged,periods_used", rows)
    if len(cfg.betas) == 1:
        _plot_exponents(
            args, out, "msf_sweep.svg", [pt.alpha for pt in points], points,
            title="master stability curve", xlabel="alpha", ylabel="largest transversal exponent",
        )
    print(
        f"swept {len(points)} points: {failures} failed, {unconverged} unconverged, "
        f"results in {out / 'msf_sweep.csv'}"
    )
    if failures:
        return EXIT_POINT_FAILURES
    return EXIT_UNCONVERGED if unconverged else EXIT_OK


def _cmd_probe(cfg: RunConfig, args, out: Path) -> int:
    result = run_probe(cfg.oscillator, SPRING_COUPLING, cfg.probe)
    _write_csv(
        out / "probe.csv",
        "sigma,synchronized,sync_time",
        [(result.sigma, result.synchronized, result.sync_time)],
    )
    _write_csv(
        out / "probe_maxima.csv",
        "sigma,local_max",
        [(result.sigma, m) for m in result.local_maxima],
    )
    _maybe_plot(
        args,
        out,
        "probe_maxima.svg",
        xs=np.arange(len(result.local_maxima)),
        ys=result.local_maxima,
        draw_line=False,
        title=f"probe maxima, sigma={result.sigma:g}",
        xlabel="maximum index",
        ylabel="|x1 - x2| at local maxima",
    )
    if result.synchronized:
        print(f"sigma={result.sigma:g}: synchronized at tau={result.sync_time!r}")
    else:
        print(
            f"sigma={result.sigma:g}: not synchronized after "
            f"{result.periods_run} periods"
        )
    return EXIT_OK


def _scan(cfg: RunConfig, args, out: Path):
    """bifurcation_scan over [sweep] sigmas, written to bifurcation.csv; returns (points, failures)."""
    if not cfg.sigmas:
        raise ConfigError(f"{args.command} needs a non-empty [sweep] sigmas grid")
    points = bifurcation_scan(
        cfg.oscillator, SPRING_COUPLING, cfg.sigmas, cfg.probe, jobs=args.jobs
    )
    rows = []
    failures = 0
    for pt in points:
        if pt.result is None:
            failures += 1
            print(f"sigma={pt.sigma:g} failed: {pt.error}", file=sys.stderr)
            continue
        for m in pt.result.local_maxima:
            rows.append((pt.sigma, m))
    _write_csv(out / "bifurcation.csv", "sigma,local_max", rows)
    _maybe_plot(
        args,
        out,
        "bifurcation.svg",
        xs=[r[0] for r in rows],
        ys=[r[1] for r in rows],
        draw_line=False,
        title="probe bifurcation diagram",
        xlabel="sigma",
        ylabel="|x1 - x2| local maxima",
    )
    return points, failures


def _cmd_bifurcation(cfg: RunConfig, args, out: Path) -> int:
    points, failures = _scan(cfg, args, out)
    n_sync = sum(1 for pt in points if pt.result is not None and pt.result.synchronized)
    print(
        f"scanned {len(points)} sigma values: {n_sync} synchronized, "
        f"{failures} failed, results in {out / 'bifurcation.csv'}"
    )
    return EXIT_POINT_FAILURES if failures else EXIT_OK


def _cmd_study(cfg: RunConfig, args, out: Path) -> int:
    scan, scan_failures = _scan(cfg, args, out)
    points, failures, unconverged = _sweep(cfg, args, [-2.0 * s for s in cfg.sigmas], [0.0])
    _write_csv(
        out / "sigma_exponents.csv",
        "sigma,alpha,tle,converged",
        [
            (s, pt.alpha, None, False) if pt.result is None
            else (s, pt.alpha, pt.result.tle, pt.result.converged)
            for s, pt in zip(cfg.sigmas, points)
        ],
    )
    _write_csv(
        out / "probe_outcomes.csv",
        "sigma,synchronized,sync_time",
        [(pt.sigma, pt.result.synchronized, pt.result.sync_time) for pt in scan if pt.result],
    )
    _plot_exponents(
        args, out, "sigma_exponents.svg", cfg.sigmas, points,
        title="transversal exponent at alpha = -2 sigma", xlabel="sigma", ylabel="lambda",
    )
    pairs = [
        (probe.sigma, sweep.result.tle, probe.result.synchronized)
        for sweep, probe in zip(points, scan)
        if sweep.result and probe.result and abs(sweep.result.tle) > AMBIGUOUS
    ]
    mismatches = [(s, tle, sync) for s, tle, sync in pairs if (tle < 0.0) != sync]
    print(f"sign agreement: {len(pairs) - len(mismatches)}/{len(pairs)} (|lambda| > {AMBIGUOUS} only)")
    for s, tle, sync in mismatches:
        print(f"  sigma={s!r}: lambda={tle!r}, probe {'synchronized' if sync else 'not synchronized'}")
    if failures or scan_failures:
        return EXIT_POINT_FAILURES
    return EXIT_UNCONVERGED if unconverged else EXIT_OK


def _cmd_network(cfg: RunConfig, args, out: Path) -> int:
    sigma = cfg.network_sigma
    graph = _resolve_graph(cfg.graph_spec)
    spectrum = analyze_network(cfg.oscillator, SPRING_COUPLING, graph, sigma, cfg.tle)
    verdict = sync_verdict(spectrum)
    rows = []
    unconverged = 0
    for gamma, r in zip(spectrum.eigenvalues, spectrum.results):
        if not r.converged:
            unconverged += 1
        rows.append(
            (gamma.real, gamma.imag, r.alpha, r.beta, r.tle, r.converged, r.periods_used)
        )
    _write_csv(
        out / "network.csv",
        "gamma_real,gamma_imag,alpha,beta,tle,converged,periods_used",
        rows,
        footer=f"# verdict: {verdict}",
    )
    _maybe_plot(
        args,
        out,
        "network_modes.svg",
        xs=[g.real for g in spectrum.eigenvalues],
        ys=[r.tle for r in spectrum.results],
        flagged=[not r.converged for r in spectrum.results],
        draw_line=False,
        title=f"mode exponents, sigma={sigma:g}",
        xlabel="graph eigenvalue (real part)",
        ylabel="transversal exponent",
    )
    print(f"{graph.n_nodes}-node graph at sigma={sigma:g}: verdict {verdict}")
    for gamma, r in zip(spectrum.eigenvalues, spectrum.results):
        print(f"  gamma={gamma.real:g}{gamma.imag:+g}j -> tle={r.tle!r}")
    return EXIT_UNCONVERGED if unconverged else EXIT_OK


def _cmd_simulate(cfg: RunConfig, args, out: Path) -> int:
    periods = cfg.simulate_periods
    p = cfg.oscillator
    duration = periods * p.forcing_period
    sample_step = p.forcing_period / cfg.samples_per_period
    taus, xs, vs, events = sample_trajectory(
        p, OscState(0.0, 0.0, 0.0), duration, sample_step, cfg.tle.scan_step
    )
    _write_csv(
        out / "trajectory.csv", "tau,x,v", [(t, x, v) for t, x, v in zip(taus, xs, vs)]
    )
    _write_csv(
        out / "events.csv",
        "tau_c,v_pre,v_post",
        [(e.tau_c, e.v_pre, e.v_post) for e in events],
    )
    _maybe_plot(
        args,
        out,
        "trajectory.svg",
        xs=taus,
        ys=xs,
        title=f"trajectory over {periods} forcing periods",
        xlabel="tau",
        ylabel="x",
    )
    print(
        f"simulated {periods} periods: {len(events)} impacts, "
        f"trajectory in {out / 'trajectory.csv'}"
    )
    return EXIT_OK


def _add_common(sub, handler, overrides=None, grid=False) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--config", help="path to an INI run configuration")
    group.add_argument(
        "--preset", help="packaged parameter set (elastic or inelastic)"
    )
    sub.add_argument(
        "--out",
        help="output directory (default: config [output], then $MSFLAB_OUT, then .)",
    )
    if grid:
        sub.add_argument("--jobs", type=int, help="worker processes for the grid")
    sub.add_argument(
        "--plot", action="store_true", help="also write SVG plots next to the CSVs"
    )
    sub.set_defaults(handler=handler, overrides=overrides or {})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msflab",
        description="Transversal stability of coupled impact oscillators.",
    )
    parser.add_argument("--version", action="version", version=f"msflab {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("tle", help="one exponent query at (alpha, beta)")
    _add_common(sub, _cmd_tle, {"alpha": "query_alpha", "beta": "query_beta"})
    sub.add_argument("--alpha", type=float, help="override [query] alpha")
    sub.add_argument("--beta", type=float, help="override [query] beta")

    sub = subs.add_parser("msf-sweep", help="exponents over the [sweep] grid")
    _add_common(sub, _cmd_sweep, grid=True)

    sub = subs.add_parser("probe", help="direct two-oscillator probe at one sigma")
    _add_common(sub, _cmd_probe, {"sigma": "probe.sigma"})
    sub.add_argument("--sigma", type=float, help="override [probe] sigma")

    sub = subs.add_parser(
        "bifurcation", help="probe maxima over the [sweep] sigmas grid"
    )
    _add_common(sub, _cmd_bifurcation, grid=True)

    sub = subs.add_parser("study", help="exponent at alpha = -2 sigma vs probe over sigmas")
    _add_common(sub, _cmd_study, grid=True)

    sub = subs.add_parser("network", help="per-mode verdict for a coupling graph")
    _add_common(sub, _cmd_network, {"sigma": "network_sigma"})
    sub.add_argument("--sigma", type=float, help="override [network] sigma")

    sub = subs.add_parser("simulate", help="raw trajectory and impact record")
    _add_common(sub, _cmd_simulate, {"periods": "simulate_periods"})
    sub.add_argument("--periods", type=int, help="override [simulate] periods")
    return parser


def _resolve_config(args) -> RunConfig:
    if args.config:
        return load_config(args.config)
    if args.preset:
        return load_preset(args.preset)
    return default_config()


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    """Apply the command-line overrides through the checks a config file gets.

    args.overrides maps an option to the RunConfig field it sets, or to
    "field.key" for a key of a settings dataclass such as [probe].
    """
    for option, target in args.overrides.items():
        value = getattr(args, option)
        if value is None:
            continue
        field, _, key = target.partition(".")
        try:
            if key:
                value = replace(getattr(cfg, field), **{key: value})
            cfg = replace(cfg, **{field: value})
        except ValueError as exc:
            raise ConfigError(f"--{option}: {exc}") from exc
    return cfg


def _error(exc: Exception) -> int:
    if isinstance(exc, ConfigError):
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return EXIT_POINT_FAILURES


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        jobs = getattr(args, "jobs", None)
        if jobs is not None and jobs < 1:
            raise ConfigError(f"--jobs: must be at least 1, got {jobs}")
        cfg = _apply_overrides(_resolve_config(args), args)
        out = Path(args.out or cfg.out_dir or os.environ.get("MSFLAB_OUT") or ".")
        out.mkdir(parents=True, exist_ok=True)
    except Exception as exc:
        return _error(exc)
    try:
        code = args.handler(cfg, args, out)
    except Exception as exc:
        code = _error(exc)
        if code == EXIT_CONFIG:
            return code
    (out / "effective.ini").write_text(effective_ini(cfg))
    return code


if __name__ == "__main__":
    sys.exit(main())
