"""Transversal Lyapunov exponents for diffusively coupled impact oscillators.

The master stability function of a network of identical oscillators reduces
to the largest Lyapunov exponent of one variational equation per coupling
mode, parametrized by the complex number alpha + i*beta (the coupling
strength times a graph eigenvalue).  For a non-smooth node dynamics the
variational propagator over a short step is recovered from the simulated
trajectory itself:

  * on impact-free steps the single-oscillator propagator is the analytic
    segment fundamental matrix;
  * on the step window containing an impact it is the finite-difference
    trajectory Jacobian across the window;

and in both cases the coupling enters through the matrix-logarithm
correction

    P = exp( log(Phi_single) + (alpha + i*beta) * H * h ).

The exponent is accumulated Benettin style: the perturbation is multiplied
by P step by step, renormalized each step, and the running average of the
accumulated log growth is sampled once per forcing period until the sample
standard deviation settles.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .jacobian import InvalidWindowError, event_window_jacobian
from .matfuncs import exp_flow, mat_exp, mat_log
from .oscillator import (
    DEFAULT_SCAN_STEP,
    ImpactOscillatorParams,
    OscState,
    propagate_free,
    detect_next_impact,
    segment_propagator,
    simulate,
)

# Dimensionless coupling through the velocity equation: the neighbour's
# position feeds the velocity derivative (spring-like coupling).
SPRING_COUPLING = np.array([[0.0, 0.0], [1.0, 0.0]])


@dataclass(frozen=True)
class MSFQuery:
    """One master-stability-function evaluation point alpha + i*beta."""

    alpha: float
    beta: float = 0.0


@dataclass(frozen=True)
class TLESettings:
    """Protocol constants for one exponent computation.

    Defaults reproduce the reference protocol: a 500 forcing-period
    transient, sampling the running average once per period, convergence
    when the standard deviation of the last 100 samples drops below 1e-5,
    and a hard cap of 2000 periods.
    """

    transient_periods: int = 500
    max_periods: int = 2000
    sample_window: int = 100
    std_tolerance: float = 1e-5
    scan_step: float = DEFAULT_SCAN_STEP
    jacobi_delta: float = 1e-7

    def __post_init__(self):
        for name in ("transient_periods", "max_periods", "sample_window"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        for name in ("std_tolerance", "scan_step", "jacobi_delta"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        if self.sample_window > self.max_periods:
            raise ValueError(
                f"sample_window ({self.sample_window}) cannot exceed max_periods "
                f"({self.max_periods})"
            )


@dataclass
class TLEResult:
    """Exponent estimate plus the full convergence record.

    samples holds the running average log_growth/elapsed at each forcing
    period; tle is its final value.  imag_discard_free is the Frobenius
    magnitude of the imaginary part discarded from the impact-free step
    propagator (beta = 0 only; zero in exact arithmetic), and
    imag_discard_events records the same magnitude for every impact
    window, where it is genuinely nonzero because the window propagator
    has negative real eigenvalues.
    """

    alpha: float
    beta: float
    tle: float
    converged: bool
    periods_used: int
    samples: list[float] = field(repr=False)
    warnings: list[str] = field(default_factory=list)
    transient_periods: int = 0
    imag_discard_free: float = 0.0
    imag_discard_events: list[float] = field(default_factory=list, repr=False)


def _coupled_generator(phi_single, coupling, query: MSFQuery, h: float) -> np.ndarray:
    """log(phi_single) + (alpha + i*beta)*coupling*h, the step's coupled generator."""
    if h <= 0.0:
        raise ValueError(f"h must be positive, got {h!r}")
    coupling = np.asarray(coupling, dtype=float)
    return mat_log(phi_single) + (query.alpha + 1j * query.beta) * coupling * h


def coupled_step_propagator(
    phi_single, coupling, query: MSFQuery, h: float
) -> tuple[np.ndarray, float]:
    """Coupling-corrected step propagator and the discarded imaginary mass.

    Computes exp(log(phi_single) + (alpha + i*beta)*coupling*h).  For real
    queries (beta = 0) the exact result is real, so the imaginary part of
    the computed matrix is dropped and its Frobenius norm returned for
    auditing; for beta != 0 the complex matrix is returned unchanged with a
    reported magnitude of 0.
    """
    prop = mat_exp(_coupled_generator(phi_single, coupling, query, h))
    if query.beta == 0.0:
        discarded = float(np.linalg.norm(np.imag(prop)))
        return np.real(prop).copy(), discarded
    return prop, 0.0


def settle_transient(p: ImpactOscillatorParams, settings: TLESettings) -> OscState:
    """Run the oscillator from rest for the protocol transient."""
    state, _ = simulate(
        p,
        OscState(0.0, 0.0, 0.0),
        settings.transient_periods * p.forcing_period,
        scan_step=settings.scan_step,
    )
    return state


def compute_tle(
    p: ImpactOscillatorParams,
    coupling,
    query: MSFQuery,
    settings: TLESettings = TLESettings(),
    base_state: OscState | None = None,
    initial_perturbation=None,
) -> TLEResult:
    """Transversal Lyapunov exponent at one (alpha, beta) point.

    base_state, when given, must be a post-transient state produced with
    the same protocol (a sweep settles it once and shares it); otherwise
    the transient is run here.  initial_perturbation overrides the default
    xi = (1, 0); its scale does not affect the exponent.
    """
    coupling = np.asarray(coupling, dtype=float)
    if coupling.shape != (2, 2):
        raise ValueError(f"coupling matrix must be 2x2, got shape {coupling.shape}")
    if base_state is None:
        base_state = settle_transient(p, settings)

    h = settings.scan_step
    period = p.forcing_period
    t0 = base_state.tau
    real_query = query.beta == 0.0

    # k impact-free steps with per-step renormalization leave the same unit
    # direction and log growth as exp(k*G) applied once, G the free step's
    # coupled generator.
    free_steps = exp_flow(_coupled_generator(segment_propagator(p, h), coupling, query, h))
    discard_free = float(np.linalg.norm(np.imag(free_steps(1.0))))

    if initial_perturbation is None:
        xi = np.array([1.0, 0.0], dtype=complex)
    else:
        xi = np.asarray(initial_perturbation, dtype=complex).copy()
        if xi.shape != (2,):
            raise ValueError("initial_perturbation must be a 2-vector")
    nrm0 = float(np.linalg.norm(xi))
    if nrm0 == 0.0 or not np.isfinite(nrm0):
        raise ValueError("initial perturbation must be nonzero and finite")
    xi = xi / nrm0

    log_sum = 0.0
    samples: list[float] = []
    warnings: list[str] = []
    imag_events: list[float] = []
    state = base_state
    j = 0
    final_j = int(math.ceil(settings.max_periods * period / h))
    k_period = 1
    next_sample_j = int(math.ceil(k_period * period / h))
    converged = False

    def emit_samples():
        """Emit every sample whose grid index the march has reached."""
        nonlocal k_period, next_sample_j, converged
        while (
            j >= next_sample_j
            and len(samples) < settings.max_periods
            and not converged
        ):
            samples.append(log_sum / (j * h))
            if len(samples) >= settings.sample_window:
                window = samples[-settings.sample_window:]
                if float(np.std(window)) < settings.std_tolerance:
                    converged = True
            k_period += 1
            next_sample_j = int(math.ceil(k_period * period / h))

    def march_free(n_steps: int):
        nonlocal j, xi, log_sum
        while n_steps > 0 and not converged and len(samples) < settings.max_periods:
            take = min(n_steps, next_sample_j - j)
            step = free_steps(take)
            xi = (step.real if real_query else step) @ xi
            nrm = float(np.linalg.norm(xi))
            log_sum += math.log(nrm)
            xi = xi / nrm
            j += take
            n_steps -= take
            emit_samples()

    while not converged and len(samples) < settings.max_periods:
        horizon = (final_j - j) * h
        tau_c = detect_next_impact(p, state, horizon, scan_step=h)
        if tau_c is None:
            march_free(final_j - j)
            break

        rel = tau_c - t0
        eps = 1e-9 * h
        cell = int(math.floor((rel + eps) / h))
        if abs(rel - cell * h) <= eps:
            w_start, w_end = cell - 1, cell + 1
        else:
            w_start, w_end = cell, cell + 1
        w_start = max(w_start, j)

        march_free(w_start - j)
        if converged or len(samples) >= settings.max_periods:
            break

        state = propagate_free(p, state, (t0 + w_start * h) - state.tau)
        window = (w_end - w_start) * h

        est = event_window_jacobian(p, state, window, settings.jacobi_delta)
        if not est.consistent:
            est = event_window_jacobian(p, state, window, settings.jacobi_delta / 10.0)
            if est.consistent:
                warnings.append(
                    f"event counts disagreed at tau_c={tau_c:.6f}; "
                    f"retry with delta/10 succeeded"
                )
            else:
                warnings.append(
                    f"event counts disagreed at tau_c={tau_c:.6f} even at reduced "
                    f"delta; estimate accepted (counts {est.event_counts})"
                )
        try:
            p_event, discarded = coupled_step_propagator(est.phi, coupling, query, window)
        except Exception as exc:
            raise type(exc)(
                f"{exc} (event window at tau_c={tau_c:.6f})"
            ) from exc
        if real_query:
            imag_events.append(discarded)

        xi = p_event @ xi
        nrm = float(np.linalg.norm(xi))
        log_sum += math.log(nrm)
        xi = xi / nrm

        # Advance along the window's central run, which the estimate carries.
        state = est.final
        for record in est.events:
            if record.grazing:
                warnings.append(
                    f"grazing impact at tau_c={record.tau_c:.6f} "
                    f"(|v_pre|={abs(record.v_pre):.2e})"
                )
        j = w_end
        emit_samples()

    return TLEResult(
        alpha=query.alpha,
        beta=query.beta,
        tle=samples[-1] if samples else 0.0,
        converged=converged,
        periods_used=len(samples),
        samples=samples,
        warnings=warnings,
        transient_periods=settings.transient_periods,
        imag_discard_free=discard_free if real_query else 0.0,
        imag_discard_events=imag_events,
    )


@dataclass
class SweepPoint:
    """One grid entry of a sweep: a result or a recorded failure."""

    alpha: float
    beta: float
    result: TLEResult | None = None
    error: str | None = None


def _run_grid(worker, tasks: list, jobs: int | None) -> list:
    """worker(task) for every task, in task order, serially or in a process pool.

    jobs=None uses one process per task, up to the CPU count; the order of
    the results never depends on the worker count.
    """
    if jobs is None:
        jobs = min(len(tasks), os.cpu_count() or 1)
    if jobs <= 1 or len(tasks) <= 1:
        return [worker(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, tasks))


def _sweep_worker(args) -> SweepPoint:
    p, coupling, query, settings, base_state = args
    try:
        result = compute_tle(p, coupling, query, settings, base_state=base_state)
        return SweepPoint(query.alpha, query.beta, result=result)
    except Exception as exc:
        return SweepPoint(query.alpha, query.beta, error=f"{type(exc).__name__}: {exc}")


def msf_sweep(
    p: ImpactOscillatorParams,
    coupling,
    alphas,
    betas,
    settings: TLESettings = TLESettings(),
    jobs: int | None = None,
    base_state: OscState | None = None,
) -> list[SweepPoint]:
    """Exponents over the (alpha, beta) grid, row-major in alpha then beta.

    The transient is settled once and shared by every point.  Failures are
    captured per point so one bad query cannot abort the grid, and the
    output order is the grid order regardless of worker count.
    """
    alphas = [float(a) for a in np.atleast_1d(alphas)]
    betas = [float(b) for b in np.atleast_1d(betas)]
    if base_state is None:
        base_state = settle_transient(p, settings)
    coupling = np.asarray(coupling, dtype=float)
    tasks = [
        (p, coupling, MSFQuery(a, b), settings, base_state) for a in alphas for b in betas
    ]
    return _run_grid(_sweep_worker, tasks, jobs)
