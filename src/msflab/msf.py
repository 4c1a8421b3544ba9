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

import cmath
import copy
import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .jacobian import PropagationError, event_window_jacobian
from .matfuncs import _entries, mat_log, scalar_exp_flow, scalar_log
from .oscillator import (
    _EPS,
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

    def __post_init__(self):
        for name in ("alpha", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")


def _check_settings(settings, counts, floats) -> None:
    """Reject a count that is no positive integer (numpy's ints count, bool does
    not) or a float setting that is not finite and positive, naming the field."""
    for name in counts:
        value = getattr(settings, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value <= 0:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")
    for name in floats:
        if not 0.0 < getattr(settings, name) < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {getattr(settings, name)!r}")


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
        _check_settings(
            self, ("transient_periods", "max_periods", "sample_window"),
            ("std_tolerance", "scan_step", "jacobi_delta"),
        )
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


def _check_coupling(coupling) -> np.ndarray:
    """coupling as a float array; ValueError unless it is a finite 2x2 matrix."""
    coupling = np.asarray(coupling, dtype=float)
    if coupling.shape != (2, 2) or not all(map(math.isfinite, coupling.ravel().tolist())):
        raise ValueError(f"coupling matrix must be 2x2 and finite, got {coupling!r}")
    return coupling


def _coupling_shift(coupling, query: MSFQuery, h: float) -> np.ndarray:
    """(alpha + i*beta)*coupling*h, what a step's coupled generator adds to log Phi;
    ValueError unless coupling is a finite 2x2 matrix and h finite and positive."""
    coupling = _check_coupling(coupling)
    if not 0.0 < h < math.inf:
        raise ValueError(f"h must be finite and positive, got {h!r}")
    return (query.alpha + 1j * query.beta) * coupling * h


def _flow(generator: list):
    """scalar_exp_flow of a coupled generator's row-major entries; ValueError unless finite."""
    if not all(map(cmath.isfinite, generator)):
        raise ValueError("matrix contains non-finite entries")
    return scalar_exp_flow(generator, True)


def _window_step(log_phi: list, shift: list, real_query: bool) -> tuple[tuple, float]:
    """coupled_step_propagator's result as a row-major tuple, from log Phi's and the
    shift's row-major entries, in scalars: for a real query the real parts and the
    Frobenius norm of the imaginary ones, their squares summed in row-major order."""
    step = _flow([z + dz for z, dz in zip(log_phi, shift)])(1.0)
    if not real_query:
        return step, 0.0
    a, b, c, d = (z.imag for z in step)
    return tuple(z.real for z in step), math.sqrt(a * a + b * b + c * c + d * d)


def coupled_step_propagator(
    phi_single, coupling, query: MSFQuery, h: float
) -> tuple[np.ndarray, float]:
    """Coupling-corrected step propagator and the discarded imaginary mass.

    Computes exp(log(phi_single) + (alpha + i*beta)*coupling*h).  For real
    queries (beta = 0) the exact result is real, so the imaginary part of
    the computed matrix is dropped and its Frobenius norm returned for
    auditing; for beta != 0 the complex matrix is returned unchanged with a
    reported magnitude of 0.  coupling must be 2x2 and h finite and positive.
    """
    shift = _coupling_shift(coupling, query, h).ravel().tolist()
    step, discarded = _window_step(scalar_log(*_entries(phi_single)), shift, query.beta == 0.0)
    return np.array(step).reshape(2, 2), discarded


def settle_transient(p: ImpactOscillatorParams, settings: TLESettings) -> OscState:
    """Run the oscillator from rest for the protocol transient."""
    state, _ = simulate(
        p,
        OscState(0.0, 0.0, 0.0),
        settings.transient_periods * p.forcing_period,
        scan_step=settings.scan_step,
    )
    return state


def _estimate(p, settings: TLESettings, base_state: OscState, state: OscState,
              tau_c: float, w_start: int, w_end: int):
    """The window of the impact at tau_c, from the central run's state where its
    scan started: ((log Phi, warnings), the central run's state at w_end)."""
    h, delta = settings.scan_step, settings.jacobi_delta
    state = propagate_free(p, state, (base_state.tau + w_start * h) - state.tau)
    window = (w_end - w_start) * h
    warnings = []
    est = event_window_jacobian(p, state, window, delta)
    if not est.consistent:
        est = event_window_jacobian(p, state, window, delta / 10.0)
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
        entries = est.phi.ravel().tolist()  # real, as event_window_jacobian builds it
        if not all(map(math.isfinite, entries)):
            raise ValueError("matrix contains non-finite entries")
        log_phi = scalar_log(entries, False)
    except Exception as exc:
        raise type(exc)(f"{exc} (event window at tau_c={tau_c:.6f})") from exc
    for event in est.events:
        if event.grazing:
            warnings.append(
                f"grazing impact at tau_c={event.tau_c:.6f} "
                f"(|v_pre|={abs(event.v_pre):.2e})"
            )
    # The march resumes along the window's central run, which the estimate carries.
    return (log_phi, tuple(warnings)), est.final


@functools.lru_cache(maxsize=1)
def _event_record(p, base_state: OscState, settings: TLESettings) -> tuple:
    """The part of compute_tle's march fixed by the base state alone.

    The impact times, the window placement, every event-window Jacobian
    with its warnings, and the logarithms of the window and free-step
    propagators depend on (p, base_state, settings), not on alpha + i*beta.
    Returns (log_free, final_j, entries), built in march order to the
    horizon final_j or to the first failure: entries[i] is (tau_c, w_start,
    w_end, (log Phi, warnings)) for impact i.  A kernel failure, in finding
    an impact or in estimating its window, is the last entry, a copy of the
    exception at the grid index w_start where the march meets it, and each
    query that gets there raises a fresh copy.  The process keeps the
    record of the base state it last ran on; code that patches a kernel
    clears it with _event_record.cache_clear().
    """
    h = settings.scan_step
    log_free = mat_log(segment_propagator(p, h))
    log_free.flags.writeable = False  # every query of the base state shares it
    final_j = int(math.ceil(settings.max_periods * p.forcing_period / h))
    state, j, entries = base_state, 0, []  # the central run at grid index j
    while True:
        tau_c, w_start, w_end = None, j, j  # where a failed impact search stops the march
        try:
            tau_c = detect_next_impact(p, state, (final_j - j) * h, scan_step=h)
            if tau_c is None:
                break
            rel, eps = tau_c - base_state.tau, 1e-9 * h
            cell = int(math.floor((rel + eps) / h))
            on_grid = abs(rel - cell * h) <= eps  # then the window spans both cells around tau_c
            w_start, w_end = max(cell - 1 if on_grid else cell, j), cell + 1
            window, state = _estimate(p, settings, base_state, state, tau_c, w_start, w_end)
        except Exception as exc:
            entries.append((tau_c, w_start, w_end, copy.copy(exc)))  # no traceback or cause
            break
        entries.append((tau_c, w_start, w_end, window))
        j = w_end
    return log_free, final_j, tuple(entries)


def _norm(x0, x1) -> float:
    """|(x0, x1)|, its square summed as (re*re) + (im*im), as np.linalg.norm sums it."""
    return math.sqrt((x0.real * x0.real + x1.real * x1.real) + (x0.imag * x0.imag + x1.imag * x1.imag))


# Free-step powers a query keeps; wall-free runs alternate between two.
_FREE_POWERS = 8
# Largest log growth of one free-step power: e^300 keeps the squared norm
# the renormalization forms far inside the float range.
_FREE_GROWTH = 300.0


def _std_screen(samples: list[float], n: int, tol: float):
    """Whether np.std(samples[-n:]) may be below tol, in O(1) per sample.

    A generator over the caller's list: resume it with next() after each
    sample appended.  It keeps the sum and the sum of squares of the
    window's samples about a shift c taken from the window, updated as
    samples enter and leave, and recomputed with math.fsum every n samples
    and whenever a sum is not finite, as a non-finite sample makes it
    (Welford, Technometrics 4, 1962; Chan, Golub and LeVeque, Amer.
    Statist. 37, 1983).  a1 and a2 add up the magnitudes each update
    rounds, so that the exact sums lie within 4*eps*a1 and 8*eps*a2 of the
    kept ones.  It yields "may pass" unless a lower bound on the window's
    exact variance clears tol**2 with room for np.std's own rounding (a
    relative 1e-9, far above its ulps times log2(n)) and underflow
    (1e-300), and False while the window is not full; it only decides when
    np.std need not run.
    """
    limit = tol * tol * (1.0 + 1e-9) + 1e-300
    due = 1  # sample count at which the sums are next recomputed (and first set)
    while True:
        count = len(samples)
        if count >= due or not (math.isfinite(s1) and math.isfinite(s2)):
            c = samples[-1]
            dev = [x - c for x in samples[-n:]]
            try:
                s1, s2 = math.fsum(dev), math.fsum([e * e for e in dev])
            except (OverflowError, ValueError):  # an overflow, or inf - inf
                s1 = s2 = math.nan
            a1, a2 = sum(map(abs, dev)), s2
            due = count + n
        else:
            d = samples[-1] - c  # the newest sample enters
            s1, s2 = s1 + d, s2 + d * d
            a1, a2 = a1 + (abs(d) + abs(s1)), a2 + (d * d + abs(s2))
            if count > n:  # and the oldest leaves
                d = samples[-n - 1] - c
                s1, s2 = s1 - d, s2 - d * d
                a1, a2 = a1 + (abs(d) + abs(s1)), a2 + (d * d + abs(s2))
        if count < n:
            yield False
            continue
        p = (s2 - 8.0 * _EPS * a2) / n
        m = (abs(s1) + 4.0 * _EPS * a1) / n
        q = m * m
        # Not "<=": a nan bound (a non-finite sample) may pass too.
        yield not p - q - 8.0 * _EPS * (abs(p) + q) > limit


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

    Queries on one (p, base_state, settings) share one trajectory record:
    the process keeps the record of the base state it last ran on, so
    consecutive queries on the same base state simulate the trajectory and
    estimate each window Jacobian once, to the horizon of max_periods or to
    the first failure, whatever the queries.
    """
    h = settings.scan_step
    # Row-major coupling shifts of one and two cells (free steps, event windows).
    shifts = {w: _coupling_shift(coupling, query, w * h).ravel().tolist() for w in (1, 2)}
    if base_state is None:
        base_state = settle_transient(p, settings)
    log_free, final_j, entries = _event_record(p, base_state, settings)

    period = p.forcing_period
    real_query = query.beta == 0.0

    # k impact-free steps with per-step renormalization leave the same unit
    # direction and log growth as exp(k*G) applied once, G the free step's
    # coupled generator, while k*rate stays below _FREE_GROWTH.
    log_free = log_free.ravel().tolist()
    generator = [z + dz for z, dz in zip(log_free, shifts[1])]
    a, b, c, d = generator  # rate: the largest |Re| of G's eigenvalues mu +- s
    rate = abs(0.5 * (a + d).real) + abs(cmath.sqrt(0.25 * (a - d) ** 2 + b * c).real)
    if rate > _FREE_GROWTH:
        raise PropagationError(f"one free step grows by e^{rate:.6g}, past e^{_FREE_GROWTH:g}, "
                               f"at alpha={query.alpha!r}, beta={query.beta!r}")
    max_take = int(_FREE_GROWTH / max(rate, 1e-300))  # finite at rate = 0 too
    free_steps = _flow(generator)
    discard_free = _window_step(log_free, shifts[1], True)[1] if real_query else 0.0

    xi = np.asarray((1.0, 0.0) if initial_perturbation is None else initial_perturbation,
                    dtype=complex)
    if xi.shape != (2,):
        raise ValueError("initial_perturbation must be a 2-vector")
    real = real_query and not xi.imag.any()  # then xi is marched as two floats
    x0, x1 = (xi.real if real else xi).tolist()
    nrm0 = _norm(x0, x1)
    if nrm0 == 0.0 or not math.isfinite(nrm0):
        raise ValueError("initial perturbation must be nonzero and finite")
    x0, x1 = x0 / nrm0, x1 / nrm0

    n, tol, cap = settings.sample_window, settings.std_tolerance, settings.max_periods
    log_sum, samples, warnings, imag_events = 0.0, [], [], []
    screen = _std_screen(samples, n, tol)
    powers: dict[int, tuple] = {}  # take -> free_steps(take), as applied
    j, converged = 0, False  # the march's grid index
    # entries[i] is the next window, starting at w_start; past the last one
    # the march runs free to the horizon.
    i, w_start = 0, entries[0][1] if entries else final_j
    k = 1  # the period of the next sample, at grid index next_sample_j
    next_sample_j = math.ceil(k * period / h)
    while not converged and k <= cap:
        # One step: free steps up to the next window, sample or growth bound,
        # or the event window at w_start (or its failure, raised here).
        if j < w_start:
            take = min(w_start - j, next_sample_j - j, max_take)
            step = powers.get(take)
            if step is None:
                if len(powers) == _FREE_POWERS:
                    powers.clear()
                step = free_steps(take)
                step = powers[take] = tuple(z.real for z in step) if real_query else step
            j += take
        else:
            tau_c, _, w_end, window = entries[i]
            if isinstance(window, Exception):
                raise copy.copy(window)
            log_phi, notes = window
            try:
                step, discarded = _window_step(log_phi, shifts[w_end - w_start], real_query)
            except Exception as exc:
                raise type(exc)(f"{exc} (event window at tau_c={tau_c:.6f})") from exc
            if real_query:
                imag_events.append(discarded)
            warnings.extend(notes)
            j, i = w_end, i + 1
            w_start = entries[i][1] if i < len(entries) else final_j
        # xi <- step xi renormalized, in scalars; log growth into log_sum (see _norm).
        a, b, c, d = step
        x0, x1 = a * x0 + b * x1, c * x0 + d * x1
        nrm = math.sqrt(x0 * x0 + x1 * x1) if real else _norm(x0, x1)
        log_sum += math.log(nrm)
        x0, x1 = x0 / nrm, x1 / nrm
        # Every sample whose grid index the march has reached.
        while j >= next_sample_j and k <= cap and not converged:
            samples.append(log_sum / (j * h))
            converged = next(screen) and float(np.std(samples[-n:])) < tol
            k += 1
            next_sample_j = math.ceil(k * period / h)

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


def _capture(task) -> tuple:
    """(fn(*args), None) for a task (fn, args), or (None, "Type: message") if it raises."""
    fn, args = task
    try:
        return fn(*args), None
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _check_jobs(jobs: int | None) -> None:
    """ValueError for jobs < 1, which a grid command checks before it settles the transient."""
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs!r}")


def _run_grid(tasks: list, jobs: int | None) -> list:
    """_capture(task) for every task (fn, args), in task order, serially or in a process pool.

    No more workers start than there are tasks, and jobs=None uses one per
    task, up to the CPU count; the order of the results never depends on the
    worker count.  jobs is None or at least 1 (see _check_jobs).
    """
    jobs = min(len(tasks), jobs or os.cpu_count() or 1)
    if jobs <= 1:
        return [_capture(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_capture, tasks))


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

    The transient is settled once and shared by every point, and so is the
    trajectory record compute_tle keeps per base state: the impacts and
    window Jacobians are computed once per worker process.  jobs is the
    number of worker processes, at least 1; None uses one per point, up to
    the CPU count.  Failures are captured per point so one bad query cannot
    abort the grid, and the output order is the grid order regardless of
    worker count.
    """
    _check_jobs(jobs)
    alphas = [float(a) for a in np.atleast_1d(alphas)]
    betas = [float(b) for b in np.atleast_1d(betas)]
    coupling = _check_coupling(coupling)
    if base_state is None:
        base_state = settle_transient(p, settings)
    queries = [MSFQuery(a, b) for a in alphas for b in betas]
    tasks = [(compute_tle, (p, coupling, q, settings, base_state)) for q in queries]
    outcomes = zip(queries, _run_grid(tasks, jobs))
    return [SweepPoint(q.alpha, q.beta, result, error) for q, (result, error) in outcomes]
