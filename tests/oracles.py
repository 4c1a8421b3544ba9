"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the package's own numerics: matrix
exponentials come from a Taylor series or scipy, exponents from classical
constructions (saltation composition, two-trajectory divergence), so that
agreement with the package is evidence rather than tautology.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from msflab.jacobian import GrazingSingularityError, InvalidWindowError, estimate_jacobian
from msflab.matfuncs import mat_exp
from msflab.network import _ModeSegments
from msflab.oscillator import (
    BISECTION_TOL,
    DEFAULT_SCAN_STEP,
    GRAZING_TOL,
    WALL_POSITION_TOL,
    EventRecord,
    ImpactOscillatorParams,
    OscState,
    _ChatterGuard,
    bisect_crossing,
    segment_states,
    simulate,
)


def rk4_integrate(f, t0: float, x0: np.ndarray, t1: float, n_steps: int) -> np.ndarray:
    """Classical fixed-step RK4 for dx/dt = f(t, x)."""
    h = (t1 - t0) / n_steps
    t, x = t0, np.array(x0, dtype=float)
    for _ in range(n_steps):
        k1 = f(t, x)
        k2 = f(t + 0.5 * h, x + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, x + 0.5 * h * k2)
        k4 = f(t + h, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return x


def grid_scan_impact(
    p: ImpactOscillatorParams,
    s: OscState,
    horizon: float,
    scan_step: float = DEFAULT_SCAN_STEP,
) -> float | None:
    """Impact location by direct evaluation: the reference for the fast scan.

    Unlike the rest of this module it uses the package's segment_states on
    purpose: it evaluates it on the whole scan grid from s (the last sample
    clamped to the horizon), takes the first sign change of x - x_w, and
    bisects it with segment_states at every midpoint.  detect_next_impact
    must return the same time bit for bit.
    """
    if not p.wall_enabled or horizon <= 0.0:
        return None
    dts = np.arange(1, int(math.ceil(horizon / scan_step)) + 1, dtype=float) * scan_step
    dts[-1] = min(dts[-1], horizon)
    gs = segment_states(p, s.x, s.v, s.tau, dts)[0] - p.x_w
    prev = np.concatenate(([s.x - p.x_w], gs[:-1]))
    hits = np.nonzero((gs > 0.0) & (prev <= 0.0))[0]
    if not hits.size:
        return None
    i = int(hits[0])
    lo, hi = (float(dts[i - 1]) if i > 0 else 0.0), float(dts[i])
    for _ in range(200):
        if hi - lo < BISECTION_TOL:
            break
        mid = 0.5 * (lo + hi)
        if segment_states(p, s.x, s.v, s.tau, mid)[0] - p.x_w > 0.0:
            hi = mid
        else:
            lo = mid
    return s.tau + 0.5 * (lo + hi)


def loop_simulate(
    p: ImpactOscillatorParams, s0: OscState, duration: float, scan_step: float = DEFAULT_SCAN_STEP
) -> tuple[OscState, list]:
    """simulate()'s event loop over reference kernels: the reference for its segment core.

    The loop simulate ran before its segments shared one scalar core, step
    for step: detect the next impact (here grid_scan_impact), propagate to
    it (segment_states, keeping the state over a zero step, as
    propagate_free did), land on the wall, reverse and scale the velocity
    (v -> -R*v) and push the chatter guard; the last segment propagates to
    the end.
    """
    def propagate(s, dt):
        if dt == 0.0:
            return s
        x, v = segment_states(p, s.x, s.v, s.tau, dt)
        return OscState(float(x), float(v), s.tau + dt)

    t_end = s0.tau + duration
    state, events, guard = s0, [], _ChatterGuard(p)
    while True:
        remaining = t_end - state.tau
        if remaining <= 0.0:
            break
        tau_c = grid_scan_impact(p, state, remaining, scan_step)
        if tau_c is None:
            state = propagate(state, remaining)
            break
        v_pre = propagate(state, tau_c - state.tau).v
        events.append(EventRecord(tau_c, v_pre, -p.R * v_pre, abs(v_pre) < GRAZING_TOL))
        state = OscState(p.x_w, -p.R * v_pre, tau_c)
        guard.push(tau_c)
    return state, events


def loop_event_window(p: ImpactOscillatorParams, s_pre: OscState, window: float, delta: float):
    """event_window_jacobian's (phi, final, events, event_counts, consistent) over loop_simulate.

    estimate_jacobian on loop_simulate's flow from s_pre, with the central
    run's impact count and the singular-value test checked as
    event_window_jacobian checks them: InvalidWindowError and
    GrazingSingularityError carry its messages.
    """
    inner = window / 16.0
    final, events = loop_simulate(p, s_pre, window, inner)
    if len(events) != 1:
        raise InvalidWindowError(
            f"window starting at tau={s_pre.tau:.6f} (width {window:.3g}) contains "
            f"{len(events)} impacts of the central trajectory; exactly one required"
        )

    def flow(z, t):
        end, run_events = loop_simulate(p, OscState(float(z[0]), float(z[1]), s_pre.tau), t, inner)
        return np.array([end.x, end.v]), len(run_events)

    est = estimate_jacobian(flow, np.array([s_pre.x, s_pre.v]), window, delta)
    sv = np.linalg.svd(est.phi, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] < 1e-12 * sv[0]:
        raise GrazingSingularityError(
            f"window propagator at tau={s_pre.tau:.6f} is numerically singular "
            f"(singular values {sv[-1]:.3e}/{sv[0]:.3e}); the impact is too close "
            f"to grazing for a logarithm to exist"
        )
    return est.phi, final, events, est.event_counts, est.consistent


class LoopObserver:
    """Sample-by-sample synchronization check: the reference for network._SyncObserver.

    The probe's original per-sample loop, kept verbatim: the observer must
    reach the same stop, sync time, maxima and last consumed sample bit for
    bit when fed the same samples in any chunking.
    """

    def __init__(self, tau0, diff0, period, threshold, record_from):
        self.period = period
        self.threshold = threshold
        self.record_from = record_from
        self.below_start = None
        self.sync_time = None
        self.maxima = []
        self.prev_prev_diff = None
        self.prev_diff = diff0
        self.prev_diff_tau = tau0

    def observe(self, taus, xs, vs) -> bool:
        dev = np.sqrt((xs[1:] - xs[0]) ** 2 + (vs[1:] - vs[0]) ** 2).max(axis=0)
        diffs = np.abs(xs[0] - xs[1])
        for i in range(taus.size):
            tau = float(taus[i])
            if dev[i] < self.threshold:
                if self.below_start is None:
                    self.below_start = tau
                elif tau - self.below_start >= self.period:
                    self.sync_time = self.below_start
                    return True
            else:
                self.below_start = None
            d = float(diffs[i])
            if (
                self.prev_prev_diff is not None
                and self.prev_prev_diff < self.prev_diff
                and self.prev_diff > d
                and self.prev_diff_tau >= self.record_from
            ):
                self.maxima.append(self.prev_diff)
            self.prev_prev_diff = self.prev_diff
            self.prev_diff = d
            self.prev_diff_tau = tau
        return False


def _complex_rate(a: np.ndarray) -> complex:
    """s with A*A = s^2*I for a traceless 2x2 A, as a principal complex root."""
    return complex(np.sqrt(complex(a[0, 0] * a[0, 0] + a[0, 1] * a[1, 0])))


def complex_mode_eval(segs, modes0: np.ndarray, tau_a: float, dts: np.ndarray):
    """_ModeSegments.eval through complex cosh(s dt) and sinh(s dt)/s.

    The probe's original formula, kept as the reference for the real-arithmetic
    mode flows.
    """
    dts = np.asarray(dts, dtype=float)
    mode_states = np.empty((segs.n, 2, dts.size))
    for k in range(segs.n):
        u = modes0[k]
        a = segs.traceless[k]
        s = _complex_rate(a)
        z = s * dts
        ch = np.cosh(z)
        shc = dts.astype(complex) if s == 0.0 else np.sinh(z) / s
        au = a @ u
        env = np.exp(segs.half_traces[k] * dts)
        mode_states[k, 0] = env * np.real(ch * u[0] + shc * au[0])
        mode_states[k, 1] = env * np.real(ch * u[1] + shc * au[1])
    node_states = np.einsum("ik,kcm->icm", segs.q, mode_states)
    xp, vp = segs.steady(tau_a + dts)
    return node_states[:, 0, :] + xp, node_states[:, 1, :] + vp


def complex_position_of(segs, modes0: np.ndarray, tau_a: float, node: int, dt: float) -> float:
    """One node's position through the complex scalar flow (the original form).

    The reference for _ModeSegments.wall_distance, which returns this minus x_w.
    """
    x = 0.0
    for k in range(segs.n):
        u = modes0[k]
        a = segs.traceless[k]
        s = _complex_rate(a)
        z = s * dt
        ch = np.cosh(z)
        shc = complex(dt) if s == 0.0 else np.sinh(z) / s
        au0 = a[0, 0] * u[0] + a[0, 1] * u[1]
        x += segs.q[node, k] * math.exp(segs.half_traces[k] * dt) * (ch * u[0] + shc * au0).real
    ph = segs.p.eta * (tau_a + dt)
    return x + segs._ap * math.cos(ph) + segs._bp * math.sin(ph)


def _fixed_chunk_flow(s2: float, dt, lib):
    """cosh(s dt) and sinh(s dt)/s for one mode, computed on every call."""
    r = math.sqrt(abs(s2))
    if s2 < 0.0:
        return lib.cos(r * dt), lib.sin(r * dt) * (1.0 / r)
    if s2 > 0.0:
        return lib.cosh(r * dt), lib.sinh(r * dt) * (1.0 / r)
    return 1.0, dt


def _fixed_chunk_eval(segs, modes0, tau_a: float, dts: np.ndarray):
    """Node positions and velocities with every mode's flow computed on its own."""
    mode_states = np.empty((segs.n, 2, dts.size))
    for k in range(segs.n):
        u = modes0[k]
        ch, shc = _fixed_chunk_flow(segs.s_squares[k], dts, np)
        env = np.exp(segs.half_traces[k] * dts)
        mode_states[k] = env * (ch * u[:, None] + shc * (segs.traceless[k] @ u)[:, None])
    node_states = np.einsum("ik,kcm->icm", segs.q, mode_states)
    xp, vp = segs.steady(tau_a + dts)
    return node_states[:, 0, :] + xp, node_states[:, 1, :] + vp


def _fixed_chunk_position(segs, modes0, tau_a: float, node: int, dt: float) -> float:
    """Scalar position of one node, each mode's constants recomputed per call."""
    x = 0.0
    for k in range(segs.n):
        u = modes0[k]
        a = segs.traceless[k]
        ch, shc = _fixed_chunk_flow(segs.s_squares[k], dt, math)
        au0 = a[0, 0] * u[0] + a[0, 1] * u[1]
        x += segs.q[node, k] * math.exp(segs.half_traces[k] * dt) * (ch * u[0] + shc * au0)
    ph = segs.p.eta * (tau_a + dt)
    return x + segs._ap * math.cos(ph) + segs._bp * math.sin(ph)


def fixed_chunk_probe(p, graph, coupling, sigma: float, x0, tau0: float, settings):
    """The coupled probe evaluating whole 4096-sample chunks: the reference for
    network._simulate_coupled.

    Every chunk starts at an anchor (the start, each impact, each chunk
    end) and is evaluated in full; samples past the chunk's first wall
    crossing are discarded.  Uses _ModeSegments only for its mode basis,
    generators and steady state, and LoopObserver for the sync check.
    Returns (impact_times, local_maxima, sync_time, periods_run), which
    _simulate_coupled must reproduce bit for bit.
    """
    chunk = 4096
    segs = _ModeSegments(p, graph, coupling, sigma)
    n, period, h = graph.n_nodes, p.forcing_period, settings.scan_step
    total = int(math.ceil(settings.max_periods * period / h))
    state = np.asarray(x0, dtype=float).copy()
    anchor_tau = tau0
    modes = segs.to_modes(state, anchor_tau)
    record_from = tau0 + (settings.max_periods - settings.record_window) * period
    obs = LoopObserver(tau0, abs(state[0] - state[2]), period, settings.sync_threshold, record_from)
    impact_times = []

    k_next = 1
    while k_next <= total:
        k_stop = min(k_next + chunk - 1, total)
        taus = tau0 + np.arange(k_next, k_stop + 1, dtype=float) * h
        dts = taus - anchor_tau
        xs, vs = _fixed_chunk_eval(segs, modes, anchor_tau, dts)
        g = xs - p.x_w
        g_prev = np.concatenate([(state.reshape(n, 2)[:, :1] - p.x_w), g[:, :-1]], axis=1)
        crossings = (g > 0.0) & (g_prev <= 0.0)
        hit_cols = np.nonzero(crossings.any(axis=0))[0]
        ci = int(hit_cols[0]) if hit_cols.size else taus.size
        if ci > 0 and obs.observe(taus[:ci], xs[:, :ci], vs[:, :ci]):
            break
        if not hit_cols.size:
            state = np.column_stack([xs[:, -1], vs[:, -1]]).reshape(-1)
            anchor_tau, k_next = float(taus[-1]), k_stop + 1
            modes = segs.to_modes(state, anchor_tau)
            continue
        lo_dt = float(dts[ci - 1]) if ci > 0 else 0.0
        tau_c_dt = min(
            bisect_crossing(
                lambda dt, node=node: _fixed_chunk_position(segs, modes, anchor_tau, node, dt)
                - p.x_w,
                lo_dt,
                float(dts[ci]),
            )
            for node in np.nonzero(crossings[:, ci])[0].tolist()
        )
        x_c, v_c = _fixed_chunk_eval(segs, modes, anchor_tau, np.array([tau_c_dt]))
        full = np.column_stack([x_c[:, 0], v_c[:, 0]]).reshape(-1)
        tau_c = anchor_tau + tau_c_dt
        for node in range(n):
            if abs(full[2 * node] - p.x_w) <= WALL_POSITION_TOL and full[2 * node + 1] > 0.0:
                full[2 * node] = p.x_w
                full[2 * node + 1] = -p.R * full[2 * node + 1]
                impact_times.append(tau_c)
        state, anchor_tau, k_next = full, tau_c, k_next + ci
        modes = segs.to_modes(state, anchor_tau)

    synchronized = obs.sync_time is not None
    periods_run = min(int(math.floor((obs.prev_diff_tau - tau0) / period)), settings.max_periods)
    maxima = [0.0] if synchronized else obs.maxima
    return impact_times, maxima, obs.sync_time, periods_run


def oscillator_rhs(p: ImpactOscillatorParams):
    """Right-hand side of the free (no wall) oscillator ODE."""

    def f(t, x):
        return np.array(
            [x[1], -2.0 * p.zeta * x[1] - x[0] + p.f * math.cos(p.eta * t)]
        )

    return f


def taylor_expm(a: np.ndarray, terms: int = 40) -> np.ndarray:
    """Matrix exponential by scaling, Taylor summation, and squaring."""
    a = np.asarray(a, dtype=complex)
    norm = np.linalg.norm(a, ord=np.inf)
    squarings = max(0, int(math.ceil(math.log2(max(norm, 1e-300)))) + 1)
    b = a / (2.0**squarings)
    result = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ b / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def literal_steps(mat: np.ndarray, xi: np.ndarray, k: int) -> tuple[np.ndarray, float]:
    """Apply mat k times with per-step renormalization: (unit vector, log growth)."""
    growth = 0.0
    for _ in range(k):
        xi = mat @ xi
        nrm = float(np.linalg.norm(xi))
        growth += math.log(nrm)
        xi = xi / nrm
    return xi, growth


def literal_power(mat: np.ndarray, k: int) -> np.ndarray:
    """mat multiplied into the identity k times, one product at a time."""
    out = np.eye(2, dtype=mat.dtype)
    for _ in range(k):
        out = mat @ out
    return out


def literal_march_samples(
    step: np.ndarray, xi: np.ndarray, h: float, period: float, n_periods: int
) -> np.ndarray:
    """Running exponent log_growth/elapsed once per period, one step at a time.

    The impact-free march of compute_tle: the sample of period k is taken
    at the first grid index j >= k*period/h.
    """
    xi = np.asarray(xi, dtype=complex) / np.linalg.norm(xi)
    log_sum, j, samples = 0.0, 0, []
    for k in range(1, n_periods + 1):
        target = int(math.ceil(k * period / h))
        xi, growth = literal_steps(step, xi, target - j)
        log_sum += growth
        j = target
        samples.append(log_sum / (j * h))
    return np.array(samples)


def smooth_tle_oracle(zeta: float, alpha: float) -> float:
    """max Re eig(J + alpha*H) from the characteristic polynomial.

    The quadratic is s^2 + 2*zeta*s + (1 - alpha) = 0.
    """
    disc = zeta * zeta - 1.0 + alpha
    if disc >= 0.0:
        return -zeta + math.sqrt(disc)
    return -zeta


def variational_matrix(zeta: float, alpha: float) -> np.ndarray:
    return np.array([[0.0, 1.0], [-(1.0 - alpha), -2.0 * zeta]])


def _accel(p: ImpactOscillatorParams, x: float, v: float, tau: float) -> float:
    return -2.0 * p.zeta * v - x + p.f * math.cos(p.eta * tau)


def saltation_matrix(p: ImpactOscillatorParams, tau_c: float, v_pre: float) -> np.ndarray:
    """Classical impact saltation matrix, built from its defining formula.

    S = R_x + (f_plus - R_x f_minus) n^T / (n^T f_minus) with reset
    Jacobian R_x = diag(1, -R) and wall normal n = (1, 0).
    """
    r_x = np.diag([1.0, -p.R])
    n = np.array([1.0, 0.0])
    v_post = -p.R * v_pre
    f_minus = np.array([v_pre, _accel(p, p.x_w, v_pre, tau_c)])
    f_plus = np.array([v_post, _accel(p, p.x_w, v_post, tau_c)])
    return r_x + np.outer(f_plus - r_x @ f_minus, n) / (n @ f_minus)


def saltation_tle_oracle(
    p: ImpactOscillatorParams,
    alpha: float,
    base_state: OscState,
    horizon_periods: int = 2000,
    seed: int = 2024,
) -> float:
    """Exponent from analytic segment propagators and saltation matrices.

    The base orbit comes from the event-driven simulator; the variational
    composition (exact exp((J + alpha*H) dt) between impacts, S at each
    impact, per-period renormalization) is classical and shares no code
    with the package's log/exp construction.
    """
    from scipy.linalg import expm

    period = p.forcing_period
    a_mat = variational_matrix(p.zeta, alpha)
    _, events = simulate(p, base_state, horizon_periods * period)
    rng = np.random.default_rng(seed)
    xi = rng.normal(size=2)
    xi /= np.linalg.norm(xi)
    log_sum = 0.0
    t_cursor = base_state.tau
    events = list(events)
    e_idx = 0
    for k in range(1, horizon_periods + 1):
        t_stop = base_state.tau + k * period
        while e_idx < len(events) and events[e_idx].tau_c <= t_stop:
            ev = events[e_idx]
            xi = expm(a_mat * (ev.tau_c - t_cursor)) @ xi
            xi = saltation_matrix(p, ev.tau_c, ev.v_pre) @ xi
            t_cursor = ev.tau_c
            e_idx += 1
        xi = expm(a_mat * (t_stop - t_cursor)) @ xi
        t_cursor = t_stop
        norm = np.linalg.norm(xi)
        log_sum += math.log(norm)
        xi /= norm
    return log_sum / (horizon_periods * period)


def divergence_lle_oracle(
    p: ImpactOscillatorParams,
    base_state: OscState,
    horizon_periods: int = 2000,
    shadow_magnitude: float = 1e-8,
    seed: int = 4242,
) -> float:
    """Largest exponent from two diverging nonlinear trajectories.

    A shadow copy offset by shadow_magnitude follows the full event-driven
    flow; once per forcing period the separation is logged and rescaled
    back onto the base trajectory along the current offset direction.
    """
    period = p.forcing_period
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=2)
    direction /= np.linalg.norm(direction)
    if p.wall_enabled and base_state.x + shadow_magnitude * direction[0] > p.x_w:
        direction = -direction
    base = base_state
    shadow = OscState(
        base.x + shadow_magnitude * direction[0],
        base.v + shadow_magnitude * direction[1],
        base.tau,
    )
    log_sum = 0.0
    for _ in range(horizon_periods):
        base, _ = simulate(p, base, period)
        shadow, _ = simulate(p, shadow, period)
        offset = np.array([shadow.x - base.x, shadow.v - base.v])
        separation = np.linalg.norm(offset)
        log_sum += math.log(separation / shadow_magnitude)
        direction = offset / separation
        if p.wall_enabled and base.x + shadow_magnitude * direction[0] > p.x_w:
            direction = -direction
        shadow = OscState(
            base.x + shadow_magnitude * direction[0],
            base.v + shadow_magnitude * direction[1],
            base.tau,
        )
    return log_sum / (horizon_periods * period)


def _record_steps(p: ImpactOscillatorParams, settings, base_state: OscState, window):
    """compute_tle's march, as it ran before queries shared a record, as stretches.

    Impacts and window placement follow msflab.msf's kernels, looked up at
    call time and run in march order.  Yields (n, tau_c, start, est) per
    stretch of n grid steps: free steps, split at sample times, have only
    n; an event window has the detected impact time, its start state and
    est = window(start, tau_c, width), the estimate along whose central run
    the march goes on.  Lazy: a consumer that stops early computes no later
    window.
    """
    from msflab import msf

    h, period, t0 = settings.scan_step, p.forcing_period, base_state.tau
    state, j, sampled = base_state, 0, 0  # sampled: sample times at or before j
    final_j = int(math.ceil(settings.max_periods * period / h))

    def free(n: int):
        nonlocal j, sampled
        while n > 0:
            while int(math.ceil((sampled + 1) * period / h)) <= j:
                sampled += 1
            take = min(n, int(math.ceil((sampled + 1) * period / h)) - j)
            yield take, None, None, None
            j, n = j + take, n - take

    while j < final_j:
        tau_c = msf.detect_next_impact(p, state, (final_j - j) * h, scan_step=h)
        if tau_c is None:
            yield from free(final_j - j)
            return
        cell = int(math.floor((tau_c - t0 + 1e-9 * h) / h))
        on_grid = abs(tau_c - t0 - cell * h) <= 1e-9 * h
        w_start, w_end = max(cell - 1 if on_grid else cell, j), cell + 1
        yield from free(w_start - j)
        state = msf.propagate_free(p, state, (t0 + w_start * h) - state.tau)
        est = window(state, tau_c, (w_end - w_start) * h)
        yield w_end - j, tau_c, state, est
        state, j = est.final, w_end


def _march_samples(steps, settings, period: float, to_step):
    """The running-average samples of compute_tle's march over steps.

    to_step(n, tau_c, start, est) is the propagator of one _record_steps stretch.
    Returns the samples and the convergence flag.
    """
    h = settings.scan_step
    xi = np.array([1.0, 0.0], dtype=complex)
    log_sum, samples, j, converged = 0.0, [], 0, False
    for n, *stretch in steps:
        # Apply the step, renormalize, advance j by n and take every sample due.
        xi = to_step(n, *stretch) @ xi
        nrm = float(np.linalg.norm(xi))
        log_sum += math.log(nrm)
        xi = xi / nrm
        j += n
        while j >= int(math.ceil((len(samples) + 1) * period / h)):
            samples.append(log_sum / (j * h))
            tail = samples[-settings.sample_window:]
            converged = len(tail) == settings.sample_window and float(np.std(tail)) < settings.std_tolerance
            if converged or len(samples) == settings.max_periods:
                return samples, converged
    return samples, converged


def direct_tle(p: ImpactOscillatorParams, coupling, query, settings, base_state: OscState):
    """compute_tle's march with every impact and window computed in place.

    The reference for the event record: _record_steps for this query alone,
    with compute_tle's free-step propagators and each event-window step
    built here in numpy, exp(log Phi + (alpha + i*beta)*H*dt) through
    mat_exp with np.real and np.linalg.norm of np.imag, where compute_tle
    works in scalars.  Returns the TLEResult or raises what the kernels
    raise at the point the march reaches them.
    """
    from msflab import msf

    coupling = np.asarray(coupling, dtype=float)
    h = settings.scan_step
    real_query = query.beta == 0.0
    free_steps = msf.exp_flow(
        msf.mat_log(msf.segment_propagator(p, h))
        + (query.alpha + 1j * query.beta) * coupling * h
    )
    warnings, imag_events = [], []

    def window(state, tau_c, width):
        est = msf.event_window_jacobian(p, state, width, settings.jacobi_delta)
        if not est.consistent:
            est = msf.event_window_jacobian(p, state, width, settings.jacobi_delta / 10.0)
            warnings.append(
                f"event counts disagreed at tau_c={tau_c:.6f}; retry with delta/10 succeeded"
                if est.consistent else
                f"event counts disagreed at tau_c={tau_c:.6f} even at reduced "
                f"delta; estimate accepted (counts {est.event_counts})"
            )
        return est

    def to_step(n, tau_c, start, est):
        if est is None:
            step = free_steps(n)
            return step.real if real_query else step
        try:
            shift = (query.alpha + 1j * query.beta) * coupling * (n * h)
            p_event = mat_exp(msf.mat_log(est.phi) + shift)
        except Exception as exc:
            raise type(exc)(f"{exc} (event window at tau_c={tau_c:.6f})") from exc
        if real_query:
            imag_events.append(float(np.linalg.norm(np.imag(p_event))))
            p_event = np.real(p_event).copy()
        warnings.extend(
            f"grazing impact at tau_c={e.tau_c:.6f} (|v_pre|={abs(e.v_pre):.2e})"
            for e in est.events if e.grazing
        )
        return p_event

    samples, converged = _march_samples(
        _record_steps(p, settings, base_state, window), settings, p.forcing_period, to_step
    )
    return msf.TLEResult(
        alpha=query.alpha, beta=query.beta, tle=samples[-1] if samples else 0.0,
        converged=converged, periods_used=len(samples), samples=samples,
        warnings=warnings, transient_periods=settings.transient_periods,
        imag_discard_free=float(np.linalg.norm(np.imag(free_steps(1.0)))) if real_query else 0.0,
        imag_discard_events=imag_events,
    )


def record_saltation_tles(p: ImpactOscillatorParams, alphas, settings,
                          base_state: OscState) -> list[float]:
    """The exponents compute_tle samples last, from saltation matrices on its own trajectory.

    compute_tle's march (_record_steps, shared by all alphas) with classical
    propagators: exp((J + alpha*H)*dt) from scipy between impacts and the
    saltation matrix at each impact of every window's central run, in
    place of the window's finite-difference Jacobian and its matrix-log
    coupling.  So the impacts and the sample times are compute_tle's;
    saltation_tle_oracle follows simulate's trajectory instead, a
    different chaotic orbit after a few dozen periods.
    """
    from scipy.linalg import expm

    from msflab import msf

    h = settings.scan_step
    steps = itertools.tee(_record_steps(
        p, settings, base_state,
        lambda state, tau_c, width: msf.event_window_jacobian(p, state, width, settings.jacobi_delta),
    ), len(alphas))
    out = []
    for alpha, alpha_steps in zip(alphas, steps):
        a_mat = variational_matrix(p.zeta, alpha)

        def to_step(n, tau_c, start, est):
            if est is None:
                return expm(a_mat * (n * h))
            step, cursor = np.eye(2), start.tau
            for ev in est.events:
                step = saltation_matrix(p, ev.tau_c, ev.v_pre) @ expm(a_mat * (ev.tau_c - cursor)) @ step
                cursor = ev.tau_c
            return expm(a_mat * (est.final.tau - cursor)) @ step

        out.append(_march_samples(alpha_steps, settings, p.forcing_period, to_step)[0][-1])
    return out
