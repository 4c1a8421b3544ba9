"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the package's own numerics: matrix
exponentials come from a Taylor series or scipy, exponents from classical
constructions (saltation composition, two-trajectory divergence), so that
agreement with the package is evidence rather than tautology.
"""

from __future__ import annotations

import math

import numpy as np

from msflab.oscillator import (
    BISECTION_TOL,
    DEFAULT_SCAN_STEP,
    ImpactOscillatorParams,
    OscState,
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
