"""Event-driven simulation of a harmonically forced impact oscillator.

Dimensionless model between impacts:

    x'' + 2*zeta*x' + x = f*cos(eta*tau)

with a rigid wall at x = x_w.  When the mass reaches the wall with approach
velocity v, the velocity is reversed and scaled by the restitution
coefficient R:

    v  ->  -R*v        (position unchanged)

Segments between impacts are the superposition of the underdamped
homogeneous solution and the harmonic steady state, so they are evaluated
in closed form rather than numerically integrated.  Impacts are located by
scanning the analytic solution on a fixed grid and refining each bracketed
wall crossing by bisection.  Long scans read the grid from tables of the
decay and rotation factors, cached per (zeta, eta, scan step); bisection
evaluates the position alone through a scalar closed form.  Both give the
same impact times, bit for bit, as evaluating segment_states on the grid
and at each midpoint, wherever math.cos and math.sin round as numpy's cos
and sin do.  They did on every argument checked on x86-64 with numpy 2.4;
a numpy build that dispatches its own float64 cos or sin may move impact
times in the last bit.

All closed-form evaluation helpers preserve the floating dtype of their
inputs, so callers that need extended precision can pass np.longdouble
states through the same code path.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

# Protocol constants shared across the package.
DEFAULT_SCAN_STEP = 1e-3        # wall-crossing scan resolution along tau
BISECTION_TOL = 1e-12           # impact-time refinement tolerance in tau
GRAZING_TOL = 1e-8              # |v_pre| below this flags a grazing impact
WALL_POSITION_TOL = 1e-9        # allowed |x - x_w| when applying the reset
CHATTER_CAP = 10_000            # impacts per forcing period before aborting
_FIRST_CHUNK = 256              # grid points in a scan's first batch; later ones double
_DETECT_CHUNK = 8192            # largest batch, and the length of the scan tables
_SCAN_GUARD = 1e-8              # |x - x_w| per unit amplitude below which a table
                                # sample is recomputed with the closed form


class InvalidParameterError(ValueError):
    """A parameter violates the model's domain."""


class ResonanceError(InvalidParameterError):
    """Undamped resonance (zeta = 0, eta = 1) has no steady state."""


class ChatterError(RuntimeError):
    """Impact accumulation exceeded the per-period cap."""

    def __init__(self, tau: float, count: int, period: float):
        self.tau = tau
        self.count = count
        self.period = period
        super().__init__(
            f"chatter: {count} impacts within one forcing period "
            f"({period:.6g}) ending at tau={tau:.6g}"
        )


@dataclass(frozen=True)
class DimensionalParams:
    """Physical parameters of the forced mass-spring-damper with a wall.

    m, c, k are mass, viscous damping and stiffness; F and Omega the
    forcing amplitude and angular frequency; X_w the wall position.
    """

    m: float
    c: float
    k: float
    F: float
    Omega: float
    X_w: float

    def __post_init__(self):
        for name in ("m", "k", "F", "Omega"):
            if not getattr(self, name) > 0.0:
                raise InvalidParameterError(f"{name} must be positive, got {getattr(self, name)!r}")
        if self.c < 0.0:
            raise InvalidParameterError(f"c must be non-negative, got {self.c!r}")

    @property
    def omega(self) -> float:
        """Natural angular frequency sqrt(k/m)."""
        return math.sqrt(self.k / self.m)


@dataclass(frozen=True)
class ImpactOscillatorParams:
    """Dimensionless oscillator parameters.

    zeta is the damping ratio, eta the forcing-to-natural frequency ratio,
    f the forcing amplitude (1 under the standard scaling), x_w the wall
    position and R the restitution coefficient.  wall_enabled=False removes
    the wall entirely, leaving the smooth forced oscillator.
    """

    zeta: float
    eta: float
    f: float = 1.0
    x_w: float = math.inf
    R: float = 1.0
    wall_enabled: bool = True

    def __post_init__(self):
        if not 0.0 <= self.zeta < 1.0:
            raise InvalidParameterError(
                f"zeta must lie in [0, 1) (underdamped segments), got {self.zeta!r}"
            )
        if not self.eta > 0.0:
            raise InvalidParameterError(f"eta must be positive, got {self.eta!r}")
        if self.f < 0.0:
            raise InvalidParameterError(f"f must be non-negative, got {self.f!r}")
        if not 0.0 < self.R <= 1.0:
            raise InvalidParameterError(f"R must lie in (0, 1], got {self.R!r}")
        if self.wall_enabled and not math.isfinite(self.x_w):
            raise InvalidParameterError("x_w must be finite when the wall is enabled")

    @property
    def omega_d(self) -> float:
        """Damped angular frequency of the homogeneous solution."""
        return math.sqrt(1.0 - self.zeta * self.zeta)

    @property
    def forcing_period(self) -> float:
        return 2.0 * math.pi / self.eta

    def without_wall(self) -> "ImpactOscillatorParams":
        return ImpactOscillatorParams(
            zeta=self.zeta, eta=self.eta, f=self.f,
            x_w=self.x_w, R=self.R, wall_enabled=False,
        )


@dataclass(frozen=True)
class OscState:
    """Phase-space point (position, velocity) at time tau."""

    x: float
    v: float
    tau: float


@dataclass(frozen=True)
class EventRecord:
    """One impact: time, approach velocity, rebound velocity."""

    tau_c: float
    v_pre: float
    v_post: float
    grazing: bool = False


def nondimensionalize(
    dim: DimensionalParams, R: float = 1.0, wall_enabled: bool = True
) -> ImpactOscillatorParams:
    """Reduce physical parameters to the dimensionless set.

    Time is scaled by the natural frequency and positions by F/k, which
    fixes the dimensionless forcing amplitude at 1.  The restitution
    coefficient is already dimensionless and passes through unchanged.
    """
    omega = dim.omega
    zeta = dim.c / (2.0 * math.sqrt(dim.m * dim.k))
    if zeta >= 1.0:
        raise InvalidParameterError(
            f"damping ratio {zeta:.6g} is not underdamped; this model requires zeta < 1"
        )
    return ImpactOscillatorParams(
        zeta=zeta,
        eta=dim.Omega / omega,
        f=1.0,
        x_w=dim.k * dim.X_w / dim.F,
        R=R,
        wall_enabled=wall_enabled,
    )


def steady_state_coefficients(p: ImpactOscillatorParams) -> tuple[float, float]:
    """Coefficients (A, B) of the steady state A*cos(eta*tau) + B*sin(eta*tau).

    The pair solves the forced segment equation exactly.  With no forcing
    both coefficients vanish; undamped forcing exactly at eta = 1 has no
    bounded steady state and raises ResonanceError.
    """
    if p.f == 0.0:
        return 0.0, 0.0
    one_minus = 1.0 - p.eta * p.eta
    two_ze = 2.0 * p.zeta * p.eta
    denom = one_minus * one_minus + two_ze * two_ze
    if denom == 0.0:
        raise ResonanceError(
            f"undamped resonance at zeta={p.zeta!r}, eta={p.eta!r}: no steady state exists"
        )
    return one_minus * p.f / denom, two_ze * p.f / denom


def segment_states(p, x0, v0, tau0, dts):
    """Closed-form segment solution at offsets ``dts`` from (x0, v0, tau0).

    Vectorized over dts and dtype-generic: float64 in, float64 out;
    longdouble in, longdouble out.  Returns (x, v) arrays (or scalars for
    scalar dts).  Valid only while no wall crossing occurs; callers are
    responsible for event handling.
    """
    a_p, b_p = steady_state_coefficients(p)
    zeta = p.zeta
    wd = p.omega_d
    eta = p.eta

    ph0 = eta * tau0
    xp0 = a_p * np.cos(ph0) + b_p * np.sin(ph0)
    vp0 = eta * (b_p * np.cos(ph0) - a_p * np.sin(ph0))

    y0 = x0 - xp0
    w0 = v0 - vp0

    decay = np.exp(-zeta * dts)
    c = np.cos(wd * dts)
    s = np.sin(wd * dts)
    xh = decay * (y0 * c + ((w0 + zeta * y0) / wd) * s)
    vh = decay * (w0 * c - ((y0 + zeta * w0) / wd) * s)

    ph = eta * (tau0 + dts)
    xp = a_p * np.cos(ph) + b_p * np.sin(ph)
    vp = eta * (b_p * np.cos(ph) - a_p * np.sin(ph))
    return xh + xp, vh + vp


def segment_propagator(p: ImpactOscillatorParams, dt: float) -> np.ndarray:
    """Fundamental matrix of the homogeneous segment over dt (2x2, real).

    Equals the matrix exponential of [[0, 1], [-1, -2*zeta]] * dt; the
    closed form avoids calling a matrix-function routine here.
    """
    zeta = p.zeta
    wd = p.omega_d
    decay = math.exp(-zeta * dt)
    c = math.cos(wd * dt)
    s = math.sin(wd * dt)
    return decay * np.array(
        [
            [c + zeta / wd * s, s / wd],
            [-s / wd, c - zeta / wd * s],
        ]
    )


def propagate_free(p: ImpactOscillatorParams, s: OscState, dt: float) -> OscState:
    """Advance the state by dt assuming no wall crossing in between."""
    if dt < 0.0:
        raise InvalidParameterError(f"dt must be non-negative, got {dt!r}")
    if dt == 0.0:
        return s
    x, v = segment_states(p, s.x, s.v, s.tau, dt)
    return OscState(float(x), float(v), s.tau + dt)


@functools.lru_cache(maxsize=2)
def _scan_table(zeta: float, eta: float, step: float) -> np.ndarray:
    """Closed-form factors at the grid offsets t = k*step, k = 1.._DETECT_CHUNK.

    Columns exp(-zeta*t)*cos(wd*t), exp(-zeta*t)*sin(wd*t), cos(eta*t) and
    sin(eta*t): with them x - x_w over a chunk is one matrix-vector product
    (see _scan_chunk).  Two entries cover a sweep over both presets.
    """
    t = np.arange(1, _DETECT_CHUNK + 1, dtype=float) * step
    wd = math.sqrt(1.0 - zeta * zeta)
    decay = np.exp(-zeta * t)
    table = np.column_stack(
        [decay * np.cos(wd * t), decay * np.sin(wd * t), np.cos(eta * t), np.sin(eta * t)]
    )
    table.flags.writeable = False
    return table


def _wall_distance(p, tau0, y0, w0, a_p, b_p, cos=math.cos, sin=math.sin):
    """x - x_w at offset dt from a state with homogeneous part (y0, w0).

    segment_states' closed form with the per-segment constants hoisted and
    the remaining operations in its order, so the value equals
    segment_states(p, x0, v0, tau0, dt)[0] - p.x_w bit for bit wherever
    cos and sin round as numpy's do.  The default math.cos and math.sin
    serve scalar dt; pass np.cos and np.sin for arrays.  The decay always
    uses np.exp because numpy may dispatch its own SIMD exponential.
    """
    zeta, wd, eta, x_w = p.zeta, p.omega_d, p.eta, p.x_w
    k0 = (w0 + zeta * y0) / wd
    exp = np.exp

    def distance(dt):
        decay = exp(-zeta * dt)
        ph = eta * (tau0 + dt)
        xh = decay * (y0 * cos(wd * dt) + k0 * sin(wd * dt))
        return xh + (a_p * cos(ph) + b_p * sin(ph)) - x_w

    return distance


def bisect_crossing(distance, lo: float, hi: float) -> float:
    """Bisect a wall crossing bracketed by offsets lo < hi to BISECTION_TOL.

    distance(dt) is the signed distance past the wall (positive beyond it)
    at offset dt; the bracket needs distance(lo) <= 0 < distance(hi).
    """
    for _ in range(200):
        if hi - lo < BISECTION_TOL:
            break
        mid = 0.5 * (lo + hi)
        if distance(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def detect_next_impact(
    p: ImpactOscillatorParams,
    s: OscState,
    horizon: float,
    scan_step: float = DEFAULT_SCAN_STEP,
) -> float | None:
    """Earliest wall-crossing time in (s.tau, s.tau + horizon], or None.

    The analytic segment solution is sampled at offsets k*scan_step from s,
    the last sample clamped to the horizon; the first sign change of
    x - x_w is refined by bisection to BISECTION_TOL in tau.  Crossings
    that enter and leave the wall strictly between consecutive scan points
    are invisible at this resolution, by design of the detection protocol.

    Scans longer than one short chunk read their samples from cached
    tables (see _scan_chunk) in chunks that grow up to _DETECT_CHUNK
    points.  Tables and closed form differ by rounding only, which grows
    with tau (about 1e-11 at tau = 2e4 without damping), so a table sample
    within _SCAN_GUARD times the amplitude of the wall is recomputed with
    the closed form: every sign, and with it the crossing found, is the one
    segment_states gives on the same grid.  The bisection and the
    recomputed samples use math.cos and math.sin, so the time returned
    equals the direct evaluation's bit for bit where those round as
    numpy's do (see the module docstring).
    """
    if not p.wall_enabled or horizon <= 0.0:
        return None
    if scan_step <= 0.0:
        raise InvalidParameterError(f"scan_step must be positive, got {scan_step!r}")

    n_total = int(math.ceil(horizon / scan_step))
    t_end = min(n_total * scan_step, horizon)
    a_p, b_p = steady_state_coefficients(p)
    ph0 = p.eta * s.tau
    y = s.x - (a_p * math.cos(ph0) + b_p * math.sin(ph0))
    w = s.v - p.eta * (b_p * math.cos(ph0) - a_p * math.sin(ph0))
    distance = _wall_distance(p, s.tau, y, w, a_p, b_p)
    if n_total <= _FIRST_CHUNK:
        table, distances = None, _wall_distance(p, s.tau, y, w, a_p, b_p, np.cos, np.sin)
    else:
        table = _scan_table(p.zeta, p.eta, scan_step)

    guard = _SCAN_GUARD * (abs(p.x_w) + abs(a_p) + abs(b_p) + abs(y) + abs(w))
    g_prev = s.x - p.x_w
    k0, n = 0, _FIRST_CHUNK
    while k0 < n_total:
        n = min(n, n_total - k0)
        if table is None:
            gs = distances(np.arange(1, n + 1, dtype=float) * scan_step)
        else:
            gs, y, w = _scan_chunk(p, table[:n], s.tau + k0 * scan_step, y, w, a_p, b_p)
            for j in np.flatnonzero(np.abs(gs) < guard):
                gs[j] = distance((k0 + j + 1) * scan_step)
        if k0 + n == n_total:
            # Keep the final sample exactly on the horizon endpoint.
            gs[-1] = distance(t_end)
        beyond = np.empty(n + 1, dtype=bool)
        beyond[0] = g_prev > 0.0
        np.greater(gs, 0.0, out=beyond[1:])
        rises = np.flatnonzero(beyond[1:] > beyond[:-1])
        if rises.size:
            k = k0 + int(rises[0]) + 1
            hi = t_end if k == n_total else k * scan_step
            return s.tau + bisect_crossing(distance, (k - 1) * scan_step, hi)
        g_prev = gs[-1]
        k0, n = k0 + n, min(2 * n, _DETECT_CHUNK)
    return None


def _scan_chunk(p, rows, tau_a, y, w, a_p, b_p):
    """x - x_w at the grid offsets of ``rows`` from an anchor, and the next anchor.

    (y, w) is the homogeneous part of the state at time tau_a.  Returns the
    distances and the homogeneous part at the chunk's last offset, which
    anchors the next chunk.
    """
    zeta, wd = p.zeta, p.omega_d
    k = (w + zeta * y) / wd
    c, s = math.cos(p.eta * tau_a), math.sin(p.eta * tau_a)
    gs = rows @ np.array([y, k, a_p * c + b_p * s, b_p * c - a_p * s])
    gs -= p.x_w
    ec, es = rows[-1, 0], rows[-1, 1]
    return gs, y * ec + k * es, w * ec - ((y + zeta * w) / wd) * es


def apply_impact(p: ImpactOscillatorParams, s: OscState) -> tuple[OscState, EventRecord]:
    """Apply the restitution reset at the wall.

    The state must sit on the wall to within WALL_POSITION_TOL; position is
    snapped to x_w exactly so the reset never leaves residual penetration.
    Grazing impacts (|v_pre| < GRAZING_TOL) are flagged but reset normally.
    """
    if not p.wall_enabled:
        raise InvalidParameterError("cannot apply an impact with the wall disabled")
    if abs(s.x - p.x_w) > WALL_POSITION_TOL:
        raise InvalidParameterError(
            f"state is not on the wall: |x - x_w| = {abs(s.x - p.x_w):.3e}"
        )
    v_pre = s.v
    v_post = -p.R * v_pre
    record = EventRecord(
        tau_c=s.tau, v_pre=v_pre, v_post=v_post, grazing=abs(v_pre) < GRAZING_TOL
    )
    return OscState(p.x_w, v_post, s.tau), record


def simulate(
    p: ImpactOscillatorParams,
    s0: OscState,
    duration: float,
    scan_step: float = DEFAULT_SCAN_STEP,
    chatter_cap: int = CHATTER_CAP,
) -> tuple[OscState, list[EventRecord]]:
    """Event-driven propagation over ``duration``.

    Alternates closed-form free flight with impact resets; detection
    restarts from each impact time, so several impacts per scan step are
    resolved sequentially.  Raises ChatterError when more than chatter_cap
    impacts accumulate within one forcing period.
    """
    if duration < 0.0:
        raise InvalidParameterError(f"duration must be non-negative, got {duration!r}")
    t_end = s0.tau + duration
    period = p.forcing_period
    state = s0
    events: list[EventRecord] = []
    recent = deque(maxlen=chatter_cap + 1)
    while True:
        remaining = t_end - state.tau
        if remaining <= 0.0:
            break
        tau_c = detect_next_impact(p, state, remaining, scan_step)
        if tau_c is None:
            state = propagate_free(p, state, remaining)
            break
        state = propagate_free(p, state, tau_c - state.tau)
        # The bisection bracket is BISECTION_TOL wide; land exactly on the wall.
        state = OscState(p.x_w, state.v, tau_c)
        state, record = apply_impact(p, state)
        events.append(record)
        recent.append(tau_c)
        if len(recent) == chatter_cap + 1 and tau_c - recent[0] < period:
            raise ChatterError(tau_c, len(recent), period)
    return state, events


def sample_trajectory(
    p: ImpactOscillatorParams,
    s0: OscState,
    duration: float,
    sample_step: float = DEFAULT_SCAN_STEP,
    scan_step: float = DEFAULT_SCAN_STEP,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[EventRecord]]:
    """simulate() that also returns the trajectory on a sample grid.

    Returns (taus, xs, vs, events) with samples at s0.tau + k*sample_step.
    The run is simulate()'s up to the last sample, so it raises
    ChatterError exactly as simulate does; each segment's samples are
    evaluated in closed form from the state that starts it (s0, or the
    post-impact state of an event).  A sample at an impact time belongs to
    the segment that ends there.  Mostly a diagnostics and plotting aid.
    """
    n = int(math.floor(duration / sample_step + 1e-9))
    offsets = np.arange(n + 1) * sample_step
    taus = s0.tau + offsets
    _, events = simulate(p, s0, offsets[-1], scan_step)
    xs = np.empty(n + 1)
    vs = np.empty(n + 1)
    xs[0], vs[0] = s0.x, s0.v
    starts = [s0] + [OscState(p.x_w, e.v_post, e.tau_c) for e in events]
    ends = np.searchsorted(taus, [e.tau_c for e in events], side="right").tolist() + [n + 1]
    lo = 1
    for start, hi in zip(starts, ends):
        xs[lo:hi], vs[lo:hi] = segment_states(
            p, start.x, start.v, start.tau, taus[lo:hi] - start.tau
        )
        lo = hi
    return taus, xs, vs, events
