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
wall crossing by bisection; impacts that accumulate geometrically
(complete chatter) end the run at their limit.  A short scan skips the
grid points that a quadratic bound on the segment, rounding included,
places inside the wall, such as every point of an event window after a
transversal reset.  Long scans read tables of the decay and rotation
factors, cached per (zeta, eta, scan step); bisection evaluates only the
midpoints near a Newton estimate, the others taking signs that a
rounding-error bound certifies (see bisect_crossing).
The impact times are segment_states' on the grid and at each midpoint, bit
for bit, wherever math.cos and math.sin round as numpy's cos and sin do and
numpy's exp rounds a float as an array element.  They did on every argument
checked on x86-64 with numpy 2.4; a numpy build with its own float64 cos or
sin may move impact times in the last bit.

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
ACCUMULATION_RATIOS = 3         # successive interval ratios that must sit near R ...
ACCUMULATION_TOL = 5e-3         # ... within this many units of 1 - R, for complete chatter
_SCALAR_SCAN = 32               # grid points of a scan evaluated one by one, in scalars
_DETECT_CHUNK = 8192            # grid points per table-scan batch, and the scan tables' length
_SCAN_GUARD = 1e-8              # |x - x_w| per unit amplitude below which a table
                                # sample is recomputed with the closed form
_EPS = 2.0 ** -52               # unit of the closed forms' rounding-error bounds


class InvalidParameterError(ValueError):
    """A parameter violates the model's domain."""


class ResonanceError(InvalidParameterError):
    """Undamped resonance (zeta = 0, eta = 1) has no steady state."""


class ChatterError(RuntimeError):
    """Impacts accumulate, or more of them than CHATTER_CAP fall within one forcing period.

    With accumulating=True the impact intervals shrink geometrically towards
    an accumulation point (complete chatter, see _ChatterGuard): tau is the
    extrapolated accumulation time and count the impacts simulated.  Else
    count impacts fell within one forcing period, the last at tau.
    """

    def __init__(self, tau: float, count: int, period: float, accumulating: bool = False):
        self.tau, self.count, self.period, self.accumulating = tau, count, period, accumulating
        super().__init__(
            f"chatter: impacts accumulate at tau={tau:.6f} after {count} impacts"
            if accumulating else
            f"chatter: {count} impacts within one forcing period "
            f"({period:.6g}) ending at tau={tau:.6f}"
        )

    def __reduce__(self):  # pickle and copy rebuild it from its fields, not from args
        return type(self), (self.tau, self.count, self.period, self.accumulating)


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
        if not 0.0 <= self.f < math.inf:
            raise InvalidParameterError(f"f must be finite and non-negative, got {self.f!r}")
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
    cos, sin = np.cos, np.sin

    ph0 = eta * tau0
    xp0 = a_p * cos(ph0) + b_p * sin(ph0)
    vp0 = eta * (b_p * cos(ph0) - a_p * sin(ph0))

    y0 = x0 - xp0
    w0 = v0 - vp0

    decay = np.exp(-zeta * dts)
    c = cos(wd * dts)
    s = sin(wd * dts)
    xh = decay * (y0 * c + ((w0 + zeta * y0) / wd) * s)
    vh = decay * (w0 * c - ((y0 + zeta * w0) / wd) * s)

    ph = eta * (tau0 + dts)
    xp = a_p * cos(ph) + b_p * sin(ph)
    vp = eta * (b_p * cos(ph) - a_p * sin(ph))
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
    """Advance the state by dt assuming no wall crossing in between (in math.cos/sin)."""
    if not 0.0 <= dt < math.inf:
        raise InvalidParameterError(f"dt must be finite and non-negative, got {dt!r}")
    if dt == 0.0:
        return s
    c = _constants(p)
    return OscState(*_free_state(c, s.tau, *_homogeneous(c, s.x, s.v, s.tau), dt), s.tau + dt)


def _constants(p: ImpactOscillatorParams) -> tuple:
    """(zeta, wd, eta, x_w, a_p, b_p): the parameters every closed-form evaluation reads."""
    a_p, b_p = steady_state_coefficients(p)
    return p.zeta, p.omega_d, p.eta, p.x_w, a_p, b_p


def _homogeneous(c: tuple, x: float, v: float, tau: float) -> tuple[float, float, float]:
    """(y, w, k) of the segment from (x, v, tau): its homogeneous part and k = (w + zeta*y)/wd.

    segment_states' per-segment constants in its operations, with the phase
    cos and sin taken once (math.cos, math.sin); c is _constants(p).
    """
    zeta, wd, eta, _, a_p, b_p = c
    ph0 = eta * tau
    cp, sp = math.cos(ph0), math.sin(ph0)
    y = x - (a_p * cp + b_p * sp)
    w = v - eta * (b_p * cp - a_p * sp)
    return y, w, (w + zeta * y) / wd


def _free_state(c: tuple, tau0: float, y: float, w: float, k: float, dt: float) -> tuple[float, float]:
    """segment_states(p, x0, v0, tau0, dt) as floats, from the segment's _homogeneous.

    Its operations in math.cos and math.sin (see the module docstring).
    """
    zeta, wd, eta, _, a_p, b_p = c
    decay = float(np.exp(-zeta * dt))
    cs, sn = math.cos(wd * dt), math.sin(wd * dt)
    ph = eta * (tau0 + dt)
    cp, sp = math.cos(ph), math.sin(ph)
    x = decay * (y * cs + k * sn) + (a_p * cp + b_p * sp)
    v = decay * (w * cs - ((y + zeta * w) / wd) * sn) + eta * (b_p * cp - a_p * sp)
    return x, v


def flow_functions(s2: float, lib):
    """(c, sn) with cosh(s dt) = c(r dt) and sinh(s dt)/s = sn(r dt)/r, r = |s|.

    lib is numpy (arrays) or math (scalars).  For s^2 = 0 the caller takes
    r = 1, and c = 1, sn(x) = x give the flow's 1 and dt exactly.
    """
    if s2 < 0.0:  # s = i*r
        return lib.cos, lib.sin
    if s2 > 0.0:
        return lib.cosh, lib.sinh
    return (lambda x: 1.0), (lambda x: x)


def flow_table(generators, eta: float, step: float, rows: int) -> np.ndarray:
    """Closed-form flow factors at the grid offsets t = k*step, k = 1..rows.

    Each generator (s^2, m, r) of a flow e^(m t)*(cosh(s t)*I + sinh(s t)/s*A)
    gives the columns e^(m t)*c(r t) and e^(m t)*sn(r t) (see flow_functions),
    and the forcing gives cos(eta*t) and sin(eta*t) last.  A solution
    sampled on the grid is then one matrix product with coefficients that
    carry the state, the 1/r and the forcing phase.
    """
    t = np.arange(1, rows + 1, dtype=float) * step
    columns = []
    for s2, m, r in generators:
        c, sn = flow_functions(s2, np)
        envelope = np.exp(m * t)
        columns += [envelope * c(r * t), envelope * sn(r * t)]
    table = np.column_stack(columns + [np.cos(eta * t), np.sin(eta * t)])
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=2)
def _scan_table(zeta: float, wd: float, eta: float, step: float) -> np.ndarray:
    """flow_table of the free oscillator on _DETECT_CHUNK grid offsets.

    Columns exp(-zeta*t)*cos(wd*t), exp(-zeta*t)*sin(wd*t), cos(eta*t) and
    sin(eta*t): with them x - x_w over a chunk is one matrix-vector product
    (see _scan_chunk).  Two entries cover a sweep over both presets.  Kept
    in column-major order, where that product runs about three times faster;
    the products then round differently, far inside _SCAN_GUARD.
    """
    table = np.asfortranarray(flow_table([(-wd * wd, -zeta, wd)], eta, step, _DETECT_CHUNK))
    table.flags.writeable = False
    return table


def _wall_distance(c, tau0, y0, w0, k0):
    """x - x_w at offset dt from a state at tau0 with _homogeneous (y0, w0, k0), and its model.

    distance(dt) is segment_states' closed form with the segment's constants
    read from c = _constants(p) and (y0, w0, k0), the other operations in
    its order, so it equals segment_states(p, x0, v0, tau0, dt)[0] - p.x_w
    bit for bit wherever math.cos and math.sin round as numpy's do.
    model(lo, hi) is bisect_crossing's for a crossing in [lo, hi], lo >= 0:
    err is twice the unit roundoffs its operations can make (4 ulps per libm
    or numpy call), the forcing phase's eta*ulp(tau) times the amplitude
    included; the free part turns at rate |zeta + i*wd| = 1 without growing,
    the forced at eta.
    """
    zeta, wd, eta, x_w, a_p, b_p = c
    kv, yv = wd * k0 - zeta * y0, wd * y0 + zeta * k0
    exp, cos, sin = np.exp, math.cos, math.sin

    def distance(dt):
        decay = float(exp(-zeta * dt))
        ph = eta * (tau0 + dt)
        xh = decay * (y0 * cos(wd * dt) + k0 * sin(wd * dt))
        return xh + (a_p * cos(ph) + b_p * sin(ph)) - x_w

    def motion(dt):
        decay = float(exp(-zeta * dt))
        c, s = cos(wd * dt), sin(wd * dt)
        ph = eta * (tau0 + dt)
        cp, sp = cos(ph), sin(ph)
        g = decay * (y0 * c + k0 * s) + (a_p * cp + b_p * sp) - x_w
        return g, decay * (kv * c - yv * s) + eta * (b_p * cp - a_p * sp)

    def model(lo, hi):
        return (motion, *_model_bounds(eta, x_w, abs(y0) + abs(k0), abs(a_p) + abs(b_p), tau0, hi))

    return distance, model


def _model_bounds(eta, x_w, free, forced, tau0, hi):
    """(err, accel) of _wall_distance's model over offsets [0, hi].

    free is |y0| + |k0| and forced |a_p| + |b_p|; err bounds the rounding
    error of distance and motion, accel the exact |x''|.
    """
    err = free * (40 + 4 * hi) + (1 + eta) * forced * (12 + 2 * eta * (abs(tau0) + hi))
    return _EPS * (err + abs(x_w)) + 1e-300, free + eta * eta * forced


def bisect_crossing(distance, lo: float, hi: float, model=None) -> float:
    """Bisect a wall crossing bracketed by offsets lo < hi to BISECTION_TOL.

    distance(dt) is the signed distance past the wall (positive beyond it)
    at offset dt; the bracket needs distance(lo) <= 0 < distance(hi).

    model, where given, is (motion, err, accel): motion(dt) returns
    distance(dt), bit for bit, and the velocity; over [lo, hi] err bounds
    the rounding error of both and accel bounds |x''|.  Newton steps from
    the first midpoint to t2 and on to t estimate the crossing.  With v2
    the velocity at t2, q = |distance(t2)|/v2 and s = v2 - err -
    2*accel*width > 0, the exact distance rises at rate s or more across
    the bracket and, by Taylor from t2, is above err at t + d and below
    -err at t - d for d = (2*err + err*q + accel*q**2/2)/s plus t's
    rounding.  So a later midpoint farther than d from t has the sign of
    mid - t; only the others are evaluated, and every midpoint and the
    time returned are the plain bisection's, bit for bit.
    """
    t_hat, band = 0.0, math.inf
    if model is not None and hi - lo >= BISECTION_TOL:
        motion, err, accel = model
        mid = 0.5 * (lo + hi)
        g, v = motion(mid)
        lo, hi = (lo, mid) if g > 0.0 else (mid, hi)
        if v > accel * (hi - lo):  # else no velocity in the bracket passes s > 0
            t2 = min(max(mid - g / v, lo), hi)
            g2, v2 = motion(t2)
            slack = v2 - err - 2.0 * accel * (hi - lo)
            if slack > 1e-6 * v2 > 0.0:
                t, q = t2 - g2 / v2, abs(g2) / v2
                if lo <= t <= hi:
                    need = 2.0 * err + err * q + 0.5 * accel * q * q
                    t_hat, band = t, need / slack * (1.0 + 1e-6) + 2.0 * _EPS * (abs(t2) + q)
    for _ in range(200 if model is None else 199):
        if hi - lo < BISECTION_TOL:
            break
        mid = 0.5 * (lo + hi)
        u = mid - t_hat
        if u > band or (u >= -band and distance(mid) > 0.0):
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
    x - x_w is refined by bisect_crossing, with the closed form's model
    (see _wall_distance), to BISECTION_TOL in tau.  Crossings that enter
    and leave the wall strictly between consecutive scan points are
    invisible at this resolution, by design of the detection protocol.
    The scan itself is simulate's, see _crossing_offset.
    """
    _check_scan(horizon, scan_step)
    if not p.wall_enabled or horizon <= 0.0:
        return None
    c = _constants(p)
    dt = _crossing_offset(c, s.x, s.v, s.tau, *_homogeneous(c, s.x, s.v, s.tau), horizon, scan_step)
    return None if dt is None else s.tau + dt


def _check_scan(horizon: float, scan_step: float) -> None:
    """InvalidParameterError unless scan_step is finite and positive and horizon finite in steps."""
    if not 0.0 < scan_step < math.inf:
        raise InvalidParameterError(f"scan_step must be positive and finite, got {scan_step!r}")
    if not horizon / scan_step < math.inf:
        raise InvalidParameterError(f"horizon must be finite in scan steps, got {horizon!r}")


def _crossing_offset(c, x, v, tau, y, w, k, horizon, scan_step):
    """detect_next_impact's crossing as an offset from tau, or None, for horizon > 0.

    (x, v, tau) is the segment's start, (y, w, k) its _homogeneous and c
    _constants(p).  Scans of at most _SCALAR_SCAN points, and the first
    point of longer ones (where a chattering impact sits), are scalar and
    stop at the first crossing.  A scalar point at offset t is skipped
    where g0 + v*t + accel*t**2/2 + (2 + t_last)*err, plus this bound's own
    rounding, is negative (g0 = x - x_w; err and accel the model's up to
    the last scalar point t_last): the closed form starts within err of g0
    and v and stays within err of the exact solution, so that point's
    distance is not positive.  The bound is convex in t, so where it skips
    the first and the last scalar point it skips every one between, and one
    test of both ends skips them all.  After a reset (g0 = 0, v < 0) that
    skips a whole event window unless |v| is tiny; before a crossing, the
    points are tested one by one and the lead is skipped.

    Longer scans then read cached tables from the start (see _scan_chunk)
    in chunks of _DETECT_CHUNK points, whose fixed cost, a dozen numpy
    calls, outweighs their per-sample cost.  Tables and closed form
    differ by rounding only, which grows with tau (about 1e-11 at tau = 2e4
    without damping), so a table sample within _SCAN_GUARD times the
    amplitude of the wall is recomputed with the closed form: every sign,
    and with it the crossing found, is the one segment_states gives on the
    same grid.  Scalars use math.cos, math.sin and numpy's exp, so the time
    returned equals the direct evaluation's bit for bit where those round
    as numpy's array functions do.  Each chunk hands on its (y, w, k).
    """
    zeta, wd, eta, x_w, a_p, b_p = c
    n_total = int(math.ceil(horizon / scan_step))
    t_end = min(n_total * scan_step, horizon)
    n_scalar = n_total if n_total <= _SCALAR_SCAN else 1
    t_last = t_end if n_scalar == n_total else scan_step

    g0 = x - x_w
    err, accel = _model_bounds(eta, x_w, abs(y) + abs(k), abs(a_p) + abs(b_p), tau, t_last)
    slack = (2.0 + t_last) * err + 4.0 * _EPS * (abs(g0) + (abs(v) + accel * t_last) * t_last)
    half = 0.5 * accel
    distance = None  # built at the first point evaluated
    prev = g0
    t1 = t_end if n_total == 1 else scan_step
    skip_all = (g0 + t1 * (v + t1 * half) + slack < 0.0
                and g0 + t_last * (v + t_last * half) + slack < 0.0)
    for j in range(n_scalar + 1 if skip_all else 1, n_scalar + 1):
        t = t_end if j == n_total else j * scan_step
        if g0 + t * (v + t * half) + slack < 0.0:
            prev = 0.0
            continue
        if distance is None:
            distance, model = _wall_distance(c, tau, y, w, k)
        g = distance(t)
        if g > 0.0 and not prev > 0.0:
            lo = (j - 1) * scan_step
            return bisect_crossing(distance, lo, t, model(lo, t))
        prev = g
    if n_total <= _SCALAR_SCAN:
        return None

    if distance is None:
        distance, model = _wall_distance(c, tau, y, w, k)
    table = _scan_table(zeta, wd, eta, scan_step)
    guard = _SCAN_GUARD * (abs(x_w) + abs(a_p) + abs(b_p) + abs(y) + abs(w))
    g_prev, k0 = g0, 0
    while k0 < n_total:
        n = min(_DETECT_CHUNK, n_total - k0)
        gs, y, w, k = _scan_chunk(c, table[:n], tau + k0 * scan_step, y, w, k)
        # Samples before the first one above -guard are certainly inside the
        # wall: none is recomputed and none rises, so only the rest is read,
        # and on the last chunk at least the horizon sample.
        near = gs > -guard
        near[-1] |= k0 + n == n_total
        i0 = int(near.argmax())
        if near[i0]:
            j = k0 + i0 + 1
            # A first near sample at or above guard, not the horizon's, needs no
            # recomputation: after one inside the wall, it is the crossing.
            if not (gs[i0] >= guard and j < n_total and (i0 or not g_prev > 0.0)):
                part = gs[i0:]
                for m in np.flatnonzero(np.abs(part) < guard):
                    part[m] = distance((j + m) * scan_step)
                if k0 + n == n_total:
                    # Keep the final sample exactly on the horizon endpoint.
                    part[-1] = distance(t_end)
                beyond = np.empty(n - i0 + 1, dtype=bool)
                beyond[0] = (gs[i0 - 1] if i0 else g_prev) > 0.0
                np.greater(part, 0.0, out=beyond[1:])
                rises = np.flatnonzero(beyond[1:] > beyond[:-1])
                j = j + int(rises[0]) if rises.size else None
            if j is not None:
                lo, hi = (j - 1) * scan_step, t_end if j == n_total else j * scan_step
                return bisect_crossing(distance, lo, hi, model(lo, hi))
        g_prev = gs[-1]
        k0 += n
    return None


def _scan_chunk(c, rows, tau_a, y, w, k):
    """x - x_w at the grid offsets of ``rows`` from an anchor, and the next anchor.

    (y, w, k) is the _homogeneous of the state at time tau_a and c
    _constants(p).  Returns the distances and the (y, w, k) at the chunk's
    last offset, which anchors the next chunk.
    """
    zeta, wd, eta, x_w, a_p, b_p = c
    cp, sp = math.cos(eta * tau_a), math.sin(eta * tau_a)
    gs = rows @ np.array([y, k, a_p * cp + b_p * sp, b_p * cp - a_p * sp])
    gs -= x_w
    ec, es = rows[-1, 0], rows[-1, 1]
    y, w = y * ec + k * es, w * ec - ((y + zeta * w) / wd) * es
    return gs, y, w, (w + zeta * y) / wd


def _impact_record(p: ImpactOscillatorParams, tau_c: float, v_pre: float) -> EventRecord:
    return EventRecord(tau_c, v_pre, -p.R * v_pre, abs(v_pre) < GRAZING_TOL)


class _ChatterGuard:
    """Chatter check on one oscillator's impact times, pushed in order.

    push(tau) raises ChatterError for complete chatter: impacts with R < 1
    against a wall the flow pushes into come at intervals shrinking by a
    ratio tending to R (Budd and Dux, Phil. Trans. R. Soc. A 347, 1994).
    Once the last ACCUMULATION_RATIOS intervals are each positive and
    shorter than the one before, each ratio within ACCUMULATION_TOL*(1 - R)
    of R, and f*cos(eta*tau) > x_w at the latest impact (the uncoupled wall
    acceleration, exact for a network node only at sigma = 0), it reports
    the geometric tail's sum t_inf = tau + dt*r/(1 - r), dt the latest
    interval and r its ratio to the one before.  The tolerance shrinks
    with 1 - R, so ratios near 1 (about one impact a period) pass for no
    R < 1, and nothing passes at R = 1.  Else it raises once more than
    CHATTER_CAP impacts fall within one forcing period.
    """

    def __init__(self, p: ImpactOscillatorParams):
        self.p, self.period, self.recent = p, p.forcing_period, deque(maxlen=CHATTER_CAP + 1)
        self.tau = self.dt = math.nan
        self.run = self.count = 0

    def push(self, tau: float) -> None:
        p, dt, prev = self.p, tau - self.tau, self.dt
        self.tau, self.dt, self.count = tau, dt, self.count + 1
        r = dt / prev if 0.0 < dt < prev else math.inf
        self.run = self.run + 1 if abs(r - p.R) <= ACCUMULATION_TOL * (1.0 - p.R) else 0
        if self.run >= ACCUMULATION_RATIOS and p.f * math.cos(p.eta * tau) > p.x_w:
            raise ChatterError(tau + dt * r / (1.0 - r), self.count, self.period, accumulating=True)
        self.recent.append(tau)
        if len(self.recent) == self.recent.maxlen and tau - self.recent[0] < self.period:
            raise ChatterError(tau, len(self.recent), self.period)


def simulate(
    p: ImpactOscillatorParams,
    s0: OscState,
    duration: float,
    scan_step: float = DEFAULT_SCAN_STEP,
) -> tuple[OscState, list[EventRecord]]:
    """Event-driven propagation over ``duration``.

    Alternates closed-form free flight with impact resets; detection
    restarts from each impact time, so several impacts per scan step are
    resolved sequentially.  Raises ChatterError for two causes: the
    impacts accumulate geometrically (complete chatter, see _ChatterGuard),
    reported at the extrapolated accumulation time, or more than
    CHATTER_CAP impacts fall within one forcing period.

    This is the event layer's one segment loop (see _runner):
    detect_next_impact and propagate_free wrap the same per-segment core.
    Each free-flight segment's phase and homogeneous constants are computed
    once and shared by its scan, its bisection and its propagation, and the
    state is carried in floats, so every result equals the composition of
    those public functions bit for bit.
    """
    x, v, tau, impacts = _runner(p, s0.tau, duration, scan_step)(s0.x, s0.v)
    return OscState(x, v, tau), [_impact_record(p, *impact) for impact in impacts]


def _runner(p, tau0: float, duration: float, scan_step: float):
    """simulate's checks, made once, and its loop as run(x, v) -> the final (x, v, tau)
    and each impact's (tau_c, v_pre), from (x, v) at tau0: an event window's three
    runs share the checks and the constants.  The scan check is the first
    segment's: later segments span no more."""
    if not math.isfinite(tau0):
        raise InvalidParameterError(f"start state tau must be finite, got {tau0!r}")
    if not 0.0 <= duration < math.inf:
        raise InvalidParameterError(f"duration must be finite and non-negative, got {duration!r}")
    t_end = tau0 + duration
    if t_end - tau0 > 0.0:
        _check_scan(t_end - tau0, scan_step)
    c = _constants(p) if t_end - tau0 > 0.0 else None  # read only by runs with a segment

    def run(x: float, v: float):
        if not math.isfinite(x + v):  # one test; a sum of finite ones that overflows passes
            for name, value in (("x", x), ("v", v)):
                if not math.isfinite(value):
                    raise InvalidParameterError(f"start state {name} must be finite, got {value!r}")
        tau, impacts, guard = tau0, [], None
        while True:
            remaining = t_end - tau
            if remaining <= 0.0:
                break
            y, w, k = _homogeneous(c, x, v, tau)
            dt = _crossing_offset(c, x, v, tau, y, w, k, remaining, scan_step) if p.wall_enabled else None
            if dt is None:
                x, v = _free_state(c, tau, y, w, k, remaining)
                tau += remaining
                break
            # The bisection bracket is BISECTION_TOL wide; land exactly on the wall.
            tau_c = tau + dt
            if tau_c != tau:  # as propagate_free, which keeps the state over dt = 0
                v = _free_state(c, tau, y, w, k, tau_c - tau)[1]
            impacts.append((tau_c, v))
            x, v, tau = p.x_w, -p.R * v, tau_c
            if len(impacts) > 1:  # one impact never trips the guard
                if guard is None:
                    guard = _ChatterGuard(p)
                    guard.push(impacts[0][0])
                guard.push(tau_c)
        return x, v, tau, impacts

    return run


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
    if not 0.0 <= duration < math.inf:
        raise InvalidParameterError(f"duration must be finite and non-negative, got {duration!r}")
    if not sample_step > 0.0:
        raise InvalidParameterError(f"sample_step must be positive, got {sample_step!r}")
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
