"""Finite-difference estimation of trajectory Jacobi matrices.

The flow map phi_t(x0) of the impact oscillator stays continuous across
impacts even though the vector field is non-smooth, so its Jacobian can be
estimated by one-sided differences,

    Phi[:, i] ~ (phi_t(x0 + delta*e_i) - phi_t(x0)) / delta,

provided every perturbed trajectory experiences the same impact sequence
as the central one inside the window.  The event counts of all runs are
recorded so callers can see when that assumption broke.
estimate_jacobian is the generic estimator, for any flow map and dtype;
event_window_jacobian takes its quotient in place, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .oscillator import (
    DEFAULT_SCAN_STEP,
    EventRecord,
    ImpactOscillatorParams,
    OscState,
    _impact_record,
    _runner,
    segment_states,
    simulate,
)

DEFAULT_DELTA = 1e-7

# A flow map takes (state vector, duration) to (final state vector, number
# of events encountered).  Any callable with this shape works.
FlowMap = Callable[[np.ndarray, float], tuple[np.ndarray, int]]


class PropagationError(RuntimeError):
    """A flow evaluation returned a non-finite state."""


class InvalidWindowError(ValueError):
    """The window cannot be differenced: it does not contain exactly one
    impact of the central run, or a perturbation vanishes in rounding
    against the start state ((x0 + delta) - x0 is 0)."""


class GrazingSingularityError(RuntimeError):
    """The estimated window propagator is numerically singular."""


@dataclass(frozen=True)
class JacobiEstimate:
    """Finite-difference flow Jacobian plus bookkeeping.

    event_counts lists the central run's event count first, then one count
    per perturbed run; consistent is True when they all agree.
    """

    phi: np.ndarray
    delta_used: float
    event_counts: tuple[int, ...]
    consistent: bool


@dataclass(frozen=True)
class WindowEstimate(JacobiEstimate):
    """Event-window Jacobian plus the central run it was differenced against.

    final is the central trajectory's state at the window end and events
    its impacts inside the window, so callers can advance along the same
    run instead of simulating the window again.
    """

    final: OscState
    events: tuple[EventRecord, ...]


def estimate_jacobian(flow: FlowMap, x0, t: float, delta: float = DEFAULT_DELTA) -> JacobiEstimate:
    """One-sided difference estimate of d(phi_t)/dx at x0.

    Arithmetic follows the dtype of x0 (the realized perturbation, not the
    nominal delta, is used as the divisor), and the result is cast to
    float64 at the end.  t = 0 returns the identity for any flow.
    Differences are taken in scalars, component by component, which round
    as the arrays' elementwise operations would.  A direction whose
    realized perturbation is 0 raises InvalidWindowError.
    """
    _check_delta(delta)
    if not t >= 0.0:
        raise ValueError(f"t must be non-negative, got {t!r}")
    x0 = np.atleast_1d(np.asarray(x0))
    n = x0.shape[0]
    if n == 0:
        raise ValueError("x0 must have at least one component")
    y0, count0 = flow(x0, t)
    y0 = np.ravel(y0).tolist()
    if not all(map(math.isfinite, y0)):
        raise PropagationError("flow returned a non-finite central state")
    counts = [int(count0)]
    columns = []
    for i in range(n):
        xp = x0.copy()
        xp[i] = xp[i] + delta
        realized = xp[i] - x0[i]
        if realized == 0:
            raise InvalidWindowError(
                f"perturbation delta={delta!r} in direction {i} vanishes against "
                f"x0[{i}]={x0[i]}: (x0 + delta) - x0 is 0"
            )
        yi, ci = flow(xp, t)
        yi = np.ravel(yi).tolist()
        if not all(map(math.isfinite, yi)):
            raise PropagationError(f"flow returned a non-finite state for direction {i}")
        columns.append([(a - b) / realized for a, b in zip(yi, y0)])
        counts.append(int(ci))
    return JacobiEstimate(
        phi=np.array(list(zip(*columns)), dtype=float),
        delta_used=float(delta),
        event_counts=tuple(counts),
        consistent=counts.count(counts[0]) == len(counts),
    )


def _check_delta(delta: float) -> None:
    """ValueError unless delta is finite and positive."""
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be finite and positive, got {delta!r}")


def oscillator_flow(
    p: ImpactOscillatorParams, tau0: float, scan_step: float = DEFAULT_SCAN_STEP
) -> FlowMap:
    """Flow map of the oscillator started at time tau0.

    With the wall disabled the closed-form segment solution is evaluated
    directly and the input dtype is preserved, which lets callers estimate
    Jacobians in extended precision.  With the wall enabled the run is
    event-driven in float64 and the impact count is reported.
    """

    if not p.wall_enabled:

        def flow_smooth(z, t):
            x, v = segment_states(p, z[0], z[1], tau0, t)
            return np.array([x, v]), 0

        return flow_smooth

    def flow_impacting(z, t):
        final, events = simulate(
            p, OscState(float(z[0]), float(z[1]), tau0), t, scan_step=scan_step
        )
        return np.array([final.x, final.v]), len(events)

    return flow_impacting


def event_window_jacobian(
    p: ImpactOscillatorParams,
    s_pre: OscState,
    window: float,
    delta: float = DEFAULT_DELTA,
) -> WindowEstimate:
    """Flow Jacobian across a short window containing exactly one impact.

    s_pre is the state at the window start (in practice the last scan grid
    point before the impact) and window the grid-aligned width, at most two
    scan steps.  The central trajectory must meet the wall exactly once
    inside the window; zero or multiple impacts raise InvalidWindowError.
    A singular estimate raises GrazingSingularityError since the coupling
    correction downstream needs the window propagator's logarithm.

    The central run is simulated once, differenced against, and returned
    with the estimate, so the caller can advance along it.  The quotient is
    taken in place, in Python floats, operation for operation as
    estimate_jacobian takes it (each difference over the realized
    perturbation (x0 + delta) - x0): phi and the PropagationError checks
    are estimate_jacobian's on the same runs, bit for bit, and a
    perturbation that vanishes raises InvalidWindowError in both.
    """
    if window <= 0.0:
        raise InvalidWindowError(f"window must be positive, got {window!r}")
    _check_delta(delta)
    # The window spans at most a couple of scan steps; a finer internal
    # scan keeps sub-window impact ordering exact.  The three runs share one _runner.
    run = _runner(p, s_pre.tau, window, window / 16.0)
    x, v, tau, impacts = run(s_pre.x, s_pre.v)
    if len(impacts) != 1:
        raise InvalidWindowError(
            f"window starting at tau={s_pre.tau:.6f} (width {window:.3g}) contains "
            f"{len(impacts)} impacts of the central trajectory; exactly one required"
        )
    if not (math.isfinite(x) and math.isfinite(v)):
        raise PropagationError("flow returned a non-finite central state")
    x0, v0 = float(s_pre.x), float(s_pre.v)
    counts, columns = [1], []
    for i, start in enumerate(((x0 + delta, v0), (x0, v0 + delta))):
        realized = start[i] - (x0, v0)[i]
        if realized == 0.0:
            raise InvalidWindowError(
                f"perturbation delta={delta!r} in direction {i} vanishes against the "
                f"window start state at tau={s_pre.tau:.6f}: (x0 + delta) - x0 is 0"
            )
        xi, vi, _, hits = run(*start)
        if not (math.isfinite(xi) and math.isfinite(vi)):
            raise PropagationError(f"flow returned a non-finite state for direction {i}")
        columns.append(((xi - x) / realized, (vi - v) / realized))
        counts.append(len(hits))
    (a, c), (b, d) = columns
    phi = np.array([[a, b], [c, d]])
    # sv_min/sv_max = |det|/sv_max**2 >= |det|/|phi|_F**2, so a determinant
    # clear of that bound, rounding included, needs no decomposition.
    if not abs(a * d - b * c) > 2e-12 * (a * a + b * b + c * c + d * d):
        sv = np.linalg.svd(phi, compute_uv=False)
        if sv[0] == 0.0 or sv[-1] < 1e-12 * sv[0]:
            raise GrazingSingularityError(
                f"window propagator at tau={s_pre.tau:.6f} is numerically singular "
                f"(singular values {sv[-1]:.3e}/{sv[0]:.3e}); the impact is too close "
                f"to grazing for a logarithm to exist"
            )
    return WindowEstimate(
        phi, float(delta), tuple(counts), counts.count(1) == 3, OscState(x, v, tau),
        (_impact_record(p, *impacts[0]),),
    )
