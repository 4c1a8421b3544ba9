"""Finite-difference estimation of trajectory Jacobi matrices.

The flow map phi_t(x0) of the impact oscillator stays continuous across
impacts even though the vector field is non-smooth, so its Jacobian can be
estimated by one-sided differences,

    Phi[:, i] ~ (phi_t(x0 + delta*e_i) - phi_t(x0)) / delta,

provided every perturbed trajectory experiences the same impact sequence
as the central one inside the window.  The event counts of all runs are
recorded so callers can see when that assumption broke.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .oscillator import (
    DEFAULT_SCAN_STEP,
    EventRecord,
    ImpactOscillatorParams,
    OscState,
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
    """The window does not contain exactly one impact of the central run."""


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


def estimate_jacobian(
    flow: FlowMap, x0, t: float, delta: float = DEFAULT_DELTA, central=None
) -> JacobiEstimate:
    """One-sided difference estimate of d(phi_t)/dx at x0.

    Arithmetic follows the dtype of x0 (the realized perturbation, not the
    nominal delta, is used as the divisor), and the result is cast to
    float64 at the end.  t = 0 returns the identity for any flow.  central,
    when given, is flow(x0, t) already computed by the caller, and saves
    that evaluation.
    """
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta!r}")
    if t < 0.0:
        raise ValueError(f"t must be non-negative, got {t!r}")
    x0 = np.atleast_1d(np.asarray(x0))
    n = x0.shape[0]
    y0, count0 = flow(x0, t) if central is None else central
    y0 = np.atleast_1d(np.asarray(y0))
    if not np.all(np.isfinite(np.asarray(y0, dtype=float))):
        raise PropagationError("flow returned a non-finite central state")
    counts = [int(count0)]
    columns = []
    for i in range(n):
        xp = x0.copy()
        xp[i] = xp[i] + delta
        realized = xp[i] - x0[i]
        yi, ci = flow(xp, t)
        yi = np.atleast_1d(np.asarray(yi))
        if not np.all(np.isfinite(np.asarray(yi, dtype=float))):
            raise PropagationError(f"flow returned a non-finite state for direction {i}")
        columns.append((yi - y0) / realized)
        counts.append(int(ci))
    phi = np.stack(columns, axis=1).astype(float)
    return JacobiEstimate(
        phi=phi,
        delta_used=float(delta),
        event_counts=tuple(counts),
        consistent=all(c == counts[0] for c in counts[1:]) if n else True,
    )


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
    with the estimate, so the caller can advance along it.
    """
    if window <= 0.0:
        raise InvalidWindowError(f"window must be positive, got {window!r}")
    # The window spans at most a couple of scan steps; a finer internal
    # scan keeps sub-window impact ordering exact.
    inner_step = window / 16.0
    final, events = simulate(p, s_pre, window, scan_step=inner_step)
    if len(events) != 1:
        raise InvalidWindowError(
            f"window starting at tau={s_pre.tau:.6g} (width {window:.3g}) contains "
            f"{len(events)} impacts of the central trajectory; exactly one required"
        )
    flow = oscillator_flow(p, s_pre.tau, scan_step=inner_step)
    est = estimate_jacobian(
        flow, np.array([s_pre.x, s_pre.v]), window, delta,
        central=(np.array([final.x, final.v]), len(events)),
    )
    sv = np.linalg.svd(est.phi, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] < 1e-12 * sv[0]:
        raise GrazingSingularityError(
            f"window propagator at tau={s_pre.tau:.6g} is numerically singular "
            f"(singular values {sv[-1]:.3e}/{sv[0]:.3e}); the impact is too close "
            f"to grazing for a logarithm to exist"
        )
    return WindowEstimate(
        est.phi, est.delta_used, est.event_counts, est.consistent, final, tuple(events)
    )
