"""Coupled-network verdicts and the direct synchronization probe.

Two complementary views of the same question:

  * analyze_network computes one transversal exponent per coupling mode
    (graph eigenvalue), predicting synchronization when every transverse
    mode is damped;
  * run_probe integrates a small network of fully coupled impact
    oscillators directly and watches whether a perturbation applied to one
    node dies out.

The direct simulation exploits that identical diffusively coupled nodes
share the forced steady state: in the eigenbasis of a symmetric coupling
graph the deviation from the steady state splits into independent 2x2
mode systems, each solvable in closed form between impacts, so segments
are exact and only impacts require event handling.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .msf import MSFQuery, TLEResult, TLESettings, _run_grid, compute_tle, settle_transient
from .oscillator import (
    CHATTER_CAP,
    DEFAULT_SCAN_STEP,
    ChatterError,
    ImpactOscillatorParams,
    OscState,
    WALL_POSITION_TOL,
    bisect_crossing,
    steady_state_coefficients,
)

_CHUNK = 4096
ZERO_MODE_TOL = 1e-9


class InvalidGraphError(ValueError):
    """The coupling matrix is not a valid diffusive graph."""


@dataclass(frozen=True)
class CouplingGraph:
    """Diffusive coupling matrix: square with zero row sums."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidGraphError(f"graph matrix must be square, got shape {m.shape}")
        if m.shape[0] < 2:
            raise InvalidGraphError("a coupling graph needs at least two nodes")
        if not np.all(np.isfinite(m)):
            raise InvalidGraphError("graph matrix contains non-finite entries")
        row_sums = np.abs(m.sum(axis=1))
        if row_sums.max() > 1e-12:
            raise InvalidGraphError(
                f"row sums must vanish for diffusive coupling; worst |sum| = "
                f"{row_sums.max():.3e}"
            )
        object.__setattr__(self, "matrix", m)

    @property
    def n_nodes(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_symmetric(self) -> bool:
        return bool(np.allclose(self.matrix, self.matrix.T, atol=1e-12, rtol=0.0))


TWO_NODE_GRAPH = CouplingGraph(np.array([[-1.0, 1.0], [1.0, -1.0]]))


def all_to_all_graph(n: int) -> CouplingGraph:
    """Complete graph with unit links: off-diagonal 1, diagonal 1-n."""
    m = np.ones((n, n)) - n * np.eye(n)
    return CouplingGraph(m)


def load_graph(path) -> CouplingGraph:
    """Read a whitespace-separated square matrix from a text file."""
    try:
        m = np.loadtxt(path, ndmin=2)
    except Exception as exc:
        raise InvalidGraphError(f"could not parse graph file {path}: {exc}") from exc
    return CouplingGraph(m)


def graph_spectrum(graph: CouplingGraph) -> np.ndarray:
    """Eigenvalues of the coupling matrix, sorted by descending real part.

    Symmetric matrices go through the Hermitian solver, so their
    eigenvalues come out exactly real.
    """
    if graph.is_symmetric:
        values = np.linalg.eigvalsh(graph.matrix).astype(complex)
    else:
        values = np.linalg.eigvals(graph.matrix)
    order = np.lexsort((values.imag, -values.real))
    return values[order]


@dataclass
class ModeSpectrum:
    """Graph eigenvalues with one exponent result per mode.

    eigenvalues[0] is the mode identified as gamma_0 = 0 (the motion along
    the synchronization manifold); its exponent is the isolated-oscillator
    exponent and is excluded from stability verdicts.
    """

    sigma: float
    eigenvalues: np.ndarray
    results: list[TLEResult]


def analyze_network(
    p: ImpactOscillatorParams,
    coupling,
    graph: CouplingGraph,
    sigma: float,
    settings: TLESettings = TLESettings(),
    base_state: OscState | None = None,
) -> ModeSpectrum:
    """Per-mode transversal exponents at coupling strength sigma.

    Requires exactly one zero eigenvalue (a connected diffusive graph);
    each mode k is evaluated at alpha + i*beta = sigma * gamma_k with the
    transient shared across modes.
    """
    values = graph_spectrum(graph)
    near_zero = np.nonzero(np.abs(values) < ZERO_MODE_TOL)[0]
    if near_zero.size != 1:
        raise InvalidGraphError(
            f"expected exactly one zero eigenvalue, found {near_zero.size} "
            f"within {ZERO_MODE_TOL:g} (is the graph connected?)"
        )
    order = [int(near_zero[0])] + [i for i in range(len(values)) if i != near_zero[0]]
    values = values[order]
    if base_state is None:
        base_state = settle_transient(p, settings)
    results = []
    for gamma in values:
        query = MSFQuery(alpha=sigma * float(gamma.real), beta=sigma * float(gamma.imag))
        results.append(compute_tle(p, coupling, query, settings, base_state=base_state))
    return ModeSpectrum(sigma=float(sigma), eigenvalues=values, results=results)


def sync_verdict(spectrum: ModeSpectrum, margin: float = 1e-3) -> str:
    """Classify the synchronized state from the transverse exponents.

    "stable" when every transverse exponent sits below -margin, "unstable"
    when any exceeds +margin, "marginal" otherwise.
    """
    if len(spectrum.results) != len(spectrum.eigenvalues):
        raise ValueError("mode spectrum is missing exponent results")
    transverse = [r.tle for r in spectrum.results[1:]]
    if not transverse:
        raise ValueError("no transverse modes to classify")
    if any(t > margin for t in transverse):
        return "unstable"
    if all(t < -margin for t in transverse):
        return "stable"
    return "marginal"


@dataclass(frozen=True)
class ProbeSettings:
    """Protocol constants for the direct synchronization probe."""

    sigma: float
    perturbation_magnitude: float = 1e-3
    rng_seed: object = 12345
    max_periods: int = 2000
    sync_threshold: float = 1e-10
    record_window: int = 100
    transient_periods: int = 500
    scan_step: float = DEFAULT_SCAN_STEP

    def __post_init__(self):
        for name in ("perturbation_magnitude", "sync_threshold", "scan_step"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        for name in ("max_periods", "record_window", "transient_periods"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        if self.record_window > self.max_periods:
            raise ValueError("record_window cannot exceed max_periods")


@dataclass
class ProbeResult:
    """Outcome of one direct probe run."""

    sigma: float
    synchronized: bool
    sync_time: float | None
    local_maxima: list[float] = field(repr=False)
    periods_run: int = 0
    impact_times: list[float] = field(default_factory=list, repr=False)


class _ModeSegments:
    """Closed-form segment evaluation in the graph eigenbasis.

    For a symmetric graph Q diag(gamma) Q^T the deviation of the node
    states from the shared steady state evolves mode by mode under the
    2x2 generators B_k = J + sigma*gamma_k*H.  Each exp(B_k dt) uses the
    trace/traceless split, which stays exact for defective generators.
    """

    def __init__(self, p, graph: CouplingGraph, coupling, sigma: float):
        if not graph.is_symmetric:
            raise InvalidGraphError(
                "the direct coupled simulation requires a symmetric graph"
            )
        self.p = p
        self.n = graph.n_nodes
        gammas, q = np.linalg.eigh(graph.matrix)
        self.q = q
        base = np.array([[0.0, 1.0], [-1.0, -2.0 * p.zeta]])
        coupling = np.asarray(coupling, dtype=float)
        self.half_traces = []
        self.traceless = []
        self.s_values = []
        for g in gammas:
            b = base + sigma * g * coupling
            m = 0.5 * (b[0, 0] + b[1, 1])
            a = b - m * np.eye(2)
            s2 = a[0, 0] * a[0, 0] + a[0, 1] * a[1, 0]
            self.half_traces.append(m)
            self.traceless.append(a)
            self.s_values.append(complex(np.sqrt(complex(s2))))
        a_p, b_p = steady_state_coefficients(p)
        self._ap, self._bp = a_p, b_p

    def steady(self, taus):
        """Shared steady state (positions, velocities) at absolute times."""
        ph = self.p.eta * np.asarray(taus)
        xp = self._ap * np.cos(ph) + self._bp * np.sin(ph)
        vp = self.p.eta * (self._bp * np.cos(ph) - self._ap * np.sin(ph))
        return xp, vp

    def to_modes(self, state: np.ndarray, tau: float) -> np.ndarray:
        """Mode coordinates (n, 2) of the deviation from the steady state."""
        xp, vp = self.steady(tau)
        dev = state.reshape(self.n, 2) - np.array([xp, vp]).T
        return self.q.T @ dev

    def eval(self, modes0: np.ndarray, tau_a: float, dts: np.ndarray):
        """Node positions and velocities at offsets dts from the anchor."""
        dts = np.asarray(dts, dtype=float)
        mode_states = np.empty((self.n, 2, dts.size))
        for k in range(self.n):
            u = modes0[k]
            a = self.traceless[k]
            s = self.s_values[k]
            z = s * dts
            ch = np.cosh(z)
            shc = dts.astype(complex) if s == 0.0 else np.sinh(z) / s
            au = a @ u
            env = np.exp(self.half_traces[k] * dts)
            mode_states[k, 0] = env * np.real(ch * u[0] + shc * au[0])
            mode_states[k, 1] = env * np.real(ch * u[1] + shc * au[1])
        node_states = np.einsum("ik,kcm->icm", self.q, mode_states)
        xp, vp = self.steady(tau_a + dts)
        return node_states[:, 0, :] + xp, node_states[:, 1, :] + vp

    def eval_full(self, modes0: np.ndarray, tau_a: float, dt: float) -> np.ndarray:
        """Full flat state vector at a single offset."""
        xs, vs = self.eval(modes0, tau_a, np.array([dt]))
        return np.column_stack([xs[:, 0], vs[:, 0]]).reshape(-1)

    def position_of(self, modes0: np.ndarray, tau_a: float, node: int, dt: float) -> float:
        """Scalar position of one node, used by the impact bisection."""
        x = 0.0
        for k in range(self.n):
            u = modes0[k]
            a = self.traceless[k]
            s = self.s_values[k]
            z = s * dt
            ch = np.cosh(z)
            shc = complex(dt) if s == 0.0 else np.sinh(z) / s
            au0 = a[0, 0] * u[0] + a[0, 1] * u[1]
            x += self.q[node, k] * math.exp(self.half_traces[k] * dt) * (ch * u[0] + shc * au0).real
        ph = self.p.eta * (tau_a + dt)
        return x + self._ap * math.cos(ph) + self._bp * math.sin(ph)


def _simulate_coupled(
    p: ImpactOscillatorParams,
    graph: CouplingGraph,
    coupling,
    sigma: float,
    x0: np.ndarray,
    tau0: float,
    settings: ProbeSettings,
) -> ProbeResult:
    """Direct event-driven run of the coupled network on the scan grid.

    Tracks the full state deviation between nodes for the synchronization
    check and the position difference of the first two nodes for the
    bifurcation record.  Terminates early once the deviation has stayed
    below sync_threshold for one full forcing period.
    """
    segs = _ModeSegments(p, graph, coupling, sigma)
    n = graph.n_nodes
    period = p.forcing_period
    h = settings.scan_step
    total = int(math.ceil(settings.max_periods * period / h))
    record_from = tau0 + (settings.max_periods - settings.record_window) * period

    state = np.asarray(x0, dtype=float).copy()
    if state.shape != (2 * n,):
        raise ValueError(f"state must have length {2 * n}, got shape {state.shape}")
    anchor_tau = tau0
    modes = segs.to_modes(state, anchor_tau)

    below_start: float | None = None
    synchronized = False
    sync_time: float | None = None
    maxima: list[float] = []
    prev_diff = abs(state[0] - state[2])
    prev_prev_diff: float | None = None
    prev_diff_tau = tau0
    impact_times: list[float] = []
    recent_impacts: deque = deque(maxlen=CHATTER_CAP + 1)

    def observe(taus, xs, vs):
        """Consume committed grid samples; returns True to stop (synced)."""
        nonlocal below_start, synchronized, sync_time
        nonlocal prev_diff, prev_prev_diff, prev_diff_tau
        dev = np.sqrt((xs[1:] - xs[0]) ** 2 + (vs[1:] - vs[0]) ** 2).max(axis=0)
        diffs = np.abs(xs[0] - xs[1])
        for i in range(taus.size):
            tau = float(taus[i])
            if dev[i] < settings.sync_threshold:
                if below_start is None:
                    below_start = tau
                elif tau - below_start >= period:
                    synchronized = True
                    sync_time = below_start
                    return True
            else:
                below_start = None
            d = float(diffs[i])
            if (
                prev_prev_diff is not None
                and prev_prev_diff < prev_diff
                and prev_diff > d
                and prev_diff_tau >= record_from
            ):
                maxima.append(prev_diff)
            prev_prev_diff = prev_diff
            prev_diff = d
            prev_diff_tau = tau
        return False

    k_next = 1
    while k_next <= total and not synchronized:
        k_stop = min(k_next + _CHUNK - 1, total)
        taus = tau0 + np.arange(k_next, k_stop + 1, dtype=float) * h
        dts = taus - anchor_tau
        xs, vs = segs.eval(modes, anchor_tau, dts)

        g = xs - p.x_w
        g_prev = np.concatenate(
            [(state.reshape(n, 2)[:, :1] - p.x_w), g[:, :-1]], axis=1
        )
        crossings = (g > 0.0) & (g_prev <= 0.0)
        hit_cols = np.nonzero(crossings.any(axis=0))[0]

        if hit_cols.size == 0:
            if observe(taus, xs, vs):
                break
            # Re-anchor at the chunk end to keep segment offsets small.
            state = np.column_stack([xs[:, -1], vs[:, -1]]).reshape(-1)
            anchor_tau = float(taus[-1])
            modes = segs.to_modes(state, anchor_tau)
            k_next = k_stop + 1
            continue

        ci = int(hit_cols[0])
        if ci > 0 and observe(taus[:ci], xs[:, :ci], vs[:, :ci]):
            break
        lo_dt = float(dts[ci - 1]) if ci > 0 else 0.0
        hi_dt = float(dts[ci])
        tau_c_dt = None
        for node in np.nonzero(crossings[:, ci])[0].tolist():
            cand = bisect_crossing(
                lambda dt: segs.position_of(modes, anchor_tau, node, dt) - p.x_w, lo_dt, hi_dt
            )
            if tau_c_dt is None or cand < tau_c_dt:
                tau_c_dt = cand
        full = segs.eval_full(modes, anchor_tau, tau_c_dt)
        tau_c = anchor_tau + tau_c_dt
        for node in range(n):
            if abs(full[2 * node] - p.x_w) <= WALL_POSITION_TOL and full[2 * node + 1] > 0.0:
                full[2 * node] = p.x_w
                full[2 * node + 1] = -p.R * full[2 * node + 1]
                impact_times.append(tau_c)
                recent_impacts.append(tau_c)
        if (
            len(recent_impacts) == recent_impacts.maxlen
            and recent_impacts[-1] - recent_impacts[0] < period
        ):
            raise ChatterError(tau_c, len(recent_impacts), period)
        state = full
        anchor_tau = tau_c
        modes = segs.to_modes(state, anchor_tau)
        k_next = k_next + ci  # first grid index past tau_c

    if synchronized:
        maxima = [0.0]
    periods_run = min(
        int(math.floor((prev_diff_tau - tau0) / period)), settings.max_periods
    )
    return ProbeResult(
        sigma=float(sigma),
        synchronized=synchronized,
        sync_time=sync_time,
        local_maxima=maxima,
        periods_run=periods_run,
        impact_times=impact_times,
    )


def run_probe(
    p: ImpactOscillatorParams,
    coupling,
    settings: ProbeSettings,
    graph: CouplingGraph = TWO_NODE_GRAPH,
    base_state: OscState | None = None,
) -> ProbeResult:
    """Perturb one node of a synchronized network and watch the outcome.

    All nodes start on the shared post-transient state; node 2 is displaced
    by perturbation_magnitude along a seeded random direction on the unit
    circle (reflected inward if it would start beyond the wall).  Returns
    the synchronization flag, the time synchronization was reached, and the
    local maxima of |x^(1) - x^(2)| over the final record window.
    """
    if base_state is None:
        base_state = _settle_for_probe(p, settings)
    rng = np.random.default_rng(settings.rng_seed)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    dx = settings.perturbation_magnitude * math.cos(angle)
    dv = settings.perturbation_magnitude * math.sin(angle)
    if p.wall_enabled and base_state.x + dx > p.x_w:
        dx = -dx
    n = graph.n_nodes
    x0 = np.tile([base_state.x, base_state.v], n)
    x0[2] += dx
    x0[3] += dv
    return _simulate_coupled(p, graph, coupling, settings.sigma, x0, base_state.tau, settings)


def _settle_for_probe(p: ImpactOscillatorParams, settings: ProbeSettings) -> OscState:
    """The shared post-transient state, settled with the probe's own protocol."""
    return settle_transient(
        p, TLESettings(transient_periods=settings.transient_periods, scan_step=settings.scan_step)
    )


def _probe_worker(args) -> "BifurcationPoint":
    p, coupling, settings, base_state = args
    try:
        result = run_probe(p, coupling, settings, base_state=base_state)
        return BifurcationPoint(settings.sigma, result=result)
    except Exception as exc:
        return BifurcationPoint(settings.sigma, error=f"{type(exc).__name__}: {exc}")


@dataclass
class BifurcationPoint:
    """One sigma entry of a bifurcation scan."""

    sigma: float
    result: ProbeResult | None = None
    error: str | None = None


def bifurcation_scan(
    p: ImpactOscillatorParams,
    coupling,
    sigmas,
    settings: ProbeSettings,
    jobs: int | None = None,
    base_state: OscState | None = None,
) -> list[BifurcationPoint]:
    """Probe runs over a sigma grid with per-point derived seeds.

    Each point reseeds deterministically from (rng_seed, grid index), so
    results are identical for any worker count.  The transient is settled
    once and shared.
    """
    sigmas = [float(s) for s in np.atleast_1d(sigmas)]
    if base_state is None:
        base_state = _settle_for_probe(p, settings)
    coupling = np.asarray(coupling, dtype=float)
    tasks = [
        (p, coupling, replace(settings, sigma=s, rng_seed=(settings.rng_seed, i)), base_state)
        for i, s in enumerate(sigmas)
    ]
    return _run_grid(_probe_worker, tasks, jobs)
