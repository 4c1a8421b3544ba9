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
from dataclasses import dataclass, field, replace

import numpy as np

from .jacobian import PropagationError
from .msf import (
    MSFQuery, TLEResult, TLESettings, _check_settings, _run_grid, compute_tle, settle_transient,
)
from .oscillator import (
    _SCAN_GUARD,
    _ChatterGuard,
    DEFAULT_SCAN_STEP,
    ImpactOscillatorParams,
    OscState,
    WALL_POSITION_TOL,
    bisect_crossing,
    flow_functions,
    flow_table,
    steady_state_coefficients,
)

_CHUNK = 4096
_DIFF_GUARD = 1e-12  # |dev - threshold| and |d_j - d_(j-1)| per unit bound below
                     # which a table sample is recomputed with the closed form
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

    eigenvalues[0] is the mode identified as gamma_0 = 0 (the dynamics along
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


def _negative_seed(seed) -> bool:
    """Whether an int seed, or an entry of a (nested) seed tuple, is negative."""
    if isinstance(seed, (tuple, list)):
        return any(map(_negative_seed, seed))
    return isinstance(seed, (int, np.integer)) and seed < 0


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
        if not math.isfinite(self.sigma):
            raise ValueError(f"sigma must be finite, got {self.sigma!r}")
        if _negative_seed(self.rng_seed):
            raise ValueError(f"rng_seed must be non-negative, got {self.rng_seed!r}")
        _check_settings(
            self, ("max_periods", "record_window", "transient_periods"),
            ("perturbation_magnitude", "sync_threshold", "scan_step"),
        )
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
    2x2 generators B_k = J + sigma*gamma_k*H = m*I + A, A*A = s^2*I, with
    exp(B_k dt) = e^(m dt)*(cosh(s dt)*I + sinh(s dt)/s*A), exact for
    defective generators too.  s^2 is real, so each flow is real: cos and
    sin/w for s = i*w, cosh and sinh/s for real s, 1 and dt for s = 0.
    Multiplying by the reciprocal, as numpy's complex division does, gives
    the complex form's values bit for bit wherever these functions round
    as the complex ones' parts do (numpy's SIMD array cosh and sinh may not).
    """

    def __init__(self, p, graph: CouplingGraph, coupling, sigma: float):
        if not graph.is_symmetric:
            raise InvalidGraphError(
                "the direct coupled simulation requires a symmetric graph"
            )
        self.p = p
        self.n = graph.n_nodes
        gammas, self.q = np.linalg.eigh(graph.matrix)
        base = np.array([[0.0, 1.0], [-1.0, -2.0 * p.zeta]])
        coupling = np.asarray(coupling, dtype=float)
        self.half_traces, self.traceless, self.s_squares = [], [], []
        for g in gammas:
            b = base + sigma * g * coupling
            m = 0.5 * (b[0, 0] + b[1, 1])
            a = b - m * np.eye(2)
            self.half_traces.append(m)
            self.traceless.append(a)
            self.s_squares.append(float(a[0, 0] * a[0, 0] + a[0, 1] * a[1, 0]))
        # Modes with equal (s^2, m) have equal flows (sigma = 0, repeated
        # eigenvalues), computed once: (s^2, m, r = |s|) per distinct generator.
        distinct: dict = {}
        self._generator_of = [
            distinct.setdefault(key, len(distinct))
            for key in zip(self.s_squares, self.half_traces)
        ]
        self._generators = [(s2, m, math.sqrt(abs(s2)) or 1.0) for s2, m in distinct]
        self._ap, self._bp = steady_state_coefficients(p)

    def steady(self, taus):
        """Shared steady state (positions, velocities) at absolute times."""
        ph = self.p.eta * np.asarray(taus)
        cos_ph, sin_ph = np.cos(ph), np.sin(ph)
        xp = self._ap * cos_ph + self._bp * sin_ph
        vp = self.p.eta * (self._bp * cos_ph - self._ap * sin_ph)
        return xp, vp

    def to_modes(self, state: np.ndarray, tau: float) -> np.ndarray:
        """Mode coordinates (n, 2) of the deviation from the steady state."""
        xp, vp = self.steady(tau)
        dev = state.reshape(self.n, 2) - np.array([xp, vp]).T
        return self.q.T @ dev

    def eval(self, modes0: np.ndarray, tau_a: float, dts: np.ndarray):
        """Node positions and velocities at offsets dts from the anchor."""
        dts = np.asarray(dts, dtype=float)
        flows = []
        for s2, m, r in self._generators:
            cosh, sinh = flow_functions(s2, np)
            rdts = r * dts
            flows.append((cosh(rdts), sinh(rdts) * (1.0 / r), np.exp(m * dts)))
        mode_states = np.empty((self.n, 2, dts.size))
        for k in range(self.n):
            u = modes0[k]
            ch, shc, env = flows[self._generator_of[k]]
            mode_states[k] = env * (ch * u[:, None] + shc * (self.traceless[k] @ u)[:, None])
        node_states = np.einsum("ik,kcm->icm", self.q, mode_states)
        xp, vp = self.steady(tau_a + dts)
        return node_states[:, 0, :] + xp, node_states[:, 1, :] + vp

    def wall_distance(self, modes0: np.ndarray, tau_a: float, node: int):
        """x - x_w of one node at scalar offset dt from the anchor, as a function of dt.

        The impact bisection's distance: eval's position in math, with the
        per-mode constants computed once instead of at every call.
        """
        terms = []
        for k in range(self.n):
            s2, m, r = self._generators[self._generator_of[k]]
            u, a = modes0[k], self.traceless[k]
            au0 = float(a[0, 0] * u[0] + a[0, 1] * u[1])
            terms.append((float(self.q[node, k]), float(m), r, 1.0 / r,
                          *flow_functions(s2, math), float(u[0]), au0))
        eta, ap, bp, x_w = self.p.eta, self._ap, self._bp, self.p.x_w
        exp, cos, sin = math.exp, math.cos, math.sin

        def distance(dt):
            x = 0.0
            for qk, m, r, inv_r, cosh, sinh, u0, au0 in terms:
                rdt = r * dt
                x += qk * exp(m * dt) * (cosh(rdt) * u0 + sinh(rdt) * inv_r * au0)
            ph = eta * (tau_a + dt)
            return x + ap * cos(ph) + bp * sin(ph) - x_w

        return distance

    def scan_rows(self, modes0: np.ndarray, tau_a: float, tau_g: float, col_max: list):
        """Coefficients on flow_table's columns, at offsets from the grid point tau_g.

        The mode state at tau_a is carried to tau_g in scalar math and folded
        with the eigenvectors and the forcing phase into rows for x of every
        node, then x_i - x_0 and v_i - v_0 for i >= 1 (the steady state
        cancels in those).  Also returns the bound sum |coef|*col_max over
        the rows of x and v, with col_max the table's largest |value| per
        column: no node's position or velocity in the window exceeds it.
        """
        dt = tau_g - tau_a
        flows = []
        for s2, m, r in self._generators:
            c, sn = flow_functions(s2, math)
            e = math.exp(m * dt)
            flows.append((e * c(r * dt), e * sn(r * dt) / r, r))
        width = 2 * len(flows) + 2
        x = [[0.0] * width for _ in range(self.n)]
        v = [[0.0] * width for _ in range(self.n)]
        for k, (u0, u1) in enumerate(modes0.tolist()):
            gen = self._generator_of[k]
            ec, es, r = flows[gen]
            a00, a01, a10, a11 = self.traceless[k].ravel().tolist()
            w0 = ec * u0 + es * (a00 * u0 + a01 * u1)
            w1 = ec * u1 + es * (a10 * u0 + a11 * u1)
            aw0, aw1 = (a00 * w0 + a01 * w1) / r, (a10 * w0 + a11 * w1) / r
            for xi, vi, qik in zip(x, v, self.q[:, k].tolist()):
                xi[2 * gen] += qik * w0
                xi[2 * gen + 1] += qik * aw0
                vi[2 * gen] += qik * w1
                vi[2 * gen + 1] += qik * aw1
        eta, ph = self.p.eta, self.p.eta * tau_g
        ca = self._ap * math.cos(ph) + self._bp * math.sin(ph)
        sa = self._bp * math.cos(ph) - self._ap * math.sin(ph)
        for xi, vi in zip(x, v):
            xi[-2:] = ca, sa
            vi[-2:] = eta * sa, -eta * ca
        bound = max(sum(abs(c) * b for c, b in zip(row, col_max)) for row in x + v)
        diffs = [[a - b for a, b in zip(row, rows0[0])] for rows0 in (x, v) for row in rows0[1:]]
        return np.array(x + diffs), bound


def _sync_measures(dx: np.ndarray, dv: np.ndarray):
    """Largest node deviation and |x1 - x2| from the rows x_i - x_0, v_i - v_0, i >= 1."""
    return np.sqrt(dx**2 + dv**2).max(axis=0), np.abs(dx[0])


def _kept_samples(dev, d, prev_d: float, threshold: float, margin: float, peaks: bool):
    """Indices of the consumed samples to recompute with the closed form.

    dev and d are the table's approximate largest deviation and |x1 - x2|
    of the samples a window commits, prev_d the exact |x1 - x2| before them.
    Recomputed are the samples whose dev lies within margin of threshold,
    the last two (the observer carries them, and the last one may anchor
    the next window) and, where peaks are read, both samples of every step
    of d smaller than margin (prev_d counted) and every approximate peak.
    Every other decision the observer takes is the exact one.
    """
    keep = np.abs(dev - threshold) < margin
    keep[-2:] = True
    if peaks:
        ext = np.concatenate(([prev_d], d))
        close = np.abs(np.diff(ext)) < margin  # close[j]: d[j] against the one before
        keep |= close
        keep[:-1] |= close[1:] | ((ext[:-2] < ext[1:-1]) & (ext[1:-1] > ext[2:]))
    return np.flatnonzero(keep)


class _SyncObserver:
    """The probe's sync check and bifurcation record, one numpy pass per block.

    Synchronized once the largest node deviation has stayed below threshold
    for a forcing period (sync_time: the start of that stretch); maxima are
    the local maxima of |x1 - x2| at tau >= record_from.  prev_diff_tau is
    the last sample consumed: on a sync stop, the one before the stop sample.
    """

    def __init__(self, tau0, diff0, period, threshold, record_from):
        self.period, self.threshold, self.record_from = period, threshold, record_from
        self.below_start, self.sync_time, self.maxima = None, None, []
        # nan stands for the sample before the start: no maximum is read there.
        self.prev_prev_diff, self.prev_diff, self.prev_diff_tau = math.nan, diff0, tau0

    def observe(self, taus, dev, d) -> bool:
        """Consume committed grid samples with their _sync_measures; True to stop (synced)."""
        below = dev < self.threshold
        stop, done = taus.size, False
        if not below.any():
            self.below_start = None
        else:
            # A below-threshold run starts one past the last sample not below,
            # or at the carried start when it began in an earlier block.
            last_above = np.maximum.accumulate(np.where(below, -1, np.arange(taus.size)))
            run_start = taus[np.minimum(last_above + 1, taus.size - 1)]
            if self.below_start is not None:
                run_start[last_above < 0] = self.below_start
            hits = np.flatnonzero(below & (taus - run_start >= self.period))
            if hits.size:
                stop, done = int(hits[0]), True
                self.sync_time = float(run_start[stop])
            else:
                self.below_start = float(run_start[-1]) if below[-1] else None
        if not stop:
            return done
        if taus[stop - 1] < self.record_from:
            # Every window centre lies before record_from: carry the last two diffs.
            d = np.concatenate(([self.prev_diff], d[max(stop - 2, 0):stop]))
        else:
            # Each consumed sample closes the window (prev_prev, prev, it).
            d = np.concatenate(([self.prev_prev_diff, self.prev_diff], d[:stop]))
            centre_taus = np.concatenate(([self.prev_diff_tau], taus[:stop]))[:-1]
            peaks = (d[:-2] < d[1:-1]) & (d[1:-1] > d[2:]) & (centre_taus >= self.record_from)
            self.maxima.extend(d[1:-1][peaks].tolist())
        self.prev_prev_diff, self.prev_diff = float(d[-2]), float(d[-1])
        self.prev_diff_tau = float(taus[stop - 1])
        return done


# A diverging run squares node differences past the float range before its
# state stops being finite; inf and nan already fail every threshold and
# crossing test, and PropagationError reports the first non-finite anchor.
@np.errstate(over="ignore", invalid="ignore")
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
    below sync_threshold for one full forcing period; raises
    PropagationError at the first anchor state that is not finite, and
    ChatterError where one node's impacts accumulate or pass the cap, as
    simulate does (each node keeps its own _ChatterGuard).

    Anchors sit at each impact and every _CHUNK samples after an anchor.
    Every sample of the window up to the next anchor comes from one matrix
    product of _ModeSegments.scan_rows with a per-run flow_table, which
    differs from _ModeSegments.eval by rounding only.  Those values only
    decide booleans, and eval recomputes each sample whose decision they
    cannot certify or whose value is kept: |x - x_w| below _SCAN_GUARD
    times the window's bound, and the samples _kept_samples names with a
    margin of _DIFF_GUARD times the bound.  The margins hold with room to
    spare: the table's values and eval's both differ from the exact
    solution by about 1e-15 times the bound in node differences (plus
    |v_i - v_0|*ulp(tau), small wherever a decision on them is close),
    and in absolute positions by at most about |v|*ulp(tau) +
    ulp(eta*tau)*|A|, near 1e-11 at tau = 2e4.  So every result equals
    evaluating each sample with eval, bit for bit, wherever numpy's
    elementwise functions give an element the same bits whatever the
    array around it.
    """
    segs = _ModeSegments(p, graph, coupling, sigma)
    n = graph.n_nodes
    period = p.forcing_period
    h = settings.scan_step
    total = int(math.ceil(settings.max_periods * period / h))
    table = np.ascontiguousarray(flow_table(segs._generators, p.eta, h, _CHUNK).T)
    col_max = np.abs(table).max(axis=1).tolist()

    state = np.asarray(x0, dtype=float).copy()
    if state.shape != (2 * n,):
        raise ValueError(f"state must have length {2 * n}, got shape {state.shape}")
    anchor_tau = tau0
    modes = segs.to_modes(state, anchor_tau)

    record_from = tau0 + (settings.max_periods - settings.record_window) * period
    obs = _SyncObserver(
        tau0, abs(state[0] - state[2]), period, settings.sync_threshold, record_from
    )
    impact_times: list[float] = []
    guards = [_ChatterGuard(p) for _ in range(n)]

    k = 1  # grid index of the window's first sample
    while k <= total:
        if not np.isfinite(state).all():
            raise PropagationError(f"coupled probe state is not finite at tau={anchor_tau:.6g}")
        taus = tau0 + np.arange(k, min(k + _CHUNK, total + 1), dtype=float) * h
        rows, bound = segs.scan_rows(modes, anchor_tau, tau0 + (k - 1) * h, col_max)
        vals = rows @ table[:, : taus.size]

        ci = taus.size  # first sample past a wall crossing
        if p.wall_enabled and vals[:n].max() > p.x_w - _SCAN_GUARD * bound:
            g = vals[:n] - p.x_w
            unsure = np.flatnonzero((np.abs(g) < _SCAN_GUARD * bound).any(axis=0))
            if unsure.size:
                g[:, unsure] = segs.eval(modes, anchor_tau, taus[unsure] - anchor_tau)[0] - p.x_w
            crossings = (g > 0.0) & (np.column_stack([state[0::2] - p.x_w, g[:, :-1]]) <= 0.0)
            hit_cols = np.flatnonzero(crossings.any(axis=0))
            if hit_cols.size:
                ci = int(hit_cols[0])
        keep = np.empty(0, dtype=int)
        if ci > 0:
            dev, d = _sync_measures(vals[n : 2 * n - 1, :ci], vals[2 * n - 1 :, :ci])
            keep = _kept_samples(
                dev, d, obs.prev_diff, settings.sync_threshold, _DIFF_GUARD * bound,
                peaks=taus[ci - 1] >= record_from - 2.0 * h,
            )
        dts = taus[keep] - anchor_tau
        if ci < taus.size:
            # The impact point is evaluated with the kept samples, last.
            lo_dt = float(taus[ci - 1]) - anchor_tau if ci > 0 else 0.0
            hi_dt = float(taus[ci]) - anchor_tau
            dts = np.append(dts, min(
                bisect_crossing(segs.wall_distance(modes, anchor_tau, node), lo_dt, hi_dt)
                for node in np.flatnonzero(crossings[:, ci]).tolist()
            ))
        xs, vs = segs.eval(modes, anchor_tau, dts)
        if ci > 0:
            ex, ev = xs[:, : keep.size], vs[:, : keep.size]
            dev[keep], d[keep] = _sync_measures(ex[1:] - ex[0], ev[1:] - ev[0])
            if obs.observe(taus[:ci], dev, d):
                break
        # The next anchor: the window's last sample, or the impact point.
        state = np.column_stack([xs[:, -1], vs[:, -1]]).reshape(-1)
        if ci == taus.size:
            anchor_tau = float(taus[-1])
        else:
            anchor_tau += float(dts[-1])
            for node in range(n):
                if abs(state[2 * node] - p.x_w) <= WALL_POSITION_TOL and state[2 * node + 1] > 0.0:
                    state[2 * node] = p.x_w
                    state[2 * node + 1] = -p.R * state[2 * node + 1]
                    impact_times.append(anchor_tau)
                    guards[node].push(anchor_tau)
        k += ci  # with an impact: the first grid index past it
        modes = segs.to_modes(state, anchor_tau)

    synchronized = obs.sync_time is not None
    periods_run = min(
        int(math.floor((obs.prev_diff_tau - tau0) / period)), settings.max_periods
    )
    return ProbeResult(
        sigma=float(sigma),
        synchronized=synchronized,
        sync_time=obs.sync_time,
        local_maxima=[0.0] if synchronized else obs.maxima,
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
        (run_probe, (p, coupling, replace(settings, sigma=s, rng_seed=(settings.rng_seed, i)),
                     TWO_NODE_GRAPH, base_state))
        for i, s in enumerate(sigmas)
    ]
    outcomes = zip(sigmas, _run_grid(tasks, jobs))
    return [BifurcationPoint(s, result, error) for s, (result, error) in outcomes]
