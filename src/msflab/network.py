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
from types import SimpleNamespace

import numpy as np

from .jacobian import PropagationError
from .msf import (
    MSFQuery, TLEResult, TLESettings, _check_coupling, _check_jobs, _check_settings, _run_grid,
    compute_tle, settle_transient,
)
from .oscillator import (
    _EPS,
    _SCAN_GUARD,
    _ChatterGuard,
    _model_bounds,
    DEFAULT_SCAN_STEP,
    ImpactOscillatorParams,
    OscState,
    WALL_POSITION_TOL,
    bisect_crossing,
    flow_functions,
    flow_table,
    steady_state_coefficients,
)

_CHUNK = 4096  # samples per table product: a slice of a span
_SPAN = 4 * _CHUNK  # samples between anchors without an impact
_DIFF_GUARD = 1e-12  # |dev - threshold| and |d_j - d_(j-1)| per unit bound below
                     # which a table sample is recomputed with the closed form
_FINITE_BOUND = 1e300  # a span bound below this leaves every state of the span finite
_POINTS = 8  # at most this many offsets are recomputed one by one, in floats
ZERO_MODE_TOL = 1e-9
# The recomputation's scalar flow functions (see _ModeSegments).
_POINT_LIB = SimpleNamespace(
    cos=math.cos, sin=math.sin,
    cosh=lambda x: float(np.cosh(x)), sinh=lambda x: float(np.sinh(x)),
)


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
    coupling = _check_coupling(coupling)
    values = graph_spectrum(graph)
    near_zero = np.nonzero(np.abs(values) < ZERO_MODE_TOL)[0]
    if near_zero.size != 1:
        raise InvalidGraphError(
            f"expected exactly one zero eigenvalue, found {near_zero.size} "
            f"within {ZERO_MODE_TOL:g} (is the graph connected?)"
        )
    order = [int(near_zero[0])] + [i for i in range(len(values)) if i != near_zero[0]]
    values = values[order]
    values[0] = 0.0  # the zero mode is queried at exactly alpha + i*beta = 0
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
        if not math.isfinite(self.sigma):
            raise ValueError(f"sigma must be finite, got {self.sigma!r}")
        try:
            np.random.default_rng(self.rng_seed)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"rng_seed must be non-negative ints, or nested sequences of them, that numpy "
                f"accepts as a seed; got {self.rng_seed!r} ({exc})"
            ) from None
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


def _symmetric_eigen(m: np.ndarray) -> tuple:
    """Ascending eigenvalues and orthonormal eigenvectors (columns) of a symmetric matrix,
    by cyclic Jacobi rotations in Python floats: unlike LAPACK's eigh, the same bits
    under every BLAS kernel.  A rotation zeroes a_ij and moves a_ii, a_jj by t*a_ij."""
    n = len(m)
    a, v = m.tolist(), np.eye(n).tolist()
    for _ in range(50):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if a[i][j] != 0.0]
        if not pairs:
            break
        for i, j in pairs:
            aij, aii, ajj = a[i][j], a[i][i], a[j][j]
            if aij == 0.0:  # zeroed by an earlier rotation of the sweep
                continue
            theta = (ajj - aii) / (2.0 * aij)
            t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
            c = 1.0 / math.hypot(t, 1.0)
            sn = t * c
            for row in a + v:
                row[i], row[j] = c * row[i] - sn * row[j], sn * row[i] + c * row[j]
            both = list(zip(a[i], a[j]))
            a[i], a[j] = [c * x - sn * y for x, y in both], [sn * x + c * y for x, y in both]
            a[i][j] = a[j][i] = 0.0
            a[i][i], a[j][j] = aii - t * aij, ajj + t * aij
    order = sorted(range(n), key=lambda k: a[k][k])
    return np.array([a[k][k] for k in order]), np.array(v)[:, order]


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

    Every evaluation reads a span's u and A_k u from terms, the one
    product with A_k; to_modes and terms sum in Python floats.  eval takes
    arrays of offsets, point one offset in Python floats: math's cos and
    sin, numpy's exp, cosh and sinh on floats (math's exp, cosh and sinh
    round differently from numpy's arrays on x86-64), the modes summed in
    one order.  So point gives eval's bits wherever those functions round
    as numpy's array functions do.
    """

    def __init__(self, p, graph: CouplingGraph, coupling, sigma: float):
        if not graph.is_symmetric:
            raise InvalidGraphError(
                "the direct coupled simulation requires a symmetric graph"
            )
        self.p = p
        self.n = graph.n_nodes
        gammas, self.q = _symmetric_eigen(graph.matrix)
        base = np.array([[0.0, 1.0], [-1.0, -2.0 * p.zeta]])
        coupling = _check_coupling(coupling)
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
        self._generators = [(s2, float(m), math.sqrt(abs(s2)) or 1.0) for s2, m in distinct]
        self._ap, self._bp = steady_state_coefficients(p)
        # Per-run constants of the window loop's scalar work: q by rows, by
        # columns and as q_i - q_0 by columns, and A_k's entries per mode.
        self._q_rows, self._q_cols = self.q.tolist(), self.q.T.tolist()
        self._dq_cols = [[q_ik - q_k[0] for q_ik in q_k[1:]] for q_k in self._q_cols]
        self._entries = [a.ravel().tolist() for a in self.traceless]
        self._scan_flows = [(flow_functions(s2, math), m, r) for s2, m, r in self._generators]
        self._point_flows = [
            (*flow_functions(s2, _POINT_LIB), m, r, 1.0 / r) for s2, m, r in self._generators
        ]
        # Per mode the wall distance's flow constants and its model's growth
        # exponent g, and the model's scale of free (see wall_distance).
        self._wall_modes = [
            (m, r, 1.0 / r, *flow_functions(s2, math), s2, max(m, 0.0) + (r if s2 >= 0.0 else 0.0))
            for s2, m, r in (self._generators[g] for g in self._generator_of)
        ]
        rate = max(abs(m) + r for _, m, r in self._generators)
        self._wall_scale = max(1.0, rate) ** 2 * max(1.0, self.n / 8)

    def steady(self, taus):
        """Shared steady state (positions, velocities) at absolute times."""
        ph = self.p.eta * np.asarray(taus)
        cos_ph, sin_ph = np.cos(ph), np.sin(ph)
        xp = self._ap * cos_ph + self._bp * sin_ph
        vp = self.p.eta * (self._bp * cos_ph - self._ap * sin_ph)
        return xp, vp

    def _steady_at(self, tau: float):
        """steady at one time, in math.cos and math.sin."""
        ph = self.p.eta * tau
        c, s = math.cos(ph), math.sin(ph)
        return self._ap * c + self._bp * s, self.p.eta * (self._bp * c - self._ap * s)

    def to_modes(self, state, tau: float) -> list:
        """Mode coordinates (u_0, u_1) per mode of the deviation of (x_0, v_0, x_1, ...)
        from the steady state: q^T times it, summed over the nodes in order."""
        xp, vp = self._steady_at(tau)
        devs = [(x - xp, v - vp) for x, v in zip(state[0::2], state[1::2])]
        modes = []
        for q_k in self._q_cols:
            u0 = u1 = 0.0
            for qik, (dx, dv) in zip(q_k, devs):
                u0, u1 = u0 + qik * dx, u1 + qik * dv
            modes.append((u0, u1))
        return modes

    def terms(self, modes) -> list:
        """(u_0, u_1, (A u)_0, (A u)_1) per mode of mode coordinates u, read by every evaluation."""
        return [
            (u0, u1, a00 * u0 + a01 * u1, a10 * u0 + a11 * u1)
            for (u0, u1), (a00, a01, a10, a11) in zip(modes, self._entries)
        ]

    def eval(self, terms: list, tau_a: float, dts: np.ndarray):
        """Node positions and velocities at offsets dts from the anchor, from the window's terms."""
        dts = np.asarray(dts, dtype=float)
        terms = np.array(terms)
        flows = []
        for s2, m, r in self._generators:
            cosh, sinh = flow_functions(s2, np)
            rdts = r * dts
            flows.append((cosh(rdts), sinh(rdts) * (1.0 / r), np.exp(m * dts)))
        mode_states = np.empty((self.n, 2, dts.size))
        for k in range(self.n):
            ch, shc, env = flows[self._generator_of[k]]
            mode_states[k] = env * (ch * terms[k, :2, None] + shc * terms[k, 2:, None])
        node_states = 0.0  # summed over the modes in point's order
        for k in range(self.n):
            node_states = node_states + self.q[:, k, None, None] * mode_states[k]
        xp, vp = self.steady(tau_a + dts)
        return node_states[:, 0, :] + xp, node_states[:, 1, :] + vp

    def point(self, terms: list, tau_a: float, dt: float):
        """eval at one offset in Python floats: lists of node positions and velocities."""
        flows = []
        for cosh, sinh, m, r, inv_r in self._point_flows:
            rdt = r * dt
            flows.append((cosh(rdt), sinh(rdt) * inv_r, float(np.exp(m * dt))))
        modes = []
        for (u0, u1, au0, au1), g in zip(terms, self._generator_of):
            ch, shc, env = flows[g]
            modes.append((env * (ch * u0 + shc * au0), env * (ch * u1 + shc * au1)))
        xp, vp = self._steady_at(tau_a + dt)
        xs, vs = [], []
        for row in self._q_rows:
            x = v = 0.0
            for qk, (mx, mv) in zip(row, modes):
                x += qk * mx
                v += qk * mv
            xs.append(x + xp)
            vs.append(v + vp)
        return xs, vs

    def measures(self, terms: list, tau_a: float, dts: np.ndarray):
        """_sync_measures of eval's node states at offsets dts.

        A few offsets go through point and the measures through floats,
        which round as numpy's (a nan deviation spreads as numpy's max
        spreads it), returned as lists; more go through eval.
        """
        if dts.size > _POINTS:
            xs, vs = self.eval(terms, tau_a, dts)
            return _sync_measures(xs[1:] - xs[0], vs[1:] - vs[0])
        devs, ds = [], []
        for dt in dts.tolist():
            (x0, *xs), (v0, *vs) = self.point(terms, tau_a, dt)
            node = [math.sqrt((x - x0) * (x - x0) + (v - v0) * (v - v0)) for x, v in zip(xs, vs)]
            devs.append(max(node) if all(e == e for e in node) else math.nan)
            ds.append(abs(xs[0] - x0))
        return devs, ds

    def wall_distance(self, terms: list, tau_a: float, node: int):
        """x - x_w of one node at scalar offset dt from the anchor, and its model.

        distance(dt) is eval's position in math, (A u)_0 included, with the
        per-mode constants computed once; the plain bisection has always
        read it.  model(lo, hi) is bisect_crossing's through the
        oscillator's _model_bounds.  Over offsets [0, hi] each mode's part
        e^(m t)*(c*u_0 + sn/r*(A u)_0) of x stays below its size |q_k|*(|u_0|
        + |(A u)_0|/r) times e^(g*hi), g = max(m, 0) plus r for s^2 >= 0;
        applying B multiplies a size by at most rate = |m| + r, so x' and x''
        stay below rate and rate^2 times it (motion's velocity reads B u).
        free is the sum of the grown sizes, scaled by max(1, rate)^2 over
        the modes, which covers the rate that _model_bounds takes as 1, and
        by n/8 past eight modes for the longer sums.
        """
        row, sizes = [], []
        for (u0, u1, _, _), (a00, a01, _, _), qk, (m, r, inv_r, cosh, sinh, s2, g) in zip(
            terms, self._entries, self._q_rows[node], self._wall_modes
        ):
            au0 = a00 * u0 + a01 * u1
            row.append((qk, m, r, inv_r, cosh, sinh, u0, au0, m * u0 + au0, m * au0 + s2 * u0))
            sizes.append((abs(qk) * (abs(u0) + abs(au0) * inv_r), g))
        scale = self._wall_scale
        eta, ap, bp, x_w = self.p.eta, self._ap, self._bp, self.p.x_w
        exp, cos, sin = math.exp, math.cos, math.sin

        def distance(dt):
            x = 0.0
            for qk, m, r, inv_r, cosh, sinh, u0, au0, _, _ in row:
                rdt = r * dt
                x += qk * exp(m * dt) * (cosh(rdt) * u0 + sinh(rdt) * inv_r * au0)
            ph = eta * (tau_a + dt)
            return x + ap * cos(ph) + bp * sin(ph) - x_w

        def motion(dt):
            x = v = 0.0
            for qk, m, r, inv_r, cosh, sinh, u0, au0, bu0, abu0 in row:
                rdt = r * dt
                e, ch, sh = qk * exp(m * dt), cosh(rdt), sinh(rdt) * inv_r
                x += e * (ch * u0 + sh * au0)
                v += e * (ch * bu0 + sh * abu0)
            ph = eta * (tau_a + dt)
            cp, sp = cos(ph), sin(ph)
            return x + ap * cp + bp * sp - x_w, v + eta * (bp * cp - ap * sp)

        def model(lo, hi):
            free = sum(size * exp(min(g * hi, 700.0)) for size, g in sizes)
            return (motion, *_model_bounds(eta, x_w, scale * free, abs(ap) + abs(bp), tau_a, hi))

        return distance, model

    def scan_table(self, step: float) -> tuple:
        """The per-run table of scan: flow_table on one span, transposed, with
        each column's largest |value| and, per generator, the least and
        largest norm of its column pair on the grid."""
        values = np.ascontiguousarray(flow_table(self._generators, self.p.eta, step, _SPAN).T)
        norms = [np.hypot(values[2 * g], values[2 * g + 1]) for g in range(len(self._generators))]
        return values, np.abs(values).max(axis=1).tolist(), [(float(r.min()), float(r.max())) for r in norms]

    def scan(self, terms: list, tau_a: float, tau_g: float, table: tuple):
        """One span's coefficients on the scan_table's rows, its bound and its floor.

        The mode state at tau_a is carried to the grid point tau_g in
        scalar math and folded with the eigenvectors and the forcing phase
        into coefficients on flow_table's columns: rows for x of every node,
        then x_i - x_0 and v_i - v_0 of each node i >= 1 in turn (q_i - q_0
        applied to the modes, without the steady state); the table values
        at the grid offsets j + 1, j + 2, ... from tau_g are their product
        with the scan_table's columns j, j + 1, ....  The bound, each mode's larger
        sum |coef|*col_max over its x and v columns summed over the modes
        (|q| <= 1) plus the forcing's, exceeds every node's |x| and |v| in
        the span.  The floor is a lower bound of the table's first node
        pair deviation sqrt(dx^2 + dv^2) over the span: per generator the
        pair's 2x2 block M maps its column pair, of norm between lo and hi,
        so one generator's part is at least sigma_min(M)*lo >= |det M|/|M|_F*lo
        and each other's at most |M|_F*hi; less the product's rounding,
        width*eps times the pair's sums |coef|*col_max.  Zero or negative
        where no such bound shows.
        """
        _, col_max, spans = table
        n, width = self.n, len(col_max)
        dt = tau_g - tau_a
        flows = []
        for (c, sn), m, r in self._scan_flows:
            e = math.exp(m * dt)
            flows.append((e * c(r * dt), e * sn(r * dt) / r, r))
        rows = [[0.0] * width for _ in range(3 * n - 2)]
        diffs = list(zip(rows[n::2], rows[n + 1::2]))
        bound = 0.0
        for (u0, u1, au0, au1), g, (a00, a01, a10, a11), q_k, dq_k in zip(
            terms, self._generator_of, self._entries, self._q_cols, self._dq_cols
        ):
            ec, es, r = flows[g]
            w0, w1 = ec * u0 + es * au0, ec * u1 + es * au1
            aw0, aw1 = (a00 * w0 + a01 * w1) / r, (a10 * w0 + a11 * w1) / r
            j = 2 * g
            for row, qik in zip(rows, q_k):
                row[j] += qik * w0
                row[j + 1] += qik * aw0
            for (dx, dv), dq in zip(diffs, dq_k):
                dx[j] += dq * w0
                dx[j + 1] += dq * aw0
                dv[j] += dq * w1
                dv[j + 1] += dq * aw1
            c0, c1 = col_max[j], col_max[j + 1]
            bound += max(abs(w0) * c0 + abs(aw0) * c1, abs(w1) * c0 + abs(aw1) * c1)
        eta, ph = self.p.eta, self.p.eta * tau_g
        c, s = math.cos(ph), math.sin(ph)
        ca, sa = self._ap * c + self._bp * s, self._bp * c - self._ap * s
        for row in rows[:n]:
            row[-2:] = ca, sa
        c0, c1 = col_max[-2:]
        bound += max(abs(ca) * c0 + abs(sa) * c1, eta * (abs(sa) * c0 + abs(ca) * c1))
        parts, sums = [], 0.0
        dx, dv = diffs[0]
        for g, (lo, hi) in enumerate(spans):
            j = 2 * g
            a, b, c, d = dx[j], dx[j + 1], dv[j], dv[j + 1]
            norm, ad, bc = math.sqrt(a * a + b * b + c * c + d * d), a * d, b * c
            det = abs(ad - bc) - 4.0 * _EPS * (abs(ad) + abs(bc))
            parts.append((det / norm * lo if norm else 0.0, norm * hi))
            sums += (abs(a) + abs(c)) * col_max[j] + (abs(b) + abs(d)) * col_max[j + 1]
        others = sum(hi for _, hi in parts)
        floor = max(lo - (others - hi) for lo, hi in parts) * (1.0 - 1e-9) - width * _EPS * sums
        return np.array(rows), bound, floor


def _first_crossing(x_rows: np.ndarray, g0: list, x_w: float, guard: float, positions):
    """The first column where a node's x - x_w turns positive, and the nodes that do so there.

    x_rows holds a slice's table positions, g0() each node's exact x - x_w
    before its first column and positions(cols) eval's positions at
    columns.  Columns within guard of the wall take eval's signs, the others
    the table's, which differs from eval's by far less.  Usually the first
    column near the wall is certain and the crossing; else the window from
    there is decided as a whole.  Returns (window size, []) without a
    crossing, also where the table holds a nan.
    """
    size = x_rows.shape[1]
    if not x_rows.max() > x_w - guard:
        return size, []
    hot = x_rows > x_w - guard
    a = min(j for i, j in enumerate(hot.argmax(axis=1).tolist()) if hot[i, j])
    column = x_rows[:, a].tolist()  # every node's column a - 1 lies inside by more than guard
    prev = None if a else g0()
    if all(abs(x - x_w) >= guard for x in column):
        nodes = [i for i, x in enumerate(column) if x > x_w and (a or prev[i] <= 0.0)]
        if nodes:
            return a, nodes
    g = x_rows[:, a:] - x_w
    unsure = np.flatnonzero((np.abs(g) < guard).any(axis=0))
    if unsure.size:
        g[:, unsure] = positions(a + unsure) - x_w
    rises = g > 0.0
    rises[:, 1:] &= g[:, :-1] <= 0.0
    if not a:
        rises[:, 0] &= np.array(prev) <= 0.0
    cols = np.flatnonzero(rises.any(axis=0))
    if not cols.size:
        return size, []
    return a + int(cols[0]), np.flatnonzero(rises[:, cols[0]]).tolist()


def _sync_measures(dx: np.ndarray, dv: np.ndarray):
    """Largest node deviation and |x1 - x2| from the rows x_i - x_0, v_i - v_0, i >= 1."""
    return np.sqrt(dx**2 + dv**2).max(axis=0), np.abs(dx[0])


class _SyncObserver:
    """The probe's sync check and bifurcation record, a few numpy passes per block.

    Synchronized once the largest node deviation has stayed below threshold
    for a forcing period (sync_time: the start of that stretch); maxima are
    the local maxima of |x1 - x2| at tau >= record_from.  prev_diff_tau is
    the last sample consumed: on a sync stop, the one before the stop sample.
    Samples are grid points tau0 + j*step, consumed in blocks.
    """

    def __init__(self, tau0, step, diff0, period, threshold, record_from):
        self.tau0, self.step, self.period = tau0, step, period
        self.threshold, self.record_from = threshold, record_from
        self.below_start, self.sync_time, self.maxima = None, None, []
        # nan stands for the sample before the start: no maximum is read there.
        self.prev_prev_diff, self.prev_diff, self.prev_diff_tau = math.nan, diff0, tau0

    def observe(self, k: int, dev, dx, margin: float, exact) -> bool:
        """Consume the samples k, k + 1, ... of a block; True to stop (synchronized).

        dev and dx hold the table's largest node deviation and x1 - x0 per
        sample, dev None where every deviation is certified at or above
        threshold + margin, and exact(idx) eval's (deviations, |x1 - x0|) at
        sample indices idx.  The table's values lie within far less than
        margin of eval's, so the decisions they take are the exact ones;
        eval decides the rest: deviations within margin of the threshold,
        and each candidate maximum (no step of |dx| into it below -margin,
        none out of it above margin) with its neighbours across a step
        smaller than margin.  The last two diffs are carried exact where a
        maximum here or in the next block may read them, else as the
        table's.
        """
        size = dx.size
        stop, done = size, False
        if dev is None:
            self.below_start = None
        else:
            near = np.flatnonzero(np.abs(dev - self.threshold) < margin)
            if near.size:
                dev = dev.copy()
                dev[near] = exact(near)[0]
            below = dev < self.threshold
            if not below.any():
                self.below_start = None
            else:
                # A below-threshold run starts one past the last sample not below,
                # or at the carried start when it began in an earlier block.
                taus = self.tau0 + (k + np.arange(size)) * self.step
                last_above = np.maximum.accumulate(np.where(below, -1, np.arange(size)))
                run_start = taus[np.minimum(last_above + 1, size - 1)]
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
        last = self.tau0 + (k + stop - 1) * self.step
        if last < self.record_from - 2.0 * self.step:
            d = [self.prev_diff] + np.abs(dx[max(stop - 2, 0):stop]).tolist()
        else:
            # d[j] is centred between d[j - 1] and d[j + 1], j >= 1; the first
            # two are the carried ones and d[j + 2] is sample j.
            d = np.concatenate(([self.prev_prev_diff, self.prev_diff], np.abs(dx[:stop])))
            steps = np.diff(d)
            c = np.flatnonzero((steps[:-1] > -margin) & (steps[1:] < margin)) + 1
            if c.size > _POINTS:  # a plateau of close steps, in arrays
                close = np.abs(steps) < margin
                need = np.concatenate((c, c[close[c - 1]] - 1, c[close[c]] + 1, [stop, stop + 1]))
                need = np.unique(need[need >= 2])
                d[need] = exact(need - 2)[1]
                peaks = c[(d[c - 1] < d[c]) & (d[c] > d[c + 1])].tolist()
            else:
                need = {stop, stop + 1}
                for j in c.tolist():
                    need.update((j, j - 1) if abs(steps[j - 1]) < margin else (j,))
                    if abs(steps[j]) < margin:
                        need.add(j + 1)
                need = sorted(j for j in need if j >= 2)
                d[need] = exact([j - 2 for j in need])[1]
                peaks = [j for j in c.tolist() if d[j - 1] < d[j] > d[j + 1]]
            self.maxima.extend(
                float(d[j]) for j in peaks
                if (self.tau0 + (k + j - 2) * self.step if j > 1 else self.prev_diff_tau)
                >= self.record_from
            )
        self.prev_prev_diff, self.prev_diff = float(d[-2]), float(d[-1])
        self.prev_diff_tau = last
        return done


# A diverging run squares node differences past the float range before its
# state stops being finite; inf and nan already fail every threshold and
# crossing test, and PropagationError reports the first non-finite state
# at an anchor or a slice end.
@np.errstate(over="ignore", invalid="ignore")
def _simulate_coupled(
    p: ImpactOscillatorParams,
    graph: CouplingGraph,
    coupling,
    x0: np.ndarray,
    tau0: float,
    settings: ProbeSettings,
) -> ProbeResult:
    """Direct event-driven run of the coupled network on the scan grid.

    Tracks the full state deviation between nodes for the synchronization
    check and the position difference of the first two nodes for the
    bifurcation record.  Terminates early once the deviation has stayed
    below sync_threshold for one full forcing period; raises
    PropagationError at the first state that is not finite, anchor or
    slice end, and ChatterError where one node's impacts accumulate or
    pass the cap, as simulate does (each node keeps its own _ChatterGuard).

    Anchors sit at the start, at each impact and at the last sample of each
    span of _SPAN samples without one.  A span's samples come _CHUNK at a
    time, a slice, from one product of _ModeSegments.scan's coefficients
    with a per-run flow_table, which differs from _ModeSegments.eval by
    rounding only; each slice's tests start from the state at the sample
    before it.  Those values only decide booleans, and eval recomputes, in
    floats through _ModeSegments.point, each sample whose decision they
    cannot certify or whose value is kept: |x - x_w| below _SCAN_GUARD
    times the span's bound, and the samples _SyncObserver asks for with a
    margin of _DIFF_GUARD times the bound.  Where the scan's floor puts the
    first node pair's deviation above threshold by twice that margin, no
    deviation is compared at all.  The margins hold with room to spare at
    every offset of a span, up to 16.4 time units at the default step: the
    table and eval round the flow arguments r*dt and eta*dt within
    ulp(16.4*max(r, eta)), so both differ from the exact solution by about
    1e-14 times the bound in node differences (plus |v_i - v_0|*ulp(tau),
    small wherever a decision on them is close), and in absolute positions
    by at most about |v|*ulp(tau) + ulp(eta*tau)*|A|, near 1e-11 at
    tau = 2e4.  So every result equals evaluating each sample with eval,
    bit for bit, wherever numpy's elementwise functions give an element the
    same bits whatever the array around it and point rounds as eval; the
    table product is the one BLAS call, so no result depends on the BLAS
    kernel.  Each crossing is refined by bisect_crossing with the crossing
    node's certified model, which keeps the plain bisection's midpoints.
    """
    segs = _ModeSegments(p, graph, coupling, settings.sigma)
    n = graph.n_nodes
    period = p.forcing_period
    h = settings.scan_step
    threshold = settings.sync_threshold
    total = int(math.ceil(settings.max_periods * period / h))
    table = segs.scan_table(h)

    state = np.asarray(x0, dtype=float)
    if state.shape != (2 * n,):
        raise ValueError(f"state must have length {2 * n}, got shape {state.shape}")
    state = state.tolist()
    state_tau = tau0

    record_from = tau0 + (settings.max_periods - settings.record_window) * period
    obs = _SyncObserver(tau0, h, abs(state[0] - state[2]), period, threshold, record_from)
    impact_times: list[float] = []
    guards = [_ChatterGuard(p) for _ in range(n)]

    k = span_end = 1  # grid index of the slice's first sample; one past the span's last
    while k <= total:
        if state is not None and not all(map(math.isfinite, state)):
            raise PropagationError(f"coupled probe state is not finite at tau={state_tau:.6f}")
        if k == span_end:  # anchor at the start, an impact or the span's last sample
            anchor_tau = state_tau
            terms = segs.terms(segs.to_modes(state, anchor_tau))
            coefs, bound, floor = segs.scan(terms, anchor_tau, tau0 + (k - 1) * h, table)
            margin = _DIFF_GUARD * bound
            limit = (threshold + 2.0 * margin) * (1.0 + 1e-12)
            k_span, span_end = k, min(k + _SPAN, total + 1)
        size = min(_CHUNK, span_end - k)
        vals = coefs @ table[0][:, k - k_span:k - k_span + size]

        def before():  # each node's x - x_w at the sample before the slice
            xs = segs.point(terms, anchor_tau, state_tau - anchor_tau)[0] if state is None else state[0::2]
            return [x - p.x_w for x in xs]

        ci, nodes = size, []  # ci: first sample past a wall crossing
        if p.wall_enabled:
            ci, nodes = _first_crossing(
                vals[:n], before, p.x_w, _SCAN_GUARD * bound,
                lambda cols: segs.eval(terms, anchor_tau, tau0 + (k + cols) * h - anchor_tau)[0],
            )
        if ci > 0:
            dev = None if floor > limit else _sync_measures(vals[n::2, :ci], vals[n + 1::2, :ci])[0]

            def exact(idx):  # eval's measures at samples idx of this slice, called at once
                return segs.measures(terms, anchor_tau, tau0 + (k + np.asarray(idx)) * h - anchor_tau)

            if obs.observe(k, dev, vals[n, :ci], margin, exact):
                break
        if ci == size:
            k += size
            state_tau = tau0 + (k - 1) * h
            # Inside a span, a bound below _FINITE_BOUND vouches for every state: none is made.
            state = None
            if k == span_end or not bound < _FINITE_BOUND:
                xs, vs = segs.point(terms, anchor_tau, state_tau - anchor_tau)
                state = [c for xv in zip(xs, vs) for c in xv]
            continue
        lo = (tau0 + (k + ci - 1) * h if ci > 0 else state_tau) - anchor_tau
        hi = tau0 + (k + ci) * h - anchor_tau
        walls = [segs.wall_distance(terms, anchor_tau, node) for node in nodes]
        dt = min(bisect_crossing(distance, lo, hi, model(lo, hi)) for distance, model in walls)
        xs, vs = segs.point(terms, anchor_tau, dt)
        state = [c for xv in zip(xs, vs) for c in xv]
        state_tau = anchor_tau + dt
        for node in range(n):
            if abs(state[2 * node] - p.x_w) <= WALL_POSITION_TOL and state[2 * node + 1] > 0.0:
                state[2 * node] = p.x_w
                state[2 * node + 1] = -p.R * state[2 * node + 1]
                impact_times.append(state_tau)
                guards[node].push(state_tau)
        k = span_end = k + ci  # the first grid index past the impact

    synchronized = obs.sync_time is not None
    periods_run = min(
        int(math.floor((obs.prev_diff_tau - tau0) / period)), settings.max_periods
    )
    return ProbeResult(
        sigma=float(settings.sigma),
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
    coupling = _check_coupling(coupling)
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
    return _simulate_coupled(p, graph, coupling, x0, base_state.tau, settings)


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
    _check_jobs(jobs)
    sigmas = [float(s) for s in np.atleast_1d(sigmas)]
    coupling = _check_coupling(coupling)
    if base_state is None:
        base_state = _settle_for_probe(p, settings)
    tasks = [
        (run_probe, (p, coupling, replace(settings, sigma=s, rng_seed=(settings.rng_seed, i)),
                     TWO_NODE_GRAPH, base_state))
        for i, s in enumerate(sigmas)
    ]
    outcomes = zip(sigmas, _run_grid(tasks, jobs))
    return [BifurcationPoint(s, result, error) for s, (result, error) in outcomes]
