"""The four benchmark workloads: their inputs, protocols and correctness checks.

Every workload is closed loop with one caller: a query is one public msflab
call (or, for ``random_impacting``, a settle plus a call), and the next one
starts when the previous one returns.  The workload seed picks the
compute_tle initial perturbations, the probe seeds and the random points;
msflab only ever sees the generated inputs.

A workload splits into ``setup()``, whose cost is reported as ``setup_s``,
and ``queries(state)``, the timed query set.  ``reference.json`` holds the
seed code's recorded outcomes; ``calibrate.py`` regenerates it.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import msflab

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

PRESETS = ("elastic", "inelastic")
SIGMAS = (0.0, 0.25, 0.5, 1.0)
# |tle| at or below this is too close to zero for its sign to mean anything;
# the same margin the preset study uses to score sign agreement.
SIGN_MARGIN = 0.01

# Shortened period caps: the paper protocol's 2000 periods would leave room
# for one or two queries per run.  The transient and the convergence test
# keep their paper values.
TLE_SETTINGS = msflab.TLESettings(max_periods=200)
# 300 periods keep the never-synchronizing points and the early exits.
PROBE_MAX_PERIODS = 300
# The probe outcome depends on the perturbation direction, even where the
# exponent is clearly negative (a 1e-3 kick near grazing can desynchronize
# the pair), so the probe seeds are (seed mod PROBE_SEEDS, grid index) and
# the outcome of each is recorded.
PROBE_SEEDS = 10
SMOOTH = msflab.ImpactOscillatorParams(zeta=0.05, eta=0.712, wall_enabled=False)
SMOOTH_ALPHAS = tuple(float(a) for a in np.linspace(-3.0, 1.5, 31))
SMOOTH_BETAS = (0.0, 0.5, 1.0)
SMOOTH_TOLERANCE = 1e-3  # the smooth-limit acceptance gate
SHORT_SETTINGS = msflab.TLESettings(
    transient_periods=100, max_periods=150, sample_window=50
)
RANDOM_ALPHA = -1.0
# The grazing failure recorded in ROADMAP.md; it is part of every draw.
ROADMAP_POINT = {
    "zeta": 0.015380737517637964,
    "eta": 0.6355648465488226,
    "x_w": 2.011873244080891,
    "R": 0.823594755787125,
}
RANDOM_STRATA = 8


@dataclass
class Query:
    """One closed-loop call and the rule its outcome must meet.

    check returns None for an accepted result or the reason it is wrong;
    periods gives the forcing periods the call advanced; error, where set,
    is the distance to an exact answer.  typed_failures_ok marks queries
    for which a typed msflab exception is an accepted outcome.
    """

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    periods: Callable[[Any], int]
    error: Callable[[Any], float] | None = None
    typed_failures_ok: bool = False


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def preset_params() -> dict[str, msflab.ImpactOscillatorParams]:
    return {name: msflab.load_preset(name).oscillator for name in PRESETS}


def unit_vector(seed) -> np.ndarray:
    """Seeded direction on the unit circle, used as initial perturbation."""
    angle = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi)
    return np.array([math.cos(angle), math.sin(angle)])


def smooth_tle(zeta: float, alpha: float, beta: float) -> float:
    """Largest real part of the roots of s^2 + 2 zeta s + 1 - (alpha + i beta)."""
    return -zeta + cmath.sqrt(zeta * zeta - 1.0 + complex(alpha, beta)).real


def is_typed_failure(exc: BaseException) -> bool:
    """An exception class that msflab itself defines."""
    return type(exc).__module__.split(".")[0] == "msflab"


def _tle_periods(r) -> int:
    return r.periods_used


def _finite_tle(r) -> str | None:
    return None if math.isfinite(r.tle) else f"non-finite exponent {r.tle!r}"


class _PresetWorkload:
    """Both bundled presets; set-up settles their transients once."""

    name: str

    def __init__(self, seed: int, reference: dict):
        self.seed = seed
        self.ref = reference[self.name]
        self.params = preset_params()

    def setup(self):
        return {n: msflab.settle_transient(p, TLE_SETTINGS) for n, p in self.params.items()}


class PresetTLE(_PresetWorkload):
    name = "preset_tle"

    def protocol(self) -> dict:
        s = TLE_SETTINGS
        return {
            "presets": list(PRESETS), "sigmas": list(SIGMAS), "alpha": "-2*sigma",
            "beta": 0.0, "transient_periods": s.transient_periods,
            "max_periods": s.max_periods, "sample_window": s.sample_window,
            "std_tolerance": s.std_tolerance, "tolerance": self.ref["tolerance"],
        }

    def queries(self, bases) -> list[Query]:
        out = []
        for j, (name, p) in enumerate(self.params.items()):
            for i, sigma in enumerate(SIGMAS):
                xi = unit_vector((self.seed, j, i))
                query = msflab.MSFQuery(alpha=-2.0 * sigma)
                ref = self.ref["tle"][name][repr(sigma)]
                out.append(Query(
                    f"{name} sigma={sigma}",
                    lambda p=p, q=query, b=bases[name], xi=xi: msflab.compute_tle(
                        p, msflab.SPRING_COUPLING, q, TLE_SETTINGS,
                        base_state=b, initial_perturbation=xi,
                    ),
                    lambda r, ref=ref: self._check(r, ref),
                    _tle_periods,
                ))
        return out

    def _check(self, r, ref: float) -> str | None:
        bad = _finite_tle(r)
        if bad:
            return bad
        if abs(ref) > SIGN_MARGIN and math.copysign(1.0, r.tle) != math.copysign(1.0, ref):
            return f"sign of tle {r.tle:+.5f} differs from reference {ref:+.5f}"
        if abs(r.tle - ref) > self.ref["tolerance"]:
            return f"tle {r.tle:+.5f} is {abs(r.tle - ref):.2e} from reference {ref:+.5f}"
        return None


class PresetProbe(_PresetWorkload):
    name = "preset_probe"

    def protocol(self) -> dict:
        return {
            "presets": list(PRESETS), "sigmas": list(SIGMAS),
            "transient_periods": TLE_SETTINGS.transient_periods,
            "max_periods": PROBE_MAX_PERIODS,
            "rng_seed": f"({self.seed % PROBE_SEEDS}, sigma index)",
        }

    def queries(self, bases) -> list[Query]:
        out = []
        for name, p in self.params.items():
            for i, sigma in enumerate(SIGMAS):
                # Per-point seeds (seed, grid index), as bifurcation_scan derives them.
                probe_seed = self.seed % PROBE_SEEDS
                settings = msflab.ProbeSettings(
                    sigma=sigma, rng_seed=(probe_seed, i), max_periods=PROBE_MAX_PERIODS
                )
                expected = self.ref["synchronized"][name][repr(sigma)][probe_seed]
                out.append(Query(
                    f"{name} sigma={sigma}",
                    lambda p=p, s=settings, b=bases[name]: msflab.run_probe(
                        p, msflab.SPRING_COUPLING, s, base_state=b
                    ),
                    lambda r, e=expected: None if r.synchronized == e else (
                        f"synchronized={r.synchronized}, recorded outcome {e}"
                    ),
                    lambda r: r.periods_run,
                ))
        return out


class SmoothGrid:
    name = "smooth_grid"

    def __init__(self, seed: int, reference: dict):
        self.seed = seed

    def protocol(self) -> dict:
        s = msflab.TLESettings()
        return {
            "zeta": SMOOTH.zeta, "eta": SMOOTH.eta, "wall_enabled": False,
            "alphas": "linspace(-3, 1.5, 31)", "betas": list(SMOOTH_BETAS),
            "transient_periods": s.transient_periods, "max_periods": s.max_periods,
            "sample_window": s.sample_window, "std_tolerance": s.std_tolerance,
            "tolerance": SMOOTH_TOLERANCE,
        }

    def setup(self):
        return msflab.settle_transient(SMOOTH, msflab.TLESettings())

    def queries(self, base) -> list[Query]:
        out = []
        for i, alpha in enumerate(SMOOTH_ALPHAS):
            for k, beta in enumerate(SMOOTH_BETAS):
                exact = smooth_tle(SMOOTH.zeta, alpha, beta)
                xi = unit_vector((self.seed, i, k))
                err = lambda r, exact=exact: abs(r.tle - exact)
                out.append(Query(
                    f"alpha={alpha:.4g} beta={beta}",
                    lambda q=msflab.MSFQuery(alpha, beta), xi=xi: msflab.compute_tle(
                        SMOOTH, msflab.SPRING_COUPLING, q, base_state=base,
                        initial_perturbation=xi,
                    ),
                    lambda r, err=err: _finite_tle(r) or (
                        None if err(r) <= SMOOTH_TOLERANCE
                        else f"|tle - closed form| = {err(r):.2e}"
                    ),
                    _tle_periods,
                    error=err,
                ))
        return out


class RandomImpacting:
    """Seeded impacting points; settling from rest is part of each query.

    The draws come from a catalogue of points drawn once from the domain
    and run once on the seed code (reference.json).  The seed picks one
    returning point from each of RANDOM_STRATA cost strata, and every draw
    adds the same three failing points: the ROADMAP grazing point, the
    cheapest catalogue grazing point and the cheapest catalogue chatter
    point.  Fresh uniform draws would put 0 to 4 chatter points, at about
    ten seconds each, into a set of about 30, so the set's cost would
    depend on the seed far more than on the code.

    Each point is checked against its recorded outcome: a returning point
    must return a finite exponent, and a typed msflab failure is accepted
    only on the failing points, which may also return.  The failing points
    run with the default initial perturbation, as recorded: with a seeded
    one a grazing point converges before its grazing window on some seeds,
    and the set's failures and periods would change with the seed.
    """

    name = "random_impacting"

    def __init__(self, seed: int, reference: dict):
        self.seed = seed
        self.catalogue = reference["random_impacting"]

    def protocol(self) -> dict:
        s = SHORT_SETTINGS
        return {
            "domain": self.catalogue["domain"], "alpha": RANDOM_ALPHA,
            "transient_periods": s.transient_periods, "max_periods": s.max_periods,
            "sample_window": s.sample_window, "std_tolerance": s.std_tolerance,
            "strata": RANDOM_STRATA, "catalogue_points": len(self.catalogue["points"]),
        }

    def draw(self) -> list[dict]:
        points = self.catalogue["points"]
        returning = sorted(
            (pt for pt in points if pt["outcome"] == "value"), key=lambda pt: pt["cost_s"]
        )
        rng = np.random.default_rng((self.seed, 7))
        picks = [
            returning[int(rng.choice(stratum))]
            for stratum in np.array_split(np.arange(len(returning)), RANDOM_STRATA)
        ]
        for outcome in ("GrazingSingularityError", "ChatterError"):
            failing = [pt for pt in points if pt["outcome"] == outcome]
            if failing:
                picks.append(min(failing, key=lambda pt: pt["cost_s"]))
        return picks + [dict(ROADMAP_POINT, outcome="GrazingSingularityError")]

    def setup(self):
        return [
            (msflab.ImpactOscillatorParams(zeta=pt["zeta"], eta=pt["eta"], x_w=pt["x_w"], R=pt["R"]),
             pt["outcome"])
            for pt in self.draw()
        ]

    def queries(self, points) -> list[Query]:
        out = []
        for i, (p, outcome) in enumerate(points):
            xi = unit_vector((self.seed, i)) if outcome == "value" else None
            out.append(Query(
                f"zeta={p.zeta:.4g} eta={p.eta:.4g} x_w={p.x_w:.4g} R={p.R:.4g} (recorded: {outcome})",
                lambda p=p, xi=xi: random_query(p, xi),
                _finite_tle,
                lambda r: SHORT_SETTINGS.transient_periods + r.periods_used,
                typed_failures_ok=outcome != "value",
            ))
        return out


def random_query(p, xi=None):
    """Settle from rest, then one exponent on the short protocol."""
    base = msflab.settle_transient(p, SHORT_SETTINGS)
    return msflab.compute_tle(
        p, msflab.SPRING_COUPLING, msflab.MSFQuery(alpha=RANDOM_ALPHA), SHORT_SETTINGS,
        base_state=base, initial_perturbation=xi,
    )


WORKLOADS = {w.name: w for w in (PresetTLE, PresetProbe, SmoothGrid, RandomImpacting)}
