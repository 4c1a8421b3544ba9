"""Outside-in layer tracing: wrap msflab's public entry points, keep spans in memory.

Each target is a public function; the tracer replaces it in every module
namespace that binds it (or only in the namespaces listed), so calls that
msflab makes internally go through the wrapper too.  A span's self time is
its duration minus the time of the spans it encloses.  Targets whose module
or name no longer exists are skipped, and the metrics built only on them
are reported as absent rather than failing the run.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# (defining module, name, span, namespaces to patch; None = every msflab
# module that binds the same object).  The matrix functions are wrapped as
# msf sees them, so their calls to each other stay inside one span.
TARGETS = (
    ("msflab.oscillator", "segment_states", "segment_states", None),
    ("msflab.oscillator", "detect_next_impact", "detect", None),
    ("msflab.oscillator", "simulate", "simulate", None),
    ("msflab.msf", "settle_transient", "settle", None),
    ("msflab.jacobian", "event_window_jacobian", "window", None),
    ("msflab.msf", "coupled_step_propagator", "propagator", None),
    ("msflab.matfuncs", "mat_log", "matfuncs", ("msflab.msf",)),
    ("msflab.matfuncs", "mat_exp", "matfuncs", ("msflab.msf",)),
    ("msflab.matfuncs", "solve_eigen", "matfuncs", ("msflab.msf",)),
    ("scipy.linalg", "expm", "scipy_fallback", ("scipy.linalg",)),
    ("scipy.linalg", "logm", "scipy_fallback", ("scipy.linalg",)),
    ("msflab.msf", "compute_tle", "compute_tle", None),
    ("msflab.network", "run_probe", "run_probe", None),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name -> (unit, spans it needs, value from a Tracer).  Names follow layer
# concepts, so they survive a change of the helpers that implement them.
LAYER_METRICS = {
    "oscillator.scan_points": ("count", ("segment_states",), lambda t: t.counts["scan_points"]),
    "oscillator.refine_evals": ("count", ("segment_states",), lambda t: t.counts["refine_evals"]),
    "oscillator.impacts": ("count", ("detect",), lambda t: t.counts["impacts"]),
    "oscillator.refine_evals_per_impact": (
        "evals/impact", ("segment_states", "detect"),
        lambda t: _ratio(t.counts["refine_evals"], t.counts["impacts"]),
    ),
    "oscillator.segment_states_s": ("s", ("segment_states",), lambda t: t.self_s["segment_states"]),
    "oscillator.detect_s": ("s", ("detect",), lambda t: t.self_s["detect"]),
    "oscillator.settle_s": ("s", ("settle",), lambda t: t.incl_s["settle"]),
    "jacobian.windows": ("count", ("window",), lambda t: t.counts["windows"]),
    "jacobian.flow_evals_per_window": (
        "evals/window", ("simulate", "window", "compute_tle"),
        lambda t: _ratio(t.counts["flow_evals"], t.counts["windows"]),
    ),
    "jacobian.window_s": ("s", ("window",), lambda t: t.incl_s["window"]),
    "jacobian.retry_share": (
        "share", ("window",), lambda t: _ratio(t.counts["retries"], t.counts["windows"])
    ),
    "matfuncs.calls": ("count", ("matfuncs",), lambda t: t.calls["matfuncs"]),
    "matfuncs.scipy_fallbacks": ("count", ("scipy_fallback",), lambda t: t.calls["scipy_fallback"]),
    "matfuncs.s": ("s", ("matfuncs",), lambda t: t.incl_s["matfuncs"]),
    "msf.propagator_s": ("s", ("propagator",), lambda t: t.self_s["propagator"]),
    "msf.march_s": ("s", ("compute_tle",), lambda t: t.self_s["compute_tle"]),
    "msf.periods": ("count", ("compute_tle",), lambda t: t.counts["msf_periods"]),
    "network.probe_s": ("s", ("run_probe",), lambda t: t.self_s["run_probe"]),
    "network.impacts": ("count", ("run_probe",), lambda t: t.counts["probe_impacts"]),
    "network.periods": ("count", ("run_probe",), lambda t: t.counts["probe_periods"]),
}


class Tracer:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.incl_s: defaultdict = defaultdict(float)
        self.top_s = 0.0  # time inside outermost spans
        self.present: set[str] = set()
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []
        self._inconsistent_at = None

    def __enter__(self) -> "Tracer":
        for module_name, name, span, namespaces in TARGETS:
            try:
                original = getattr(importlib.import_module(module_name), name)
            except (ImportError, AttributeError):
                continue
            wrapper = self._wrap(span, original)
            if namespaces is None:
                namespaces = [m for m in sys.modules if m == "msflab" or m.startswith("msflab.")]
            for ns in namespaces:
                module = sys.modules.get(ns)
                if module is not None and getattr(module, name, None) is original:
                    self._patched.append((module, name, original))
                    setattr(module, name, wrapper)
                    self.present.add(span)
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def _in(self, span: str) -> bool:
        return any(frame[0] == span for frame in self._stack)

    def _before(self, span: str, args, kwargs) -> None:
        if span == "segment_states":
            dts = args[4] if len(args) > 4 else kwargs["dts"]
            if np.ndim(dts) == 0:
                self.counts["refine_evals"] += 1
            else:
                self.counts["scan_points"] += int(np.size(dts))
        elif span == "simulate":
            if self._in("compute_tle") and not self._in("settle"):
                self.counts["flow_evals"] += 1
        elif span == "window":
            s_pre = args[1] if len(args) > 1 else kwargs["s_pre"]
            # compute_tle retries an inconsistent window from the same state.
            if self._inconsistent_at is not None and s_pre == self._inconsistent_at:
                self.counts["retries"] += 1
            else:
                self.counts["windows"] += 1
            self._inconsistent_at = None

    def _after(self, span: str, args, kwargs, result) -> None:
        if span == "detect":
            if result is not None:
                self.counts["impacts"] += 1
        elif span == "window":
            if not result.consistent:
                self._inconsistent_at = args[1] if len(args) > 1 else kwargs["s_pre"]
        elif span == "compute_tle":
            self.counts["msf_periods"] += result.periods_used
        elif span == "run_probe":
            self.counts["probe_periods"] += result.periods_run
            self.counts["probe_impacts"] += len(result.impact_times)

    def _wrap(self, span: str, fn):
        stack = self._stack

        def wrapper(*args, **kwargs):
            self._before(span, args, kwargs)
            frame = [span, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self.calls[span] += 1
                self.self_s[span] += dt - frame[1]
                self.incl_s[span] += dt
                if stack:
                    stack[-1][1] += dt
                else:
                    self.top_s += dt
            self._after(span, args, kwargs, result)
            return result

        return wrapper

    def metrics(self) -> tuple[dict[str, tuple[float, str]], list[str]]:
        """Per-layer values with units, and the names whose spans vanished."""
        values, absent = {}, []
        for name, (unit, spans, value) in LAYER_METRICS.items():
            if all(s in self.present for s in spans):
                values[name] = (float(value(self)), unit)
            else:
                values[name] = (0.0, unit)
                absent.append(name)
        return values, absent
