"""Run configuration: INI files, presets, and the effective-config dump.

A run is described by one INI file with optional sections; anything not
given falls back to the protocol defaults baked into the dataclasses.
Floats are written back with repr so that dumping the effective
configuration and reloading it reproduces the run exactly.

Grids accept either an explicit comma list ("0,0.25,0.5") or a linspace
shorthand ("start:stop:count").
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .msf import TLESettings
from .network import ProbeSettings
from .oscillator import ImpactOscillatorParams


class ConfigError(ValueError):
    """A configuration file could not be parsed or validated."""


_SECTIONS = {
    "oscillator": ("zeta", "eta", "f", "x_w", "R", "wall_enabled"),
    "tle": (
        "transient_periods",
        "max_periods",
        "sample_window",
        "std_tolerance",
        "scan_step",
        "jacobi_delta",
    ),
    "query": ("alpha", "beta"),
    "sweep": ("alphas", "betas", "sigmas"),
    "probe": (
        "sigma",
        "perturbation_magnitude",
        "rng_seed",
        "max_periods",
        "sync_threshold",
        "record_window",
        "transient_periods",
        "scan_step",
    ),
    "network": ("graph", "sigma"),
    "simulate": ("periods", "samples_per_period"),
    "output": ("directory",),
}


@dataclass(frozen=True)
class RunConfig:
    """Everything a CLI run needs, already validated."""

    oscillator: ImpactOscillatorParams
    tle: TLESettings
    probe: ProbeSettings
    query_alpha: float = 0.0
    query_beta: float = 0.0
    alphas: tuple[float, ...] = ()
    betas: tuple[float, ...] = (0.0,)
    sigmas: tuple[float, ...] = ()
    graph_spec: str = "two_node"
    network_sigma: float = 0.5
    simulate_periods: int = 10
    samples_per_period: int = 256
    out_dir: str | None = None


def parse_grid(spec: str, *, where: str = "grid") -> tuple[float, ...]:
    """Parse "start:stop:count" or a comma-separated list of floats."""
    spec = spec.strip()
    if not spec:
        return ()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError(
                f"{where}: linspace shorthand needs start:stop:count, got {spec!r}"
            )
        try:
            start, stop = float(parts[0]), float(parts[1])
            count = int(parts[2])
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        if count < 1:
            raise ConfigError(f"{where}: count must be at least 1, got {count}")
        return tuple(float(v) for v in np.linspace(start, stop, count))
    try:
        return tuple(float(tok) for tok in spec.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _grid_str(grid) -> str:
    return ",".join(repr(float(v)) for v in grid)


def _get(parser, section, key, conv, default, path):
    if not parser.has_option(section, key):
        return default
    raw = parser.get(section, key)
    try:
        return conv(raw)
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"{path}: [{section}] {key} = {raw!r}: {exc}") from exc


def _to_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "yes", "true", "on"):
        return True
    if lowered in ("0", "no", "false", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def load_config(path) -> RunConfig:
    """Read and validate an INI run configuration.

    Unknown sections or keys are rejected outright; a silently ignored
    typo in a protocol constant would be worse than a hard error.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep R and r distinct
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in parser.options(section):
            if key not in _SECTIONS[section]:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")

    def get(section, key, conv, default):
        return _get(parser, section, key, conv, default, path)

    try:
        osc = ImpactOscillatorParams(
            zeta=get("oscillator", "zeta", float, 0.05),
            eta=get("oscillator", "eta", float, 0.712),
            f=get("oscillator", "f", float, 1.0),
            x_w=get("oscillator", "x_w", float, 2.0),
            R=get("oscillator", "R", float, 1.0),
            wall_enabled=get("oscillator", "wall_enabled", _to_bool, True),
        )
        tle = TLESettings(
            transient_periods=get("tle", "transient_periods", int, 500),
            max_periods=get("tle", "max_periods", int, 2000),
            sample_window=get("tle", "sample_window", int, 100),
            std_tolerance=get("tle", "std_tolerance", float, 1e-5),
            scan_step=get("tle", "scan_step", float, 1e-3),
            jacobi_delta=get("tle", "jacobi_delta", float, 1e-7),
        )
        probe = ProbeSettings(
            sigma=get("probe", "sigma", float, 0.5),
            perturbation_magnitude=get("probe", "perturbation_magnitude", float, 1e-3),
            rng_seed=get("probe", "rng_seed", int, 12345),
            max_periods=get("probe", "max_periods", int, 2000),
            sync_threshold=get("probe", "sync_threshold", float, 1e-10),
            record_window=get("probe", "record_window", int, 100),
            transient_periods=get("probe", "transient_periods", int, 500),
            scan_step=get("probe", "scan_step", float, 1e-3),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{path}: {exc}") from exc

    graph_spec = get("network", "graph", str, "two_node").strip()
    if graph_spec not in ("two_node",) and not graph_spec.startswith("all_to_all:"):
        graph_path = Path(graph_spec)
        if not graph_path.is_absolute():
            graph_path = path.parent / graph_path
        if not graph_path.is_file():
            raise ConfigError(
                f"{path}: [network] graph file not found: {graph_path}"
            )
        graph_spec = str(graph_path)

    out_dir = get("output", "directory", str, "").strip() or None

    def grid(key, default):
        return get(
            "sweep", key, lambda s: parse_grid(s, where=f"[sweep] {key}"), default
        )

    return RunConfig(
        oscillator=osc,
        tle=tle,
        probe=probe,
        query_alpha=get("query", "alpha", float, 0.0),
        query_beta=get("query", "beta", float, 0.0),
        alphas=grid("alphas", ()),
        betas=grid("betas", (0.0,)),
        sigmas=grid("sigmas", ()),
        graph_spec=graph_spec,
        network_sigma=get("network", "sigma", float, 0.5),
        simulate_periods=get("simulate", "periods", int, 10),
        samples_per_period=get("simulate", "samples_per_period", int, 256),
        out_dir=out_dir,
    )


def effective_ini(cfg: RunConfig) -> str:
    """Serialize the full effective configuration, defaults included.

    The output reloads to an identical RunConfig, which is what makes a
    dumped run reproducible.
    """
    osc, tle, probe = cfg.oscillator, cfg.tle, cfg.probe
    lines = ["[oscillator]"]
    lines += [
        f"zeta = {osc.zeta!r}",
        f"eta = {osc.eta!r}",
        f"f = {osc.f!r}",
        f"x_w = {osc.x_w!r}",
        f"R = {osc.R!r}",
        f"wall_enabled = {'true' if osc.wall_enabled else 'false'}",
        "",
        "[tle]",
        f"transient_periods = {tle.transient_periods}",
        f"max_periods = {tle.max_periods}",
        f"sample_window = {tle.sample_window}",
        f"std_tolerance = {tle.std_tolerance!r}",
        f"scan_step = {tle.scan_step!r}",
        f"jacobi_delta = {tle.jacobi_delta!r}",
        "",
        "[query]",
        f"alpha = {cfg.query_alpha!r}",
        f"beta = {cfg.query_beta!r}",
        "",
        "[sweep]",
        f"alphas = {_grid_str(cfg.alphas)}",
        f"betas = {_grid_str(cfg.betas)}",
        f"sigmas = {_grid_str(cfg.sigmas)}",
        "",
        "[probe]",
        f"sigma = {probe.sigma!r}",
        f"perturbation_magnitude = {probe.perturbation_magnitude!r}",
        f"rng_seed = {probe.rng_seed}",
        f"max_periods = {probe.max_periods}",
        f"sync_threshold = {probe.sync_threshold!r}",
        f"record_window = {probe.record_window}",
        f"transient_periods = {probe.transient_periods}",
        f"scan_step = {probe.scan_step!r}",
        "",
        "[network]",
        f"graph = {cfg.graph_spec}",
        f"sigma = {cfg.network_sigma!r}",
        "",
        "[simulate]",
        f"periods = {cfg.simulate_periods}",
        f"samples_per_period = {cfg.samples_per_period}",
        "",
        "[output]",
        f"directory = {cfg.out_dir or ''}",
        "",
    ]
    return "\n".join(lines)


def preset_names() -> list[str]:
    root = resources.files("msflab").joinpath("presets")
    return sorted(p.name[: -len(".ini")] for p in root.iterdir() if p.name.endswith(".ini"))


def load_preset(name: str) -> RunConfig:
    """Load a packaged preset configuration by bare name."""
    res = resources.files("msflab").joinpath("presets", f"{name}.ini")
    if not res.is_file():
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        )
    with resources.as_file(res) as real_path:
        return load_config(real_path)


def default_config() -> RunConfig:
    """The all-defaults configuration (elastic parameter set)."""
    return RunConfig(
        oscillator=ImpactOscillatorParams(zeta=0.05, eta=0.712, f=1.0, x_w=2.0, R=1.0),
        tle=TLESettings(),
        probe=ProbeSettings(sigma=0.5),
    )

