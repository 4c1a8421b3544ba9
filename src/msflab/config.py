"""Run configuration: INI files, presets, and the effective-config dump.

A run is described by one INI file with optional sections; anything not
given falls back to default_config().  One table, _SCHEMA, names every
section and key; each key's default comes from default_config(), and the
type of that default picks how the key is parsed and written back.
Floats are written back with repr so that dumping the effective
configuration and reloading it reproduces the run exactly.

Grids accept either an explicit comma list ("0,0.25,0.5") or a linspace
shorthand ("start:stop:count").
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .msf import MSFQuery, TLESettings
from .network import ProbeSettings
from .oscillator import ImpactOscillatorParams


class ConfigError(ValueError):
    """A configuration file could not be parsed or validated."""


# The elastic parameter set: the [oscillator] defaults.
_OSCILLATOR_DEFAULTS = dict(zeta=0.05, eta=0.712, f=1.0, x_w=2.0, R=1.0, wall_enabled=True)


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

    def __post_init__(self):
        MSFQuery(self.query_alpha, self.query_beta)  # rejects a non-finite query
        if not np.isfinite(self.network_sigma):
            raise ValueError(f"[network] sigma must be finite, got {self.network_sigma!r}")
        for key, value in (
            ("periods", self.simulate_periods),
            ("samples_per_period", self.samples_per_period),
        ):
            if value <= 0:
                raise ValueError(f"[simulate] {key} must be positive, got {value!r}")


# INI section -> the RunConfig field holding that section's settings
# dataclass (its fields are the keys), or a map from INI key to RunConfig
# field.  The order here is the order of effective.ini.
_SCHEMA = {
    "oscillator": "oscillator",
    "tle": "tle",
    "query": {"alpha": "query_alpha", "beta": "query_beta"},
    "sweep": {"alphas": "alphas", "betas": "betas", "sigmas": "sigmas"},
    "probe": "probe",
    "network": {"graph": "graph_spec", "sigma": "network_sigma"},
    "simulate": {"periods": "simulate_periods", "samples_per_period": "samples_per_period"},
    "output": {"directory": "out_dir"},
}


def parse_grid(spec: str) -> tuple[float, ...]:
    """Parse "start:stop:count" or a comma-separated list of floats."""
    spec = spec.strip()
    if not spec:
        return ()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError(f"linspace shorthand needs start:stop:count, got {spec!r}")
        try:
            start, stop = float(parts[0]), float(parts[1])
            count = int(parts[2])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if count < 1:
            raise ConfigError(f"count must be at least 1, got {count}")
        with np.errstate(invalid="ignore"):  # inf ends give nan, rejected below
            grid = np.linspace(start, stop, count)
    else:
        try:
            grid = [float(tok) for tok in spec.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if not np.all(np.isfinite(grid)):
        raise ConfigError(f"values must be finite, got {spec!r}")
    return tuple(float(v) for v in grid)


def _to_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "yes", "true", "on"):
        return True
    if lowered in ("0", "no", "false", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


# Type of a key's default -> (parse the INI text, format the value).
_CODECS = {
    bool: (_to_bool, lambda v: "true" if v else "false"),
    int: (int, str),
    float: (float, repr),
    tuple: (parse_grid, lambda grid: ",".join(repr(float(v)) for v in grid)),
    str: (str.strip, str),
    type(None): (lambda raw: raw.strip() or None, lambda v: v or ""),
}


def _section(cfg: RunConfig, section: str) -> dict:
    """The values of one INI section in cfg, keyed by INI key, in INI order."""
    spec = _SCHEMA[section]
    if isinstance(spec, str):
        settings = getattr(cfg, spec)
        return {f.name: getattr(settings, f.name) for f in fields(settings)}
    return {key: getattr(cfg, name) for key, name in spec.items()}


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

    defaults = default_config()
    given = {section: {} for section in _SCHEMA}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        known = _section(defaults, section)
        for key, raw in parser.items(section):
            if key not in known:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
            parse = _CODECS[type(known[key])][0]
            try:
                given[section][key] = parse(raw)
            except ValueError as exc:
                raise ConfigError(f"{path}: [{section}] {key} = {raw!r}: {exc}") from exc

    graph_spec = given["network"].get("graph", "two_node")
    if graph_spec != "two_node" and not graph_spec.startswith("all_to_all:"):
        graph_path = Path(graph_spec)
        if not graph_path.is_absolute():
            graph_path = path.parent / graph_path
        if not graph_path.is_file():
            raise ConfigError(
                f"{path}: [network] graph file not found: {graph_path}"
            )
        given["network"]["graph"] = str(graph_path)

    changes = {}
    try:
        for section, spec in _SCHEMA.items():
            if isinstance(spec, str):
                changes[spec] = replace(getattr(defaults, spec), **given[section])
            else:
                changes.update((spec[key], value) for key, value in given[section].items())
        return replace(defaults, **changes)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def effective_ini(cfg: RunConfig) -> str:
    """Serialize the full effective configuration, defaults included.

    The output reloads to an identical RunConfig, which is what makes a
    dumped run reproducible.
    """
    defaults = default_config()
    lines = []
    for section in _SCHEMA:
        known = _section(defaults, section)
        lines.append(f"[{section}]")
        for key, value in _section(cfg, section).items():
            lines.append(f"{key} = {_CODECS[type(known[key])][1](value)}")
        lines.append("")
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
        oscillator=ImpactOscillatorParams(**_OSCILLATOR_DEFAULTS),
        tle=TLESettings(),
        probe=ProbeSettings(sigma=0.5),
    )
