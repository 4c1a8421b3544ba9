import os
from dataclasses import fields

import numpy as np
import pytest

from msflab.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_UNCONVERGED,
    main,
)
from msflab.config import (
    ConfigError,
    RunConfig,
    default_config,
    effective_ini,
    load_config,
    load_preset,
    parse_grid,
    preset_names,
)

SMOOTH_INI = """\
[oscillator]
zeta = 0.05
eta = 0.712
wall_enabled = false

[tle]
max_periods = 400
sample_window = 100

[query]
alpha = 0.0
"""


def _write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def assert_round_trip(cfg: RunConfig, tmp_path) -> None:
    """Dump the effective configuration, reload it, and require the same RunConfig."""
    reloaded = load_config(_write(tmp_path, effective_ini(cfg), "effective.ini"))
    drifted = [
        f"{f.name}: {getattr(cfg, f.name)!r} != {getattr(reloaded, f.name)!r}"
        for f in fields(RunConfig)
        if getattr(cfg, f.name) != getattr(reloaded, f.name)
    ]
    assert not drifted, "round trip drifted: " + "; ".join(drifted)


class TestConfig:
    def test_defaults_round_trip(self, tmp_path):
        assert_round_trip(default_config(), tmp_path)

    def test_presets_exist_and_round_trip(self, tmp_path):
        assert preset_names() == ["elastic", "inelastic"]
        for name in preset_names():
            cfg = load_preset(name)
            assert_round_trip(cfg, tmp_path)

    def test_elastic_preset_values(self):
        cfg = load_preset("elastic")
        assert cfg.oscillator.zeta == 0.05
        assert cfg.oscillator.eta == 0.712
        assert cfg.oscillator.x_w == 2.0
        assert cfg.oscillator.R == 1.0
        assert len(cfg.sigmas) == 21

    def test_inelastic_preset_values(self):
        cfg = load_preset("inelastic")
        assert cfg.oscillator.eta == 0.5975
        assert cfg.oscillator.x_w == 1.5
        assert cfg.oscillator.R == 0.9

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            load_preset("bouncy")

    def test_unknown_section_rejected(self, tmp_path):
        path = _write(tmp_path, "[oscilator]\nzeta = 0.05\n")
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = _write(tmp_path, "[oscillator]\nzeta = 0.05\nxw = 2.0\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)

    def test_removed_step_mode_key_rejected(self, tmp_path):
        path = _write(tmp_path, "[tle]\nstep_mode = grouped\n")
        with pytest.raises(ConfigError, match="unknown key 'step_mode'"):
            load_config(path)

    def test_bad_float_names_the_key(self, tmp_path):
        path = _write(tmp_path, "[oscillator]\nzeta = fast\n")
        with pytest.raises(ConfigError, match=r"\[oscillator\] zeta"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.ini")

    def test_invalid_physics_rejected(self, tmp_path):
        path = _write(tmp_path, "[oscillator]\nzeta = 1.4\nx_w = 2.0\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_graph_file_resolved_relative(self, tmp_path):
        graph = tmp_path / "ring.txt"
        graph.write_text("-1 1\n1 -1\n")
        path = _write(tmp_path, "[network]\ngraph = ring.txt\n")
        cfg = load_config(path)
        assert cfg.graph_spec == str(graph)

    def test_graph_file_missing(self, tmp_path):
        path = _write(tmp_path, "[network]\ngraph = missing.txt\n")
        with pytest.raises(ConfigError, match="graph file not found"):
            load_config(path)

    def test_effective_ini_lists_every_section(self):
        text = effective_ini(default_config())
        for section in ("[oscillator]", "[tle]", "[query]", "[sweep]",
                        "[probe]", "[network]", "[simulate]", "[output]"):
            assert section in text

    def test_loaded_config_round_trips(self, tmp_path):
        path = _write(tmp_path, SMOOTH_INI)
        assert_round_trip(load_config(path), tmp_path)


class TestParseGrid:
    def test_comma_list(self):
        assert parse_grid("0.0, 0.5,1.0") == (0.0, 0.5, 1.0)

    def test_linspace(self):
        assert parse_grid("0.0:1.0:5") == tuple(np.linspace(0, 1, 5))

    def test_empty(self):
        assert parse_grid("  ") == ()

    def test_bad_count(self):
        with pytest.raises(ConfigError):
            parse_grid("0:1:0")

    def test_bad_token(self):
        with pytest.raises(ConfigError):
            parse_grid("0.1,spam")

    def test_bad_linspace_arity(self):
        with pytest.raises(ConfigError):
            parse_grid("0:1")


class TestCli:
    def test_tle_smooth_run(self, tmp_path):
        cfg = _write(tmp_path, SMOOTH_INI)
        out = tmp_path / "out"
        code = main(["tle", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_OK
        lines = (out / "tle.csv").read_text().splitlines()
        assert lines[0] == "alpha,beta,tle,converged,periods_used"
        alpha, beta, tle, converged, periods = lines[1].split(",")
        assert converged == "true"
        assert float(tle) == pytest.approx(-0.05, abs=1e-3)
        assert (out / "effective.ini").is_file()

    def test_tle_alpha_override_and_plot(self, tmp_path):
        # alpha = 0.5 has a slow beat in its running average; allow the
        # full protocol cap so the run converges.
        cfg = _write(tmp_path, SMOOTH_INI.replace("max_periods = 400", "max_periods = 1500"))
        out = tmp_path / "out"
        code = main([
            "tle", "--config", str(cfg), "--out", str(out),
            "--alpha", "0.5", "--plot",
        ])
        assert code == EXIT_OK
        row = (out / "tle.csv").read_text().splitlines()[1]
        assert float(row.split(",")[0]) == 0.5
        svg = (out / "tle_convergence.svg").read_text()
        assert "<polyline" in svg

    def test_simulate_writes_trajectory_and_events(self, tmp_path):
        out = tmp_path / "out"
        code = main(["simulate", "--preset", "elastic", "--out", str(out), "--periods", "5"])
        assert code == EXIT_OK
        traj = (out / "trajectory.csv").read_text().splitlines()
        assert traj[0] == "tau,x,v"
        assert len(traj) > 100
        events = (out / "events.csv").read_text().splitlines()
        assert events[0] == "tau_c,v_pre,v_post"
        assert len(events) > 1
        xs = [float(line.split(",")[1]) for line in traj[1:]]
        assert max(xs) <= 2.0 + 1e-9

    def test_config_error_exit_code(self, tmp_path):
        bad = _write(tmp_path, "[oscillator]\nzeta = nope\n")
        assert main(["tle", "--config", str(bad)]) == EXIT_CONFIG

    def test_missing_sweep_grid_is_config_error(self, tmp_path):
        cfg = _write(tmp_path, SMOOTH_INI)
        assert main(["msf-sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_unknown_preset_exit_code(self, tmp_path):
        assert main(["tle", "--preset", "bouncy", "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        cfg = _write(tmp_path, SMOOTH_INI)
        target = tmp_path / "from_env"
        monkeypatch.setenv("MSFLAB_OUT", str(target))
        assert main(["tle", "--config", str(cfg)]) == EXIT_OK
        assert (target / "tle.csv").is_file()

    def test_unconverged_exit_code(self, tmp_path):
        # alpha = -2 gives a critically slow running average: the smooth
        # system converges like log(t)/t and misses the std gate at the cap.
        cfg = _write(tmp_path, SMOOTH_INI)
        out = tmp_path / "out"
        code = main([
            "tle", "--config", str(cfg), "--out", str(out), "--alpha", "-2.0",
        ])
        assert code == EXIT_UNCONVERGED
        row = (out / "tle.csv").read_text().splitlines()[1]
        assert row.split(",")[3] == "false"

    def test_probe_quick_run(self, tmp_path):
        ini = """\
[oscillator]
zeta = 0.05
eta = 0.712
x_w = 2.0
R = 1.0

[probe]
sigma = 0.5
rng_seed = 7
max_periods = 200
record_window = 50
"""
        cfg = _write(tmp_path, ini)
        out = tmp_path / "out"
        code = main(["probe", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_OK
        lines = (out / "probe.csv").read_text().splitlines()
        assert lines[0] == "sigma,synchronized,sync_time"
        sigma, synced, sync_time = lines[1].split(",")
        assert synced == "true"
        assert float(sync_time) > 0.0
        maxima = (out / "probe_maxima.csv").read_text().splitlines()
        assert maxima[0] == "sigma,local_max"
        assert maxima[1] == f"{sigma},0.0"

    def test_network_two_node(self, tmp_path):
        ini = """\
[oscillator]
zeta = 0.05
eta = 0.712
x_w = 2.0
R = 1.0
wall_enabled = false

[tle]
max_periods = 1200
sample_window = 100

[network]
graph = two_node
sigma = 0.25
"""
        cfg = _write(tmp_path, ini)
        out = tmp_path / "out"
        code = main(["network", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_OK
        lines = (out / "network.csv").read_text().splitlines()
        assert lines[0] == "gamma_real,gamma_imag,alpha,beta,tle,converged,periods_used"
        assert len(lines) == 4
        assert lines[-1].startswith("# verdict: ")
        gammas = sorted(float(line.split(",")[0]) for line in lines[1:3])
        assert gammas == [-2.0, 0.0]
        # Smooth oscillator: every exponent is -zeta, so the verdict is stable.
        assert lines[-1] == "# verdict: stable"

    def test_determinism_across_runs_and_jobs(self, tmp_path):
        # Alphas chosen to converge under the 400-period cap of SMOOTH_INI.
        ini = SMOOTH_INI + "\n[sweep]\nalphas = -0.1,0.0,0.1\nbetas = 0.0\n"
        cfg = _write(tmp_path, ini)
        outputs = []
        for jobs, name in (("1", "a"), ("1", "b"), ("2", "c")):
            out = tmp_path / name
            code = main([
                "msf-sweep", "--config", str(cfg), "--out", str(out),
                "--jobs", jobs,
            ])
            assert code == EXIT_OK
            outputs.append((out / "msf_sweep.csv").read_bytes())
            outputs.append((out / "effective.ini").read_bytes())
        assert outputs[0] == outputs[2] == outputs[4]
        assert outputs[1] == outputs[3] == outputs[5]
