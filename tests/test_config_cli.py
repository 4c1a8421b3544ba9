import os
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from msflab import cli
from msflab.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_POINT_FAILURES,
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
from msflab.msf import SweepPoint
from msflab.network import BifurcationPoint, ProbeResult

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

# A wall-free oscillator on a five-period horizon: each run takes well under
# a second and none converges.
SHORT_INI = """\
[oscillator]
zeta = 0.05
eta = 0.712
wall_enabled = false

[tle]
transient_periods = 1
max_periods = 5
sample_window = 2
"""


# The exact effective.ini of default_config(); "\x20" keeps the trailing
# space after an empty value visible.
DEFAULT_EFFECTIVE = """\
[oscillator]
zeta = 0.05
eta = 0.712
f = 1.0
x_w = 2.0
R = 1.0
wall_enabled = true

[tle]
transient_periods = 500
max_periods = 2000
sample_window = 100
std_tolerance = 1e-05
scan_step = 0.001
jacobi_delta = 1e-07

[query]
alpha = 0.0
beta = 0.0

[sweep]
alphas =\x20
betas = 0.0
sigmas =\x20

[probe]
sigma = 0.5
perturbation_magnitude = 0.001
rng_seed = 12345
max_periods = 2000
sync_threshold = 1e-10
record_window = 100
transient_periods = 500
scan_step = 0.001

[network]
graph = two_node
sigma = 0.5

[simulate]
periods = 10
samples_per_period = 256

[output]
directory =\x20
"""

PRESET_SWEEP = (
    "alphas = 0.0,-0.125,-0.25,-0.375,-0.5,-0.625,-0.75,-0.875,-1.0,-1.125,"
    "-1.25,-1.375,-1.5,-1.625,-1.75,-1.875,-2.0,-2.125,-2.25,-2.375,-2.5,"
    "-2.625,-2.75,-2.875,-3.0\n"
    "betas = 0.0\n"
    "sigmas = 0.0,0.0625,0.125,0.1875,0.25,0.3125,0.375,0.4375,0.5,0.5625,"
    "0.625,0.6875,0.75,0.8125,0.875,0.9375,1.0,1.0625,1.125,1.1875,1.25\n"
)

ELASTIC_EFFECTIVE = DEFAULT_EFFECTIVE.replace(
    "alphas =\x20\nbetas = 0.0\nsigmas =\x20\n", PRESET_SWEEP
)

INELASTIC_EFFECTIVE = ELASTIC_EFFECTIVE.replace(
    "eta = 0.712\nf = 1.0\nx_w = 2.0\nR = 1.0\n",
    "eta = 0.5975\nf = 1.0\nx_w = 1.5\nR = 0.9\n",
)


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

    def test_effective_ini_golden_text(self):
        assert effective_ini(default_config()) == DEFAULT_EFFECTIVE
        assert effective_ini(load_preset("elastic")) == ELASTIC_EFFECTIVE
        assert effective_ini(load_preset("inelastic")) == INELASTIC_EFFECTIVE

    def test_empty_ini_is_default_config(self, tmp_path):
        assert load_config(_write(tmp_path, "")) == default_config()

    @pytest.mark.parametrize("key", ["alpha", "beta"])
    def test_non_finite_query_rejected(self, tmp_path, key):
        path = _write(tmp_path, f"[query]\n{key} = nan\n")
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            load_config(path)

    @pytest.mark.parametrize(
        "ini, message",
        [
            ("[probe]\nsigma = nan\n", "sigma must be finite"),
            ("[probe]\nrng_seed = -1\n", "rng_seed must be non-negative"),
            ("[network]\nsigma = inf\n", "sigma must be finite"),
            ("[probe]\nscan_step = inf\n", "scan_step must be finite"),
        ],
        ids=["probe_sigma", "probe_rng_seed", "network_sigma", "probe_scan_step"],
    )
    def test_bad_probe_and_network_values_rejected(self, tmp_path, ini, message):
        with pytest.raises(ConfigError, match=message):
            load_config(_write(tmp_path, ini))


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

    @pytest.mark.parametrize("spec", ["nan,0.0", "0.0,inf", "0:-inf:3"])
    def test_non_finite_rejected(self, spec):
        with pytest.raises(ConfigError, match="finite"):
            parse_grid(spec)


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
        assert "[query]\nalpha = 0.5\n" in (out / "effective.ini").read_text()
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

    def test_empty_betas_grid_is_config_error(self, tmp_path, capsys):
        cfg = _write(tmp_path, SMOOTH_INI + "\n[sweep]\nalphas = 0.0\nbetas =\n")
        out = tmp_path / "o"
        assert main(["msf-sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert "non-empty [sweep] betas grid" in capsys.readouterr().err
        assert not (out / "msf_sweep.csv").exists()

    @pytest.mark.parametrize("key", ["periods", "samples_per_period"])
    def test_zero_simulate_value_is_config_error(self, tmp_path, key):
        cfg = _write(tmp_path, f"[simulate]\n{key} = 0\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "command, ini",
        [("probe", "[probe]\nscan_step = inf\n"), ("tle", "[tle]\njacobi_delta = inf\n")],
        ids=["probe_scan_step", "tle_jacobi_delta"],
    )
    def test_infinite_setting_is_config_error(self, tmp_path, command, ini):
        cfg = _write(tmp_path, ini)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG

    def test_zero_periods_override_is_config_error(self, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--out", str(out), "--periods", "0"]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "argv",
        [
            ["tle", "--alpha", "nan"],
            ["tle", "--beta", "inf"],
            ["probe", "--sigma", "nan"],
            ["network", "--sigma", "nan"],
            ["simulate", "--periods", "-1"],
            ["msf-sweep", "--jobs", "-3"],
            ["bifurcation", "--jobs", "0"],
            ["study", "--jobs", "0"],
        ],
        ids=[
            "tle_alpha", "tle_beta", "probe_sigma", "network_sigma", "simulate_periods",
            "sweep_jobs", "bifurcation_jobs", "study_jobs",
        ],
    )
    def test_bad_override_is_config_error(self, tmp_path, argv, capsys):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
        assert f"error: {argv[1]}:" in capsys.readouterr().err
        assert not (out / "effective.ini").exists()

    @pytest.mark.parametrize("command", ["tle", "probe", "network", "simulate"])
    def test_jobs_is_a_grid_command_flag(self, tmp_path, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--jobs", "2", "--out", str(tmp_path / "out")])
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_failed_run_writes_effective_ini(self, tmp_path, capsys):
        # The config is accepted, then the exponent march overflows.
        cfg = _write(tmp_path, SHORT_INI + "\n[query]\nalpha = 1e12\n")
        out = tmp_path / "out"
        assert main(["tle", "--config", str(cfg), "--out", str(out)]) == EXIT_POINT_FAILURES
        assert capsys.readouterr().err.startswith("error: PropagationError: ")
        assert sorted(path.name for path in out.iterdir()) == ["effective.ini"]
        assert load_config(out / "effective.ini") == load_config(cfg)

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

    def test_network_graph_specs(self, tmp_path):
        # all_to_all:3 and a file holding the 3-node ring, which is the same
        # graph, give the same three unconverged modes.
        (tmp_path / "ring.txt").write_text("-2 1 1\n1 -2 1\n1 1 -2\n")
        tables = []
        for i, spec in enumerate(("all_to_all:3", "ring.txt")):
            cfg = _write(tmp_path, SHORT_INI + f"\n[network]\ngraph = {spec}\n")
            out = tmp_path / f"out{i}"
            assert main(["network", "--config", str(cfg), "--out", str(out)]) == EXIT_UNCONVERGED
            lines = (out / "network.csv").read_text().splitlines()
            assert len(lines) == 5 and lines[-1].startswith("# verdict: ")
            assert [line.split(",")[5] for line in lines[1:4]] == ["false"] * 3
            tables.append(lines)
        assert tables[0] == tables[1]

    def test_network_single_node_is_config_error(self, tmp_path, capsys):
        cfg = _write(tmp_path, SHORT_INI + "\n[network]\ngraph = all_to_all:1\n")
        assert main(["network", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: all_to_all needs at least 2 nodes, got 1\n"

    def test_sweep_failed_point(self, tmp_path, capsys):
        cfg = _write(tmp_path, SHORT_INI + "\n[sweep]\nalphas = 0.0,1e12\nbetas = 0.0\n")
        out = tmp_path / "out"
        assert main(["msf-sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_POINT_FAILURES
        err = capsys.readouterr().err
        assert err.startswith(
            "point alpha=1e+12 beta=0 failed: PropagationError: one free step grows by e^1000, "
            "past e^300, "
        )
        rows = (out / "msf_sweep.csv").read_text().splitlines()
        assert len(rows) == 3 and rows[2] == "1000000000000.0,0.0,,false,0"

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


class TestStudy:
    GATE_INI = (
        "[oscillator]\n"
        "zeta = 0.05\neta = 0.712\nf = 1.0\nx_w = 2.0\nR = 1.0\n"
        "wall_enabled = true\n"
        "[tle]\nmax_periods = 120\n"
        "[sweep]\nalphas = 0.0,-0.5,-1.0\nbetas = 0.0\nsigmas = 0.5,0.55\n"
    )

    def test_matches_msf_sweep_and_bifurcation(self, tmp_path):
        cfg = _write(tmp_path, self.GATE_INI)
        study = tmp_path / "study"
        assert main(["study", "--config", str(cfg), "--out", str(study), "--plot"]) == EXIT_UNCONVERGED
        assert "<polyline" in (study / "sigma_exponents.svg").read_text()
        assert "<circle" in (study / "bifurcation.svg").read_text()
        scan = tmp_path / "scan"
        assert main(["bifurcation", "--config", str(cfg), "--out", str(scan)]) == EXIT_OK
        assert (study / "bifurcation.csv").read_bytes() == (scan / "bifurcation.csv").read_bytes()

        # msf-sweep on the same config, its alphas set to -2 sigma.
        alphas = ",".join(repr(-2.0 * s) for s in (0.5, 0.55))
        cfg = _write(tmp_path, self.GATE_INI.replace("0.0,-0.5,-1.0", alphas), "sweep.ini")
        sweep = tmp_path / "sweep"
        assert main(["msf-sweep", "--config", str(cfg), "--out", str(sweep)]) == EXIT_UNCONVERGED
        exponents = (study / "sigma_exponents.csv").read_text().splitlines()
        assert exponents[0] == "sigma,alpha,tle,converged"
        swept = (sweep / "msf_sweep.csv").read_text().splitlines()
        assert len(exponents) == len(swept) == 3
        for sigma, row, sweep_row in zip(("0.5", "0.55"), exponents[1:], swept[1:]):
            alpha, beta, tle, converged, _ = sweep_row.split(",")
            assert row == f"{sigma},{alpha},{tle},{converged}"
        outcomes = (study / "probe_outcomes.csv").read_text().splitlines()
        assert outcomes[0] == "sigma,synchronized,sync_time"
        assert [line.split(",")[:2] for line in outcomes[1:]] == [
            ["0.5", "true"], ["0.55", "true"],
        ]

    def test_without_sigmas_is_config_error(self, tmp_path, capsys):
        cfg = _write(tmp_path, SHORT_INI)
        out = tmp_path / "out"
        assert main(["study", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: study needs a non-empty [sweep] sigmas grid\n"
        assert list(out.iterdir()) == []

    def test_agreement_mismatches_and_failures(self, tmp_path, monkeypatch, capsys):
        # Stand-in grids: sigma 0 agrees, 0.5 disagrees, 1 is too close to
        # zero to count, and 1.5 fails in both halves.
        tles = {-0.0: 0.03, -1.0: -0.02, -2.0: 0.005}
        synced = {0.0: False, 0.5: False, 1.0: True}

        def fake_sweep(p, coupling, alphas, betas, settings, jobs=None):
            return [
                SweepPoint(a, 0.0, SimpleNamespace(tle=tles[a], converged=False))
                if a in tles else SweepPoint(a, 0.0, error="ChatterError: stand-in")
                for a in alphas
            ]

        def fake_scan(p, coupling, sigmas, settings, jobs=None):
            return [
                BifurcationPoint(s, ProbeResult(s, synced[s], 7.5 if synced[s] else None, [0.25]))
                if s in synced else BifurcationPoint(s, error="PropagationError: stand-in")
                for s in sigmas
            ]

        monkeypatch.setattr(cli, "msf_sweep", fake_sweep)
        monkeypatch.setattr(cli, "bifurcation_scan", fake_scan)
        cfg = _write(tmp_path, "[sweep]\nsigmas = 0.0,0.5,1.0,1.5\n")
        out = tmp_path / "out"
        assert main(["study", "--config", str(cfg), "--out", str(out)]) == EXIT_POINT_FAILURES
        printed = capsys.readouterr()
        assert printed.out == (
            "sign agreement: 1/2 (|lambda| > 0.01 only)\n"
            "  sigma=0.5: lambda=-0.02, probe not synchronized\n"
        )
        assert printed.err == (
            "sigma=1.5 failed: PropagationError: stand-in\n"
            "point alpha=-3 beta=0 failed: ChatterError: stand-in\n"
        )
        assert (out / "sigma_exponents.csv").read_text() == (
            "sigma,alpha,tle,converged\n"
            "0.0,-0.0,0.03,false\n0.5,-1.0,-0.02,false\n1.0,-2.0,0.005,false\n1.5,-3.0,,false\n"
        )
        assert (out / "probe_outcomes.csv").read_text() == (
            "sigma,synchronized,sync_time\n0.0,false,\n0.5,false,\n1.0,true,7.5\n"
        )
        assert (out / "effective.ini").is_file()
