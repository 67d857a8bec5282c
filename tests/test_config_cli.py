import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

from morsecontrol import (I2, RunConfig, auto_momentum_grid, characteristic_times,
                          fringe_amplitude, lobe_count, parse_config, read_grid,
                          uncertainties, wigner_transform)
from morsecontrol import cli, config
from morsecontrol.cli import COMMANDS, main
from morsecontrol.config import (apply_overrides, build_model, config_times, parse_angle,
                                 parse_fraction, validate_config)
from morsecontrol.errors import ConfigError, TruncationWarning


def test_empty_config_gives_iodine_defaults():
    cfg = parse_config("")
    assert cfg.beta == 4.954
    assert cfg.mu == 1.156e5
    assert cfg.r0 == 5.03
    assert cfg.D == 0.057
    assert cfg.alpha == 2.0
    assert cfg.n_levels == 24
    assert (cfg.x_min, cfg.x_max, cfg.nx, cfg.np) == (-0.25, 0.45, 2048, 512)
    assert cfg.auto_p is True
    assert cfg.workers == 1


def test_comments_and_blank_lines():
    cfg = parse_config("# a comment\n\nalpha = 1.5  # inline\n")
    assert cfg.alpha == 1.5


def test_degenerate_coherent_state_is_valid_config():
    cfg = parse_config("alpha=0\nn_levels=2\n")
    assert cfg.alpha == 0.0
    assert cfg.n_levels == 2


def test_unknown_key_named_with_line():
    with pytest.raises(ConfigError, match=r"line 2: unknown key 'bogus'"):
        parse_config("alpha=1\nbogus=3\n")


def test_unparsable_value_named():
    with pytest.raises(ConfigError, match=r"line 1: nx"):
        parse_config("nx=many\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("alpha=1\nalpha=2\n")


def test_too_many_levels_rejected():
    with pytest.raises(ConfigError, match="117"):
        parse_config("n_levels=500\n")


def test_grid_sizes_must_be_powers_of_two():
    with pytest.raises(ConfigError, match="nx"):
        parse_config("nx=1000\n")
    with pytest.raises(ConfigError, match="np"):
        parse_config("np=64\n")


def test_inverted_range_rejected():
    with pytest.raises(ConfigError, match="x_min"):
        parse_config("x_min=0.5\nx_max=0.1\n")


def test_later_time_spec_wins():
    # the two time keys are mutually exclusive; the one set last replaces the other
    cfg = parse_config("t_frac=0.125\nt_au=100\n")
    assert cfg.t_frac is None and cfg.t_au == (100.0,)
    cfg = parse_config("t_au=100\nt_frac=0.125\n")
    assert cfg.t_au is None and cfg.t_frac == (0.125,)


def test_t_au_replaces_fractions():
    cfg = parse_config("t_au=10,20\n")
    assert cfg.t_frac is None
    assert cfg.t_au == (10.0, 20.0)
    times, fracs = config_times(cfg, revival_time=1000.0)
    assert times == (10.0, 20.0)
    assert fracs is None


def test_fraction_times_scale_with_revival():
    cfg = parse_config("t_frac=1/8,1/16\n")
    times, fracs = config_times(cfg, revival_time=1600.0)
    assert times == (200.0, 100.0)
    assert fracs == (0.125, 0.0625)


def test_angle_expressions():
    assert parse_angle("pi") == pytest.approx(math.pi)
    assert parse_angle("3pi/4") == pytest.approx(3 * math.pi / 4)
    assert parse_angle("-pi/2") == pytest.approx(-math.pi / 2)
    assert parse_angle("0.5pi") == pytest.approx(math.pi / 2)
    assert parse_angle("2pi") == pytest.approx(2 * math.pi)
    assert parse_angle("1.25") == 1.25


def test_fraction_expressions():
    assert parse_fraction("1/8") == 0.125
    assert parse_fraction("0.0625") == 0.0625
    with pytest.raises(ValueError):
        parse_fraction("1/0")


def test_theta_list_parse():
    cfg = parse_config("theta=0,pi/8,pi/4,3pi/8\n")
    assert cfg.theta == pytest.approx((0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8))


def test_overrides_apply_and_validate():
    cfg = apply_overrides(RunConfig(), ["alpha=1.0", "nx=256"])
    assert cfg.alpha == 1.0 and cfg.nx == 256
    with pytest.raises(ConfigError, match="unknown key"):
        apply_overrides(RunConfig(), ["nope=1"])
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides(RunConfig(), ["just-a-word"])


def test_manual_momentum_grid_needs_p_max():
    with pytest.raises(ConfigError, match="p_max"):
        parse_config("auto_p=false\n")
    cfg = parse_config("auto_p=false\np_max=800\n")
    assert cfg.p_max == 800.0


BASE = ["--set", "nx=512", "--set", "np=128"]


def run_cli(args):
    return main(args)


def test_eigen_command(tmp_path, capsys):
    assert run_cli(["eigen", "--outdir", str(tmp_path)] + BASE) == 0
    lines = (tmp_path / "eigen.csv").read_text().splitlines()
    header = [l for l in lines if not l.startswith("#")]
    assert header[0] == "m,energy,exponent,norm,capture"
    assert len(header) == 25
    first = header[1].split(",")
    assert float(first[1]) == pytest.approx(-0.056512, abs=1e-6)
    assert float(first[3]) == pytest.approx(1.0, abs=1e-9)


def test_state_command_matches_library(tmp_path, model):
    assert run_cli([
        "state", "--outdir", str(tmp_path), "--set", "theta=0", "--set", "t_frac=0",
    ]) == 0
    rows = [l.split(",") for l in (tmp_path / "state_000.csv").read_text().splitlines()
            if l and not l.startswith("#") and not l.startswith("x,")]
    density = np.array([float(r[3]) for r in rows])
    # theta = 0 is the odd parity packet; 17 significant digits round-trip exactly
    expected = model.subsidiary("odd", 0.0).density
    assert np.array_equal(density, expected)


def test_wigner_command_writes_gridfile(tmp_path):
    assert run_cli([
        "wigner", "--outdir", str(tmp_path), "--set", "theta=pi/2", "--set", "t_frac=1/8",
    ] + BASE) == 0
    grid = read_grid(tmp_path / "wigner_000.wgrd")
    assert grid.payload.shape == (512, 128)
    assert grid.meta["wigner_prefactor"] == "1/pi"
    assert grid.meta["overlap_factor"] == "2pi"
    assert int(grid.meta["lobe_count"]) >= 1
    assert float(grid.meta["norm_captured"]) == pytest.approx(1.0, abs=1e-3)
    assert (tmp_path / "wigner_000.csv").exists()


def _assert_csv_matches_grid(csv_path, wgrd_path):
    """A ``row,column,value`` grid CSV holds its .wgrd's axes and payload row-major."""
    lines = [l for l in csv_path.read_text().splitlines() if l and not l.startswith("#")]
    table = np.array([[float(v) for v in l.split(",")] for l in lines[1:]])
    grid = read_grid(wgrd_path)
    rows, cols = grid.axes
    assert np.array_equal(table[:, 0], np.repeat(rows, cols.size))
    assert np.array_equal(table[:, 1], np.tile(cols, rows.size))
    assert np.array_equal(table[:, 2], grid.payload.ravel())


def test_grid_csvs_match_their_grid_files(tmp_path):
    # at format=full every float round-trips, so each CSV holds its .wgrd exactly
    assert run_cli([
        "wigner", "--outdir", str(tmp_path), "--set", "theta=pi/2",
        "--set", "t_frac=0,1/8", "--set", "format=full",
    ] + BASE) == 0
    assert run_cli([
        "carpet", "--outdir", str(tmp_path), "--set", "theta_count=9",
        "--set", "t_frac=1/16", "--set", "format=full",
    ] + BASE) == 0
    for stem in ("wigner_000", "wigner_001", "carpet"):
        _assert_csv_matches_grid(tmp_path / f"{stem}.csv", tmp_path / f"{stem}.wgrd")


def test_carpet_command(tmp_path):
    assert run_cli([
        "carpet", "--outdir", str(tmp_path), "--set", "theta_count=9",
        "--set", "t_frac=0.125",
    ] + BASE) == 0
    grid = read_grid(tmp_path / "carpet.wgrd")
    assert grid.payload.shape == (9, 512)
    x = grid.axes[1]
    for row in grid.payload:
        assert np.trapezoid(row, x) == pytest.approx(1.0, abs=1e-6)


def test_metrics_command(tmp_path):
    assert run_cli([
        "metrics", "--outdir", str(tmp_path),
        "--set", "theta=0,pi/2", "--set", "t_frac=1/8",
    ] + BASE) == 0
    lines = [l for l in (tmp_path / "metrics.csv").read_text().splitlines()
             if l and not l.startswith("#")]
    assert lines[0].startswith("theta,t_frac,t,dx,dp,action,tile_area")
    assert len(lines) == 3
    cat = lines[1].split(",")
    assert float(cat[6]) == pytest.approx(0.0796, abs=2e-3)  # tile area at theta=0
    assert int(cat[8]) == 2  # the split packet is a two-lobe cat


def test_metrics_rows_match_the_primitives(tmp_path, model):
    # every field of every row, at 17 digits, against the library computed here
    assert run_cli([
        "metrics", "--outdir", str(tmp_path),
        "--set", "theta=0,pi/2", "--set", "t_frac=1/8",
    ]) == 0
    rows = [l.split(",") for l in (tmp_path / "metrics.csv").read_text().splitlines()
            if l and not l.startswith("#")][1:]
    t = 0.125 * characteristic_times(I2)[1]
    expected = []
    for theta in (0.0, math.pi / 2):
        state = model.phase_locked(theta, t)
        dx_spread, dp_spread = uncertainties(state)
        action = dx_spread * dp_spread
        fringes = fringe_amplitude(state.density, state.x, I2.r0)
        lobes = lobe_count(wigner_transform(state, auto_momentum_grid(state)), 0.3)
        values = (state.theta, 0.125, t, dx_spread, dp_spread, action, 1.0 / action, fringes)
        expected.append([format(v, ".17g") for v in values] + [str(lobes)])
    assert rows == expected


def test_sensitivity_command(tmp_path):
    assert run_cli([
        "sensitivity", "--outdir", str(tmp_path),
        "--set", "theta=pi/2", "--set", "t_frac=1/8", "--set", "steps=32",
    ] + BASE) == 0
    text = (tmp_path / "sensitivity.csv").read_text()
    assert "# first_zero=" in text
    rows = [l for l in text.splitlines() if l and not l.startswith("#")][1:]
    assert float(rows[0].split(",")[1]) == pytest.approx(1.0, abs=1e-6)
    assert rows[0].split(",")[2] != ""  # wigner cross-check at the first shift


def test_table1_command(tmp_path):
    assert run_cli(["table1", "--outdir", str(tmp_path), "--set", "nx=1024"]) == 0
    lines = [l for l in (tmp_path / "table1.csv").read_text().splitlines()
             if l and not l.startswith("#")]
    assert lines[0] == "theta,0,pi/8,pi/4,3pi/8,pi/2,5pi/8,3pi/4,7pi/8,pi"
    values = [float(v) for v in lines[1].split(",")[1:]]
    assert len(values) == 9
    assert values[0] == 0.0
    assert all(values[i + 1] >= values[i] for i in range(8))


def test_table2_command_layout_and_report(tmp_path):
    assert run_cli(["table2", "--outdir", str(tmp_path), "--set", "nx=1024"]) == 0
    lines = [l for l in (tmp_path / "table2.csv").read_text().splitlines()
             if l and not l.startswith("#")]
    assert lines[0] == "theta,0,pi/8,pi/4,3pi/8,pi/2,5pi/8,3pi/4,7pi/8,pi"
    assert lines[1].startswith("T_rev/8,")
    assert lines[2].startswith("T_rev/16,")
    row8 = [float(v) for v in lines[1].split(",")[1:]]
    row16 = [float(v) for v in lines[2].split(",")[1:]]
    assert len(row8) == len(row16) == 9
    assert all(a < b for a, b in zip(row16, row8))
    report = tmp_path / "table2_convention_report.csv"
    if report.exists():
        body = [l for l in report.read_text().splitlines() if not l.startswith("#")]
        assert body[0] == "label,theta,t_frac,tile_area_x_conjugate,tile_area_r_scaled,reference"
        assert len(body) >= 2


def test_cli_rejects_bad_config(tmp_path, capsys):
    assert run_cli(["eigen", "--outdir", str(tmp_path), "--set", "n_levels=500"]) == 1
    assert "117" in capsys.readouterr().err


def test_cli_reports_missing_config_file(tmp_path, capsys):
    assert run_cli(["eigen", "--config", str(tmp_path / "nope.cfg")]) == 1
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["config is a directory", "config is not UTF-8",
                                  "outdir is a file", "outdir is under a file"])
def test_bad_config_or_outdir_path_exits_1_naming_it(tmp_path, capsys, case):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    latin = tmp_path / "latin.cfg"
    latin.write_bytes(b"alpha=\xff\n")
    out = tmp_path / "out"
    named, argv = {
        "config is a directory": (tmp_path, ["--config", str(tmp_path), "--outdir", str(out)]),
        "config is not UTF-8": (latin, ["--config", str(latin), "--outdir", str(out)]),
        "outdir is a file": (blocker, ["--outdir", str(blocker)]),
        "outdir is under a file": (blocker / "sub", ["--outdir", str(blocker / "sub")]),
    }[case]
    before = sorted(tmp_path.iterdir())
    assert run_cli(["eigen", *argv] + BASE) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(named) in lines[0], lines
    assert sorted(tmp_path.iterdir()) == before and blocker.read_text() == "x"


def test_cli_degenerate_state_fails_cleanly(tmp_path, capsys):
    assert run_cli(["state", "--outdir", str(tmp_path), "--set", "alpha=0"] + BASE) == 1
    assert "split" in capsys.readouterr().err.lower() or not list(tmp_path.iterdir())


@pytest.mark.parametrize("setting, message", [
    ("alpha=0", "cannot split: even weight 1, odd weight 0"),
    ("n_levels=1", "n_max must be >= 1, got 0"),
])
def test_unbuildable_ladder_names_its_keys(tmp_path, capsys, setting, message):
    assert run_cli(["state", "--outdir", str(tmp_path), "--set", setting] + BASE) == 1
    assert (f"error: config: alpha, n_levels: coherent ladder invalid: {message}"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, settings, keys", [
    ("eigen", ("r0=1e300",), "beta, mu, r0, D"),
    ("state", ("r0=1e300",), "beta, mu, r0, D"),
    ("metrics", ("beta=1e-300",), "beta, mu, r0, D"),
    ("eigen", ("mu=1e308", "D=1e308"), "beta, mu, r0, D"),
    ("state", ("alpha=1e300",), "alpha, n_levels"),
    ("metrics", ("alpha=1e300",), "alpha, n_levels"),
    ("eigen", ("x_min=-1e308", "x_max=1e308"), "x_min, x_max"),
    ("state", ("x_min=-1e308", "x_max=1e308"), "x_min, x_max"),
    ("eigen", ("D=1e300",), "nx, x_min, x_max"),
    ("state", ("D=1e300",), "nx, x_min, x_max"),
    ("eigen", ("mu=1e300",), "nx, x_min, x_max"),
    ("metrics", ("mu=1e300",), "nx, x_min, x_max"),
    ("wigner", ("auto_p=false", "p_max=1e308"), "p_max"),
])
def test_extreme_finite_settings_exit_1_naming_their_keys(tmp_path, capsys, command,
                                                          settings, keys):
    outdir = tmp_path / "out"
    args = [command, "--outdir", str(outdir)] + BASE
    for setting in settings:
        args += ["--set", setting]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(args) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: config: {keys}: "), lines
    assert [str(w.message) for w in caught] == []
    assert not outdir.exists()


PACKET_COMMANDS = [name for name in COMMANDS if name != "eigen"]


@pytest.mark.filterwarnings("ignore::morsecontrol.errors.TruncationWarning")
@pytest.mark.parametrize("grid", [("x_min=0.3", "x_max=0.45"), ("x_min=-60",), ("x_max=30",)],
                         ids=["misses-the-well", "too-coarse-wide-left", "too-coarse-wide-right"])
@pytest.mark.parametrize("command", PACKET_COMMANDS)
def test_grid_that_cannot_hold_the_packet_names_its_keys(tmp_path, capsys, command, grid):
    args = [command, "--outdir", str(tmp_path)] + BASE
    for setting in grid:
        args += ["--set", setting]
    assert run_cli(args) == 1
    err = capsys.readouterr().err
    assert "error: config: nx, x_min, x_max: the grid x_min=" in err
    assert "at nx=512 cannot hold the packet" in err
    assert float(err.split("off the identity by ")[1].split()[0]) > 0.99
    assert list(tmp_path.iterdir()) == []


def test_grid_error_is_the_only_line_on_stderr(tmp_path):
    # in a fresh process, under the default warning filters: the 24 levels'
    # TruncationWarnings of such a grid are dropped, as the error names the cause
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("PYTHONWARNINGS", None)
    outdir = tmp_path / "out"
    argv = [sys.executable, "-m", "morsecontrol.cli", "state", "--outdir", str(outdir), *BASE,
            "--set", "x_min=0.3", "--set", "x_max=0.45"]
    run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: config: nx, x_min, x_max: "), lines[:3]
    assert not outdir.exists()


def test_table_warnings_held_until_the_grid_passes(monkeypatch):
    bad = replace(RunConfig(), x_max=0.22, nx=512)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ConfigError, match="nx, x_min, x_max"):
            build_model(bad)
    assert caught == []
    # a tolerance the same grid passes issues the held warnings after the check
    monkeypatch.setattr(config, "GRAM_TOLERANCE", 2.0)
    with pytest.warns(TruncationWarning, match="captures only"):
        build_model(bad)


@pytest.mark.parametrize("grid", [{}, {"nx": 128}, {"x_max": 0.25, "nx": 512},
                                  {"x_max": 30.0, "nx": 8192}])
def test_sound_grids_hold_the_packet(grid):
    # the worst sound grid measured, x_max=0.25 at nx=512, reads 6.3e-12
    model = build_model(replace(RunConfig(), **grid))
    assert model.table.shape == (24, grid.get("nx", 2048))


@pytest.mark.parametrize("setting", ["x_min=-200", "x_max=1e5"])
def test_far_grid_eigen_prints_no_numpy_warning(tmp_path, setting):
    # exp(-beta*x) overflows far left of the well and underflows far right;
    # the samples there are zeroed, so numpy's warnings about them are noise
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(["eigen", "--outdir", str(tmp_path), *BASE, "--set", setting]) == 0
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert any(issubclass(w.category, TruncationWarning) for w in caught)
    assert (tmp_path / "eigen.csv").exists()


@pytest.mark.filterwarnings("ignore::morsecontrol.errors.TruncationWarning")
def test_eigen_reports_capture_on_a_grid_that_misses_the_well(tmp_path):
    # eigen builds no packet: it keeps writing each level's capture
    args = ["eigen", "--outdir", str(tmp_path), "--set", "x_min=0.3", "--set", "x_max=0.45"]
    assert run_cli(args + BASE) == 0
    rows = (tmp_path / "eigen.csv").read_text().splitlines()[5:]
    assert max(float(row.split(",")[4]) for row in rows) < 1e-3


def test_partial_outputs_removed_on_failure(tmp_path, capsys):
    # the first lattice point fits inside p_max, the second does not: the
    # command must fail and remove the files it already wrote
    code = run_cli([
        "wigner", "--outdir", str(tmp_path),
        "--set", "theta=pi/2", "--set", "t_frac=0,1/8",
        "--set", "auto_p=false", "--set", "p_max=400",
    ] + BASE)
    assert code == 1
    assert "spectral content" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_config_file_and_override_precedence(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("alpha=1.0\nnx=256\n")
    out = tmp_path / "out"
    assert run_cli([
        "eigen", "--config", str(cfg_file), "--outdir", str(out), "--set", "n_levels=4",
    ]) == 0
    lines = [l for l in (out / "eigen.csv").read_text().splitlines() if not l.startswith("#")]
    assert len(lines) == 5  # header + 4 levels


def test_worker_env_override_bytes_identical(tmp_path, monkeypatch):
    args = ["wigner", "--set", "theta=pi/4", "--set", "t_frac=1/16"] + BASE
    monkeypatch.setenv("MORSECONTROL_WORKERS", "1")
    assert run_cli(args + ["--outdir", str(tmp_path / "w1")]) == 0
    monkeypatch.setenv("MORSECONTROL_WORKERS", "4")
    assert run_cli(args + ["--outdir", str(tmp_path / "w4")]) == 0
    for name in ("wigner_000.wgrd", "wigner_000.csv"):
        assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w4" / name).read_bytes()


@pytest.mark.parametrize("env, setting, name", [
    ("0", None, "MORSECONTROL_WORKERS"),
    ("abc", None, "MORSECONTROL_WORKERS"),
    (None, "workers=0", "workers"),
])
def test_bad_worker_settings_rejected(tmp_path, monkeypatch, capsys, env, setting, name):
    # the worker count has no effect on any result, but it is still validated
    if env is None:
        monkeypatch.delenv("MORSECONTROL_WORKERS", raising=False)
    else:
        monkeypatch.setenv("MORSECONTROL_WORKERS", env)
    extra = [] if setting is None else ["--set", setting]
    assert run_cli(["eigen", "--outdir", str(tmp_path)] + extra + BASE) == 1
    assert name in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_rerun_without_report_removes_stale_report(tmp_path):
    # at the defaults the tile areas miss their references and table2 writes
    # the convention report; at alpha=1 they meet them and it writes none
    report = tmp_path / "table2_convention_report.csv"
    assert run_cli(["table2", "--outdir", str(tmp_path)]) == 0
    assert report.exists()
    assert run_cli(["table2", "--outdir", str(tmp_path), "--set", "alpha=1"]) == 0
    assert not report.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table2.csv"]


def test_failed_rerun_keeps_report(tmp_path, monkeypatch):
    assert run_cli(["table2", "--outdir", str(tmp_path)]) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert "table2_convention_report.csv" in before

    def interrupted(*args):
        raise KeyboardInterrupt

    # the alpha=1 rerun writes no report, then fails before its files move in
    monkeypatch.setattr("os.replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_cli(["table2", "--outdir", str(tmp_path), "--set", "alpha=1"])
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("command", ["wigner", "metrics", "sensitivity"])
def test_manual_momentum_grid_honoured(tmp_path, capsys, command):
    # p_max=1 is far short of the state's momentum spread: every command that
    # takes a Wigner transform must use this grid and reject it
    code = run_cli([
        command, "--outdir", str(tmp_path), "--set", "steps=32",
        "--set", "auto_p=false", "--set", "p_max=1",
    ] + BASE)
    assert code == 1
    err = capsys.readouterr().err
    assert "error: np, p_max, auto_p: momentum grid reaches 1 but" in err
    assert "spectral content" in err and "raise p_max or set auto_p=true" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["wigner", "metrics", "sensitivity"])
def test_coarse_position_grid_names_its_keys(tmp_path, capsys, command):
    # at nx=128 the position step cannot resolve exp(-2i*p*x') at the largest
    # momentum of the automatic grid
    code = run_cli([command, "--outdir", str(tmp_path), "--set", "nx=128", "--set", "np=128"])
    assert code == 1
    err = capsys.readouterr().err
    assert "error: nx, x_min, x_max: position spacing too coarse" in err
    phase_step = float(err.split("2*p_max*dx = ")[1].split()[0])
    assert phase_step > math.pi
    assert f"exceeds pi = {math.pi:.4g}" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("settings, keys", [
    # a position shift that carries norm past x_max
    (["max_shift=0.3"], "max_shift, x_min, x_max: shift 0.2381 pushes"),
    # a momentum shift that carries the displaced state past the automatic grid
    (["direction=momentum", "max_shift=600"],
     "max_shift, p_max, auto_p: for a displaced state, momentum grid reaches"),
], ids=["position", "momentum"])
def test_sensitivity_scan_failures_name_their_keys(tmp_path, capsys, settings, keys):
    args = ["sensitivity", "--outdir", str(tmp_path),
            "--set", "theta=pi/2", "--set", "t_frac=1/8"]
    for setting in settings:
        args += ["--set", setting]
    assert run_cli(args) == 1
    err = capsys.readouterr().err
    assert f"error: {keys}" in err
    assert "set auto_p=true" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, setting, key", [
    ("carpet", "t_frac=0,1/8", "t_frac"),
    ("carpet", "t_au=0,1000", "t_au"),
    ("sensitivity", "theta=0,pi/2", "theta"),
    ("sensitivity", "t_frac=0,1/8", "t_frac"),
])
def test_single_point_commands_reject_lists(tmp_path, capsys, command, setting, key):
    assert run_cli([command, "--outdir", str(tmp_path), "--set", setting] + BASE) == 1
    assert f"error: {key}: the {command} command takes one" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_failing_rerun_keeps_previous_files(tmp_path, capsys):
    # p_max=400 covers the state at t=0 (needs 313) but not at T_rev/8 (needs 606)
    manual = ["--set", "theta=pi/2", "--set", "auto_p=false", "--set", "p_max=400"] + BASE
    assert run_cli(["wigner", "--outdir", str(tmp_path), "--set", "t_frac=0"] + manual) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(before) == ["wigner_000.csv", "wigner_000.wgrd"]
    # the rerun computes wigner_000 again, then fails on the second time
    assert run_cli(["wigner", "--outdir", str(tmp_path), "--set", "t_frac=0,1/8"] + manual) == 1
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("target", ["morsecontrol.cli.write_grid", "morsecontrol.cli._write_lines"])
def test_interrupt_mid_write_leaves_no_file(tmp_path, monkeypatch, target):
    def interrupted(path, *args, **kwargs):
        with open(path, "wb") as fh:
            fh.write(b"partial")
        raise KeyboardInterrupt

    monkeypatch.setattr(target, interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_cli(["wigner", "--outdir", str(tmp_path), "--set", "theta=pi/2"] + BASE)
    assert list(tmp_path.iterdir()) == []


def _files(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("fmt", ["full", "compact"])
def test_grid_csvs_same_bytes_at_any_process_count(tmp_path, monkeypatch, fmt):
    runs = (["wigner", "--set", "theta=0,pi/2", "--set", "t_frac=1/8"],
            ["carpet", "--set", "theta_count=9", "--set", "t_frac=1/16"])

    def outputs(processes):
        monkeypatch.setattr(cli, "_worker_count", lambda: processes)
        outdir = tmp_path / str(processes)
        for args in runs:
            assert run_cli(args + ["--outdir", str(outdir), "--set", f"format={fmt}"] + BASE) == 0
        return _files(outdir)

    serial = outputs(1)
    assert sorted(serial) == ["carpet.csv", "carpet.wgrd", "wigner_000.csv", "wigner_000.wgrd",
                              "wigner_001.csv", "wigner_001.wgrd"]
    for processes in (2, 3):
        assert outputs(processes) == serial
    _assert_no_child_left()


@pytest.mark.parametrize("n_rows", [0, 1, 2, 3])
def test_grid_csv_with_fewer_rows_than_processes(tmp_path, monkeypatch, n_rows):
    ws = cli._Workspace(validate_config(RunConfig()))
    rows, cols = np.arange(n_rows) * 0.1, np.array([-1.0, 0.5, 2.0])
    values = np.arange(n_rows * cols.size).reshape(n_rows, cols.size) / 7.0
    written = {}
    for processes in (1, 4):
        monkeypatch.setattr(cli, "_worker_count", lambda: processes)
        path = tmp_path / f"{processes}.csv"
        cli._write_grid_csv(ws, path, ["x,p,w"], rows, cols, values)
        written[processes] = path.read_bytes()
    assert written[4] == written[1]
    assert written[1].count(b"\n") == 1 + n_rows * cols.size
    assert sorted(p.name for p in tmp_path.iterdir()) == ["1.csv", "4.csv"]
    _assert_no_child_left()


@pytest.mark.parametrize("fmt", ["full", "compact"])
@pytest.mark.parametrize("n_rows", [0, 1, 2, 3, 10])
def test_grid_csv_equals_per_value_format(tmp_path, monkeypatch, loop_grid_lines,
                                          awkward_floats, fmt, n_rows):
    # 1000 columns make blocks of 4 rows, so 10 rows end in a partial block
    rng = np.random.default_rng(1630 + n_rows)
    ws = cli._Workspace(validate_config(RunConfig(format=fmt)))
    rows = awkward_floats(rng, 1000)[:n_rows]
    cols = awkward_floats(rng, 1000)
    values = awkward_floats(rng, max(n_rows, 1) * 1000)[:n_rows * 1000].reshape(n_rows, 1000)
    header = ["# grid", "x,p,w"]
    lines = chain(header, loop_grid_lines(ws.spec, rows, cols, values))
    expected = "".join(line + "\n" for line in lines).encode()
    for processes in (1, 3):
        monkeypatch.setattr(cli, "_worker_count", lambda: processes)
        path = tmp_path / f"{processes}.csv"
        cli._write_grid_csv(ws, path, header, rows, cols, values)
        assert path.read_bytes() == expected
    _assert_no_child_left()


def test_failed_csv_process_keeps_previous_files(tmp_path, monkeypatch, capfd):
    args = ["wigner", "--outdir", str(tmp_path), "--set", "theta=pi/2"] + BASE
    assert run_cli(args) == 0
    before = _files(tmp_path)
    parent, grid_lines = os.getpid(), cli._grid_lines

    def failing_in_child(*grid):
        if os.getpid() != parent:
            raise RuntimeError("row formatting broke")
        yield from grid_lines(*grid)

    monkeypatch.setattr(cli, "_worker_count", lambda: 3)
    monkeypatch.setattr(cli, "_grid_lines", failing_in_child)
    assert run_cli(args + ["--set", "format=compact"]) == 2
    err = capfd.readouterr().err
    assert "RuntimeError: row formatting broke" in err
    assert "of .wigner_000.csv" in err and "(exit 1)" in err
    assert _files(tmp_path) == before
    _assert_no_child_left()


def test_interrupt_in_own_span_leaves_nothing(tmp_path, monkeypatch):
    parent, grid_lines = os.getpid(), cli._grid_lines

    def interrupted_in_parent(*grid):
        lines = grid_lines(*grid)
        if os.getpid() == parent:
            yield next(lines)
            raise KeyboardInterrupt
        yield from lines

    monkeypatch.setattr(cli, "_worker_count", lambda: 3)
    monkeypatch.setattr(cli, "_grid_lines", interrupted_in_parent)
    with pytest.raises(KeyboardInterrupt):
        run_cli(["wigner", "--outdir", str(tmp_path), "--set", "theta=pi/2"] + BASE)
    assert list(tmp_path.iterdir()) == []
    _assert_no_child_left()


def test_wigner_command_peak_memory_stays_near_the_grid(tmp_path):
    # the CSV goes to disk one grid row at a time; its text is never held whole
    args = ["wigner", "--set", "nx=1024", "--set", "np=256",
            "--set", "theta=pi/2", "--set", "t_frac=1/8"]
    assert run_cli(args + ["--outdir", str(tmp_path / "warm")]) == 0
    tracemalloc.start()
    try:
        assert run_cli(args + ["--outdir", str(tmp_path / "traced")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 1024 * 256 * 8


def _tokens(line):
    return re.split(r"[ =]", line) if line.startswith("#") else line.split(",")


def test_compact_format_rounds_each_full_token(tmp_path):
    settings = ["--set", "theta=3pi/8", "--set", "t_frac=1/8", "--set", "steps=32"] + BASE
    for fmt in ("full", "compact"):
        for command in COMMANDS:
            outdir = str(tmp_path / fmt)
            assert run_cli([command, "--outdir", outdir, "--set", f"format={fmt}"] + settings) == 0
    names = sorted(p.name for p in (tmp_path / "full").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "compact").iterdir())
    for name in names:
        full, compact = (tmp_path / "full" / name), (tmp_path / "compact" / name)
        if name.endswith(".wgrd"):
            assert full.read_bytes() == compact.read_bytes()
            continue
        full_lines, compact_lines = full.read_text().splitlines(), compact.read_text().splitlines()
        assert len(full_lines) == len(compact_lines), name
        for full_line, compact_line in zip(full_lines, compact_lines):
            full_tokens, compact_tokens = _tokens(full_line), _tokens(compact_line)
            assert len(full_tokens) == len(compact_tokens), (name, full_line)
            for f, c in zip(full_tokens, compact_tokens):
                assert c == f or c == format(float(f), ".9g"), (name, f, c)


@pytest.mark.parametrize("command, setting, key", [
    ("state", "alpha=nan", "alpha"),
    ("state", "theta=nan", "theta"),
    ("state", "t_frac=nan", "t_frac"),
    ("state", "t_au=inf", "t_au"),
    ("sensitivity", "max_shift=nan", "max_shift"),
    ("state", "D=inf", "D"),
    ("state", "x_max=inf", "x_max"),
])
def test_non_finite_settings_rejected(tmp_path, capsys, command, setting, key):
    assert run_cli([command, "--outdir", str(tmp_path), "--set", setting] + BASE) == 1
    assert f"error: --set {key}: {key}: must be finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("line, message", [
    ("theta_count=8", "config: theta_count: must be >= 9, got 8"),
    ("steps=16", "config: steps: must be >= 32, got 16"),
    ("lobe_threshold=1", "config: lobe_threshold: must be in (0, 1), got 1.0"),
    ("direction=sideways", "config: direction: must be 'position' or 'momentum', got 'sideways'"),
    ("format=xml", "config: format: must be 'full' or 'compact', got 'xml'"),
    ("max_shift=0", "config: max_shift: must be positive or 'auto', got 0.0"),
    ("p_max=-1", "config: p_max: must be positive, got -1.0"),
    ("p_max=0", "config: p_max: must be positive, got 0.0"),
    ("D=1e-9", "config: beta, mu, r0, D: physical parameters invalid: "
               "depth parameter 0.0154385 <= 1/2: the well supports no bound state"),
    ("mu=-1", "config: beta, mu, r0, D: physical parameters invalid: mu must be positive"),
    ("theta=pi/0", "line 1: theta: cannot parse 'pi/0' (division by zero in angle)"),
    ("auto_p=maybe", "line 1: auto_p: cannot parse 'maybe' (expected a boolean"),
    ("theta=,", "line 1: theta: cannot parse ',' (expected at least one value)"),
    ("nx 512", "line 1: expected key=value, got 'nx 512'"),  # no key to name: the line
])
def test_rejected_config_lines_name_their_key(tmp_path, capsys, line, message):
    config = tmp_path / "run.cfg"
    config.write_text(line + "\n", encoding="utf-8")
    assert run_cli(["state", "--config", str(config), "--outdir", str(tmp_path / "out")]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("text, message", [
    ("nx=512\nbogus\n", "line 2: expected key=value, got 'bogus'"),
    ("nx=512\nnx=256\n", "line 2: duplicate key 'nx'"),
    ("theta_count=8\n", "config: theta_count: must be >= 9, got 8"),
])
def test_rejected_config_file_is_named(tmp_path, capsys, text, message):
    config = tmp_path / "c1.cfg"
    config.write_text(text, encoding="utf-8")
    assert run_cli(["eigen", "--config", str(config), "--outdir", str(tmp_path / "out")]) == 1
    assert f"error: {message} (config file {str(config)!r})\n" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("times, message", [
    ({"t_frac": (0.125,), "t_au": (5.0,)}, "config: t_au: give times as t_frac or t_au, not both"),
    ({"t_frac": None, "t_au": None}, "config: t_frac: one of t_frac or t_au is required"),
])
def test_exactly_one_time_spec_required(times, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        validate_config(replace(RunConfig(), **times))
