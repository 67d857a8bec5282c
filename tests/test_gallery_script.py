"""scripts/run_phase_space_gallery.py: its grids follow --nx and --np, and a
bad grid size or an aliasing grid exits with the configuration's own
message, and an outdir that cannot be created exits naming it, before any
file is written; an interrupted run leaves the output directory as it was."""

import importlib.util
import sys
from pathlib import Path

import pytest

from morsecontrol import read_grid
from morsecontrol.gridfile import write_grid

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_phase_space_gallery.py"
_spec = importlib.util.spec_from_file_location("run_phase_space_gallery", SCRIPT)
gallery = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gallery)


def run(monkeypatch, *args):
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), *args])
    return gallery.main()


def test_grids_follow_nx_and_np(tmp_path, monkeypatch, capsys):
    assert run(monkeypatch, "--outdir", str(tmp_path), "--nx", "1024", "--np", "128") == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["cat_t0.wgrd", "compass_T8.wgrd", "diagonal_compass_T16.wgrd",
                     "eightfold_T16_pi2.wgrd", "eightfold_T16_pi4.wgrd", "plain_compass_T16.wgrd"]
    for name in names:
        assert read_grid(tmp_path / name).payload.shape == (1024, 128)


@pytest.mark.parametrize("flag, value", [("--nx", "100"), ("--np", "500")])
def test_bad_grid_size_exits_with_the_config_message(tmp_path, monkeypatch, flag, value):
    outdir = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run(monkeypatch, "--outdir", str(outdir), flag, value)
    assert exc.value.code == f"error: config: {flag[2:]}: must be a power of two >= 128, got {value}"
    assert not outdir.exists()


def test_aliasing_grid_exits_naming_its_keys(tmp_path, monkeypatch, capsys):
    # nx=128 is a valid grid size, but its position step is too coarse for
    # the momentum content of the paper states
    outdir = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run(monkeypatch, "--outdir", str(outdir), "--nx", "128")
    assert exc.value.code.startswith("error: nx, x_min, x_max: position spacing too coarse")
    assert not outdir.exists()
    assert capsys.readouterr().out == ""


def test_outdir_that_is_a_file_exits_naming_it(tmp_path, monkeypatch, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    with pytest.raises(SystemExit) as exc:
        run(monkeypatch, "--outdir", str(blocker), "--nx", "1024", "--np", "128")
    assert exc.value.code.startswith("error: outdir: ") and str(blocker) in exc.value.code
    assert blocker.read_text() == "x"
    assert capsys.readouterr().out == ""


def test_interrupt_mid_write_leaves_the_directory_as_it_was(tmp_path, monkeypatch):
    (tmp_path / "cat_t0.wgrd").write_bytes(b"previous run")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    written = []

    def interrupted_on_third(path, grid):
        written.append(path)
        if len(written) < 3:
            return write_grid(path, grid)
        path.write_bytes(b"partial grid.")
        raise KeyboardInterrupt

    monkeypatch.setattr(gallery, "write_grid", interrupted_on_third)
    with pytest.raises(KeyboardInterrupt):
        run(monkeypatch, "--outdir", str(tmp_path), "--nx", "1024", "--np", "128")
    assert len(written) == 3
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
