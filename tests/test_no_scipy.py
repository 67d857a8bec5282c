"""The package runs without scipy, which the tests keep only as an oracle,
and its commands import no part of numpy or the standard library they do
not use."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import morsecontrol


def _run_fresh(code: str, cwd: Path) -> subprocess.CompletedProcess:
    src = str(Path(morsecontrol.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_import_loads_no_scipy(tmp_path):
    code = ("import sys, morsecontrol; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    result = _run_fresh(code, tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["eigen", "wigner", "metrics"])
def test_cli_runs_with_scipy_blocked(tmp_path, command):
    # a None entry in sys.modules makes every scipy import raise ImportError
    code = ("import sys; sys.modules['scipy'] = None; "
            "from morsecontrol.cli import main; "
            f"sys.exit(main([{command!r}, '--outdir', 'out', "
            "'--set', 'nx=512', '--set', 'np=128']))")
    result = _run_fresh(code, tmp_path)
    assert result.returncode == 0, result.stderr
    assert any((tmp_path / "out").iterdir())


def test_sensitivity_imports_no_numpy_ma(tmp_path):
    # np.unique would import numpy.ma, about 14 ms of a fresh process
    code = ("import sys; from morsecontrol.cli import main; "
            "code = main(['sensitivity', '--outdir', 'out', "
            "'--set', 'nx=512', '--set', 'np=128']); "
            "print(code, 'numpy.ma' in sys.modules)")
    result = _run_fresh(code, tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "0 False"


def test_row_block_threads_import_no_executor(tmp_path):
    # importing concurrent.futures costs a fresh process about 4 ms
    code = (
        "import math, sys\n"
        "from morsecontrol import RunConfig, build_model, characteristic_times, wigner\n"
        "from morsecontrol.config import momentum_grid\n"
        "wigner._worker_count = lambda: 2\n"
        "cfg = RunConfig(nx=512, np=128)\n"
        "model = build_model(cfg)\n"
        "state = model.phase_locked(math.pi / 2, characteristic_times(model.params)[1] / 8)\n"
        "w = wigner.wigner_transform(state, momentum_grid(cfg, state))\n"
        "wigner.lobe_count(w)\n"
        "print('concurrent.futures' in sys.modules)\n"
    )
    result = _run_fresh(code, tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
