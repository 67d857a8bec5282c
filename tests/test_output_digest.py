"""Output contract: the bytes the eight CLI commands write, on four small
configurations.

``tests/data/output_digest.txt`` holds, per configuration, the exit code of
every command and the sha256 of every file it writes in both formats, as
``scripts/output_digest.py`` prints them, after the fingerprint of the
machine the digest was made on. A change that moves an output byte fails
here. To record a deliberate move, rewrite the file with

    PYTHONPATH=src python tests/test_output_digest.py

and name every file that moved. On another numpy, architecture or set of
SIMD extensions that numpy dispatches to at run time, the test skips and
names the difference: floats from another FFT or other vector loops say
nothing about the change. The BLAS library, its kernel and its thread count
are not part of the fingerprint: the package makes no BLAS call, directly or
through numpy. ``test_digest_does_not_depend_on_blas_threads`` and
``test_digest_does_not_depend_on_blas_kernel`` check that one BLAS thread,
and OpenBLAS's Haswell kernel (the one an AVX2-only CPU gets), move no
byte. Nor is the CPU count:
``test_digest_does_not_depend_on_cpu_count`` checks that one CPU, which
runs the row blocks in one thread and writes each grid CSV from one
process, moves no byte either.
"""

import importlib.util
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data" / "output_digest.txt"

GRID = ("nx=512", "np=128")
CONFIGS = (
    ("theta=pi/2", "t_frac=1/8"),
    ("theta=0,pi/2", "t_frac=0,1/8"),  # carpet and sensitivity reject the lists
    ("alpha=1",),  # table2 writes no convention report
    ("theta=pi/2", "t_frac=1/8", "direction=momentum"),
)

_spec = importlib.util.spec_from_file_location("output_digest", ROOT / "scripts" / "output_digest.py")
_script = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_script)
digest = _script.digest


def fingerprint() -> dict[str, str]:
    simd = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    return {"numpy": np.__version__, "machine": platform.machine(), "simd": " ".join(simd)}


def _key(settings: tuple[str, ...]) -> str:
    return " ".join(GRID + settings)


def render() -> str:
    lines = ["# written by tests/test_output_digest.py; see its docstring"]
    lines += [f"{name}: {value}" for name, value in fingerprint().items()]
    for settings in CONFIGS:
        lines.append(f"== {_key(settings)}")
        lines += digest(list(GRID + settings))
    return "\n".join(lines) + "\n"


def _recorded() -> tuple[dict[str, str], dict[str, list[str]]]:
    machine: dict[str, str] = {}
    sections: dict[str, list[str]] = {}
    body = None
    for line in DATA.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            continue
        if line.startswith("== "):
            body = sections.setdefault(line[3:], [])
        elif body is None:
            name, _, value = line.partition(": ")
            machine[name] = value
        else:
            body.append(line)
    return machine, sections


@pytest.mark.parametrize("settings", CONFIGS, ids=_key)
def test_outputs_match_recorded_digest(settings):
    machine, sections = _recorded()
    here = fingerprint()
    differences = [f"{name} {machine.get(name)!r} recorded, {value!r} here"
                   for name, value in here.items() if machine.get(name) != value]
    if differences:
        pytest.skip("digest recorded on another machine: " + "; ".join(differences))
    expected = sections[_key(settings)]
    lines = digest(list(GRID + settings))
    moved = sorted({line.split()[-1] for line in set(lines) ^ set(expected)})
    assert lines == expected, f"output bytes or exit codes moved: {', '.join(moved)}"


def _digest_in_subprocess(settings: list[str], **kwargs) -> list[str]:
    argv = [sys.executable, str(ROOT / "scripts" / "output_digest.py")]
    for item in settings:
        argv += ["--set", item]
    run = subprocess.run(argv, capture_output=True, text=True, timeout=300, check=True, **kwargs)
    return run.stdout.splitlines()


def test_digest_does_not_depend_on_blas_threads():
    settings = list(GRID + CONFIGS[0])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    assert _digest_in_subprocess(settings, env=env) == digest(settings)


def test_digest_does_not_depend_on_blas_kernel():
    settings = list(GRID + CONFIGS[0])
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell")
    assert _digest_in_subprocess(settings, env=env) == digest(settings)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call here")
def test_digest_does_not_depend_on_cpu_count():
    # One CPU runs the row blocks in one thread and each grid CSV in one process.
    settings = list(GRID + CONFIGS[0])
    cpu = min(os.sched_getaffinity(0))
    one_cpu = _digest_in_subprocess(settings, preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    assert one_cpu == digest(settings)


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(render(), encoding="utf-8")
