"""The CLI contract as a property: any configuration, valid or not, exits 0
or 1, never 2; an exit 1 names a configuration key; an exit 0 writes no nan
or inf; no staged or part file is left behind.

Each example runs one command of ``cli.main`` in this process on a fresh
directory at nx <= 512, with a few keys drawn from their valid and invalid
values. ``wigner`` gets one theta and one time, so that each example writes
at most one grid CSV and forks at most the writer's usual 3 processes.
"""

import io
import re
import tempfile
from contextlib import redirect_stderr
from dataclasses import fields
from datetime import timedelta
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from morsecontrol import RunConfig, read_grid
from morsecontrol.cli import COMMANDS, main

KEYS = tuple(f.name for f in fields(RunConfig) if f.name != "outdir")


def _ints(valid, invalid):
    return st.one_of(st.sampled_from(valid).map(str), st.sampled_from(invalid))


def _floats(lo, hi, invalid):
    return st.one_of(st.floats(lo, hi).map(repr), st.sampled_from(invalid))


_NOT_A_NUMBER = ("", "abc", "nan", "inf", "-inf", "1/0")
#: Finite values whose squares or ratios overflow or underflow.
_EXTREME = ("1e300", "1e-300")

#: Each key's drawn values as --set text: valid ones first, then invalid or
#: borderline ones.
SINGLE = {
    "beta": _floats(0.9, 1.1, ("0", "-1.0", *_EXTREME, *_NOT_A_NUMBER)),
    "mu": _floats(1e5, 1.3e5, ("0", "-5", *_EXTREME, *_NOT_A_NUMBER)),
    "r0": _floats(4.5, 5.5, ("0", "-1", *_EXTREME, *_NOT_A_NUMBER)),
    "D": _floats(0.02, 0.03, ("0", "-0.01", "1e-6", *_EXTREME, *_NOT_A_NUMBER)),
    "alpha": _floats(0.3, 3.0, ("0", "-1", "1e6", *_EXTREME, *_NOT_A_NUMBER)),
    "n_levels": _ints((2, 5, 12, 24), ("0", "1", "200", "2.5", "")),
    "x_min": _floats(-0.4, -0.2, ("0.3", "0.45", "0.5", "-60", "-1e308", *_NOT_A_NUMBER)),
    "x_max": _floats(0.35, 0.6, ("0.2", "-0.3", "30", "1e308", *_NOT_A_NUMBER)),
    "nx": _ints((128, 256, 512), ("0", "-512", "100", "1e3", "")),
    "np": _ints((128, 256), ("0", "64", "130", "x")),
    "auto_p": st.sampled_from(("true", "false", "yes", "0", "maybe", "")),
    "p_max": _floats(10.0, 3000.0, ("0", "-5", "1e9", "1e308", *_NOT_A_NUMBER)),
    "theta": st.sampled_from(("0", "pi/2", "3pi/4", "2pi", "-pi/8", "1.3", "pi/0", "tau", "")),
    "t_frac": st.sampled_from(("0", "1/8", "1/16", "0.3", "-1/8", "1/0", "x", "")),
    "t_au": _floats(-1e5, 1e5, ("x", "", "nan")),
    "theta_count": _ints((9, 12, 17), ("0", "8", "-1", "9.5")),
    "steps": _ints((32, 40), ("0", "31", "-32", "x")),
    "max_shift": st.one_of(st.just("auto"), _floats(1e-4, 0.2, ("0", "-1", "1e3", "x"))),
    "direction": st.sampled_from(("position", "momentum", "sideways", "")),
    "lobe_threshold": _floats(0.05, 0.95, ("0", "1", "2", "-0.5", "x")),
    "workers": _ints((1, 2, 3), ("0", "-1", "1.5", "x")),
    "format": st.sampled_from(("full", "compact", "csv", "")),
}
#: Lists, which carpet and sensitivity reject.
LISTS = {
    "theta": st.sampled_from(("0,pi/2", "pi/4,pi,x")),
    "t_frac": st.sampled_from(("0,1/8", "1/16,1/0")),
    "t_au": st.sampled_from(("0,2000", "1,x")),
}


@st.composite
def runs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    chosen = draw(st.lists(st.sampled_from(KEYS), max_size=3, unique=True))
    with_list = None
    if command != "wigner":
        with_list = draw(st.one_of(st.none(), st.sampled_from(sorted(LISTS))))
    settings = {"nx": draw(st.sampled_from(("128", "256", "512"))), "np": "128",
                "steps": "32", "theta_count": "9"}
    for key in chosen:
        settings[key] = draw(LISTS[key] if key == with_list else SINGLE[key])
    return command, settings


def _names_a_key(message: str) -> bool:
    return any(re.search(rf"(?<![A-Za-z_]){key}(?![A-Za-z_])", message) for key in KEYS)


_NON_FINITE = re.compile(r"(?<![A-Za-z_])(?:nan|inf)(?![A-Za-z_])", re.IGNORECASE)


def _files_with_non_finite_values(outdir: Path) -> list[str]:
    """The files under ``outdir`` that hold a nan or an inf: as text in a CSV,
    as a value or metadata text in a grid file."""
    found = []
    for path in sorted(outdir.rglob("*")):
        if path.suffix == ".wgrd":
            grid = read_grid(path)
            finite = all(np.isfinite(a).all() for a in (*grid.axes, grid.payload))
            text = " ".join(grid.meta.values())
        else:
            finite, text = True, path.read_text(encoding="utf-8")
        if not finite or _NON_FINITE.search(text):
            found.append(path.name)
    return found


@settings(max_examples=100, deadline=timedelta(seconds=5), derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(run=runs())
def test_any_configuration_exits_0_or_1_and_leaves_no_staged_file(run):
    command, chosen = run
    with tempfile.TemporaryDirectory() as tmp:
        outdir = Path(tmp) / "out"
        argv = [command, "--outdir", str(outdir)]
        for key, value in chosen.items():
            argv += ["--set", f"{key}={value}"]
        err = io.StringIO()
        with redirect_stderr(err):
            code = main(argv)
        message = err.getvalue()
        assert code in (0, 1), message
        if code == 1:
            assert message.startswith("error: ") and _names_a_key(message), message
        else:
            assert _files_with_non_finite_values(outdir) == [], (command, chosen)
        # staged files are .NAME.PID.tmp and the grid CSV parts .NAME.PID.tmp.K
        assert [p.name for p in outdir.rglob(".*")] == []
