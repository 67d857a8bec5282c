import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import morsecontrol
from morsecontrol import textfmt
from morsecontrol.textfmt import float_text

PRECISIONS = (17, 9)


def _texts(values, precision):
    return [t.decode("ascii") for t in float_text(np.asarray(values, dtype=float),
                                                  precision).tolist()]


def _formatted(values, precision):
    return [format(v, f".{precision}g") for v in np.asarray(values, dtype=float).tolist()]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=64), st.sampled_from(PRECISIONS))
def test_float_text_equals_format(values, precision):
    assert _texts(values, precision) == _formatted(values, precision)


@pytest.mark.parametrize("precision", PRECISIONS)
def test_float_text_on_random_bit_patterns(precision):
    rng = np.random.default_rng(1600 + precision)
    values = rng.integers(0, 2 ** 64, 10 ** 5, dtype=np.uint64).view(np.float64)
    assert _texts(values, precision) == _formatted(values, precision)


@pytest.mark.parametrize("precision", PRECISIONS)
def test_float_text_on_awkward_values(precision, awkward_floats):
    values = awkward_floats(np.random.default_rng(1610 + precision), 4000)
    assert _texts(values, precision) == _formatted(values, precision)


@pytest.mark.parametrize("precision", PRECISIONS)
def test_float_text_at_the_exponent_form_boundaries(precision):
    # X = -5 and P are the first exponents of the exponent form, -4 and P-1
    # the last of the fixed form; |X| >= 100 takes three exponent digits.
    # Each power is taken with its neighbours, with mantissas that keep one
    # digit, all P digits, or round up across the boundary.
    mantissas = np.array([1.0, 1.5, 9.5, 9.999999, 9.99999999999999, 9.999999999999999,
                          1.2345678901234567])
    values = []
    for x in (-5, -4, precision - 1, precision, -99, -100, -101, 99, 100, 101, 200):
        for value in mantissas * 10.0 ** x:
            values += [value, np.nextafter(value, 0.0), np.nextafter(value, np.inf)]
    values = np.concatenate([values, np.negative(values)])
    assert _texts(values, precision) == _formatted(values, precision)


@pytest.mark.parametrize("precision", PRECISIONS)
def test_float_text_rarely_falls_back_on_a_wigner_grid(precision, classification_wigner,
                                                       monkeypatch):
    # format() is called only for the values the fast path cannot prove; the
    # desk-scale grids span magnitudes down to about 1e-105
    calls = []

    def counted(value, spec):
        calls.append(value)
        return format(value, spec)

    values = classification_wigner["compass T/8"].values.ravel()
    monkeypatch.setattr(textfmt, "format", counted, raising=False)
    texts = np.concatenate([float_text(block, precision)
                            for block in np.array_split(values, 256)])
    monkeypatch.undo()
    assert len(calls) <= 1e-3 * values.size
    sample = np.random.default_rng(1620).choice(values.size, 2000, replace=False)
    assert [t.decode() for t in texts[sample]] == _formatted(values[sample], precision)


def test_commands_without_a_grid_csv_build_no_formatter_table(tmp_path):
    # the tables are built on first use, so importing the CLI and running a
    # command that writes no grid CSV costs nothing
    script = f"""
import numpy as np
from morsecontrol import cli, textfmt
tables = (textfmt._powers, textfmt._layout)
sizes = lambda: [table.cache_info().currsize for table in tables]
assert sizes() == [0, 0], sizes()
assert cli.main(["eigen", "--outdir", {str(tmp_path)!r}, "--set", "nx=512", "--set", "np=128"]) == 0
assert sizes() == [0, 0], sizes()
textfmt.float_text(np.array([1.0]), 17)
assert sizes() == [1, 1], sizes()
"""
    src = str(Path(morsecontrol.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["eigen.csv"]
