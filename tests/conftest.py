import math

import numpy as np
import pytest

from morsecontrol import (I2, PAPER_STATES, RunConfig, build_model, characteristic_times,
                          wigner_transform)
from morsecontrol.analysis import (FRINGE_CLUSTER_WIDTH, FRINGE_MIN_EXTREMA,
                                   FRINGE_MIN_PROMINENCE, FRINGE_NOISE_REL,
                                   FRINGE_SWING_BALANCE, FRINGE_WINDOW_FACTOR,
                                   FRINGE_WINDOW_FLOOR)
from morsecontrol import wigner
from morsecontrol.wigner import _support_halfwidth


@pytest.fixture(scope="session")
def model():
    return build_model(RunConfig())


@pytest.fixture(scope="session")
def x_grid(model):
    return model.x


@pytest.fixture(scope="session")
def times():
    return characteristic_times(I2)


@pytest.fixture(scope="session")
def classification_states(model, times):
    """The six paper states, label -> (state, expected lobe count)."""
    t_rev = times[1]
    return {label: (model.phase_locked(theta, t_frac * t_rev), copies)
            for label, theta, t_frac, copies in PAPER_STATES}


@pytest.fixture(scope="session")
def classification_wigner(classification_states):
    return {label: wigner_transform(state)
            for label, (state, _) in classification_states.items()}


def _direct_wigner(state, p, rows=None):
    """Wigner values by the explicit phase-matrix sum over x', row by row.

    The same quadrature as ``wigner_transform`` (same support, lags and
    prefactor) without the chirp-z transform: the oracle for the fast path.
    ``rows``, the row indices to compute, defaults to every row.
    """
    psi = state.psi.astype(np.complex128)
    nx, dx = psi.size, state.dx
    half = _support_halfwidth(psi)
    offsets = dx * np.arange(-half, half + 1)
    padded = np.zeros(nx + 2 * half, dtype=np.complex128)
    padded[half:half + nx] = psi
    phase = np.exp(-2j * np.outer(offsets, np.asarray(p, dtype=float)))
    values = []
    for i in range(nx) if rows is None else rows:
        seg = padded[i:i + 2 * half + 1]
        corr = np.conj(seg[::-1]) * seg
        values.append(np.real(corr @ phase) * (dx / math.pi))
    return np.vstack(values)


@pytest.fixture(scope="session")
def direct_wigner():
    return _direct_wigner


def _loop_alternating_extrema(values, floor):
    """Hysteresis extrema by one loop over every sample.

    The oracle for ``analysis._alternating_extrema``, which visits only the
    start of the scan, the direction turns and the last sample.
    """
    extrema = []
    candidate = 0
    direction = 0  # +1 climbing, -1 descending
    for i in range(1, len(values)):
        if direction >= 0:
            if values[i] > values[candidate]:
                candidate = i
            elif values[candidate] - values[i] > floor:
                extrema.append(candidate)
                candidate = i
                direction = -1
        if direction <= 0:
            if values[i] < values[candidate]:
                candidate = i
            elif values[i] - values[candidate] > floor:
                extrema.append(candidate)
                candidate = i
                direction = 1
    return extrema


@pytest.fixture(scope="session")
def loop_alternating_extrema():
    return _loop_alternating_extrema


def _whole_grid_lobe_count(w, threshold_fraction):
    """Lobe count with the peak search done on the whole grid at once.

    The coarse grain of ``wigner._coarse_grain``, then one amplitude grid,
    the four-neighbour test as whole-grid comparisons (strict toward i-1 and
    j-1, i the x index), a 2-d ``nonzero``, and the ``(value, i, j)``
    ranking and merge of ``lobe_count``: the oracle for its block-wise
    search on the row-block threads.
    """
    smooth, cell_x, cell_p = wigner._coarse_grain(w)
    amp = np.sqrt(np.clip(smooth, 0.0, None))
    floor = threshold_fraction * float(amp.max())
    interior = amp[1:-1, 1:-1]
    peaks = (
        (interior > amp[:-2, 1:-1])
        & (interior >= amp[2:, 1:-1])
        & (interior > amp[1:-1, :-2])
        & (interior >= amp[1:-1, 2:])
        & (interior >= floor)
    )
    ii, jj = np.nonzero(peaks)
    ranked = sorted(
        ((float(amp[i + 1, j + 1]), i + 1, j + 1) for i, j in zip(ii, jj)),
        reverse=True,
    )
    kept = []
    for _, i, j in ranked:
        for i2, j2 in kept:
            if (abs(i - i2) * w.dx <= wigner.LOBE_MERGE_CELLS * cell_x
                    and abs(j - j2) * w.dp <= wigner.LOBE_MERGE_CELLS * cell_p):
                break
        else:
            kept.append((i, j))
    return len(kept)


@pytest.fixture(scope="session")
def whole_grid_lobe_count():
    return _whole_grid_lobe_count


def _loop_moving_average(padded, half):
    """Means of the 2*half + 1 wide windows of ``padded``, each the
    difference of a running sum built by one sequential loop from 0."""
    width = 2 * half + 1
    running = [0.0]
    for value in padded.tolist():
        running.append(running[-1] + value)
    return np.array([(running[i + width] - running[i]) * (1.0 / width)
                     for i in range(len(running) - width)])


def _loop_fringe_amplitude(density, x, r0, moving_average=_loop_moving_average,
                           window_floor=FRINGE_WINDOW_FLOOR):
    """Fringe amplitude by the element-by-element loops on float64 values.

    The same background, hysteresis and run tests as ``fringe_amplitude``,
    written as one running-sum loop for the background
    (``moving_average(padded, half)``), one loop over the residual
    (``_loop_alternating_extrema``) and one over the windows of
    FRINGE_MIN_EXTREMA extrema, with ``np.median`` for the spacing of the
    maxima: the oracle for the cumulative sum, the turn scan, the list
    median and the vectorised run scoring. ``window_floor`` stands in for
    FRINGE_WINDOW_FLOOR, so that a test can pin the constant's value.
    """
    density = np.asarray(density, dtype=float)
    x = np.asarray(x, dtype=float)
    dx = float(x[1] - x[0])
    interior = density[1:-1]
    is_max = (interior > density[:-2]) & (interior > density[2:]) & (
        interior > 1e-12 * density.max()
    )
    maxima = np.flatnonzero(is_max) + 1
    if maxima.size >= 2:
        window = max(FRINGE_WINDOW_FACTOR * float(np.median(np.diff(x[maxima]))),
                     window_floor)
    else:
        window = window_floor
    half = min(max(int(round(0.5 * window / dx)), 1), density.size - 1)
    padded = np.concatenate([density[half:0:-1], density, density[-2:-half - 2:-1]])
    residual = density - moving_average(padded, half)

    spread = float(residual.max() - residual.min())
    extrema = _loop_alternating_extrema(residual, FRINGE_NOISE_REL * spread)

    best = 0.0
    n_swings = FRINGE_MIN_EXTREMA - 1
    for k in range(len(extrema) - n_swings):
        run = extrema[k:k + FRINGE_MIN_EXTREMA]
        if x[run[-1]] - x[run[0]] > FRINGE_CLUSTER_WIDTH:
            continue
        swings = [abs(residual[run[s]] - residual[run[s + 1]]) for s in range(n_swings)]
        if min(swings) < FRINGE_SWING_BALANCE * max(swings):
            continue
        if max(swings) < FRINGE_MIN_PROMINENCE * spread:
            continue
        best = max(best, max(swings))
    return 0.5 * best / r0


@pytest.fixture(scope="session")
def loop_fringe_amplitude():
    return _loop_fringe_amplitude


def _loop_grid_lines(spec, row_axis, col_axis, values):
    """``row,column,value`` CSV lines of a 2-d grid in row-major order, one
    block of text per grid row, by ``format(v, spec)`` on every value.

    The per-value loop that ``cli._grid_lines`` replaced with the array
    formatter of ``morsecontrol.textfmt``: the oracle for its bytes.
    """
    col_text = [format(c, spec) for c in col_axis]
    for r, row in zip(row_axis, values):
        head = format(r, spec) + ","
        yield "\n".join([f"{head}{c},{v:{spec}}" for c, v in zip(col_text, row.tolist())])


@pytest.fixture(scope="session")
def loop_grid_lines():
    return _loop_grid_lines


def _awkward_floats(rng, size):
    """``size`` seeded floats, shuffled: the values a float-to-text
    formatter gets wrong first, then normals over many magnitudes.

    nan, ±inf, ±0; subnormals; powers of ten from 1e-30 to 1e30 and at
    ±1e100 and the ends of the fast range (1e±250), each with its
    neighbours one ulp away; and exact decimal ties, which round half-even:
    k + 0.5 with 9-digit k is a tie at 9 digits, k + 0.25 and k + 0.75 with
    16-digit k are ties at 17.
    """
    powers = [10.0 ** k for k in (*range(-30, 31), -100, 100, -250, 250)]
    special = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072009e-308]
    for power in powers:
        special += [power, np.nextafter(power, 0.0), np.nextafter(power, np.inf)]
    ties = np.concatenate([rng.integers(10 ** 8, 10 ** 9, 40) + 0.5,
                           rng.integers(10 ** 15, 2 * 10 ** 15, 40) + rng.choice([0.25, 0.75], 40)])
    special = np.concatenate([special, ties])
    special = np.concatenate([special, -special])
    ordinary = rng.standard_normal(size - special.size) * 10.0 ** rng.integers(
        -40, 40, size - special.size)
    return rng.permutation(np.concatenate([special, ordinary]))


@pytest.fixture(scope="session")
def awkward_floats():
    return _awkward_floats
