"""Quantitative observables of the phase-locked packets.

Uncertainty products and inverse tile areas, spatial interference-fringe
amplitudes, density carpets over the control phase, and displacement
sensitivity scans. Everything here is a pure function of precomputed states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .czt import CZT
from .errors import GridError, InvalidParameterError, TruncationError
from .morse import _check_uniform
from .wavepacket import StateGrid, WavePacketModel
from .wigner import (_moment_rows, _spread, _trapezoid, auto_momentum_grid, wigner_overlap,
                     wigner_transform)

OVERLAP_ZERO_LEVEL = 1e-2

#: Fringe extraction constants: background window multiplier and floor (in x),
#: the cluster width that qualifies an oscillation, and the relative reversal
#: below which extrema are treated as numerical noise.
FRINGE_WINDOW_FACTOR = 7.0
FRINGE_WINDOW_FLOOR = 0.02
FRINGE_CLUSTER_WIDTH = 0.05
FRINGE_NOISE_REL = 1e-8
#: A run of alternating extrema counts as fringes only if it is this long,
#: its adjacent swings are this balanced, and it rises above this fraction of
#: the residual's global range; a lone packet spike over a smooth background
#: and the decaying ripple train against the steep inner wall each fail one
#: of the three.
FRINGE_MIN_EXTREMA = 5
FRINGE_SWING_BALANCE = 0.35
FRINGE_MIN_PROMINENCE = 0.02


@dataclass(frozen=True, eq=False)
class CarpetGrid:
    """Densities over (theta, x) at a fixed time; one row per theta."""

    x: np.ndarray
    theta: np.ndarray
    density: np.ndarray


def _products(first: np.ndarray, second: np.ndarray) -> tuple[np.ndarray, ...]:
    """|F|^2, |S|^2, Re(conj(F)*S) and Im(conj(F)*S)."""
    cross = np.conj(first) * second
    return np.abs(first) ** 2, np.abs(second) ** 2, cross.real, cross.imag


def uncertainties(state: StateGrid) -> tuple[float, float]:
    """(position spread, momentum spread) of a normalized state.

    The position route is direct quadrature; the momentum route sums the
    squared DFT spectrum, exact by discrete Parseval. A state from
    ``WavePacketModel.phase_locked`` takes both from the moments of the four
    products of its two parity packets E and O, computed once per time and
    kept with the packets. Each moment of |a*E + b*O|^2 is then
    |a|^2*EE + |b|^2*OO + 2*Re(c*EO) with c = conj(a)*b, and so is each
    moment of its spectrum: the same sums, regrouped, so they agree with the
    route over the state's own samples to rounding.
    """
    if state._parity_mix is not None:
        a, b, sheet = state._parity_mix
        if sheet.moments is None:
            sheet.moments = _moment_rows(
                state.x, _products(sheet.even, sheet.odd),
                _products(np.fft.fft(sheet.even), np.fft.fft(sheet.odd)))
        a, b = complex(a), complex(b)
        c = a.conjugate() * b
        aa, bb = abs(a) ** 2, abs(b) ** 2
        moments = [aa * ee + bb * oo + 2.0 * (c.real * re - c.imag * im)
                   for ee, oo, re, im in sheet.moments]
    else:
        moments = [row[0] for row in _moment_rows(
            state.x, (state.density,), (np.abs(np.fft.fft(state.psi)) ** 2,))]
    if moments[0] == 0.0 or moments[3] == 0.0:
        raise InvalidParameterError("state has zero norm")
    return _spread(*moments[:3]), _spread(*moments[3:])


def tile_area(state: StateGrid) -> float:
    """Inverse action 1/(dx*dp): the phase-space area scale of the smallest
    interference tiles the state can carry (hbar = 1)."""
    dx_spread, dp_spread = uncertainties(state)
    return 1.0 / (dx_spread * dp_spread)


def momentum_density(state: StateGrid, p: np.ndarray) -> np.ndarray:
    """|psi~(p)|^2 evaluated on an arbitrary uniform momentum grid."""
    p = np.asarray(p, dtype=float)
    dx = state.dx
    dp = float(p[1] - p[0])
    transform = CZT(
        n=state.psi.size, m=p.size,
        w=complex(np.exp(-1j * dp * dx)),
        a=complex(np.exp(1j * p[0] * dx)),
    )
    spectrum = transform(state.psi) * np.exp(-1j * p * state.x[0]) * dx / math.sqrt(2.0 * math.pi)
    return np.abs(spectrum) ** 2


def _alternating_extrema(values: np.ndarray, floor: float) -> list[int]:
    """Indices of alternating extrema, committed only after a reversal > floor.

    The hysteresis keeps float-level jitter on smooth stretches from counting
    as oscillation. ``values`` is a 1-d float64 array of finite values and
    ``floor >= 0``; the result equals that of one scan over every sample
    (``tests/conftest.py``), which holds a candidate extremum and commits it
    when the values reverse from it by more than ``floor``.

    Start phase: until the first commit the candidate follows every sample,
    staying on the first of equal values, and a rise never commits. So the
    first extremum is always a maximum: the first index of the equal-value
    run that ends where the first single-step drop ``> floor`` begins. A
    leading minimum is never reported; that rule stays so that no output
    moves.

    After it, the scan visits only the direction turns (the first index of
    each plateau between steps of opposite sign) and the last sample. That
    is exact: between two turns the values are monotone and end strictly
    beyond every sample in between, so a candidate that moves or a commit
    that fires on such a sample would also happen at the turn that ends the
    stretch, with the same committed index and the same state after it.
    """
    step = values[1:] - values[:-1]
    # -fl(b - a) is fl(a - b), and -s > floor exactly when s < -floor, so
    # these mark the single-step drops > floor.
    drops = step < -floor
    first = int(drops.argmax())
    if not drops[first]:
        return []
    start = first + 1
    # a boolean array's nonzero() takes half the time of a float array's
    moves = (step != 0.0).nonzero()[0]
    rising = step[moves] > 0
    turns = moves[:-1][rising[:-1] != rising[1:]] + 1
    # The first maximum opens the equal-value run that ends at start - 1.
    before = int(np.searchsorted(moves, start - 1))
    extrema = [int(moves[before - 1]) + 1 if before else 0]

    points = turns[turns > start].tolist()
    points.append(values.size - 1)
    candidate, held, falling = start, float(values[start]), True
    for i, value in zip(points, values[points].tolist()):
        if falling:
            if value < held:
                candidate, held = i, value
            elif value - held > floor:
                extrema.append(candidate)
                candidate, held, falling = i, value, False
        elif value > held:
            candidate, held = i, value
        elif held - value > floor:
            extrema.append(candidate)
            candidate, held, falling = i, value, True
    return extrema


def fringe_amplitude(density: np.ndarray, x_grid: np.ndarray, r0: float) -> float:
    """Amplitude of the strongest spatial interference-fringe cluster.

    A moving-average background (window tied to the median spacing of the
    density maxima, floored at 0.02 in x; the density is mirrored at both
    ends, and each window sum is a difference of one sequential running sum)
    is subtracted; runs of alternating residual extrema inside a 0.05-wide
    stretch qualify as fringes when they are at least FRINGE_MIN_EXTREMA long
    with adjacent swings balanced within FRINGE_SWING_BALANCE, which rejects
    lone packet spikes and the decaying ripple train against the steep inner
    wall. The score is half the largest peak-to-adjacent-trough range in a
    qualifying run; 0 when no run qualifies. Reported per atomic unit of
    internuclear distance, i.e. divided by r0, which must be positive and
    finite. Raises GridError unless density and x_grid are 1-d with at least
    3 samples and x_grid is strictly increasing, finite and uniform.
    """
    if not 0.0 < r0 < math.inf:
        raise InvalidParameterError(f"r0 must be positive and finite, got {r0!r}")
    density = np.asarray(density, dtype=float)
    x = np.asarray(x_grid, dtype=float)
    if density.ndim != 1 or x.ndim != 1:
        raise GridError(
            f"density and x_grid must be 1-d, got {density.ndim}-d and {x.ndim}-d")
    if min(density.size, x.size) < 3:
        raise GridError(
            f"density and x_grid need at least 3 samples, got {density.size} and {x.size}")
    if density.shape != x.shape:
        raise InvalidParameterError(
            f"density has {density.size} samples but x_grid has {x.size}")
    steps = _check_uniform(x)
    total = _trapezoid(density, steps)
    if not math.isfinite(total):
        raise InvalidParameterError(f"density integral in x is {total}, not finite")
    if abs(total - 1.0) > 1e-3:
        raise InvalidParameterError(f"density must be normalized in x, integral is {total:.6g}")
    dx = float(steps[0])

    # The local maxima above 1e-12 of the peak. The density is finite, so
    # fl(a - b) > 0 exactly when a > b (gradual underflow keeps a nonzero
    # difference nonzero), and one difference array gives both neighbours.
    rise = density[1:] - density[:-1]
    maxima = ((rise[:-1] > 0.0) & (rise[1:] < 0.0)).nonzero()[0] + 1
    maxima = maxima[density[maxima] > 1e-12 * density.max()]
    if maxima.size >= 2:
        at = x[maxima]
        gaps = sorted((at[1:] - at[:-1]).tolist())
        mid = len(gaps) // 2
        median = gaps[mid] if len(gaps) % 2 else (gaps[mid - 1] + gaps[mid]) / 2
        window = max(FRINGE_WINDOW_FACTOR * median, FRINGE_WINDOW_FLOOR)
    else:
        window = FRINGE_WINDOW_FLOOR
    half = max(int(round(0.5 * window / dx)), 1)
    half = min(half, density.size - 1)
    width = 2 * half + 1
    n = density.size
    # 0, then the density mirrored at both ends, summed in place
    running = np.empty(n + width)
    running[0] = 0.0
    running[1:half + 1] = density[half:0:-1]
    running[half + 1:half + 1 + n] = density
    running[half + 1 + n:] = density[-2:-half - 2:-1]
    np.add.accumulate(running, out=running)
    # background = (running[width:] - running[:-width]) * (1/width), and the
    # residual density - background, in one buffer
    residual = np.subtract(running[width:], running[:-width])
    residual *= 1.0 / width
    np.subtract(density, residual, out=residual)

    spread = float(residual.max() - residual.min())
    extrema = np.array(_alternating_extrema(residual, FRINGE_NOISE_REL * spread), dtype=np.intp)
    best = 0.0
    n_swings = FRINGE_MIN_EXTREMA - 1
    if extrema.size > n_swings:
        # Run k is extrema[k:k + FRINGE_MIN_EXTREMA]; its swings are
        # swings[k:k + n_swings], the swings between neighbouring extrema.
        at = residual[extrema]
        swings = np.abs(at[1:] - at[:-1])
        runs = swings.size - n_swings + 1
        hi = swings[:runs].copy()
        lo = hi.copy()
        for k in range(1, n_swings):
            np.maximum(hi, swings[k:k + runs], out=hi)
            np.minimum(lo, swings[k:k + runs], out=lo)
        qualifies = ((x[extrema[n_swings:]] - x[extrema[:-n_swings]] <= FRINGE_CLUSTER_WIDTH)
                     & (lo >= FRINGE_SWING_BALANCE * hi)
                     & (hi >= FRINGE_MIN_PROMINENCE * spread))
        if qualifies.any():
            best = float(hi[qualifies].max())
    return 0.5 * best / r0


def carpet(model: WavePacketModel, t: float, theta_count: int) -> CarpetGrid:
    """Densities at ``theta_count`` uniformly spaced phases covering [0, 2*pi]."""
    if theta_count < 9:
        raise InvalidParameterError(f"theta_count must be >= 9, got {theta_count}")
    thetas = np.linspace(0.0, 2.0 * math.pi, theta_count)
    density = np.empty((theta_count, model.x.size))
    # each row is written in place, through two complex buffers reused per row
    psi, scratch = np.empty((2, model.x.size), dtype=np.complex128)
    for row, th in zip(density, thetas):
        model._density_into(row, th, t, psi, scratch)
    return CarpetGrid(x=model.x, theta=thetas, density=density)


def displaced_state(state: StateGrid, dx_shift: float = 0.0, dp_shift: float = 0.0) -> StateGrid:
    """Rigid phase-space displacement of a state, renormalized.

    Position shifts translate by grid interpolation, momentum shifts apply
    the exact phase exp(i*dp_shift*x). Raises TruncationError when more than
    1e-6 of the norm would be carried past the grid edge.
    """
    psi = state.psi
    x = state.x
    if dx_shift != 0.0:
        rho = state.density
        if dx_shift > 0.0:
            clipped = float(np.trapezoid(rho[x > x[-1] - dx_shift], x[x > x[-1] - dx_shift]))
        else:
            clipped = float(np.trapezoid(rho[x < x[0] - dx_shift], x[x < x[0] - dx_shift]))
        if clipped > 1e-6:
            raise TruncationError(
                f"shift {dx_shift:.4g} pushes {clipped:.3g} of the norm off the grid"
            )
        sample = x - dx_shift
        psi = (np.interp(sample, x, psi.real, left=0.0, right=0.0)
               + 1j * np.interp(sample, x, psi.imag, left=0.0, right=0.0))
    if dp_shift != 0.0:
        psi = psi * np.exp(1j * dp_shift * x)
    if dx_shift != 0.0:
        psi = psi / math.sqrt(float(np.trapezoid(np.abs(psi) ** 2, x)))
    return StateGrid(x=x, psi=psi, theta=state.theta, t=state.t)


@dataclass(frozen=True, eq=False)
class ScanResult:
    """Displacement sensitivity scan along one phase-space direction."""

    shifts: np.ndarray
    overlaps: np.ndarray
    first_zero: float | None
    wigner_indices: np.ndarray
    wigner_overlaps: np.ndarray


def sensitivity_scan(state: StateGrid, direction: str, max_shift: float, steps: int,
                     cross_checks: int = 3, p: np.ndarray | None = None) -> ScanResult:
    """|<state|displaced(s)>|^2 over shifts s in [0, max_shift].

    first_zero is the smallest sampled shift with overlap below 1e-2, or None
    if the scan never gets there. A few shifts are re-checked through the
    Wigner overlap route for cross-validation, on the momentum grid ``p``
    (default: the state's automatic grid).
    """
    if steps < 32:
        raise InvalidParameterError(f"steps must be >= 32, got {steps}")
    if direction not in ("position", "momentum"):
        raise InvalidParameterError(f"direction must be 'position' or 'momentum', got {direction!r}")
    shifts = np.linspace(0.0, max_shift, steps)

    def displace(s: float) -> StateGrid:
        if direction == "position":
            return displaced_state(state, dx_shift=s)
        return displaced_state(state, dp_shift=s)

    def one(s: float) -> float:
        moved = displace(s)
        inner = np.trapezoid(np.conj(state.psi) * moved.psi, state.x)
        return float(np.abs(inner) ** 2)

    overlaps = np.array([one(s) for s in shifts])
    below = np.flatnonzero(overlaps < OVERLAP_ZERO_LEVEL)
    first_zero = float(shifts[below[0]]) if below.size else None

    n_checks = min(max(cross_checks, 0), steps)
    # non-decreasing, so dropping repeats gives np.unique's indices without
    # importing numpy.ma, which np.unique does
    idx = np.linspace(0, steps - 1, n_checks).astype(np.int64)
    idx = idx[np.diff(idx, prepend=-1) != 0]
    if idx.size:
        p_grid = auto_momentum_grid(state) if p is None else p
        w_base = wigner_transform(state, p_grid)
        # a zero shift returns the state itself, whose grid is w_base
        w_vals = np.array([
            wigner_overlap(w_base, w_base if shifts[i] == 0.0
                           else wigner_transform(displace(float(shifts[i])), p_grid))
            for i in idx
        ])
    else:
        w_vals = np.array([])
    return ScanResult(shifts=shifts, overlaps=overlaps, first_zero=first_zero,
                      wigner_indices=idx, wigner_overlaps=w_vals)

