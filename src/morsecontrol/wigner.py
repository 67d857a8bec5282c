"""Wigner distribution of a state on a rectangular phase-space grid.

W(x, p) = (1/pi) * integral dx' conj(psi(x - x')) * psi(x + x') * exp(-2i*p*x')

with the state normalized in the dimensionless position coordinate and p its
conjugate (hbar = 1), so that the marginals, the normalization
integral(W) = 1 and the purity 2*pi*integral(W^2) = 1 all hold without extra
scale factors. The x' quadrature is a Riemann sum limited to the state's
support, summed in a fixed order so results are reproducible bit for bit.

Each row's lag product is Hermitian in the lag, so its transform is real;
one chirp-z call therefore carries two rows, one in the real part of its
input and the other in the imaginary part.

The row blocks of the transform and of the coarse grain run on a few
threads (numpy's FFTs and ufunc loops release the GIL). The blocks are the
same at any thread count, so the results are too.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .czt import CZT, next_fast_len
from .errors import GridError, InvalidParameterError, RangeAliasingError, SpacingAliasingError
from .morse import _check_uniform
from .wavepacket import StateGrid

DEFAULT_MOMENTUM_POINTS = 512
MOMENTUM_SPAN_FACTOR = 5.0
#: Reject momentum grids that do not reach this many spectral widths.
MOMENTUM_COVERAGE_FACTOR = 3.0
SUPPORT_CUTOFF = 1e-12
#: Row pairs per chirp-z call; larger blocks were slower, the transform
#: being memory-bound, and the rows stay bit-identical either way.
ROW_BLOCK = 8
#: Most threads the row blocks run on; only 1 and 2 were measured.
MAX_ROW_THREADS = 4
#: Most values one product of a grid reduction holds (128 KB of float64).
DOT_LEAF = 16384


@dataclass(frozen=True, eq=False)
class WignerGrid:
    """Real-valued W samples, rows indexed by x and columns by p."""

    x: np.ndarray
    p: np.ndarray
    values: np.ndarray
    theta: float | None
    t: float
    norm_captured: float

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def dp(self) -> float:
        return float(self.p[1] - self.p[0])


def _trapezoid(y: np.ndarray, steps: np.ndarray) -> float:
    """Trapezoid integral of y over a 1-d grid whose steps are ``np.diff(x)``.

    The operations of ``np.trapezoid(y, x)`` in its order, so the same bits,
    with the steps computed once by the caller and one temporary array.
    """
    pairs = np.add(y[1:], y[:-1])
    np.multiply(steps, pairs, out=pairs)
    pairs /= 2.0
    return float(pairs.sum())


def _moment_rows(x: np.ndarray, densities: tuple[np.ndarray, ...],
                 spectra: tuple[np.ndarray, ...]) -> tuple[tuple[float, ...], ...]:
    """Six rows of moments on the uniform grid x.

    Rows 0-2 hold the trapezoid integrals of each array in ``densities``
    against 1, x and x^2. Rows 3-5 hold the sums of each array in
    ``spectra``, a product of DFTs of samples on x such as |fft(psi)|^2,
    against the DFT momentum bins 1, p and p^2, with the scaling
    dx*dx/(2*pi) and the bin width dp. Discrete Parseval makes these sums
    exact for the sampled state; summation order is fixed, so the results
    are reproducible bit for bit.
    """
    steps = x[1:] - x[:-1]
    x_squared = x * x
    n = x.size
    dx = float(steps[0])
    p_bins = 2.0 * math.pi * np.fft.fftfreq(n, d=dx)
    p_squared = p_bins * p_bins
    dp = 2.0 * math.pi / (n * dx)
    scaled = [y * dx * dx / (2.0 * math.pi) for y in spectra]
    return (
        tuple(_trapezoid(y, steps) for y in densities),
        tuple(_trapezoid(x * y, steps) for y in densities),
        tuple(_trapezoid(x_squared * y, steps) for y in densities),
        tuple(float(np.sum(y) * dp) for y in scaled),
        tuple(float(np.sum(p_bins * y) * dp) for y in scaled),
        tuple(float(np.sum(p_squared * y) * dp) for y in scaled),
    )


def _spread(norm: float, first: float, second: float) -> float:
    """Standard deviation from the zeroth, first and second moments."""
    mean = first / norm
    return math.sqrt(max(second / norm - mean * mean, 0.0))


def spectral_moments(state: StateGrid) -> tuple[float, float]:
    """(mean, standard deviation) of the state's momentum distribution via DFT."""
    rows = _moment_rows(state.x, (), (np.abs(np.fft.fft(state.psi)) ** 2,))
    total, first, second = (row[0] for row in rows[3:])
    if total == 0.0:
        raise InvalidParameterError("state has zero norm")
    return first / total, _spread(total, first, second)


def auto_momentum_grid(state: StateGrid, n: int = DEFAULT_MOMENTUM_POINTS) -> np.ndarray:
    """Symmetric uniform momentum grid reaching MOMENTUM_SPAN_FACTOR*sqrt(<p^2>)."""
    mean, sigma = spectral_moments(state)
    p_max = MOMENTUM_SPAN_FACTOR * math.sqrt(sigma * sigma + mean * mean)
    return np.linspace(-p_max, p_max, n)


def _support_halfwidth(psi: np.ndarray) -> int:
    amp = np.abs(psi)
    big = np.flatnonzero(amp > SUPPORT_CUTOFF * amp.max())
    lo, hi = int(big[0]), int(big[-1])
    return min((hi - lo) // 2 + 8, psi.size - 1)


def check_momentum_grid(state: StateGrid, p: np.ndarray) -> np.ndarray:
    """``p`` as a float array, if the state's Wigner transform can use it.

    Raises GridError for a grid that is not 1-d, uniform, increasing, finite
    and symmetric, RangeAliasingError when it stops short of the state's
    spectral content, and SpacingAliasingError when the position step
    cannot resolve exp(-2i*p*x') at its largest p.
    """
    p = np.asarray(p, dtype=float)
    _check_uniform(p)
    if abs(p[0] + p[-1]) > 1e-9 * max(abs(p[0]), abs(p[-1]), 1.0):
        raise GridError("momentum grid must be symmetric about 0")
    mean, sigma = spectral_moments(state)
    needed = abs(mean) + MOMENTUM_COVERAGE_FACTOR * sigma
    if p[-1] < needed:
        raise RangeAliasingError(
            f"momentum grid reaches {p[-1]:.4g} but the state's spectral content "
            f"needs at least {needed:.4g}"
        )
    phase_step = 2.0 * p[-1] * state.dx
    if phase_step > math.pi:
        raise SpacingAliasingError(
            "position spacing too coarse to represent exp(-2i*p*x') at the largest p: "
            f"2*p_max*dx = {phase_step:.4g} exceeds pi = {math.pi:.4g}"
        )
    return p


def _worker_count() -> int:
    """Threads for the row blocks: the CPUs this process may run on, capped."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, MAX_ROW_THREADS))


def _run_blocks(task, starts: range, make_buffers) -> None:
    """task(start, buffers) for every block start, on up to _worker_count() threads.

    Each thread takes the next unclaimed block and owns one set of buffers
    from make_buffers(), allocated here in the calling thread. With one
    thread the blocks run inline.
    """
    n_threads = max(1, min(_worker_count(), len(starts)))
    buffer_sets = [make_buffers() for _ in range(n_threads)]
    if n_threads == 1:
        for start in starts:
            task(start, buffer_sets[0])
        return
    from concurrent.futures import ThreadPoolExecutor

    pending = iter(starts)
    lock = threading.Lock()

    def drain(buffers) -> None:
        while True:
            with lock:
                start = next(pending, None)
            if start is None:
                return
            task(start, buffers)

    with ThreadPoolExecutor(max_workers=n_threads - 1) as pool:
        futures = [pool.submit(drain, buffers) for buffers in buffer_sets[1:]]
        drain(buffer_sets[0])
        for future in futures:
            future.result()


def wigner_transform(state: StateGrid, p: np.ndarray | None = None) -> WignerGrid:
    """Wigner distribution of ``state`` on (state.x) x (p).

    The x' sum runs as one chirp-z transform per block of ROW_BLOCK row
    pairs. The lag product of row i is Hermitian, corr[-k] = conj(corr[k]),
    so its transform is real up to rounding: rows 2k and 2k+1 go in as
    corr[2k] + 1j*corr[2k+1] and come out as the real and imaginary parts
    of one transform. An odd last row goes in alone.
    """
    if p is None:
        p = auto_momentum_grid(state)
    p = check_momentum_grid(state, p)

    psi = state.psi.astype(np.complex128, copy=False)
    nx = psi.size
    dx = state.dx
    half = _support_halfwidth(psi)
    offsets = dx * np.arange(-half, half + 1)
    padded = np.zeros(nx + 2 * half, dtype=np.complex128)
    padded[half:half + nx] = psi

    dp = float(p[1] - p[0])
    transform = CZT(
        n=offsets.size, m=p.size,
        w=complex(np.exp(-2j * dp * dx)),
        a=complex(np.exp(2j * p[0] * dx)),
    )
    tail_phase = np.exp(-2j * offsets[0] * p)
    scale = dx / math.pi
    windows = sliding_window_view(padded, 2 * half + 1)
    values = np.empty((nx, p.size))

    def pair_rows(i: int, buffers: tuple[np.ndarray, np.ndarray]) -> None:
        seg = windows[i:i + 2 * ROW_BLOCK]
        corr = buffers[0][:len(seg)]
        np.conjugate(seg[:, ::-1], out=corr)
        np.multiply(corr, seg, out=corr)
        packed, odd = corr[0::2], corr[1::2]
        work = buffers[1][:len(packed)]
        shifted = work[:len(odd), :offsets.size]  # 1j*odd; the transform overwrites it
        np.multiply(1j, odd, out=shifted)
        np.add(packed[:len(odd)], shifted, out=packed[:len(odd)])
        pairs = transform(packed, work)
        np.multiply(tail_phase, pairs, out=pairs)
        rows = values[i:i + len(seg)]
        np.multiply(pairs.real, scale, out=rows[0::2])
        np.multiply(pairs.imag[:len(odd)], scale, out=rows[1::2])

    _run_blocks(pair_rows, range(0, nx, 2 * ROW_BLOCK),
                lambda: (np.empty((2 * ROW_BLOCK, offsets.size), dtype=np.complex128),
                         np.empty((ROW_BLOCK, transform.nfft), dtype=np.complex128)))
    norm = float(values.sum() * dx * dp)
    return WignerGrid(x=state.x, p=p, values=values, theta=state.theta,
                      t=state.t, norm_captured=norm)


def marginals(w: WignerGrid) -> tuple[np.ndarray, np.ndarray]:
    """(position density, momentum density) by row / column quadrature."""
    pos = w.values.sum(axis=1) * w.dp
    mom = w.values.sum(axis=0) * w.dx
    return pos, mom


def _pairwise_dot(a: np.ndarray, b: np.ndarray) -> float:
    """``np.sum(a * b)`` for flat arrays of equal length, in DOT_LEAF-sized products.

    The halves are split where numpy's pairwise summation splits them (n // 2,
    rounded down to a multiple of 8), and each leaf is summed by ``np.sum``
    itself, so the bits are those of the whole product's sum while the
    scratch is one leaf instead of one grid.
    """
    n = a.size
    if n <= DOT_LEAF:
        return np.sum(a * b)
    half = n // 2
    half -= half % 8
    return _pairwise_dot(a[:half], b[:half]) + _pairwise_dot(a[half:], b[half:])


def wigner_overlap(w1: WignerGrid, w2: WignerGrid) -> float:
    """2*pi * integral of W1*W2; equals |<state1|state2>|^2 for pure states.

    The 2*pi factor is required by the normalization integral(W) = 1 so that
    the self-overlap (purity) of a pure state is 1.
    """
    if w1.values.shape != w2.values.shape:
        raise GridError("Wigner grids have different shapes")
    if not (np.array_equal(w1.x, w2.x) and np.array_equal(w1.p, w2.p)):
        raise GridError("Wigner grids are on different axes")
    dot = _pairwise_dot(w1.values.ravel(), w2.values.ravel())
    return float(2.0 * math.pi * dot * w1.dx * w1.dp)


def purity(w: WignerGrid) -> float:
    """2*pi * integral of W^2; 1 for a pure state."""
    return wigner_overlap(w, w)


#: Coarse-grain cell area in units of hbar/2; 1.5 suppresses sub-cell clone
#: structure (steep-wall ripples) without washing out distinct packet lobes.
LOBE_CELL_AREA = 1.5
#: Local maxima closer than this many cell widths are one lobe (tilted lobes
#: sample as short ridges with several near-degenerate grid maxima).
LOBE_MERGE_CELLS = 1.5
#: Rows per FFT call in the coarse grain; bounds the padded work arrays,
#: and the values are the same for any block size.
SMOOTH_BLOCK = 32


def _smooth_rows(values: np.ndarray, sigma: float, out: np.ndarray | None = None) -> np.ndarray:
    """Gaussian smoothing along axis 1, with zeros beyond both ends.

    A zero-padded linear convolution by FFT. The kernel is that of
    scipy.ndimage.gaussian_filter1d: radius int(4*sigma + 0.5) samples and
    weights exp(-k^2/(2 sigma^2)) summing to 1. The result goes to ``out``
    (new by default), which may be ``values`` itself: each block of rows is
    read before it is written.
    """
    radius = int(4.0 * sigma + 0.5)
    k = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 / (sigma * sigma) * (k * k))
    kernel /= kernel.sum()
    n = values.shape[1]
    # the kept outputs [radius, radius + n) of the linear convolution are
    # free of wrap-around for any nfft >= n + radius
    nfft = next_fast_len(n + radius)
    response = np.fft.rfft(kernel, nfft)
    if out is None:
        out = np.empty(values.shape)
    block_rows = min(SMOOTH_BLOCK, values.shape[0])

    def smooth_block(i: int, buffers: tuple[np.ndarray, np.ndarray]) -> None:
        block = values[i:i + SMOOTH_BLOCK]
        signal, spectrum = buffers[0][:len(block)], buffers[1][:len(block)]
        np.copyto(signal[:, :n], block)
        np.fft.rfft(signal[:, :n], nfft, out=spectrum)
        np.multiply(spectrum, response, out=spectrum)
        np.fft.irfft(spectrum, nfft, out=signal)
        out[i:i + len(block)] = signal[:, radius:radius + n]

    _run_blocks(smooth_block, range(0, values.shape[0], SMOOTH_BLOCK),
                lambda: (np.empty((block_rows, nfft)),
                         np.empty((block_rows, nfft // 2 + 1), dtype=np.complex128)))
    return out


def _gaussian_smooth(values: np.ndarray, sigma: tuple[float, float]) -> np.ndarray:
    """Gaussian smoothing of a 2-d grid with zeros outside it.

    Axis 0 first, then axis 1, as scipy.ndimage.gaussian_filter with
    mode="constant" does; the two agree to rounding (tests/test_wigner.py).
    Both passes smooth rows, the axis-0 pass those of the transpose, copied
    contiguous one block at a time: they transform faster than strided
    columns. The axis-1 pass overwrites the axis-0 pass's output.
    """
    smooth = _smooth_rows(values.T, sigma[0]).T
    return _smooth_rows(smooth, sigma[1], out=smooth)


def _coarse_grain(w: WignerGrid) -> tuple[np.ndarray, float, float]:
    """(smoothed W, cell_x, cell_p): Gaussian coarse-grain over one cell.

    The cell has area LOBE_CELL_AREA/2 and is aspect-matched to the state
    (cell_x/cell_p equals the ratio of the marginal spreads), which wipes out
    sub-cell interference tiles while leaving the macroscopic packet lobes in
    place.
    """
    # the positive part one block of rows at a time; numpy's axis-0 sum adds
    # rows in order, so carrying it across blocks keeps the whole grid's bits
    pos = np.empty(w.values.shape[0])
    mom = None
    for i in range(0, w.values.shape[0], SMOOTH_BLOCK):
        block = np.clip(w.values[i:i + SMOOTH_BLOCK], 0.0, None)
        pos[i:i + len(block)] = block.sum(axis=1)
        mom = block.sum(axis=0) if mom is None else np.vstack((mom, block)).sum(axis=0)
    # a sum of non-negative terms is zero only if every term is
    if float(pos.sum()) <= 0.0:
        raise GridError("coarse-grained distribution has no positive region")

    def _std(axis: np.ndarray, weight: np.ndarray) -> float:
        total = float(weight.sum())
        mean = float((axis * weight).sum()) / total
        second = float((axis * axis * weight).sum()) / total
        return math.sqrt(max(second - mean * mean, 1e-300))

    sx = _std(w.x, pos)
    sp = _std(w.p, mom)
    cell_x = math.sqrt(LOBE_CELL_AREA * 0.5 * sx / sp)
    cell_p = math.sqrt(LOBE_CELL_AREA * 0.5 * sp / sx)
    smooth = _gaussian_smooth(w.values, (cell_x / w.dx, cell_p / w.dp))
    return smooth, cell_x, cell_p


def lobe_count(w: WignerGrid, threshold_fraction: float = 0.3) -> int:
    """Number of macroscopic packet lobes of the distribution.

    Counts the distinct local maxima of the coarse-grained distribution whose
    amplitude (square root of the smoothed quasi-density) reaches
    threshold_fraction of the global maximum amplitude. Coarse graining over
    a minimum-uncertainty cell separates the packet lobes from the
    interference tiles, whose raw peaks rival or exceed the lobes'; the
    amplitude scale keeps unequally weighted lobes comparable, and maxima
    within LOBE_MERGE_CELLS of each other count once.
    """
    if not 0.0 < threshold_fraction < 1.0:
        raise InvalidParameterError(
            f"threshold_fraction must be in (0, 1), got {threshold_fraction}"
        )
    smooth, cell_x, cell_p = _coarse_grain(w)
    amp = np.sqrt(np.clip(smooth, 0.0, None, out=smooth), out=smooth)
    top = float(amp.max())
    if top <= 0.0:
        raise GridError("coarse-grained distribution has no positive region")
    floor = threshold_fraction * top

    # one strict side per axis so exact ties (symmetric states sampled between
    # grid points) still register exactly one maximum
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
    kept: list[tuple[int, int]] = []
    for _, i, j in ranked:
        for i2, j2 in kept:
            if (abs(i - i2) * w.dx <= LOBE_MERGE_CELLS * cell_x
                    and abs(j - j2) * w.dp <= LOBE_MERGE_CELLS * cell_p):
                break
        else:
            kept.append((i, j))
    return len(kept)
