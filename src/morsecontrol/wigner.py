"""Wigner distribution of a state on a rectangular phase-space grid.

W(x, p) = (1/pi) * integral dx' conj(psi(x - x')) * psi(x + x') * exp(-2i*p*x')

with the state normalized in the dimensionless position coordinate and p its
conjugate (hbar = 1), so that the marginals, the normalization
integral(W) = 1 and the purity 2*pi*integral(W^2) = 1 all hold without extra
scale factors. The x' quadrature is a Riemann sum limited to the state's
support, summed in a fixed order so results are reproducible bit for bit.
W vanishes outside the support of psi: the rows beyond it, where every lag
product has a factor below the support cutoff, are not computed and hold
exact zeros.

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
from .wavepacket import StateGrid, _state_spectrum, spectral_moments

DEFAULT_MOMENTUM_POINTS = 512
MOMENTUM_SPAN_FACTOR = 5.0
#: Reject momentum grids that do not reach this many spectral widths.
MOMENTUM_COVERAGE_FACTOR = 3.0
#: Most of the |fft(psi)|^2 mass, as a share of the whole, that the automatic
#: momentum grid may leave beyond its ends; W loses that share of its norm.
MOMENTUM_TAIL_FLOOR = 1e-12
#: The support of psi: the samples from the first to the last whose |psi|
#: exceeds this share of the largest. It sets the lag range of every row, and
#: W's rows beyond it are exact zeros: each of their lag products has a
#: factor below this share of max|psi|, so the direct quadrature there is at
#: most 2*(dx/pi)*SUPPORT_CUTOFF*max|psi|*sum|psi|, under 1e-11 of max|W| on
#: the paper states (computed, those rows held at most 3.7e-24 of it).
SUPPORT_CUTOFF = 1e-12
#: Row pairs per chirp-z call; the rows are the same bits at any block size.
#: 16 pairs took about a fifth less time than 8; 24 was faster still, but
#: its scratch took the transform's peak memory at 4 threads past 1.5 grids.
ROW_BLOCK = 16
#: Most threads the row blocks run on; only 1 and 2 were measured.
MAX_ROW_THREADS = 4


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


def auto_momentum_grid(state: StateGrid, n: int = DEFAULT_MOMENTUM_POINTS) -> np.ndarray:
    """Symmetric uniform momentum grid reaching MOMENTUM_SPAN_FACTOR*sqrt(<p^2>).

    Where the state's DFT spectrum holds more than MOMENTUM_TAIL_FLOOR of
    its mass beyond that reach, the grid reaches instead to the smallest DFT
    bin beyond which it holds no more; the spectrum is the one the moments
    are taken from. Raises InvalidParameterError for a state with zero
    momentum spread and mean, which sets no span; such a state needs a
    momentum grid of its own.
    """
    mean, sigma, _, power = _state_spectrum(state)
    p_max = MOMENTUM_SPAN_FACTOR * math.sqrt(sigma * sigma + mean * mean)
    if p_max == 0.0:
        raise InvalidParameterError(
            "state has zero momentum spread and zero mean momentum, so it sets no "
            "automatic momentum grid; pass a momentum grid p")
    # beyond[k]: the spectrum's mass in the DFT bins |p| > k*bin, for
    # k = 0 .. nx//2 (the Nyquist bin), summed from the outermost bin in
    nx = power.size
    k = np.arange(nx)
    folded = np.bincount(np.minimum(k, nx - k), weights=power)
    beyond = np.append(np.cumsum(folded[:0:-1])[::-1], 0.0)
    bin_width = 2.0 * math.pi / (nx * state.dx)
    limit = MOMENTUM_TAIL_FLOOR * float(power.sum())
    if beyond[min(int(p_max / bin_width), nx // 2)] > limit:
        p_max = bin_width * int(np.argmax(beyond <= limit))
    return np.linspace(-p_max, p_max, n)


def _support(psi: np.ndarray) -> tuple[int, int]:
    """(lo, hi): the first and last samples whose |psi| exceeds
    SUPPORT_CUTOFF of the largest."""
    amp = np.abs(psi)
    big = np.flatnonzero(amp > SUPPORT_CUTOFF * amp.max())
    return int(big[0]), int(big[-1])


def _support_halfwidth(psi: np.ndarray) -> int:
    """The lag half-width that spans the support of ``_support``."""
    lo, hi = _support(psi)
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
    from make_buffers(), allocated here in the calling thread, which is one
    of them; the first error of any thread is raised once all have stopped.
    """
    n_threads = max(1, min(_worker_count(), len(starts)))
    buffer_sets = [make_buffers() for _ in range(n_threads)]
    pending = iter(starts)
    lock = threading.Lock()
    errors: list[BaseException] = []

    def drain(buffers) -> None:
        try:
            while True:
                with lock:
                    start = next(pending, None)
                if start is None:
                    return
                task(start, buffers)
        except BaseException as exc:  # re-raised in the calling thread below
            errors.append(exc)

    threads = [threading.Thread(target=drain, args=(buffers,)) for buffers in buffer_sets[1:]]
    for thread in threads:
        thread.start()
    drain(buffer_sets[0])
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def wigner_transform(state: StateGrid, p: np.ndarray | None = None) -> WignerGrid:
    """Wigner distribution of ``state`` on (state.x) x (p).

    The x' sum runs as one chirp-z transform per block of ROW_BLOCK row
    pairs. The lag product of row i is Hermitian, corr[-k] = conj(corr[k]),
    so its transform is real up to rounding: rows 2k and 2k+1 go in as
    corr[2k] + 1j*corr[2k+1] and come out as the real and imaginary parts
    of one transform. An odd last row goes in alone. The lag products are
    read from three copies of the padded state made once per call, the
    state, its conjugate reversed and 1j times it, so a block takes one
    product per row and one sum per pair. Only the pairs that meet the
    state's support (``_support``) are computed, about two thirds of the
    rows of a paper state; the others are exact zeros, and each computed
    row has the bits it has with every row computed.
    """
    if p is None:
        p = auto_momentum_grid(state)
    p = check_momentum_grid(state, p)

    psi = state.psi.astype(np.complex128, copy=False)
    nx = psi.size
    dx = state.dx
    lo, hi = _support(psi)
    half = _support_halfwidth(psi)
    # the row pairs (2k, 2k+1) that meet [lo, hi]; a row outside them has a
    # factor below the cutoff in each of its lag products, and stays 0
    first, end = lo - lo % 2, min(hi - hi % 2 + 2, nx)
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
    lags = offsets.size
    # row i's lag product is conj(padded[i + lags - 1 - k]) * padded[i + k]:
    # its first factor, read forward, is row i of mirrored, the windows of
    # conj(padded) reversed, taken in reverse order
    windows = sliding_window_view(padded, lags)
    mirrored = sliding_window_view(np.conjugate(padded[::-1]), lags)[::-1]
    shifted = sliding_window_view(1j * padded, lags)
    values = np.zeros((nx, p.size))

    def pair_rows(i: int, buffers: tuple[np.ndarray, np.ndarray]) -> None:
        odd, work = buffers
        stop = min(i + 2 * ROW_BLOCK, end)
        work = work[:(stop - i + 1) // 2]
        packed = np.multiply(mirrored[i:stop:2], windows[i:stop:2], out=work[:, :lags])
        # conj(a) * (1j*b) is 1j * (conj(a) * b) to the bit. One row at a
        # time: a 2-d product would hold more in numpy's iterator buffers
        # than the one row of scratch
        for row, j in zip(packed, range(i + 1, stop, 2)):
            np.multiply(mirrored[j], shifted[j], out=odd)
            np.add(row, odd, out=row)
        pairs = transform(packed, work)
        np.multiply(tail_phase, pairs, out=pairs)
        rows = values[i:stop]
        np.multiply(pairs.real, scale, out=rows[0::2])
        np.multiply(pairs.imag[:(stop - i) // 2], scale, out=rows[1::2])

    _run_blocks(pair_rows, range(first, end, 2 * ROW_BLOCK),
                lambda: (np.empty(lags, dtype=np.complex128),
                         np.empty((ROW_BLOCK, transform.nfft), dtype=np.complex128)))
    norm = float(values.sum() * dx * dp)
    return WignerGrid(x=state.x, p=p, values=values, theta=state.theta,
                      t=state.t, norm_captured=norm)


def marginals(w: WignerGrid) -> tuple[np.ndarray, np.ndarray]:
    """(position density, momentum density) by row / column quadrature."""
    pos = w.values.sum(axis=1) * w.dp
    mom = w.values.sum(axis=0) * w.dx
    return pos, mom


def wigner_overlap(w1: WignerGrid, w2: WignerGrid) -> float:
    """2*pi * integral of W1*W2; equals |<state1|state2>|^2 for pure states.

    The 2*pi factor is required by the normalization integral(W) = 1 so that
    the self-overlap (purity) of a pure state is 1.
    """
    if w1.values.shape != w2.values.shape:
        raise GridError("Wigner grids have different shapes")
    if not (np.array_equal(w1.x, w2.x) and np.array_equal(w1.p, w2.p)):
        raise GridError("Wigner grids are on different axes")
    dot = np.einsum("i,i->", w1.values.ravel(), w2.values.ravel())
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
#: Default share of the largest coarse-grained amplitude a lobe must reach.
DEFAULT_LOBE_THRESHOLD = 0.3
#: Rows per FFT call in the coarse grain, two to each complex transform;
#: bounds the padded work array, and the values are the same for any block size.
SMOOTH_BLOCK = 56
#: Rows per block of the lobe search; bounds its amplitude and mask scratch.
PEAK_BLOCK = 32
#: The coarse grain smooths the rows of W from the first to the last whose
#: largest |value| exceeds this share of the grid's largest. The rows beyond
#: (about 830 of the 2,048 of a desk-scale paper state) count as zeros; the
#: kernel's weights sum to 1, so no smoothed value moves by more than this
#: share of max|W|, beyond rounding.
SMOOTH_ROW_FLOOR = 1e-16


def _smooth_rows(values: np.ndarray, sigma: float, out: np.ndarray, offset: int = 0) -> None:
    """Gaussian smoothing along axis 1 into ``out``, with zeros beyond the values.

    Each row of ``values`` is taken to sit at columns [offset, offset + width)
    of a row of ``out``, zeros elsewhere; ``out`` gets the whole smoothed
    row, exact zeros where no value is within the kernel's radius. A
    zero-padded linear convolution by FFT. The kernel is that of
    scipy.ndimage.gaussian_filter1d: radius int(4*sigma + 0.5) samples and
    weights exp(-k^2/(2 sigma^2)) summing to 1. The kernel is real, so rows
    2k and 2k+1 of a block go in as row[2k] + 1j*row[2k+1] and come out as
    the real and imaginary parts of one complex convolution. ``values`` may
    be a view of ``out`` itself: each block of rows is read before it is
    written.
    """
    radius = int(4.0 * sigma + 0.5)
    k = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 / (sigma * sigma) * (k * k))
    kernel /= kernel.sum()
    width, n = values.shape[1], out.shape[1]
    # out's columns [lo, hi) are the outputs ``kept`` of the linear
    # convolution; none wraps around in a circular one whose length reaches,
    # radius included, from the first input to the last kept column and from
    # the first kept column to the last input
    lo, hi = max(offset - radius, 0), min(offset + width + radius, n)
    nfft = next_fast_len(radius + max(hi - offset, offset + width - lo))
    response = np.fft.fft(kernel, nfft)
    kept = slice(lo + radius - offset, hi + radius - offset)

    def smooth_block(i: int, buffer: np.ndarray) -> None:
        block = values[i:i + SMOOTH_BLOCK]
        even, odd = block[0::2], block[1::2]
        signal = buffer[:len(even)]
        signal[:, width:] = 0.0
        signal.real[:, :width] = even
        signal.imag[:len(odd), :width] = odd
        # a lone last row: an earlier block's stale data in the imaginary
        # part would move the rounding of its real part
        signal.imag[len(odd):, :width] = 0.0
        np.fft.fft(signal, out=signal)
        np.multiply(signal, response, out=signal)
        np.fft.ifft(signal, out=signal)
        rows = out[i:i + len(block)]
        rows[:, :lo] = 0.0
        rows[:, hi:] = 0.0
        rows[0::2, lo:hi] = signal.real[:, kept]
        rows[1::2, lo:hi] = signal.imag[:len(odd), kept]

    pairs = (min(SMOOTH_BLOCK, values.shape[0]) + 1) // 2
    _run_blocks(smooth_block, range(0, values.shape[0], SMOOTH_BLOCK),
                lambda: np.empty((pairs, nfft), dtype=np.complex128))


def _occupied_rows(extent: np.ndarray) -> tuple[int, int]:
    """(first, stop): the rows from the first to the last whose largest
    |value|, ``extent``, exceeds SMOOTH_ROW_FLOOR of the largest of all."""
    occupied = np.flatnonzero(extent > SMOOTH_ROW_FLOOR * extent.max())
    return int(occupied[0]), int(occupied[-1]) + 1


def _gaussian_smooth(values: np.ndarray, sigma: tuple[float, float],
                     rows: tuple[int, int] | None = None) -> np.ndarray:
    """Gaussian smoothing of a 2-d grid with zeros outside it.

    scipy.ndimage.gaussian_filter with mode="constant" smooths axis 0 first,
    then axis 1; the passes commute, and the two agree to rounding
    (tests/test_wigner.py). Only the rows [first, stop) of ``rows``, those
    of ``_occupied_rows`` (found here when not given), are smoothed; the
    rest count as zeros. Both passes run over contiguous rows: the axis-1
    pass reads those rows of ``values`` and writes the transpose of the
    result, whose rows the axis-0 pass then smooths in place, writing exact
    zeros beyond the window and its kernel radius. The result is that
    transpose's transpose, a Fortran-ordered array.
    """
    if rows is None:
        rows = _occupied_rows(np.maximum(values.max(axis=1), -values.min(axis=1)))
    first, stop = rows
    smooth = np.empty((values.shape[1], values.shape[0]))
    _smooth_rows(values[first:stop], sigma[1], out=smooth.T[first:stop])
    _smooth_rows(smooth[:, first:stop], sigma[0], out=smooth, offset=first)
    return smooth.T


def _positive_marginals(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row and column sums of the positive part of a grid, which must be
    finite, and each row's largest |value|.

    The positive part is clipped one block of rows at a time, below a row
    holding the column sums of the rows before it (zeros for the first
    block); numpy's axis-0 sum adds rows in order, and 0.0 + x is x, so one
    sum of that stack carries the column sums across blocks with the whole
    grid's bits. A NaN or inf shows in its row's largest or smallest value,
    checked before any arithmetic.
    """
    n_rows, n_cols = values.shape
    pos = np.empty(n_rows)
    extent = np.empty(n_rows)
    stack = np.empty((SMOOTH_BLOCK + 1, n_cols))
    mom = np.zeros(n_cols)
    for i in range(0, n_rows, SMOOTH_BLOCK):
        rows = values[i:i + SMOOTH_BLOCK]
        top, bottom = rows.max(axis=1), rows.min(axis=1)
        if not (np.isfinite(top).all() and np.isfinite(bottom).all()):
            raise GridError("Wigner grid has non-finite values")
        np.maximum(top, -bottom, out=extent[i:i + len(rows)])
        stack[0] = mom
        block = np.clip(rows, 0.0, None, out=stack[1:1 + len(rows)])
        pos[i:i + len(rows)] = block.sum(axis=1)
        mom = stack[:1 + len(rows)].sum(axis=0)
    return pos, mom, extent


def _coarse_grain(w: WignerGrid) -> tuple[np.ndarray, float, float]:
    """(smoothed W, cell_x, cell_p): Gaussian coarse-grain over one cell.

    The cell has area LOBE_CELL_AREA/2 and is aspect-matched to the state
    (cell_x/cell_p equals the ratio of the marginal spreads), which wipes out
    sub-cell interference tiles while leaving the macroscopic packet lobes in
    place. The rows of W to smooth come from the marginals' pass.
    """
    if w.x.size < 2 or w.p.size < 2:
        raise GridError("lobe count needs at least two samples on each axis")
    pos, mom, extent = _positive_marginals(w.values)
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
    smooth = _gaussian_smooth(w.values, (cell_x / w.dx, cell_p / w.dp),
                              rows=_occupied_rows(extent))
    return smooth, cell_x, cell_p


def lobe_count(w: WignerGrid, threshold_fraction: float = DEFAULT_LOBE_THRESHOLD) -> int:
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
    # the search runs over the rows of the transpose, contiguous for the
    # smoothing's own output: smooth.T[j, i] is the value at (x[i], p[j])
    smooth = smooth.T
    n_rows, n_cols = smooth.shape
    starts = range(0, n_rows, PEAK_BLOCK)
    column_max = np.empty((len(starts), n_cols))

    def block_max(start: int, _) -> None:
        smooth[start:start + PEAK_BLOCK].max(axis=0, out=column_max[start // PEAK_BLOCK])

    _run_blocks(block_max, starts, lambda: None)
    # the amplitude is sqrt(clip(smooth, 0)), monotone, so its maximum over
    # a block's column is that of the column's largest value
    column_amp = np.sqrt(np.clip(column_max, 0.0, None, out=column_max), out=column_max)
    top = float(column_amp.max())
    if top <= 0.0:
        raise GridError("coarse-grained distribution has no positive region")
    floor = threshold_fraction * top

    found: list[list[tuple[float, int, int]]] = [[] for _ in starts]

    def peak_block(start: int, _) -> None:
        # a peak reaches the floor, so only the block's interior columns
        # that do (most of the grid, beyond the packet lobes, does not) are
        # searched
        reach = np.flatnonzero(column_amp[start // PEAK_BLOCK, 1:-1] >= floor)
        lo, hi = max(start, 1), min(start + PEAK_BLOCK, n_rows - 1)
        if lo >= hi or reach.size == 0:
            return
        left, right = int(reach[0]) + 1, int(reach[-1]) + 2
        # the block's amplitudes with one row and column of each neighbour
        amp = np.clip(smooth[lo - 1:hi + 1, left - 1:right + 1], 0.0, None)
        np.sqrt(amp, out=amp)
        centre = amp[1:-1, 1:-1]
        peaks = centre >= floor
        test = np.empty_like(peaks)
        # one strict side per axis so exact ties (symmetric states sampled
        # between grid points) still register exactly one maximum
        for compare, neighbour in ((np.greater, amp[:-2, 1:-1]),
                                   (np.greater_equal, amp[2:, 1:-1]),
                                   (np.greater, amp[1:-1, :-2]),
                                   (np.greater_equal, amp[1:-1, 2:])):
            compare(centre, neighbour, out=test)
            np.logical_and(peaks, test, out=peaks)
        jj, ii = np.divmod(np.flatnonzero(peaks), right - left)
        found[start // PEAK_BLOCK] = list(zip(centre[jj, ii].tolist(), (ii + left).tolist(),
                                                (jj + lo).tolist()))

    _run_blocks(peak_block, starts, lambda: None)
    ranked = sorted((peak for block in found for peak in block), reverse=True)
    kept: list[tuple[int, int]] = []
    for _, i, j in ranked:
        for i2, j2 in kept:
            if (abs(i - i2) * w.dx <= LOBE_MERGE_CELLS * cell_x
                    and abs(j - j2) * w.dp <= LOBE_MERGE_CELLS * cell_p):
                break
        else:
            kept.append((i, j))
    return len(kept)
