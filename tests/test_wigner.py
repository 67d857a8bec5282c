import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import gaussian_filter

from morsecontrol import (
    I2,
    RunConfig,
    StateGrid,
    WignerGrid,
    auto_momentum_grid,
    build_model,
    characteristic_times,
    displaced_state,
    lobe_count,
    marginals,
    purity,
    spectral_moments,
    tile_area,
    uncertainties,
    wigner_overlap,
    wigner_transform,
)
from morsecontrol import wigner
from morsecontrol.czt import CZT
from morsecontrol.errors import AliasingError, GridError, InvalidParameterError


def gaussian_state(x, x0=0.0, p0=0.0, sigma=0.7):
    psi = (2 * math.pi * sigma**2) ** -0.25 * np.exp(
        -((x - x0) ** 2) / (4 * sigma**2) + 1j * p0 * x
    )
    return StateGrid(x=x, psi=psi, theta=None, t=0.0)


def cat_state(x, separation=2.5, sigma=0.7):
    psi = (np.exp(-((x - separation) ** 2) / (4 * sigma**2))
           + np.exp(-((x + separation) ** 2) / (4 * sigma**2))).astype(complex)
    psi /= math.sqrt(float(np.trapezoid(np.abs(psi) ** 2, x)))
    return StateGrid(x=x, psi=psi, theta=None, t=0.0)


@pytest.fixture(scope="module")
def smoke_x():
    return np.linspace(-8.0, 8.0, 128)


def test_matches_analytic_gaussian(smoke_x, direct_wigner):
    sigma, x0, p0 = 0.7, 0.5, 1.2
    state = gaussian_state(smoke_x, x0, p0, sigma)
    p = np.linspace(-6.0, 6.0, 96)
    values = direct_wigner(state, p)
    xg, pg = np.meshgrid(smoke_x, p, indexing="ij")
    analytic = (1.0 / math.pi) * np.exp(
        -((xg - x0) ** 2) / (2 * sigma**2) - 2 * sigma**2 * (pg - p0) ** 2
    )
    assert np.abs(values - analytic).max() < 1e-8


def test_fast_path_matches_direct_quadrature(smoke_x, direct_wigner):
    state = cat_state(smoke_x)
    p = np.linspace(-5.0, 5.0, 128)
    w_fft = wigner_transform(state, p)
    assert np.abs(w_fft.values - direct_wigner(state, p)).max() < 1e-8


def test_single_row_transforms_are_real(classification_states):
    # the premise of row pairing: each row's lag product is Hermitian in the
    # lag, so its chirp-z transform, phase-corrected, has no imaginary part
    state = classification_states["compass T/8"][0]
    p = auto_momentum_grid(state)
    psi, dx, dp = state.psi.astype(np.complex128), state.dx, float(p[1] - p[0])
    half = wigner._support_halfwidth(psi)
    padded = np.zeros(psi.size + 2 * half, dtype=np.complex128)
    padded[half:half + psi.size] = psi
    transform = CZT(n=2 * half + 1, m=p.size, w=complex(np.exp(-2j * dp * dx)),
                    a=complex(np.exp(2j * p[0] * dx)))
    tail_phase = np.exp(2j * half * dx * p)  # exp(-2i * offsets[0] * p)
    windows = sliding_window_view(padded, 2 * half + 1)
    worst_imag = worst_real = 0.0
    for i in range(0, psi.size, 64):
        seg = windows[i:i + 64]
        rows = tail_phase * transform(np.conj(seg[:, ::-1]) * seg) * (dx / math.pi)
        worst_imag = max(worst_imag, float(np.abs(rows.imag).max()))
        worst_real = max(worst_real, float(np.abs(rows.real).max()))
    assert worst_imag <= 1e-10 * worst_real


@pytest.mark.parametrize("label", ["compass T/8", "eightfold T/16 pi/2"])
def test_paired_rows_match_direct_quadrature(label, classification_wigner,
                                             classification_states, direct_wigner):
    w = classification_wigner[label]
    oracle = direct_wigner(classification_states[label][0], w.p)
    assert np.abs(w.values - oracle).max() <= 1e-10 * np.abs(oracle).max()


def _kept_rows(state):
    """[first, end): the row pairs (2k, 2k+1) that meet the state's support."""
    lo, hi = wigner._support(state.psi)
    return lo, lo - lo % 2, min(hi - hi % 2 + 2, state.psi.size)


def _shifted_state(state):
    """``state`` one sample along the grid, so its support starts one row later."""
    psi = np.concatenate([[0.0], state.psi[:-1]])
    return StateGrid(x=state.x, psi=psi, theta=state.theta, t=state.t)


@pytest.fixture(scope="module")
def support_states(classification_states):
    """The six paper states, and compass T/8 one sample along, whose support
    starts at an odd row (it starts at an even one unshifted)."""
    states = {label: state for label, (state, _) in classification_states.items()}
    states["compass T/8 shifted"] = _shifted_state(states["compass T/8"])
    return states


def test_rows_outside_the_support_are_exact_zeros(support_states, classification_wigner):
    odd_starts = 0
    for label, state in support_states.items():
        w = classification_wigner.get(label) or wigner_transform(state)
        lo, first, end = _kept_rows(state)
        assert not w.values[:first].any() and not w.values[end:].any()
        # a pair is computed whole: row lo - 1 shares its pair with lo
        if lo % 2:
            odd_starts += 1
            assert w.values[lo - 1].any()
        assert w.values[first:end].any(axis=1).all()
    assert _kept_rows(support_states["compass T/8 shifted"])[0] % 2 == 1
    assert odd_starts >= 2


def test_skipped_rows_stay_below_the_cutoff_bound(support_states, direct_wigner):
    # each lag product of a skipped row has a factor below SUPPORT_CUTOFF *
    # max|psi|, and the other factors sum to at most sum|psi| on each side of
    # the lag; so the direct quadrature of the row is bounded by
    # 2 * (dx/pi) * SUPPORT_CUTOFF * max|psi| * sum|psi|, about 5e-12 of
    # max|W| here. Measured on these rows it reached 4.4e-13 of the bound,
    # at the row just past the kept range.
    for label, state in support_states.items():
        _, first, end = _kept_rows(state)
        nx = state.psi.size
        amp = np.abs(state.psi)
        bound = 2.0 * (state.dx / math.pi) * wigner.SUPPORT_CUTOFF * amp.max() * amp.sum()
        rows = [0, first // 2, first - 1, end, (end + nx) // 2, nx - 1]
        direct = direct_wigner(state, auto_momentum_grid(state), rows)
        assert np.abs(direct).max() <= bound, label


def test_state_above_the_cutoff_at_both_ends_computes_every_row(smoke_x, direct_wigner):
    state = gaussian_state(smoke_x, sigma=3.0)
    assert _kept_rows(state)[1:] == (0, smoke_x.size)
    p = np.linspace(-2.0, 2.0, 64)
    w = wigner_transform(state, p)
    assert w.values.any(axis=1).all()
    assert np.abs(w.values - direct_wigner(state, p)).max() <= 1e-10 * np.abs(w.values).max()


def test_transform_peak_memory_stays_near_the_output(classification_states, monkeypatch):
    # the rows are written into one preallocated grid, not stacked from
    # blocks; each thread adds its work array, one row of scratch and numpy's
    # iterator buffers for its products, here at this machine's thread count
    # and at the most threads the blocks run on
    state = classification_states["compass T/8"][0]
    p = auto_momentum_grid(state)
    for n in (wigner._worker_count(), wigner.MAX_ROW_THREADS):
        monkeypatch.setattr(wigner, "_worker_count", lambda n=n: n)
        tracemalloc.start()
        try:
            w = wigner_transform(state, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * w.values.nbytes


def test_overlap_peak_memory_is_one_leaf(classification_wigner):
    # the product of the two grids is summed as it is formed, with no copy
    w = classification_wigner["compass T/8"]
    tracemalloc.start()
    try:
        wigner_overlap(w, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.05 * w.values.nbytes


def test_lobe_count_peak_memory_stays_near_the_grid(classification_wigner, monkeypatch):
    # the smoothing writes one grid; each thread adds one block of FFT rows,
    # then one block of amplitudes and two boolean masks
    w = classification_wigner["compass T/8"]
    peaks = {}
    for n in (1, 2, wigner.MAX_ROW_THREADS):
        monkeypatch.setattr(wigner, "_worker_count", lambda n=n: n)
        tracemalloc.start()
        try:
            lobe_count(w)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[2] <= 1.3 * w.values.nbytes
    assert peaks[2] - peaks[1] <= 1.2e6
    assert peaks[wigner.MAX_ROW_THREADS] <= 1.45 * w.values.nbytes


def test_thread_count_does_not_move_a_bit(monkeypatch):
    # 1001 rows and 203 momentum columns: neither is a multiple of
    # 2*ROW_BLOCK, SMOOTH_BLOCK or PEAK_BLOCK, so every loop ends on a partial
    # block, and both smoothing passes end on an odd one, whose last row goes
    # through its complex transform alone
    assert 1001 % (2 * wigner.ROW_BLOCK) and 1001 % wigner.SMOOTH_BLOCK % 2
    assert 203 % wigner.SMOOTH_BLOCK % 2 and 203 % wigner.PEAK_BLOCK
    x = np.linspace(-8.0, 8.0, 1001)
    state = cat_state(x)
    state = StateGrid(x=x, psi=state.psi * np.exp(0.3j * x), theta=None, t=0.0)
    p = np.linspace(-5.0, 5.0, 203)
    results = {}
    for n in (1, 2, 3):
        monkeypatch.setattr(wigner, "_worker_count", lambda n=n: n)
        w = wigner_transform(state, p)
        smooth, cell_x, cell_p = wigner._coarse_grain(w)
        results[n] = (w.values.tobytes(), w.norm_captured, smooth.tobytes(), cell_x, cell_p,
                      [lobe_count(w, f) for f in (0.2, 0.3, 0.4)])
    assert results[1] == results[2] == results[3]


def test_worker_count_follows_affinity_up_to_the_cap(monkeypatch):
    for cpus, expected in ((1, 1), (2, 2), (64, wigner.MAX_ROW_THREADS)):
        monkeypatch.setattr(wigner.os, "sched_getaffinity", lambda pid, c=cpus: set(range(c)),
                            raising=False)
        assert wigner._worker_count() == expected


def test_one_cpu_runs_blocks_in_order_on_the_calling_thread(monkeypatch):
    # one CPU (say under taskset -c 0) starts no thread: the blocks run inline
    monkeypatch.setattr(wigner, "_worker_count", lambda: 1)
    threads = threading.active_count()
    seen = []

    def task(start, buffers):
        seen.append((start, threading.get_ident(), threading.active_count(), id(buffers)))

    wigner._run_blocks(task, range(0, 100, 7), lambda: [])
    assert [start for start, *_ in seen] == list(range(0, 100, 7))
    assert {(ident, count) for _, ident, count, _ in seen} == {(threading.get_ident(), threads)}
    assert len({buffers for *_, buffers in seen}) == 1
    assert threading.active_count() == threads


def test_row_blocks_each_run_once_under_contention(monkeypatch):
    # more threads than cores and a short switch interval: a block taken
    # twice or lost, or a buffer set shared by two threads, shows here
    monkeypatch.setattr(wigner, "_worker_count", lambda: 8)
    seen, owners = [], {}
    lock = threading.Lock()

    def task(start, buffers):
        with lock:
            owners.setdefault(id(buffers), set()).add(threading.get_ident())
        seen.append(start)

    def rounds():
        for _ in range(20):
            seen.clear()
            owners.clear()
            wigner._run_blocks(task, range(0, 1000, 7), lambda: [])
            results.append((sorted(seen) == list(range(0, 1000, 7)),
                            all(len(threads) == 1 for threads in owners.values())))

    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=rounds, daemon=True)
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert results == [(True, True)] * 20


def test_row_block_error_reaches_the_caller_after_every_thread_stops(monkeypatch):
    # a started thread fails on its first block while the calling thread
    # holds its own: the error is raised in the calling thread, and only
    # after the other threads have run every remaining block
    monkeypatch.setattr(wigner, "_worker_count", lambda: 3)
    caller = threading.get_ident()
    threads = threading.active_count()
    raised = threading.Event()
    seen, failed = [], []
    lock = threading.Lock()

    def task(start, buffers):
        if threading.get_ident() == caller:
            raised.wait(timeout=30)
        else:
            with lock:
                if not failed:
                    failed.append(start)
                    raised.set()
                    raise RuntimeError(f"block {start}")
        seen.append(start)

    with pytest.raises(RuntimeError) as caught:
        wigner._run_blocks(task, range(0, 100, 7), lambda: [])
    assert raised.is_set()
    assert str(caught.value) == f"block {failed[0]}"
    assert sorted(seen) == [start for start in range(0, 100, 7) if start != failed[0]]
    assert threading.active_count() == threads


def test_normalization_and_purity(smoke_x):
    w = wigner_transform(gaussian_state(smoke_x), np.linspace(-6, 6, 128))
    assert w.norm_captured == pytest.approx(1.0, abs=1e-3)
    assert purity(w) == pytest.approx(1.0, abs=5e-3)


def test_marginals_match_densities(smoke_x):
    state = cat_state(smoke_x)
    p = np.linspace(-6.0, 6.0, 128)
    w = wigner_transform(state, p)
    pos, mom = marginals(w)
    assert np.abs(pos - state.density).max() < 1e-4
    # real state: even momentum density
    assert np.abs(mom - mom[::-1]).max() < 1e-4
    assert np.sum(mom) * w.dp == pytest.approx(1.0, abs=1e-3)


def test_cat_interference_is_negative_somewhere(smoke_x):
    w = wigner_transform(cat_state(smoke_x), np.linspace(-6, 6, 128))
    assert w.values.min() < -0.05
    # interference band peaks midway between the lobes
    mid = np.argmin(np.abs(w.x))
    assert np.abs(w.values[mid]).max() > 0.5 * w.values.max()


def test_wigner_overlap_matches_direct_inner_product(smoke_x):
    a = gaussian_state(smoke_x, x0=-0.8)
    b = gaussian_state(smoke_x, x0=0.8, p0=0.6)
    p = np.linspace(-7.0, 7.0, 192)
    w_a = wigner_transform(a, p)
    w_b = wigner_transform(b, p)
    direct = abs(np.trapezoid(np.conj(a.psi) * b.psi, smoke_x)) ** 2
    assert wigner_overlap(w_a, w_b) == pytest.approx(direct, abs=5e-3)
    assert wigner_overlap(w_a, w_b) == wigner_overlap(w_b, w_a)


def test_wigner_overlap_rejects_different_axes(smoke_x):
    p = np.linspace(-6.0, 6.0, 96)
    w = wigner_transform(gaussian_state(smoke_x), p)
    shifted = WignerGrid(x=w.x + 0.5, p=w.p, values=w.values, theta=None, t=0.0,
                         norm_captured=w.norm_captured)
    with pytest.raises(GridError, match="different axes"):
        wigner_overlap(w, shifted)


def _random_grid(rng, shape):
    return WignerGrid(x=np.linspace(-1.0, 1.0, shape[0]), p=np.linspace(-3.0, 3.0, shape[1]),
                      values=rng.standard_normal(shape), theta=None, t=0.0, norm_captured=1.0)


def test_wigner_overlap_is_within_rounding_of_an_exact_sum(classification_states,
                                                           classification_wigner):
    # einsum sums the n products in a fixed number k >= 8 of SIMD
    # accumulators, so its rounding error grows like sqrt(n / k) * eps of
    # sum|W1*W2|: about 8e-14 at n = 2**20 (a desk-scale grid is 2**20
    # cells). The most measured on the paper states is 1.1e-15; the worst
    # case for any order of summation, (n - 1) * eps, is 2.3e-10.
    pairs = []
    for label, (state, _) in classification_states.items():
        w = classification_wigner[label]
        moved = wigner_transform(displaced_state(state, dx_shift=0.002), w.p)
        pairs += [(w, w), (w, moved)]
    rng = np.random.default_rng(32)
    for shape in ((1001, 203), (97, 33)):
        pairs.append((_random_grid(rng, shape), _random_grid(rng, shape)))
    for w1, w2 in pairs:
        product = (w1.values * w2.values).ravel()
        scale = 2.0 * math.pi * w1.dx * w1.dp
        exact = scale * math.fsum(product.tolist())
        assert abs(wigner_overlap(w1, w2) - exact) <= 1e-13 * scale * np.abs(product).sum()


def test_overlap_grid_mismatch_rejected(smoke_x):
    w1 = wigner_transform(gaussian_state(smoke_x), np.linspace(-6, 6, 128))
    w2 = wigner_transform(gaussian_state(smoke_x), np.linspace(-6, 6, 96))
    with pytest.raises(GridError):
        wigner_overlap(w1, w2)


def test_auto_momentum_grid_spans_spectrum(smoke_x):
    state = gaussian_state(smoke_x, p0=2.0, sigma=0.5)
    p = auto_momentum_grid(state, n=256)
    mean, sigma_p = spectral_moments(state)
    assert mean == pytest.approx(2.0, abs=1e-3)
    assert sigma_p == pytest.approx(1.0, rel=1e-2)
    assert p[-1] >= 5.0 * sigma_p
    assert p[0] == -p[-1]


def _spectrum_beyond(state, p_max):
    """Share of |fft(psi)|^2 in the DFT bins with |p| > p_max, bin by bin."""
    power = np.abs(np.fft.fft(state.psi)) ** 2
    bins = np.abs(2.0 * math.pi * np.fft.fftfreq(power.size, d=state.dx))
    return math.fsum(power[bins > p_max]) / math.fsum(power)


def test_auto_momentum_grid_keeps_the_span_rule_on_the_paper_states(classification_states):
    # their spectra leave at most ~1e-16 beyond the 5-sigma reach, far below
    # the tail floor, so their grids are those of the span rule to the bit
    for state, _ in classification_states.values():
        mean, sigma = spectral_moments(state)
        p_max = wigner.MOMENTUM_SPAN_FACTOR * math.sqrt(sigma * sigma + mean * mean)
        assert np.array_equal(auto_momentum_grid(state), np.linspace(-p_max, p_max, 512))
        assert _spectrum_beyond(state, p_max) < 1e-15


@pytest.fixture(scope="module")
def quarter_band():
    """The T_rev/4 band where the two parity packets recombine and the
    spectrum has a tail far past its spread, at nx=1024, np=256."""
    model = build_model(RunConfig(nx=1024, np=256))
    t_rev = characteristic_times(I2)[1]
    return [model.phase_locked(float(theta), frac * t_rev)
            for frac in (0.234, 0.242, 0.25, 0.258)
            for theta in np.linspace(0.22 * math.pi, 1.78 * math.pi, 16)]


def test_auto_momentum_grid_holds_the_whole_spectrum(quarter_band):
    # the 5-sigma span left up to 8.1e-4 of W's norm off the grid on this
    # band; the widened grid held all but 2.8e-12 of it when measured
    widened = 0
    for state in quarter_band:
        p = auto_momentum_grid(state, n=256)
        w = wigner_transform(state, p)
        assert abs(w.norm_captured - 1.0) <= 1e-9
        assert _spectrum_beyond(state, p[-1]) <= 1.001 * wigner.MOMENTUM_TAIL_FLOOR
        mean, sigma = spectral_moments(state)
        if p[-1] != wigner.MOMENTUM_SPAN_FACTOR * math.sqrt(sigma * sigma + mean * mean):
            widened += 1
            # the smallest DFT bin that holds the tail: one bin less would not
            bin_width = 2.0 * math.pi / (state.x.size * state.dx)
            assert _spectrum_beyond(state, p[-1] - 0.5 * bin_width) > wigner.MOMENTUM_TAIL_FLOOR
    # 11 of the 64 grids widened when measured
    assert 5 <= widened <= 20


@pytest.mark.parametrize("value", [1.0, 1e-163])
def test_state_without_momentum_spread_needs_a_grid(value):
    # a constant state has its whole spectrum in the zero bin, so its
    # automatic grid would span nothing
    x = np.arange(2048.0)
    state = StateGrid(x=x, psi=np.full(x.size, value, dtype=complex), theta=None, t=0.0)
    assert spectral_moments(state) == (0.0, 0.0)
    for entry in (auto_momentum_grid, wigner_transform):
        with pytest.raises(InvalidParameterError,
                           match="zero momentum spread.*pass a momentum grid"):
            entry(state)


def _expression_spectral_moments(state):
    """The moments as one expression per sum, with fresh bins every call."""
    n, dx = state.psi.size, state.dx
    spectrum = np.abs(np.fft.fft(state.psi)) ** 2 * dx * dx / (2.0 * math.pi)
    p_bins = 2.0 * math.pi * np.fft.fftfreq(n, d=dx)
    dp = 2.0 * math.pi / (n * dx)
    total = float(np.sum(spectrum) * dp)
    mean = float(np.sum(p_bins * spectrum) * dp) / total
    second = float(np.sum(p_bins * p_bins * spectrum) * dp) / total
    return mean, math.sqrt(max(second - mean * mean, 0.0))


def test_spectral_moments_equal_expression_oracle(model, times):
    _, t_rev = times
    rng = np.random.default_rng(5)
    for theta in 2.0 * math.pi * (np.arange(9) + rng.random(9)) / 9:
        for frac in (0.0, *(0.25 * (np.arange(6) + rng.random(6)) / 6)):
            state = model.phase_locked(float(theta), float(frac) * t_rev)
            assert spectral_moments(state) == _expression_spectral_moments(state)


#: Every call that takes a state's scalar moments before anything else.
_MOMENT_CALLS = pytest.mark.parametrize("call", [
    spectral_moments,
    uncertainties,
    auto_momentum_grid,
    wigner_transform,
    lambda state: wigner_transform(state, np.linspace(-6.0, 6.0, 128)),
    tile_area,
], ids=["spectral_moments", "uncertainties", "auto_momentum_grid", "wigner_transform",
        "wigner_transform_on_p", "tile_area"])


@_MOMENT_CALLS
def test_nan_sample_is_named(smoke_x, call):
    # the scalar moments each call takes first are NaN
    psi = gaussian_state(smoke_x).psi.copy()
    psi[70] = np.nan
    with pytest.raises(InvalidParameterError, match="state has non-finite samples"):
        call(StateGrid(x=smoke_x, psi=psi, theta=None, t=0.0))


@_MOMENT_CALLS
@pytest.mark.parametrize("bad", [np.inf, -np.inf], ids=["+inf", "-inf"])
def test_inf_sample_is_named(smoke_x, call, bad):
    # the FFT of an inf sample has NaN bins; the sums name it, with no
    # RuntimeWarning from numpy first (the suite fails on one)
    psi = gaussian_state(smoke_x).psi.copy()
    psi[70] = bad
    with pytest.raises(InvalidParameterError, match="state has non-finite samples"):
        call(StateGrid(x=smoke_x, psi=psi, theta=None, t=0.0))


def test_momentum_grid_must_cover_spectrum(smoke_x):
    state = gaussian_state(smoke_x, p0=5.0, sigma=0.5)
    with pytest.raises(AliasingError, match="spectral content"):
        wigner_transform(state, np.linspace(-2.0, 2.0, 128))


def test_momentum_grid_must_respect_sampling():
    x = np.linspace(-8.0, 8.0, 32)  # coarse spacing 0.516
    state = gaussian_state(x, sigma=1.5)
    with pytest.raises(AliasingError, match="spacing"):
        wigner_transform(state, np.linspace(-4.0, 4.0, 128))


def test_asymmetric_momentum_grid_rejected(smoke_x):
    state = gaussian_state(smoke_x)
    with pytest.raises(GridError, match="symmetric"):
        wigner_transform(state, np.linspace(-2.0, 6.0, 128))


def test_malformed_momentum_grids_rejected(smoke_x):
    state = gaussian_state(smoke_x)
    good = np.linspace(-6.0, 6.0, 128)
    with_nan = good.copy()
    with_nan[40] = np.nan
    for bad in (good**3 / 36.0, good[::-1], with_nan, good.reshape(2, 64), np.array([0.0])):
        with pytest.raises(GridError):
            wigner_transform(state, bad)


def test_lobe_count_single_gaussian(smoke_x):
    w = wigner_transform(gaussian_state(smoke_x), np.linspace(-6, 6, 128))
    assert [lobe_count(w, f) for f in (0.2, 0.3, 0.4)] == [1, 1, 1]


def test_lobe_count_cat(smoke_x):
    w = wigner_transform(cat_state(smoke_x), np.linspace(-6, 6, 128))
    assert [lobe_count(w, f) for f in (0.2, 0.3, 0.4)] == [2, 2, 2]


def test_lobe_count_compass():
    x = np.linspace(-12.0, 12.0, 256)
    sigma, d, q = 1.0, 4.0, 4.0
    psi = (np.exp(-((x - d) ** 2) / (4 * sigma**2))
           + np.exp(-((x + d) ** 2) / (4 * sigma**2))
           + np.exp(-(x**2) / (4 * sigma**2) + 1j * q * x)
           + np.exp(-(x**2) / (4 * sigma**2) - 1j * q * x))
    psi /= math.sqrt(float(np.trapezoid(np.abs(psi) ** 2, x)))
    state = StateGrid(x=x, psi=psi, theta=None, t=0.0)
    w = wigner_transform(state, np.linspace(-10.0, 10.0, 256))
    assert [lobe_count(w, f) for f in (0.2, 0.3, 0.4)] == [4, 4, 4]


def test_lobe_count_threshold_validation(smoke_x):
    w = wigner_transform(gaussian_state(smoke_x), np.linspace(-6, 6, 64))
    with pytest.raises(InvalidParameterError):
        lobe_count(w, 0.0)
    with pytest.raises(InvalidParameterError):
        lobe_count(w, 1.0)


def test_lobe_count_empty_superlevel_set():
    x = np.linspace(-1.0, 1.0, 64)
    p = np.linspace(-1.0, 1.0, 32)
    w = WignerGrid(x=x, p=p, values=-np.ones((64, 32)), theta=None, t=0.0, norm_captured=0.0)
    with pytest.raises(GridError, match="no positive region"):
        lobe_count(w, 0.3)


def test_lobe_count_positive_cell_smoothed_away():
    # the one positive cell passes the coarse grain's own check, but the
    # negative grid around it leaves its coarse grain positive nowhere
    x = np.linspace(-1.0, 1.0, 64)
    p = np.linspace(-1.0, 1.0, 32)
    values = -np.ones((64, 32))
    values[30, 15] = 1e-3
    w = WignerGrid(x=x, p=p, values=values, theta=None, t=0.0, norm_captured=0.0)
    smooth, _, _ = wigner._coarse_grain(w)
    assert smooth.max() <= 0.0
    with pytest.raises(GridError, match="no positive region"):
        lobe_count(w, 0.3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_lobe_count_rejects_non_finite_grid(bad):
    x = np.linspace(-1.0, 1.0, 64)
    values = np.random.default_rng(5).random((64, 64))
    values[40, 7] = bad
    w = WignerGrid(x=x, p=x, values=values, theta=None, t=0.0, norm_captured=1.0)
    # named before any arithmetic on it: a RuntimeWarning fails the test
    with pytest.raises(GridError, match="non-finite values"):
        lobe_count(w)


@pytest.mark.parametrize("shape", [(1, 32), (32, 1)])
def test_lobe_count_rejects_single_sample_axis(shape):
    x, p = np.linspace(-1.0, 1.0, shape[0]), np.linspace(-1.0, 1.0, shape[1])
    w = WignerGrid(x=x, p=p, values=np.ones(shape), theta=None, t=0.0, norm_captured=1.0)
    with pytest.raises(GridError, match="at least two samples on each axis"):
        lobe_count(w)


def _lobe_counts(w, thresholds, count):
    return [count(w, f) for f in thresholds]


@pytest.mark.parametrize("merge", [True, False])
def test_block_peak_search_matches_whole_grid(classification_wigner, whole_grid_lobe_count,
                                              monkeypatch, merge):
    if not merge:  # every local maximum above the floor counts
        monkeypatch.setattr(wigner, "LOBE_MERGE_CELLS", 0.0)
    thresholds = (0.05, 0.2, 0.3, 0.4)
    expected = {label: _lobe_counts(w, thresholds, whole_grid_lobe_count)
                for label, w in classification_wigner.items()}
    for n in (1, 2, 3):
        monkeypatch.setattr(wigner, "_worker_count", lambda n=n: n)
        assert {label: _lobe_counts(w, thresholds, lobe_count)
                for label, w in classification_wigner.items()} == expected


@pytest.mark.parametrize("order", ["F", "C"])
def test_block_peak_search_matches_whole_grid_on_plateaus_and_ties(whole_grid_lobe_count,
                                                                   monkeypatch, order):
    # four levels in 3 x 3 tiles: plateaus and exact ties everywhere, left
    # as they are by an identity smoothing in either memory order; 70
    # momentum columns end the search on a partial block of rows
    monkeypatch.setattr(wigner, "_gaussian_smooth",
                        lambda values, sigma, rows=None: np.array(values, order=order))
    monkeypatch.setattr(wigner, "LOBE_MERGE_CELLS", 0.0)
    assert 70 % wigner.PEAK_BLOCK
    thresholds = (0.2, 0.5, 0.9)
    for seed in range(4):
        levels = np.random.default_rng(seed).integers(0, 4, (33, 24))
        values = np.kron(levels, np.ones((3, 3)))[:97, :70]
        w = WignerGrid(x=np.linspace(-1.0, 1.0, 97), p=np.linspace(-2.0, 2.0, 70),
                       values=values, theta=None, t=0.0, norm_captured=1.0)
        expected = _lobe_counts(w, thresholds, whole_grid_lobe_count)
        assert expected[-1] > 1  # ties at the top level
        for n in (1, 2, 3):
            monkeypatch.setattr(wigner, "_worker_count", lambda n=n: n)
            assert _lobe_counts(w, thresholds, lobe_count) == expected


@pytest.mark.parametrize("centre", ["last row", "first row", "tie across"])
def test_peak_on_a_row_block_boundary_is_found_once(whole_grid_lobe_count, monkeypatch,
                                                    centre):
    # the search's rows are the momentum columns; its blocks meet between
    # columns PEAK_BLOCK - 1 and PEAK_BLOCK
    monkeypatch.setattr(wigner, "_gaussian_smooth",
                        lambda values, sigma, rows=None: np.asfortranarray(values))
    monkeypatch.setattr(wigner, "LOBE_MERGE_CELLS", 0.0)
    edge = wigner.PEAK_BLOCK
    i, j = np.meshgrid(np.arange(40), np.arange(2 * edge + 5), indexing="ij")
    if centre == "last row":
        dj = j - (edge - 1)
    elif centre == "first row":
        dj = j - edge
    else:  # equal maxima on both sides: the tie rule keeps the one at edge - 1
        dj = np.minimum(abs(j - (edge - 1)), abs(j - edge))
    values = np.exp(-((i - 17) ** 2 + dj ** 2) / 20.0)
    w = WignerGrid(x=np.linspace(-1.0, 1.0, 40), p=np.linspace(-2.0, 2.0, 2 * edge + 5),
                   values=values, theta=None, t=0.0, norm_captured=1.0)
    assert whole_grid_lobe_count(w, 0.3) == 1
    for n in (1, 2, 3):
        monkeypatch.setattr(wigner, "_worker_count", lambda n=n: n)
        assert lobe_count(w, 0.3) == 1


def _scipy_smooth(values, sigma, rows=None):
    """The gaussian_filter coarse grain the FFT smoothing replaced, over the
    whole grid: the window of occupied rows, ``rows``, is not used."""
    return gaussian_filter(values, sigma=sigma, mode="constant", cval=0.0)


def _assert_close_to_max(ours, theirs):
    assert ours.shape == theirs.shape
    assert np.max(np.abs(ours - theirs)) <= 1e-13 * np.max(np.abs(theirs))


def test_coarse_grain_matches_scipy_on_acceptance_grids(classification_wigner):
    for w in classification_wigner.values():
        smooth, cell_x, cell_p = wigner._coarse_grain(w)
        _assert_close_to_max(smooth, _scipy_smooth(w.values, (cell_x / w.dx, cell_p / w.dp)))


def _whole_grid_coarse_grain(w):
    """The coarse grain with the positive part clipped as one grid copy:
    the reference for the block-wise marginals of ``wigner._coarse_grain``."""
    positive = np.clip(w.values, 0.0, None)
    pos = positive.sum(axis=1)
    mom = positive.sum(axis=0)

    def _std(axis, weight):
        total = float(weight.sum())
        mean = float((axis * weight).sum()) / total
        second = float((axis * axis * weight).sum()) / total
        return math.sqrt(max(second - mean * mean, 1e-300))

    sx = _std(w.x, pos)
    sp = _std(w.p, mom)
    cell_x = math.sqrt(wigner.LOBE_CELL_AREA * 0.5 * sx / sp)
    cell_p = math.sqrt(wigner.LOBE_CELL_AREA * 0.5 * sp / sx)
    return wigner._gaussian_smooth(w.values, (cell_x / w.dx, cell_p / w.dp)), cell_x, cell_p


def test_coarse_grain_equals_whole_grid_clip(classification_wigner):
    # 97 rows end in a partial block of rows
    values = np.random.default_rng(97).standard_normal((97, 33))
    odd = WignerGrid(x=np.linspace(-1.0, 1.0, 97), p=np.linspace(-2.0, 2.0, 33),
                     values=values, theta=None, t=0.0, norm_captured=1.0)
    for w in [*classification_wigner.values(), odd]:
        smooth, cell_x, cell_p = wigner._coarse_grain(w)
        ref_smooth, ref_x, ref_p = _whole_grid_coarse_grain(w)
        assert (cell_x, cell_p) == (ref_x, ref_p)
        assert smooth.tobytes() == ref_smooth.tobytes()


@pytest.mark.parametrize("shape, sigma", [
    ((40, 24), (0.1, 0.12)),   # radius 0 on both axes: the kernel is [1]
    ((40, 24), (0.1, 2.5)),    # radius 0 on axis 0 only
    ((12, 7), (6.0, 9.0)),     # radius 24 and 36, beyond both axis lengths
    ((97, 33), (3.3, 1.7)),    # odd lengths and a partial last block
])
def test_gaussian_smooth_matches_scipy_on_small_grids(shape, sigma):
    values = np.random.default_rng(sum(shape)).standard_normal(shape)
    _assert_close_to_max(wigner._gaussian_smooth(values, sigma), _scipy_smooth(values, sigma))


def _blank_rows(blank, level, seed):
    """A 203 x 61 grid of normals whose rows outside the returned window are
    ``level`` times the grid's max|value|, times uniform noise in (-1, 1):
    exact zeros for level 0, below SMOOTH_ROW_FLOOR for level 1e-17."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((203, 61))
    first, stop = {"top": (40, 203), "bottom": (0, 153), "both": (40, 153),
                   "neither": (0, 203), "all but one": (101, 102)}[blank]
    top = np.abs(values[first:stop]).max()
    for rows in (values[:first], values[stop:]):
        rows[:] = level * top * rng.uniform(-1.0, 1.0, rows.shape)
    return values, (first, stop)


@pytest.mark.parametrize("level", [0.0, 1e-17], ids=["zero", "below floor"])
@pytest.mark.parametrize("blank", ["top", "bottom", "both", "neither", "all but one"])
def test_smoothing_skips_blank_rows(monkeypatch, blank, level):
    # the window runs from the first to the last row above the floor; the
    # rows beyond it and the kernel radius are exact zeros, the rest is
    # scipy's smoothing to rounding, and the bytes are the same on 1-3 threads
    values, (first, stop) = _blank_rows(blank, level, seed=len(blank))
    sigma = (3.3, 1.7)
    radius = int(4.0 * sigma[0] + 0.5)  # scipy's kernel radius
    extent = np.maximum(values.max(axis=1), -values.min(axis=1))
    assert wigner._occupied_rows(extent) == (first, stop)
    results = set()
    for n in (1, 2, 3):
        monkeypatch.setattr(wigner, "_worker_count", lambda n=n: n)
        smooth = wigner._gaussian_smooth(values, sigma)
        results.add(smooth.tobytes())
    assert len(results) == 1
    assert not smooth[:max(first - radius, 0)].any()
    assert not smooth[stop + radius:].any()
    _assert_close_to_max(smooth, _scipy_smooth(values, sigma))


@pytest.mark.parametrize("seed", range(6))
def test_search_of_the_columns_above_the_floor_matches_whole_grid(whole_grid_lobe_count,
                                                                  monkeypatch, seed):
    # each block of the search reads only the columns where its amplitude
    # reaches the floor: narrow bumps at random places, some on or next to
    # the grid's edges, and thresholds that cut them at several widths
    monkeypatch.setattr(wigner, "_gaussian_smooth",
                        lambda values, sigma, rows=None: np.asfortranarray(values))
    monkeypatch.setattr(wigner, "LOBE_MERGE_CELLS", 0.0)
    rng = np.random.default_rng(seed)
    i, j = np.meshgrid(np.arange(90), np.arange(75), indexing="ij")
    centres = np.concatenate([rng.integers(0, [90, 75], (6, 2)),
                              [[0, 40], [89, 3], [1, 74], [45, 1]]])
    values = sum(rng.uniform(0.2, 1.0) * np.exp(-((i - ci) ** 2 + (j - cj) ** 2)
                                                / rng.uniform(1.0, 8.0))
                 for ci, cj in centres)
    w = WignerGrid(x=np.linspace(-1.0, 1.0, 90), p=np.linspace(-2.0, 2.0, 75),
                   values=values, theta=None, t=0.0, norm_captured=1.0)
    thresholds = (0.05, 0.3, 0.6, 0.9)
    expected = _lobe_counts(w, thresholds, whole_grid_lobe_count)
    for n in (1, 2, 3):
        monkeypatch.setattr(wigner, "_worker_count", lambda n=n: n)
        assert _lobe_counts(w, thresholds, lobe_count) == expected


def test_windowed_lobe_counts_match_whole_grid_scipy(whole_grid_lobe_count, monkeypatch):
    # 8 phases x 4 times at nx=1024 np=256: the windowed smoothing and search
    # count what scipy's whole-grid smoothing and a whole-grid search count
    model = build_model(RunConfig(nx=1024))
    _, t_rev = characteristic_times(I2)
    thresholds = (0.2, 0.3, 0.4)
    grids = []
    for k in range(8):
        for frac in (0.0, 1 / 16, 1 / 8, 1 / 4):
            state = model.phase_locked(2.0 * math.pi * (k + 0.5) / 8, frac * t_rev)
            grids.append(wigner_transform(state, auto_momentum_grid(state, 256)))
    ours = [_lobe_counts(w, thresholds, lobe_count) for w in grids]
    smoothed = {}  # scipy's smoothing of each grid, once for all thresholds

    def scipy_once(values, sigma, rows=None):
        if id(values) not in smoothed:
            smoothed[id(values)] = _scipy_smooth(values, sigma)
        return smoothed[id(values)]

    monkeypatch.setattr(wigner, "_gaussian_smooth", scipy_once)
    assert ours == [_lobe_counts(w, thresholds, whole_grid_lobe_count) for w in grids]


def test_lobe_count_matches_scipy_smoothing(classification_wigner, monkeypatch):
    thresholds = (0.2, 0.3, 0.4)
    ours = {label: [lobe_count(w, f) for f in thresholds]
            for label, w in classification_wigner.items()}
    monkeypatch.setattr(wigner, "_gaussian_smooth", _scipy_smooth)
    theirs = {label: [lobe_count(w, f) for f in thresholds]
              for label, w in classification_wigner.items()}
    assert ours == theirs


def test_interference_tiles_alternate_in_sign(model, times):
    # between the turning-point lobes of the four-way state the distribution
    # crosses zero many times: the sub-Planck fringe witness
    _, t_rev = times
    w = wigner_transform(model.phase_locked(math.pi / 2, t_rev / 8))
    a = (0.157, 0.0)   # outer turning lobe
    b = (-0.084, 0.0)  # inner turning lobe
    samples = []
    for frac in np.linspace(0.0, 1.0, 200):
        xq = a[0] + frac * (b[0] - a[0])
        pq = a[1] + frac * (b[1] - a[1])
        i = int(np.argmin(np.abs(w.x - xq)))
        j = int(np.argmin(np.abs(w.p - pq)))
        samples.append(w.values[i, j])
    signs = np.sign(samples)
    signs = signs[signs != 0]
    assert int(np.sum(signs[1:] != signs[:-1])) >= 6
