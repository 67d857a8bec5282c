import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsecontrol import (
    StateGrid,
    auto_momentum_grid,
    carpet,
    displaced_state,
    fringe_amplitude,
    marginals,
    momentum_density,
    purity,
    sensitivity_scan,
    spectral_moments,
    tile_area,
    uncertainties,
    wigner_transform,
)
from morsecontrol import analysis
from morsecontrol.analysis import _alternating_extrema
from morsecontrol.cli import THETA_ROW
from morsecontrol.errors import GridError, InvalidParameterError, TruncationError


def gaussian_state(x, x0=0.0, p0=0.0, sigma=0.7):
    psi = (2 * math.pi * sigma**2) ** -0.25 * np.exp(
        -((x - x0) ** 2) / (4 * sigma**2) + 1j * p0 * x
    )
    return StateGrid(x=x, psi=psi, theta=None, t=0.0)


@pytest.fixture(scope="module")
def toy_x():
    return np.linspace(-10.0, 10.0, 1024)


def test_gaussian_uncertainties(toy_x):
    sigma = 0.8
    dx, dp = uncertainties(gaussian_state(toy_x, sigma=sigma))
    assert dx == pytest.approx(sigma, rel=1e-6)
    assert dp == pytest.approx(0.5 / sigma, rel=1e-6)


def test_minimal_state_tile_area(toy_x):
    # dx*dp = 1/2 exactly for a Gaussian, so the inverse action is 2
    assert tile_area(gaussian_state(toy_x, sigma=1.3)) == pytest.approx(2.0, rel=1e-6)


def test_eigenstate_respects_uncertainty_bound(model):
    from morsecontrol import I2, evaluate_eigenfunction

    psi = evaluate_eigenfunction(I2, 0, model.x).astype(complex)
    state = StateGrid(x=model.x, psi=psi, theta=None, t=0.0)
    dx, dp = uncertainties(state)
    assert dx * dp >= 0.5


def test_momentum_spread_against_wigner_marginal(model, times):
    _, t_rev = times
    state = model.phase_locked(math.pi / 2, t_rev / 8)
    w = wigner_transform(state)
    _, mom = marginals(w)
    total = float(np.sum(mom) * w.dp)
    mean = float(np.sum(w.p * mom) * w.dp) / total
    second = float(np.sum(w.p**2 * mom) * w.dp) / total
    dp_wigner = math.sqrt(second - mean**2)
    _, dp_fourier = uncertainties(state)
    assert dp_wigner == pytest.approx(dp_fourier, rel=1e-3)


def test_momentum_density_integrates_to_one(model, times):
    _, t_rev = times
    state = model.phase_locked(0.7, t_rev / 16)
    p = np.linspace(-900.0, 900.0, 1024)
    density = momentum_density(state, p)
    assert np.trapezoid(density, p) == pytest.approx(1.0, abs=1e-3)


def test_fringe_amplitude_smooth_density_is_zero(toy_x):
    density = np.exp(-(toy_x**2))
    density /= np.trapezoid(density, toy_x)
    assert fringe_amplitude(density, toy_x, 1.0) == 0.0


def test_fringe_amplitude_modulated_density():
    x = np.linspace(-4.0, 4.0, 2048)
    envelope = np.exp(-(x**2) / 0.5)
    density = envelope * (1.0 + 0.6 * np.cos(2.0 * math.pi * x / 0.012))
    density /= np.trapezoid(density, x)
    extracted = fringe_amplitude(density, x, 1.0)
    # half peak-to-trough of the modulation at the envelope top
    envelope_norm = envelope / np.trapezoid(envelope, x)
    expected = 0.6 * envelope_norm.max()
    assert extracted == pytest.approx(expected, rel=0.1)


def test_fringe_amplitude_rejects_unnormalized(toy_x):
    with pytest.raises(InvalidParameterError, match="normalized"):
        fringe_amplitude(np.exp(-(toy_x**2)), toy_x, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_fringe_amplitude_rejects_non_finite(toy_x, bad):
    density = np.exp(-(toy_x**2))
    density /= np.trapezoid(density, toy_x)
    density[512] = bad
    with pytest.raises(InvalidParameterError, match="not finite"):
        fringe_amplitude(density, toy_x, 1.0)


def test_fringe_amplitude_rejects_mismatched_lengths(toy_x):
    density = np.exp(-(toy_x**2))
    density /= np.trapezoid(density, toy_x)
    with pytest.raises(InvalidParameterError, match="1024 samples but x_grid has 1023"):
        fringe_amplitude(density, toy_x[:-1], 1.0)


@pytest.mark.parametrize("density, x, message", [
    (np.ones((2, 8)), np.linspace(0.0, 1.0, 8), "1-d"),
    (np.ones(8), np.linspace(0.0, 1.0, 16).reshape(2, 8), "1-d"),
    (np.ones(1), np.zeros(1), "at least 3 samples"),
    (np.ones(2), np.array([0.0, 1.0]), "at least 3 samples"),
    (np.ones(8), np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 6.5]), "uniformly spaced"),
    (np.ones(8), np.linspace(1.0, 0.0, 8), "strictly increasing"),
    (np.ones(8), np.append(np.linspace(0.0, 1.0, 7), math.inf), "finite"),
    (np.ones(8), np.append(np.linspace(0.0, 1.0, 7), math.nan), "strictly increasing"),
])
def test_fringe_amplitude_rejects_unusable_grid(density, x, message):
    with pytest.raises(GridError, match=message):
        fringe_amplitude(density, x, 1.0)


@pytest.mark.parametrize("r0", [0.0, -2.0, math.nan])
def test_fringe_amplitude_rejects_bad_r0(toy_x, r0):
    density = np.exp(-(toy_x**2))
    density /= np.trapezoid(density, toy_x)
    with pytest.raises(InvalidParameterError, match="r0 must be positive and finite"):
        fringe_amplitude(density, toy_x, r0)


@pytest.mark.parametrize("entry", [uncertainties, tile_area, spectral_moments, auto_momentum_grid])
def test_zero_state_rejected(toy_x, entry):
    state = StateGrid(x=toy_x, psi=np.zeros(toy_x.size, dtype=complex), theta=None, t=0.0)
    with pytest.raises(InvalidParameterError, match="state has zero norm"):
        entry(state)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.integers(0, 4).map(float), min_size=2, max_size=64),
       floor=st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.5]))
def test_alternating_extrema_matches_loop(values, floor, loop_alternating_extrema):
    assert _alternating_extrema(np.array(values), floor) == loop_alternating_extrema(values, floor)


@pytest.mark.parametrize("values, floor, expected", [
    ([0.0, 1.0, 2.0, 1.5, 3.0], 0.5, []),  # no drop above the floor
    ([3.0, 0.0, 2.0, 2.0, 0.0, 1.0], 1.0, [0, 1, 2]),  # first drop at index 0
    ([2.0, 0.0, 1.0, 4.0, 4.0, 4.0], 0.5, [0, 1]),  # trailing plateau
    ([1.0, 1.0, 1.0, 1.0], 0.0, []),  # all values equal
])
def test_alternating_extrema_fixed_cases(values, floor, expected, loop_alternating_extrema):
    assert loop_alternating_extrema(values, floor) == expected
    assert _alternating_extrema(np.array(values), floor) == expected


def test_fringe_amplitude_accepts_three_samples():
    # the smallest grid it takes; a flat density has no extremum, so 0.0
    density = np.full(3, 0.5)
    assert fringe_amplitude(density, np.array([0.0, 1.0, 2.0]), 1.0) == 0.0


def test_fringe_amplitude_normalization_tolerance(toy_x):
    density = np.exp(-(toy_x**2))
    density /= np.trapezoid(density, toy_x)
    assert fringe_amplitude(1.0008 * density, toy_x, 1.0) == 0.0
    with pytest.raises(InvalidParameterError, match="integral is 1.0012"):
        fringe_amplitude(1.0012 * density, toy_x, 1.0)


def test_fringe_window_floor_binds(loop_fringe_amplitude):
    # 0.002-period fringes: 7 times their spacing is 0.014, so the window is
    # the floor's, and a floor of 0.03 would read 6.7430 instead
    x = np.linspace(0.0, 1.0, 2001)
    density = np.exp(-((x - 0.5) ** 2) / (2 * 0.03**2)) * (1.0 + 0.5 * np.cos(2 * math.pi * x / 0.002))
    density /= np.trapezoid(density, x)
    value = fringe_amplitude(density, x, 1.0)
    assert value == loop_fringe_amplitude(density, x, 1.0, window_floor=0.02)
    assert value == pytest.approx(6.4949, abs=1e-4)


@st.composite
def plateau_densities(draw):
    """Small-integer densities built from runs of equal values, so plateaus
    and exact ties between extrema are common, normalised on a linspace grid."""
    runs = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(1, 6)), min_size=1, max_size=80))
    values = np.repeat([float(v) for v, _ in runs], [k for _, k in runs])
    size = draw(st.integers(3, 300))
    values = np.resize(values, size)
    if not values.any():
        values[size // 2] = 1.0
    start = draw(st.sampled_from([-1.0, 0.0, 2.5]))
    x = np.linspace(start, start + draw(st.sampled_from([0.05, 0.3, 1.0, 4.0])), size)
    return values / np.trapezoid(values, x), x


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=plateau_densities())
def test_fringe_amplitude_matches_loop_on_plateaus(case, loop_fringe_amplitude):
    density, x = case
    assert fringe_amplitude(density, x, 1.0) == loop_fringe_amplitude(density, x, 1.0)


def test_fringe_amplitude_per_r_scaling():
    x = np.linspace(-4.0, 4.0, 2048)
    density = np.exp(-(x**2) / 0.5) * (1.0 + 0.6 * np.cos(2.0 * math.pi * x / 0.012))
    density /= np.trapezoid(density, x)
    assert fringe_amplitude(density, x, 5.0) == pytest.approx(
        fringe_amplitude(density, x, 1.0) / 5.0, rel=1e-12
    )


@settings(max_examples=20, deadline=None)
@given(sigma=st.floats(0.3, 2.0), center=st.floats(-3.0, 3.0))
def test_fringe_amplitude_zero_for_unimodal(sigma, center):
    x = np.linspace(-10.0, 10.0, 1024)
    density = np.exp(-((x - center) ** 2) / (2 * sigma**2))
    density /= np.trapezoid(density, x)
    assert fringe_amplitude(density, x, 1.0) == 0.0


def test_displaced_state_identity(toy_x):
    state = gaussian_state(toy_x)
    moved = displaced_state(state, 0.0, 0.0)
    assert np.array_equal(moved.psi, state.psi)


def test_momentum_shift_preserves_density(toy_x):
    state = gaussian_state(toy_x)
    moved = displaced_state(state, dp_shift=1.7)
    assert np.abs(moved.density - state.density).max() < 1e-14
    overlap = abs(np.trapezoid(np.conj(state.psi) * moved.psi, toy_x)) ** 2
    assert overlap == pytest.approx(math.exp(-(1.7 * 0.7) ** 2), rel=1e-3)


def test_position_shift_moves_center(toy_x):
    state = gaussian_state(toy_x)
    moved = displaced_state(state, dx_shift=1.0)
    assert moved.norm() == pytest.approx(1.0, abs=1e-12)
    center = np.trapezoid(toy_x * moved.density, toy_x)
    assert center == pytest.approx(1.0, abs=1e-3)


def test_overlap_decreases_from_one(toy_x):
    state = gaussian_state(toy_x)
    overlaps = []
    for shift in (0.0, 0.05, 0.1, 0.2):
        moved = displaced_state(state, dx_shift=shift)
        overlaps.append(abs(np.trapezoid(np.conj(state.psi) * moved.psi, toy_x)) ** 2)
    assert overlaps[0] == pytest.approx(1.0, abs=1e-12)
    assert all(overlaps[i + 1] < overlaps[i] + 1e-12 for i in range(3))


def test_displacement_off_grid_rejected(toy_x):
    state = gaussian_state(toy_x, x0=8.5, sigma=0.5)
    with pytest.raises(TruncationError):
        displaced_state(state, dx_shift=2.0)


def test_sensitivity_scan_gaussian_first_zero(toy_x):
    sigma = 0.7
    state = gaussian_state(toy_x, sigma=sigma)
    # |<g|g(x-s)>|^2 = exp(-s^2/(4 sigma^2)) crosses 1e-2 at 2*sigma*sqrt(ln 100)
    expected = 2.0 * sigma * math.sqrt(math.log(100.0))
    scan = sensitivity_scan(state, "position", max_shift=4.0, steps=64, cross_checks=0)
    assert scan.overlaps[0] == pytest.approx(1.0, abs=1e-6)
    step = scan.shifts[1] - scan.shifts[0]
    assert scan.first_zero == pytest.approx(expected, abs=step + 0.02)


def test_sensitivity_scan_momentum_direction(toy_x):
    sigma = 0.7
    state = gaussian_state(toy_x, sigma=sigma)
    expected = math.sqrt(math.log(100.0)) / sigma
    scan = sensitivity_scan(state, "momentum", max_shift=6.0, steps=64, cross_checks=0)
    step = scan.shifts[1] - scan.shifts[0]
    assert scan.first_zero == pytest.approx(expected, abs=step + 1e-6)


def test_sensitivity_scan_no_zero(toy_x):
    state = gaussian_state(toy_x)
    scan = sensitivity_scan(state, "position", max_shift=0.1, steps=32, cross_checks=0)
    assert scan.first_zero is None


def test_sensitivity_scan_wigner_cross_check(toy_x):
    state = gaussian_state(toy_x)
    scan = sensitivity_scan(state, "position", max_shift=3.0, steps=32, cross_checks=3)
    assert scan.wigner_indices.size == 3
    for idx, value in zip(scan.wigner_indices, scan.wigner_overlaps):
        assert value == pytest.approx(scan.overlaps[idx], abs=5e-3)


def test_sensitivity_scan_reuses_base_grid_at_zero_shift(toy_x, monkeypatch):
    state = gaussian_state(toy_x)
    p = auto_momentum_grid(state)
    calls = []

    def counted(*args):
        calls.append(args)
        return wigner_transform(*args)

    monkeypatch.setattr(analysis, "wigner_transform", counted)
    scan = sensitivity_scan(state, "position", max_shift=3.0, steps=32, cross_checks=3, p=p)
    assert scan.wigner_indices[0] == 0
    assert scan.wigner_overlaps[0] == purity(wigner_transform(state, p))
    assert len(calls) == scan.wigner_indices.size  # the base grid and one per nonzero shift


@pytest.mark.parametrize("steps, cross_checks", [(32, 0), (32, 1), (32, 3), (33, 32),
                                                  (64, 7), (40, 100)])
def test_sensitivity_scan_indices_are_numpy_unique(toy_x, monkeypatch, steps, cross_checks):
    # the Wigner route stubbed out: only the choice of indices is under test
    monkeypatch.setattr(analysis, "wigner_transform", lambda state, p: None)
    monkeypatch.setattr(analysis, "wigner_overlap", lambda w1, w2: 0.0)
    scan = sensitivity_scan(gaussian_state(toy_x), "position", 1.0, steps,
                            cross_checks=cross_checks, p=np.linspace(-5.0, 5.0, 64))
    n_checks = min(cross_checks, steps)
    expected = np.unique(np.linspace(0, steps - 1, n_checks).astype(int))
    assert scan.wigner_indices.dtype == expected.dtype
    assert scan.wigner_indices.tolist() == expected.tolist()


def test_sensitivity_scan_peak_memory(classification_states):
    # two grids at the peak: the base and one displaced grid, whose overlap
    # forms no product grid; the rest is the transform threads' buffers
    state = classification_states["compass T/8"][0]
    p = auto_momentum_grid(state)
    grid_bytes = state.x.size * p.size * 8
    max_shift = uncertainties(state)[0]
    tracemalloc.start()
    try:
        sensitivity_scan(state, "position", max_shift, 64, p=p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * grid_bytes


def test_sensitivity_scan_validation(toy_x):
    state = gaussian_state(toy_x)
    with pytest.raises(InvalidParameterError, match="steps"):
        sensitivity_scan(state, "position", 1.0, steps=8)
    with pytest.raises(InvalidParameterError, match="direction"):
        sensitivity_scan(state, "sideways", 1.0, steps=32)


def test_carpet_rows_normalized(model, times):
    _, t_rev = times
    grid = carpet(model, t_rev / 8, theta_count=9)
    assert grid.density.shape == (9, model.x.size)
    for row in grid.density:
        assert np.trapezoid(row, grid.x) == pytest.approx(1.0, abs=1e-6)


def test_carpet_rows_pairwise_identity(model, times):
    _, t_rev = times
    t = t_rev / 8
    grid = carpet(model, t, theta_count=9)
    parity_sum = (np.abs(model.subsidiary("even", t).psi) ** 2
                  + np.abs(model.subsidiary("odd", t).psi) ** 2)
    # theta spacing is pi/4, so row i + 4 sits at theta_i + pi
    for i in range(4):
        assert np.abs(grid.density[i] + grid.density[i + 4] - parity_sum).max() < 1e-10


def test_carpet_rows_equal_phase_locked_densities(model, times):
    _, t_rev = times
    for t in (0.0, t_rev / 8, 0.21 * t_rev):
        grid = carpet(model, t, theta_count=33)
        for theta, row in zip(grid.theta, grid.density):
            assert np.array_equal(row, model.phase_locked(theta, t).density)


@pytest.fixture(scope="module")
def fringe_lattice(model, times):
    """Densities on a stratified seeded theta x t lattice plus the Table-1 row."""
    _, t_rev = times
    rng = np.random.default_rng(11)
    thetas = 2.0 * math.pi * (np.arange(27) + rng.random(27)) / 27
    t_fracs = 0.25 * (np.arange(14) + rng.random(14)) / 14
    lattice = [(theta, frac * t_rev) for theta in thetas for frac in (0.0, *t_fracs)]
    table1_row = [(theta, t_rev / 8) for theta in THETA_ROW]
    return [model.density(theta, t) for theta, t in lattice + table1_row]


def test_fringe_amplitude_matches_loop_oracle(model, fringe_lattice, loop_fringe_amplitude):
    from morsecontrol import I2

    values = []
    for density in fringe_lattice:
        value = fringe_amplitude(density, model.x, I2.r0)
        assert type(value) is float
        assert value == loop_fringe_amplitude(density, model.x, I2.r0)
        values.append(value)
    assert 0.0 in values and any(v > 0.0 for v in values)


def _convolve_moving_average(padded, half):
    kernel = np.full(2 * half + 1, 1.0 / (2 * half + 1))
    return np.convolve(padded, kernel, mode="valid")


def test_fringe_amplitude_close_to_convolve_background(model, fringe_lattice,
                                                       loop_fringe_amplitude):
    # The background was np.convolve with a flat kernel, whose dot products
    # sum in the order of the BLAS kernel; the running sum moves the
    # amplitudes at rounding level only, and zeroes none.
    from morsecontrol import I2

    for density in fringe_lattice:
        value = fringe_amplitude(density, model.x, I2.r0)
        before = loop_fringe_amplitude(density, model.x, I2.r0, _convolve_moving_average)
        assert (value == 0.0) == (before == 0.0)
        assert value == pytest.approx(before, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("seed", range(6))
def test_trapezoid_equals_numpy(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 3000))
    y = rng.standard_normal(n) * 10.0 ** rng.uniform(-5, 5, n)
    uniform = np.linspace(-rng.random(), 1.0 + rng.random(), n)
    ragged = np.cumsum(rng.random(n)) - 0.5 * n
    for x in (uniform, ragged):
        value = analysis._trapezoid(y, np.diff(x))
        assert type(value) is float
        assert value == float(np.trapezoid(y, x))


def test_carpet_t0_rows_have_no_fringes(model):
    from morsecontrol import I2

    grid = carpet(model, 0.0, theta_count=9)
    for row in grid.density:
        assert fringe_amplitude(row, grid.x, I2.r0) < 1e-6


def test_carpet_requires_nine_rows(model):
    with pytest.raises(InvalidParameterError):
        carpet(model, 0.0, theta_count=5)


def test_first_zero_tracks_tile_extent(model, times):
    # the displacement that kills the overlap is set by the fringe scale
    # pi/(2*dp): order-of-magnitude consistency within a factor of 3
    _, t_rev = times
    state = model.phase_locked(math.pi / 2, t_rev / 8)
    dx, dp = uncertainties(state)
    scan = sensitivity_scan(state, "position", max_shift=dx / 2, steps=64, cross_checks=0)
    tile_extent = math.pi / (2.0 * dp)
    assert scan.first_zero is not None
    ratio = scan.first_zero / tile_extent
    assert 1.0 / 3.0 < ratio < 3.0


def _grid_route_uncertainties(state):
    """The quadrature of ``uncertainties`` on the state's own samples, written
    with np.trapezoid: the route of every state that is not phase-locked."""
    x = state.x
    rho = np.abs(state.psi) ** 2
    norm = float(np.trapezoid(rho, x))
    mean = float(np.trapezoid(x * rho, x)) / norm
    second = float(np.trapezoid(x * x * rho, x)) / norm
    return math.sqrt(max(second - mean * mean, 0.0)), spectral_moments(state)[1]


def _as_user_state(state):
    return StateGrid(x=state.x, psi=np.array(state.psi), theta=state.theta, t=state.t)


def test_parity_moments_agree_with_grid_route(model, times):
    _, t_rev = times
    for frac in (0.0, 1 / 16, 0.11, 1 / 8, 0.25, 0.37):
        for theta in np.linspace(0.0, 2.0 * math.pi, 13):
            state = model.phase_locked(theta, frac * t_rev)
            assert state._parity_mix is not None
            form = uncertainties(state)
            grid = uncertainties(_as_user_state(state))
            for a, b in zip(form, grid):
                assert a == pytest.approx(b, rel=1e-13, abs=0.0)
            assert tile_area(state) == pytest.approx(tile_area(_as_user_state(state)),
                                                     rel=1e-13, abs=0.0)


def test_state_keeps_its_times_packets(model, times):
    _, t_rev = times
    fresh = type(model)(model.params, model.coeffs, model.x)
    first = fresh.phase_locked(0.8, t_rev / 8)
    later = fresh.phase_locked(0.8, 0.3 * t_rev)
    assert uncertainties(later) != uncertainties(first)
    # first still mixes the packets of t_rev/8, and computes their moments now
    assert first._parity_mix[2] is not later._parity_mix[2]
    expected = type(model)(model.params, model.coeffs, model.x).phase_locked(0.8, t_rev / 8)
    assert uncertainties(first) == uncertainties(expected)
    for a, b in zip(uncertainties(first), uncertainties(_as_user_state(first))):
        assert a == pytest.approx(b, rel=1e-13, abs=0.0)


def test_user_built_state_takes_the_grid_route(model, times, toy_x):
    _, t_rev = times
    states = [gaussian_state(toy_x, x0=0.4, p0=-1.3, sigma=0.6),
              _as_user_state(model.phase_locked(2.1, t_rev / 16)),
              displaced_state(model.phase_locked(0.5, t_rev / 8), dp_shift=3.0)]
    for state in states:
        assert state._parity_mix is None
        assert uncertainties(state) == _grid_route_uncertainties(state)
