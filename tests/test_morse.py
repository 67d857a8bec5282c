import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsecontrol import (
    ATOMIC_TIME_SECONDS,
    I2,
    MorseParams,
    WavePacketModel,
    characteristic_times,
    depth_parameter,
    eigenfunction_table,
    eigenstate,
    energies,
    energy,
    evaluate_eigenfunction,
    morse_potential,
    split_even_odd,
    su2_coefficients,
)
from morsecontrol.errors import GridError, InvalidParameterError, TruncationWarning
from morsecontrol.morse import eigenfunction_with_capture


def test_depth_parameter_unit_case():
    # sqrt(2*2*2)/2.828427 == 1 by construction
    assert depth_parameter(2.828427, 2.0, 1.0, 2.0) == pytest.approx(1.0, abs=2e-7)


def test_depth_parameter_iodine():
    assert I2.depth == pytest.approx(116.56, abs=0.01)
    assert I2.bound_state_count == 117


def test_depth_parameter_shallow_well():
    params = MorseParams(beta=1.0, mu=0.5, r0=1.0, D=0.5)
    assert params.depth == pytest.approx(math.sqrt(0.5), rel=1e-12)
    assert params.bound_state_count == 1


@pytest.mark.parametrize("field", ["beta", "mu", "r0", "D"])
def test_nonpositive_parameters_rejected(field):
    values = dict(beta=I2.beta, mu=I2.mu, r0=I2.r0, D=I2.D)
    values[field] = 0.0
    with pytest.raises(InvalidParameterError, match=field):
        MorseParams(**values)


def test_no_bound_state_rejected():
    with pytest.raises(InvalidParameterError, match="bound state"):
        MorseParams(beta=10.0, mu=0.5, r0=1.0, D=0.1)


def test_depth_of_exactly_one_half_rejected():
    # sqrt(2*0.5*0.25) = 0.5 exactly: level 0 would have exponent 0, not > 0
    assert depth_parameter(1.0, 0.5, 1.0, 0.25) == 0.5
    with pytest.raises(InvalidParameterError, match="bound state"):
        MorseParams(beta=1.0, mu=0.5, r0=1.0, D=0.25)


def test_energy_quarter_depth_at_unit_depth():
    params = MorseParams(beta=2.828427, mu=2.0, r0=1.0, D=2.0)  # depth = 1
    assert energy(params, 0) == pytest.approx(-params.D / 4.0, rel=1e-6)


def test_energy_iodine_ground_state():
    assert energy(I2, 0) == pytest.approx(-0.05651, abs=5e-6)


def test_energies_strictly_increasing():
    e = energies(I2, 24)
    assert np.all(np.diff(e) > 0)
    assert np.all(e < 0)


def test_energy_level_out_of_range():
    with pytest.raises(InvalidParameterError):
        energy(I2, 117)
    with pytest.raises(InvalidParameterError):
        energy(I2, -1)


def test_eigenstate_exponent_positive():
    for m in (0, 50, 116):
        assert eigenstate(I2, m).exponent > 0


def test_characteristic_times_unit_case():
    # depth 1 and D = 2*pi give unit revival and classical times
    mu = 1.0 / (4.0 * math.pi)
    params = MorseParams(beta=1.0, mu=mu, r0=1.0, D=2.0 * math.pi)
    assert params.depth == pytest.approx(1.0, rel=1e-12)
    t_cl, t_rev = characteristic_times(params)
    assert t_rev == pytest.approx(1.0, rel=1e-12)
    assert t_cl == pytest.approx(1.0, rel=1e-12)


def test_characteristic_times_iodine():
    t_cl, t_rev = characteristic_times(I2)
    assert t_rev == pytest.approx(1.498e6, rel=1e-3)
    assert t_cl * ATOMIC_TIME_SECONDS == pytest.approx(156e-15, abs=1e-15)
    assert t_rev * ATOMIC_TIME_SECONDS == pytest.approx(36.2e-12, abs=0.2e-12)
    # the two formulas are tied by an exact algebraic identity
    assert t_rev == pytest.approx(t_cl * (2.0 * I2.depth - 1.0), rel=1e-14)


def test_ground_state_nodeless(x_grid):
    psi = evaluate_eigenfunction(I2, 0, x_grid)
    big = np.abs(psi) > 1e-6 * np.abs(psi).max()
    assert np.all(psi[big] > 0) or np.all(psi[big] < 0)


def test_fifth_state_has_five_sign_changes(x_grid):
    psi = evaluate_eigenfunction(I2, 5, x_grid)
    signs = np.sign(psi[np.abs(psi) > 1e-6 * np.abs(psi).max()])
    assert int(np.sum(signs[1:] != signs[:-1])) == 5


def test_orthogonality_spot_check(x_grid):
    psi3 = evaluate_eigenfunction(I2, 3, x_grid)
    psi7 = evaluate_eigenfunction(I2, 7, x_grid)
    assert abs(np.trapezoid(psi3 * psi7, x_grid)) < 1e-6


def test_eigenfunctions_finite_at_large_depth(x_grid):
    table = eigenfunction_table(I2, 24, x_grid)
    assert np.isfinite(table).all()
    assert np.abs(table).max() < 1e3


def test_extreme_grid_does_not_overflow():
    # deep past the wall the prefactor must underflow to zero, not overflow
    x = np.linspace(-3.0, 2.0, 4096)
    psi = evaluate_eigenfunction(I2, 23, x)
    assert np.isfinite(psi).all()
    assert np.all(psi[x < -1.0] == 0.0)


def test_truncation_warning_on_narrow_grid():
    x = np.linspace(-0.02, 0.08, 256)
    with pytest.warns(TruncationWarning, match="captures only"):
        evaluate_eigenfunction(I2, 23, x)


def test_norm_capture_adequate_grid(x_grid):
    # the capture is the grid norm of the analytic eigenfunction, so a wrong
    # log-gamma argument in its normalisation moves it by orders of magnitude
    for m in range(24):
        assert eigenfunction_with_capture(I2, m, x_grid)[1] == pytest.approx(1.0, abs=1e-11), m


def test_eigenfunction_with_capture_matches_separate_calls(x_grid):
    for m in (0, 11, 23):
        psi, _ = eigenfunction_with_capture(I2, m, x_grid)
        assert np.array_equal(psi, evaluate_eigenfunction(I2, m, x_grid))


def test_small_grid_rejected():
    with pytest.raises(GridError, match="at least"):
        evaluate_eigenfunction(I2, 0, np.linspace(-0.2, 0.4, 8))


def test_decreasing_grid_rejected():
    with pytest.raises(GridError, match="increasing"):
        evaluate_eigenfunction(I2, 0, np.linspace(0.4, -0.2, 64))


@pytest.mark.parametrize("grid, message", [
    (np.geomspace(1.0, 1.7, 256) - 1.25, "grid must be uniformly spaced"),
    (np.append(np.linspace(-0.25, 0.45, 255), np.inf), "grid must be finite"),
], ids=["non-uniform", "non-finite"])
def test_eigenfunction_grid_passes_the_uniform_grid_check(grid, message):
    with pytest.raises(GridError, match=message):
        evaluate_eigenfunction(I2, 0, grid)


def test_too_many_levels_rejected_with_one_message():
    shallow = MorseParams(beta=1.0, mu=8.0, r0=1.0, D=0.5)  # 3 bound states
    x = np.linspace(-0.6, 3.0, 256)
    for n in (0, 4):
        message = re.escape(f"n_levels={n} outside the bound levels 1..3")
        with pytest.raises(InvalidParameterError, match=message):
            energies(shallow, n)
        with pytest.raises(InvalidParameterError, match=message):
            eigenfunction_table(shallow, n, x)
    with pytest.raises(InvalidParameterError, match=re.escape(
            "n_levels=4 outside the bound levels 1..3")):
        WavePacketModel(shallow, split_even_odd(su2_coefficients(1.0, 3)), x)


def test_rayleigh_quotient_energies():
    x = np.linspace(-0.25, 0.45, 4096)
    dx = x[1] - x[0]
    v = morse_potential(I2, x)
    mass = I2.effective_mass
    for m in (0, 5, 12, 23):
        psi = evaluate_eigenfunction(I2, m, x)
        curvature = np.zeros_like(psi)
        curvature[1:-1] = (psi[2:] - 2.0 * psi[1:-1] + psi[:-2]) / dx**2
        rayleigh = np.trapezoid(psi * (-curvature / (2.0 * mass) + v * psi), x)
        assert rayleigh == pytest.approx(energy(I2, m), rel=1e-3)


def test_potential_minimum():
    x = np.linspace(-0.25, 0.45, 1001)
    v = morse_potential(I2, x)
    assert v.min() == pytest.approx(-I2.D, rel=1e-4)
    assert v[0] > 0  # repulsive wall


@settings(max_examples=50, deadline=None)
@given(
    beta=st.floats(0.5, 10.0),
    mu=st.floats(1.0, 1e6),
    r0=st.floats(0.5, 10.0),
    D=st.floats(1e-3, 1.0),
)
def test_derived_quantities_consistent(beta, mu, r0, D):
    depth = r0 * math.sqrt(2.0 * mu * D) / beta
    if depth <= 0.6:
        return
    params = MorseParams(beta=beta, mu=mu, r0=r0, D=D)
    assert params.depth == pytest.approx(depth, rel=1e-12)
    n = params.bound_state_count
    assert n == math.floor(params.depth - 0.5) + 1
    e = energies(params, min(n, 32))
    assert np.all(np.diff(e) > 0)
    t_cl, t_rev = characteristic_times(params)
    assert t_rev / t_cl == pytest.approx(2.0 * params.depth - 1.0, rel=1e-12)
