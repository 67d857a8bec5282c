import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsecontrol import (
    CoefficientSet,
    I2,
    StateGrid,
    WavePacketModel,
    carpet,
    split_even_odd,
    su2_coefficients,
)
from morsecontrol.errors import DegenerateSplitError, GridError, InvalidParameterError
from morsecontrol.wavepacket import _check_uniform


def test_symmetric_two_level_case():
    cs = su2_coefficients(1.0, 1)
    assert cs.amplitudes == pytest.approx([1 / math.sqrt(2)] * 2, rel=1e-14)


def test_zero_alpha_collapses_to_ground():
    cs = su2_coefficients(0.0, 5)
    expected = np.zeros(6)
    expected[0] = 1.0
    assert np.array_equal(cs.amplitudes, expected)


def test_amplitudes_normalized_and_peaked():
    cs = su2_coefficients(2.0, 23)
    assert np.sum(cs.amplitudes**2) == pytest.approx(1.0, abs=1e-12)
    # brute-force oracle: exact binomial weights over all levels
    pmf = np.array([math.comb(23, m) * 4.0**m / 5.0**23 for m in range(24)])
    assert int(np.argmax(cs.amplitudes**2)) == int(np.argmax(pmf)) == 19
    assert cs.amplitudes**2 == pytest.approx(pmf, rel=1e-10)


def test_negative_alpha_signs():
    cs = su2_coefficients(-2.0, 5)
    assert np.sum(cs.amplitudes**2) == pytest.approx(1.0, abs=1e-12)
    signs = np.sign(cs.amplitudes)
    assert np.array_equal(signs, [1, -1, 1, -1, 1, -1])


def test_split_renormalizes_each_parity():
    cs = split_even_odd(su2_coefficients(2.0, 23))
    assert np.sum(cs.even_amplitudes**2) == pytest.approx(1.0, abs=1e-12)
    assert np.sum(cs.odd_amplitudes**2) == pytest.approx(1.0, abs=1e-12)
    # pre-split parity weights against a direct sum of the binomial weights
    pmf = np.array([math.comb(23, m) * 4.0**m / 5.0**23 for m in range(24)])
    even_weight = float(np.sum(cs.amplitudes[0::2] ** 2))
    assert even_weight == pytest.approx(float(pmf[0::2].sum()), abs=1e-12)


def test_split_two_level_trivial():
    cs = split_even_odd(su2_coefficients(1.0, 1))
    assert cs.even_amplitudes == pytest.approx([1.0])
    assert cs.odd_amplitudes == pytest.approx([1.0])


def test_degenerate_split_rejected():
    with pytest.raises(DegenerateSplitError):
        split_even_odd(su2_coefficients(0.0, 5))


def test_split_requires_normalized_input():
    cs = su2_coefficients(2.0, 5)
    doubled = CoefficientSet(alpha=cs.alpha, n_max=cs.n_max, amplitudes=2.0 * cs.amplitudes)
    with pytest.raises(InvalidParameterError, match="normalized"):
        split_even_odd(doubled)


def test_split_rejects_nan_amplitudes():
    # a NaN total fails every comparison, so the checks must be stated as passes
    nan_ladder = CoefficientSet(alpha=1.0, n_max=3, amplitudes=np.array([np.nan, 0.5, 0.5, 0.5]))
    with pytest.raises(InvalidParameterError, match="normalized"):
        split_even_odd(nan_ladder)


def test_su2_rejects_degenerate_ladder():
    with pytest.raises(InvalidParameterError):
        su2_coefficients(2.0, 0)


def test_su2_names_non_finite_alpha():
    for alpha in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidParameterError, match=f"alpha={alpha!r} is not finite"):
            su2_coefficients(alpha, 5)


def test_model_rejects_more_levels_than_bound():
    from morsecontrol import MorseParams

    shallow = MorseParams(beta=1.0, mu=8.0, r0=1.0, D=0.5)  # few bound states
    cs = split_even_odd(su2_coefficients(1.0, 100))
    with pytest.raises(InvalidParameterError, match="bound"):
        WavePacketModel(shallow, cs, np.linspace(-0.6, 3.0, 256))


def test_subsidiary_real_at_t0(model):
    for parity in ("even", "odd"):
        state = model.subsidiary(parity, 0.0)
        assert np.abs(state.psi.imag).max() < 1e-14
        assert state.norm() == pytest.approx(1.0, abs=1e-9)


def test_subsidiary_parities_orthogonal(model, times):
    _, t_rev = times
    for t in (0.0, t_rev / 8):
        even = model.subsidiary("even", t)
        odd = model.subsidiary("odd", t)
        overlap = np.trapezoid(np.conj(even.psi) * odd.psi, model.x)
        assert abs(overlap) < 1e-6


def test_single_level_packet_is_stationary(x_grid):
    # one populated level per parity: survival probability is exactly flat
    amps = np.zeros(4)
    amps[2] = 1.0
    cs = CoefficientSet(
        alpha=0.0, n_max=3, amplitudes=amps,
        even_amplitudes=np.array([0.0, 1.0]), odd_amplitudes=np.array([0.0, 1.0]),
    )
    model = WavePacketModel(I2, cs, x_grid)
    base = model.subsidiary("even", 0.0)
    for t in (1e3, 1e5, 3e6):
        evolved = model.subsidiary("even", t)
        survival = abs(np.trapezoid(np.conj(base.psi) * evolved.psi, x_grid))
        assert survival == pytest.approx(1.0, abs=1e-9)


def test_phase_zero_gives_odd_packet(model, times):
    _, t_rev = times
    state = model.phase_locked(0.0, t_rev / 8)
    odd = model.subsidiary("odd", t_rev / 8)
    assert np.abs(state.psi - odd.psi).max() < 1e-12


def test_phase_pi_gives_even_packet(model, times):
    _, t_rev = times
    state = model.phase_locked(math.pi, t_rev / 8)
    even = model.subsidiary("even", t_rev / 8)
    assert np.abs(state.psi - even.psi).max() < 1e-12


def test_phase_reduced_mod_two_pi(model):
    a = model.phase_locked(0.3, 100.0)
    b = model.phase_locked(0.3 + 2.0 * math.pi, 100.0)
    assert b.theta == pytest.approx(0.3, abs=1e-14)
    assert np.abs(a.psi - b.psi).max() < 1e-13


def test_norm_over_phase_time_lattice(model, times):
    _, t_rev = times
    for theta in np.linspace(0.0, 2.0 * math.pi, 5):
        for t in np.linspace(0.0, t_rev, 5):
            assert model.phase_locked(theta, t).norm() == pytest.approx(1.0, abs=1e-6)


def test_density_pairwise_identity(model, times):
    _, t_rev = times
    t = t_rev / 8
    parity_sum = (np.abs(model.subsidiary("even", t).psi) ** 2
                  + np.abs(model.subsidiary("odd", t).psi) ** 2)
    for theta in (0.0, math.pi / 4, math.pi / 2):
        combined = model.density(theta, t) + model.density(theta + math.pi, t)
        assert np.abs(combined - parity_sum).max() < 1e-10


def test_decomposition_sums_to_density(model, times):
    _, t_rev = times
    for theta, t in ((0.3, t_rev / 8), (2.0, t_rev / 16), (5.5, 0.0)):
        even_part, odd_part, cross_part = model.density_decomposition(theta, t)
        assert np.abs(even_part + odd_part + cross_part - model.density(theta, t)).max() < 1e-10


def test_decomposition_coefficients_quarter_turn(model, times):
    _, t_rev = times
    t = t_rev / 8
    even_part, odd_part, cross_part = model.density_decomposition(math.pi / 2, t)
    even = np.abs(model.subsidiary("even", t).psi) ** 2
    odd = np.abs(model.subsidiary("odd", t).psi) ** 2
    assert np.abs(even_part - 0.5 * even).max() < 1e-12
    assert np.abs(odd_part - 0.5 * odd).max() < 1e-12
    assert np.abs(cross_part).max() > 0


def test_cross_part_flips_sign_across_pi(model, times):
    _, t_rev = times
    t = t_rev / 8
    for theta in (0.4, 1.0, 2.5):
        cross = model.density_decomposition(theta, t)[2]
        flipped = model.density_decomposition(theta + math.pi, t)[2]
        assert np.abs(cross + flipped).max() < 1e-12


def test_cross_part_vanishes_at_zero_phase(model, times):
    _, t_rev = times
    cross = model.density_decomposition(0.0, t_rev / 8)[2]
    assert np.abs(cross).max() == 0.0


def test_cross_part_integrates_to_zero(model):
    for theta in np.linspace(0.0, 2.0 * math.pi, 9):
        cross = model.density_decomposition(theta, 0.0)[2]
        assert abs(np.trapezoid(cross, model.x)) < 1e-8


def test_t0_global_phase_structure(model):
    # exp(-i*theta/2)*state(theta, 0) has real part cos(theta/2)*odd packet
    # and imaginary part -sin(theta/2)*even packet, each a real function
    even = model.subsidiary("even", 0.0).psi.real
    odd = model.subsidiary("odd", 0.0).psi.real
    for theta in (0.0, 0.7, math.pi / 2, 2.9, 4.4):
        aligned = model.phase_locked(theta, 0.0).psi * np.exp(-0.5j * theta)
        assert np.abs(aligned.real - math.cos(theta / 2) * odd).max() < 1e-12
        assert np.abs(aligned.imag + math.sin(theta / 2) * even).max() < 1e-12


@settings(max_examples=30, deadline=None)
@given(theta=st.floats(-10.0, 10.0), t_frac=st.floats(0.0, 1.0))
def test_norm_is_one_everywhere(model, times, theta, t_frac):
    _, t_rev = times
    state = model.phase_locked(theta, t_frac * t_rev)
    assert state.norm() == pytest.approx(1.0, abs=1e-6)


@settings(max_examples=30, deadline=None)
@given(alpha=st.floats(-5.0, 5.0), n_max=st.integers(1, 40))
def test_su2_always_normalized(alpha, n_max):
    cs = su2_coefficients(alpha, n_max)
    assert np.sum(cs.amplitudes**2) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(alpha=st.floats(0.05, 5.0), n_max=st.integers(2, 40))
def test_split_parities_unit_norm(alpha, n_max):
    cs = split_even_odd(su2_coefficients(alpha, n_max))
    assert np.sum(cs.even_amplitudes**2) == pytest.approx(1.0, abs=1e-12)
    assert np.sum(cs.odd_amplitudes**2) == pytest.approx(1.0, abs=1e-12)


def test_state_grid_validation():
    x = np.linspace(0.0, 1.0, 64)
    with pytest.raises(GridError):
        StateGrid(x=x, psi=np.zeros(32, complex), theta=None, t=0.0)
    warped = x**2
    with pytest.raises(GridError):
        StateGrid(x=warped, psi=np.zeros(64, complex), theta=None, t=0.0)
    for infinite in ([0.0, np.inf], [-np.inf, 0.0, np.inf], [0.0, 1.0, np.inf],
                     [-np.inf, 0.0], [-np.inf, np.inf]):
        with pytest.raises(GridError):
            StateGrid(x=np.array(infinite), psi=np.zeros(len(infinite), complex),
                      theta=None, t=0.0)


def test_state_grid_compares_shapes():
    # equal sizes are not enough: a (2, 32) psi on a 64-point x is refused here,
    # not later by numpy's broadcasting
    x = np.linspace(0.0, 1.0, 64)
    with pytest.raises(GridError, match="1-d arrays of equal length"):
        StateGrid(x=x, psi=np.zeros((2, 32), complex), theta=None, t=0.0)


def test_check_uniform_boundaries():
    # 1e-9 * s0 rounds to exactly 2**-20, and s0 +- 2**-20 are doubles
    s0, tol = 1e9 / 2**20, 2.0**-20
    assert 1e-9 * s0 == tol
    for last in (s0 + tol, s0 - tol):
        assert _check_uniform(np.array([-s0, 0.0, last])).tolist() == [s0, last]
    for last in (np.nextafter(s0 + tol, np.inf), np.nextafter(s0 - tol, 0.0)):
        with pytest.raises(GridError, match="grid must be uniformly spaced"):
            _check_uniform(np.array([-s0, 0.0, last]))
    nan_step = np.linspace(0.0, 1.0, 9)
    nan_step[4] = np.nan
    for bad, message in ((nan_step, "strictly increasing"),
                         (np.array([0.0]), "strictly increasing"),
                         (np.array([0.0, 1.0, np.inf]), "finite"),
                         (np.array([-np.inf, 0.0, 1.0]), "finite")):
        with pytest.raises(GridError, match=f"grid must be {message}"):
            _check_uniform(bad)


def test_model_checks_its_grid_once_and_keeps_it_read_only(model):
    x = np.linspace(2.0, 4.0, 256)
    for bad, message in ((x**2, "uniformly spaced"), (x[::-1], "strictly increasing"),
                         (np.append(x[:-1], np.inf), "finite"), (x.reshape(16, 16), "1-d array")):
        with pytest.raises(GridError, match=message):
            WavePacketModel(model.params, model.coeffs, bad)
    assert not model.x.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        model.x[0] = 0.0
    # the model's states share its checked grid instead of checking a copy
    assert model.phase_locked(0.3, 0.0).x is model.x
    assert model.subsidiary("even", 0.0).x is model.x


def test_density_equals_state_density(model, times):
    _, t_rev = times
    for theta in (0.0, 0.3, math.pi, 5.0, -1.0, 7.0):
        for t in (0.0, t_rev / 16, 0.37 * t_rev):
            assert np.array_equal(model.density(theta, t), model.phase_locked(theta, t).density)


def test_phase_locked_does_not_copy_table(model, times):
    # A new time expands both packets from views of the real table, so it
    # allocates about two packets and the state, not a copy of the table.
    _, t_rev = times
    model.phase_locked(0.4, t_rev / 8)
    tracemalloc.start()
    try:
        model.phase_locked(0.4, t_rev / 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < model.table.nbytes


def _mix_coefficients(theta):
    return 0.5 * (1.0 - np.exp(1j * theta)), 0.5 * (1.0 + np.exp(1j * theta))


def test_phase_locked_same_bytes_after_other_times(model, times):
    _, t_rev = times
    theta, t = 0.9, 0.37 * t_rev
    fresh = WavePacketModel(model.params, model.coeffs, model.x)
    first = fresh.phase_locked(theta, t).psi.tobytes()
    for other in (0.0, -0.0, t_rev / 8, t):
        fresh.phase_locked(1.3, other)
    assert fresh.phase_locked(theta, t).psi.tobytes() == first  # from the cache
    fresh.phase_locked(theta, t_rev / 8)
    again = fresh.phase_locked(theta, t).psi
    assert again.tobytes() == first  # expanded anew
    a, b = _mix_coefficients(theta)
    mixed = a * fresh.subsidiary("even", t).psi + b * fresh.subsidiary("odd", t).psi
    assert mixed.tobytes() == first
    assert (fresh.subsidiary("odd", 0.0).psi.tobytes()
            == WavePacketModel(model.params, model.coeffs, model.x).subsidiary("odd", -0.0).psi.tobytes())


def test_cached_packets_are_read_only(model, times):
    packet = model.subsidiary("even", times[1] / 8).psi
    with pytest.raises(ValueError, match="read-only"):
        packet[0] = 0.0


def test_phase_locked_psi_is_read_only(model, times):
    # its spreads come from its packets, so its samples must not change
    state = model.phase_locked(1.1, times[1] / 8)
    with pytest.raises(ValueError, match="read-only"):
        state.psi[0] = 0.0
    assert model.density(1.1, times[1] / 8).flags.writeable


def test_expansion_matches_the_complex_table_route(model, times):
    # the route before the einsum expansion: all 24 level weights times the
    # phases, contracted with a complex copy of the table
    _, t_rev = times
    table = model.table.astype(np.complex128)
    even = np.zeros(model.energies.size)
    even[0::2] = model.coeffs.even_amplitudes
    odd = np.zeros(model.energies.size)
    odd[1::2] = model.coeffs.odd_amplitudes
    for theta in (0.0, 0.7, math.pi, 4.0):
        a, b = _mix_coefficients(theta)
        for t in (0.0, t_rev / 16, 0.37 * t_rev, -t_rev / 8):
            old = ((a * even + b * odd) * np.exp(-1j * model.energies * t)) @ table
            new = model.phase_locked(theta, t).psi
            assert np.abs(new - old).max() <= 1e-14 * np.abs(old).max()


def test_level_amplitudes_sum_to_the_state(model, times):
    _, t_rev = times
    for theta in (0.0, 0.7, math.pi / 2, math.pi, 4.0, -1.0):
        for t in (0.0, t_rev / 16, t_rev / 8, 0.37 * t_rev, -t_rev / 8):
            c = model.amplitudes(theta, t)
            assert c.shape == (model.energies.size,)
            assert abs(float(np.sum(np.abs(c) ** 2)) - 1.0) <= 1e-14
            psi = model.phase_locked(theta, t).psi
            levels = c @ model.table.astype(np.complex128)
            assert np.abs(levels - psi).max() <= 1e-14 * np.abs(psi).max()


def test_density_mirror_phase_is_time_reversal(model, times):
    # real eigenfunctions: psi(theta, -t) = conj(psi(2*pi - theta, t))
    _, t_rev = times
    for theta in (0.3, math.pi / 4, 2.0, math.pi):
        for t in (t_rev / 16, t_rev / 8, 0.37 * t_rev):
            mirrored = model.density(2.0 * math.pi - theta, t)
            reversed_ = model.density(theta, -t)
            assert np.abs(mirrored - reversed_).max() <= 1e-14 * mirrored.max()


def test_subsidiary_unknown_parity(model):
    with pytest.raises(InvalidParameterError):
        model.subsidiary("mixed", 0.0)


def test_model_splits_an_unsplit_ladder(model, times):
    coeffs = su2_coefficients(2.0, 23)
    assert not coeffs.is_split
    unsplit = WavePacketModel(model.params, coeffs, model.x)
    split = WavePacketModel(model.params, split_even_odd(coeffs), model.x)
    for theta, t in ((0.0, 0.0), (math.pi / 4, times[1] / 16), (2.0, 0.37 * times[1])):
        assert np.array_equal(unsplit.phase_locked(theta, t).psi, split.phase_locked(theta, t).psi)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("name, call", [
    ("theta", lambda m, bad: m.phase_locked(bad, 0.0)),
    ("t", lambda m, bad: m.phase_locked(0.3, bad)),
    ("theta", lambda m, bad: m.density(bad, 0.0)),
    ("t", lambda m, bad: m.density(0.3, bad)),
    ("theta", lambda m, bad: m.amplitudes(bad, 0.0)),
    ("t", lambda m, bad: m.amplitudes(0.3, bad)),
    ("t", lambda m, bad: m.subsidiary("odd", bad)),
    ("theta", lambda m, bad: m.density_decomposition(bad, 0.0)),
    ("t", lambda m, bad: m.density_decomposition(0.3, bad)),
    ("t", lambda m, bad: carpet(m, bad, 9)),
], ids=["phase_locked-theta", "phase_locked-t", "density-theta", "density-t",
        "amplitudes-theta", "amplitudes-t", "subsidiary-t", "density_decomposition-theta",
        "density_decomposition-t", "carpet-t"])
def test_model_refuses_non_finite_theta_and_t(model, name, call, bad):
    # named where it enters, before any NaN sample or numpy warning
    with pytest.raises(InvalidParameterError, match=f"^{name}=.* is not finite"):
        call(model, bad)
    # the refused time is not cached
    assert np.isfinite(model.phase_locked(0.3, 0.0).psi).all()
