import math

import numpy as np
import pytest

from morsecontrol import (I2, WavePacketModel, characteristic_times, split_even_odd,
                          su2_coefficients, wigner_transform)
from morsecontrol.wigner import _support_halfwidth

DEFAULT_NX = 2048


@pytest.fixture(scope="session")
def x_grid():
    return np.linspace(-0.25, 0.45, DEFAULT_NX)


@pytest.fixture(scope="session")
def coeffs():
    return split_even_odd(su2_coefficients(2.0, 23))


@pytest.fixture(scope="session")
def model(x_grid, coeffs):
    return WavePacketModel(I2, coeffs, x_grid)


@pytest.fixture(scope="session")
def times():
    t_cl, t_rev = characteristic_times(I2)
    return t_cl, t_rev


@pytest.fixture(scope="session")
def classification_states(model, times):
    """The six acceptance states, label -> (state, expected lobe count)."""
    t_rev = times[1]
    cases = {
        "cat t=0": (math.pi / 4, 0.0, 2),
        "compass T/8": (math.pi / 2, t_rev / 8, 4),
        "diagonal compass T/16": (0.0, t_rev / 16, 4),
        "plain compass T/16": (math.pi, t_rev / 16, 4),
        "eightfold T/16 pi/4": (math.pi / 4, t_rev / 16, 8),
        "eightfold T/16 pi/2": (math.pi / 2, t_rev / 16, 8),
    }
    return {label: (model.phase_locked(theta, t), expected)
            for label, (theta, t, expected) in cases.items()}


@pytest.fixture(scope="session")
def classification_wigner(classification_states):
    return {label: wigner_transform(state)
            for label, (state, _) in classification_states.items()}


def _direct_wigner(state, p):
    """Wigner values by the explicit phase-matrix sum over x', row by row.

    The same quadrature as ``wigner_transform`` (same support, lags and
    prefactor) without the chirp-z transform: the oracle for the fast path.
    """
    psi = state.psi.astype(np.complex128)
    nx, dx = psi.size, state.dx
    half = _support_halfwidth(psi)
    offsets = dx * np.arange(-half, half + 1)
    padded = np.zeros(nx + 2 * half, dtype=np.complex128)
    padded[half:half + nx] = psi
    phase = np.exp(-2j * np.outer(offsets, np.asarray(p, dtype=float)))
    rows = []
    for i in range(nx):
        seg = padded[i:i + 2 * half + 1]
        corr = np.conj(seg[::-1]) * seg
        rows.append(np.real(corr @ phase) * (dx / math.pi))
    return np.vstack(rows)


@pytest.fixture(scope="session")
def direct_wigner():
    return _direct_wigner
