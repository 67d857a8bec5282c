import math

import numpy as np
import pytest
import scipy.fft
from scipy.signal import CZT as ScipyCZT

from morsecontrol import StateGrid, wigner_transform
from morsecontrol.czt import CZT, next_fast_len
from morsecontrol.wigner import ROW_BLOCK, _support_halfwidth


def test_next_fast_len_matches_scipy():
    for n in range(1, 5000):
        assert next_fast_len(n) == scipy.fft.next_fast_len(n), n


@pytest.mark.parametrize("n, m", [
    (1387, 512),  # lag length 2*half+1 of a desk-scale state onto the momentum grid
    (2048, 512),  # a whole desk-scale position grid (momentum_density)
    (1009, 512),  # prime length
    (221, 64),    # 13*17: not 11-smooth
])
def test_czt_bit_identical_to_scipy(n, m):
    rng = np.random.default_rng(n)
    x = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    dp, dx, p0 = 0.37, 3.4e-4, -95.0
    w = complex(np.exp(-2j * dp * dx))
    a = complex(np.exp(2j * p0 * dx))
    ours = CZT(n=n, m=m, w=w, a=a)
    theirs = ScipyCZT(n=n, m=m, w=w, a=a)
    for row in x:
        assert np.array_equal(ours(row), theirs(row))
    # a block of rows transforms exactly as the rows one by one
    assert np.array_equal(ours(x), np.stack([theirs(row) for row in x]))


def test_czt_rejects_wrong_length():
    with pytest.raises(ValueError, match="length 8"):
        CZT(n=8, m=4, w=1j, a=1.0)(np.ones(7))


def _per_pair_wigner(state, p):
    """The pair-by-pair scipy.signal.CZT evaluation the blocked transform must match.

    Rows 2k and 2k+1 go in as corr[2k] + 1j*corr[2k+1] and come out as the
    real and imaginary parts; an odd last row goes in alone.
    """
    psi = state.psi.astype(np.complex128)
    nx, dx = psi.size, state.dx
    half = _support_halfwidth(psi)
    offsets = dx * np.arange(-half, half + 1)
    padded = np.zeros(nx + 2 * half, dtype=np.complex128)
    padded[half:half + nx] = psi
    dp = float(p[1] - p[0])
    transform = ScipyCZT(n=offsets.size, m=p.size, w=complex(np.exp(-2j * dp * dx)),
                         a=complex(np.exp(2j * p[0] * dx)))
    tail_phase = np.exp(-2j * offsets[0] * p)

    def lag_product(i):
        seg = padded[i:i + 2 * half + 1]
        return np.conj(seg[::-1]) * seg

    rows = []
    for i in range(0, nx - 1, 2):
        both = tail_phase * transform(lag_product(i) + 1j * lag_product(i + 1))
        rows += [np.real(both) * (dx / math.pi), np.imag(both) * (dx / math.pi)]
    if nx % 2:
        rows.append(np.real(tail_phase * transform(lag_product(nx - 1))) * (dx / math.pi))
    return np.vstack(rows)


def test_blocked_wigner_equals_per_row_result():
    x = np.linspace(-8.0, 8.0, 203)
    assert x.size % (2 * ROW_BLOCK) != 0  # the last block is partial
    assert x.size % 2 == 1  # and the last row has no partner
    psi = (np.exp(-((x - 2.5) ** 2) / 1.96) + 0.6j * np.exp(-((x + 2.0) ** 2) / 1.96 + 1.3j * x))
    psi /= math.sqrt(float(np.trapezoid(np.abs(psi) ** 2, x)))
    state = StateGrid(x=x, psi=psi, theta=None, t=0.0)
    p = np.linspace(-5.0, 5.0, 96)
    w = wigner_transform(state, p)
    assert w.values.shape == (203, 96)
    assert np.array_equal(w.values, _per_pair_wigner(state, p))
