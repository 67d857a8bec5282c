"""Chirp z-transform by Bluestein's algorithm on numpy.fft.

X[k] = sum_j x[j] * a**-j * w**(j*k) for k < m, evaluated as a circular
convolution with the chirp w**(j**2/2) (Rabiner, Schafer & Rader, "The chirp
z-transform algorithm", Bell Syst. Tech. J. 48, 1249 (1969); Bluestein,
1970). The chirps, FFT length and operation order are those of
scipy.signal.CZT, so the two agree bit for bit; keeping the transform here
spares every process the scipy.signal import.
"""

from __future__ import annotations

import numpy as np


def next_fast_len(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c * 7^d * 11^e >= n: a fast complex FFT length."""
    n = max(n, 1)  # 0 would never reduce to 1
    while True:
        rest = n
        for factor in (2, 3, 5, 7, 11):
            while rest % factor == 0:
                rest //= factor
        if rest == 1:
            return n
        n += 1


class CZT:
    """Callable chirp z-transform of length-``n`` signals onto ``m`` points
    a * w**-k, applied along the last axis."""

    def __init__(self, n: int, m: int, w: complex, a: complex):
        k = np.arange(max(m, n), dtype=np.min_scalar_type(-max(m, n) ** 2))
        wk2 = w ** (k ** 2 / 2.0)
        self.n, self.m = n, m
        #: FFT length; the last axis of a ``work`` array
        self.nfft = next_fast_len(n + m - 1)
        self._awk2 = a ** -k[:n] * wk2[:n]
        self._fwk2 = np.fft.fft(1 / np.hstack((wk2[n - 1:0:-1], wk2[:m])), self.nfft)
        self._wk2 = wk2[:m]

    def __call__(self, x: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
        """The transform of ``x`` along its last axis.

        ``work``, a complex128 array of shape x.shape[:-1] + (nfft,), holds
        the FFTs in place when given, and the result is a view into it;
        otherwise a new one is allocated. The values are the same either way.
        """
        x = np.asarray(x)
        if x.shape[-1] != self.n:
            raise ValueError(f"CZT defined for length {self.n}, not {x.shape[-1]}")
        if work is None:
            work = np.empty(x.shape[:-1] + (self.nfft,), dtype=np.complex128)
        np.multiply(x, self._awk2, out=work[..., :self.n])
        work[..., self.n:] = 0.0
        np.fft.fft(work, out=work)
        np.multiply(self._fwk2, work, out=work)
        np.fft.ifft(work, out=work)
        y = work[..., self.n - 1:self.n + self.m - 1]
        return np.multiply(y, self._wk2, out=y)
