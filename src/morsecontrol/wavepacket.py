"""Phase-locked vibrational wave packets built from Morse bound states.

A binomial SU(2)-style coherent ladder over the lowest levels is split into
even-level and odd-level subsidiary packets, each renormalized to unit norm.
The control phase theta mixes them coherently:

    state(theta, t) = 0.5*(1 - exp(i*theta))*even_packet(t)
                    + 0.5*(1 + exp(i*theta))*odd_packet(t)

so theta = 0 returns the odd packet and theta = pi the even one, and the
norm is exactly 1 for every theta because the two packets are orthogonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSplitError, GridError, InvalidParameterError
from .morse import MorseParams, _check_uniform, eigenfunction_table, energies


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise InvalidParameterError(f"{name}={value!r} is not finite")


def su2_coefficients(alpha: float, n_max: int) -> "CoefficientSet":
    """Binomial coherent-ladder amplitudes sqrt(C(n_max, m)) * alpha**m / (1+alpha**2)**(n_max/2).

    Computed in log space so the binomials stay finite for any n_max, then
    renormalized so the squared amplitudes sum to one exactly.
    """
    if n_max < 1:
        raise InvalidParameterError(f"n_max must be >= 1, got {n_max}")
    _check_finite("alpha", alpha)
    m = np.arange(n_max + 1)
    if alpha == 0.0:
        c = np.zeros(n_max + 1)
        c[0] = 1.0
    else:
        log_fact = np.array([math.lgamma(k + 1) for k in m])
        log_binom = 0.5 * (log_fact[n_max] - log_fact - log_fact[::-1])
        log_norm = math.log1p(alpha * alpha)
        if not math.isfinite(log_norm):  # alpha**2 overflows above about 1.3e154
            raise InvalidParameterError(f"alpha={alpha!r} overflows the ladder amplitudes")
        log_c = log_binom + m * math.log(abs(alpha)) - 0.5 * n_max * log_norm
        sign = np.where(m % 2 == 1, math.copysign(1.0, alpha), 1.0)
        c = sign * np.exp(log_c - log_c.max())
    c = c / math.sqrt(float(np.sum(c * c)))
    return CoefficientSet(alpha=alpha, n_max=n_max, amplitudes=c)


def split_even_odd(coeffs: "CoefficientSet") -> "CoefficientSet":
    """Restrict the ladder to even / odd levels and renormalize each subset."""
    c = coeffs.amplitudes
    total = float(np.sum(c * c))
    if not abs(total - 1.0) <= 1e-9:  # also a NaN total
        raise InvalidParameterError("amplitudes must be normalized before splitting")
    even = c[0::2]
    odd = c[1::2]
    w_even = float(np.sum(even * even))
    w_odd = float(np.sum(odd * odd))
    if not (w_even > 0.0 and w_odd > 0.0):
        raise DegenerateSplitError(
            f"cannot split: even weight {w_even:.3g}, odd weight {w_odd:.3g}"
        )
    return CoefficientSet(
        alpha=coeffs.alpha,
        n_max=coeffs.n_max,
        amplitudes=c,
        even_amplitudes=even / math.sqrt(w_even),
        odd_amplitudes=odd / math.sqrt(w_odd),
    )


@dataclass(frozen=True, eq=False)
class CoefficientSet:
    """Coherent-ladder amplitudes and their normalized parity subsets."""

    alpha: float
    n_max: int
    amplitudes: np.ndarray
    even_amplitudes: np.ndarray | None = None
    odd_amplitudes: np.ndarray | None = None

    @property
    def is_split(self) -> bool:
        return self.even_amplitudes is not None and self.odd_amplitudes is not None


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
    """Standard deviation from the zeroth, first and second moments of a state's
    density or spectrum; non-finite moments name a non-finite sample."""
    if not math.isfinite(norm + first + second):
        raise InvalidParameterError("state has non-finite samples")
    if norm == 0.0:
        raise InvalidParameterError("state has zero norm")
    mean = first / norm
    return math.sqrt(max(second / norm - mean * mean, 0.0))


def _products(first: np.ndarray, second: np.ndarray) -> tuple[np.ndarray, ...]:
    """|F|^2, |S|^2, Re(conj(F)*S) and Im(conj(F)*S)."""
    cross = np.conj(first) * second
    return np.abs(first) ** 2, np.abs(second) ** 2, cross.real, cross.imag


@dataclass(frozen=True, eq=False)
class StateGrid:
    """Complex wave-function samples on a uniform position grid.

    theta is the control phase (None for a bare parity packet), t the
    evolution time in atomic units.
    """

    x: np.ndarray
    psi: np.ndarray
    theta: float | None
    t: float
    #: (position spread, momentum spread) of a state from
    #: WavePacketModel.phase_locked, set when it is built; None for any other.
    _spreads: tuple[float, float] | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.x.ndim != 1 or self.x.shape != self.psi.shape:
            raise GridError("x and psi must be 1-d arrays of equal length")
        _check_uniform(self.x)

    @classmethod
    def _on_checked_grid(cls, x: np.ndarray, psi: np.ndarray, theta: float | None,
                         t: float, spreads: tuple | None = None) -> "StateGrid":
        """A state on a grid that has passed the checks of __post_init__
        already, with psi of the same length, built without repeating them."""
        state = object.__new__(cls)
        for name, value in (("x", x), ("psi", psi), ("theta", theta), ("t", t),
                            ("_spreads", spreads)):
            object.__setattr__(state, name, value)
        return state

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def density(self) -> np.ndarray:
        density = np.abs(self.psi)
        return np.square(density, out=density)

    def norm(self) -> float:
        """Quadrature norm integral of |psi|^2."""
        return float(np.trapezoid(self.density, self.x))


def _state_spectrum(state: StateGrid, position: bool = False
                    ) -> tuple[float, float, float | None, np.ndarray]:
    """(mean, standard deviation) of the state's momentum distribution via
    DFT, its position spread when ``position`` (None otherwise), and the
    squared DFT spectrum |fft(psi)|^2, from one ``_moment_rows`` call.

    The one formula of every grid state's momentum spread.
    """
    # a NaN or inf sample spreads to every bin of the spectrum, and so to its
    # sums, which _spread names; numpy's warnings on the way would come first
    with np.errstate(invalid="ignore", over="ignore"):
        power = np.abs(np.fft.fft(state.psi)) ** 2
        rows = _moment_rows(state.x, (state.density,) if position else (), (power,))
    spread_x = _spread(*(row[0] for row in rows[:3])) if position else None
    total, first, second = (row[0] for row in rows[3:])
    spread_p = _spread(total, first, second)
    return first / total, spread_p, spread_x, power


def spectral_moments(state: StateGrid) -> tuple[float, float]:
    """(mean, standard deviation) of the state's momentum distribution via DFT."""
    return _state_spectrum(state)[:2]


def uncertainties(state: StateGrid) -> tuple[float, float]:
    """(position spread, momentum spread) of a normalized state.

    The position route is direct quadrature; the momentum spread is that of
    ``spectral_moments``, which sums the squared DFT spectrum, exact by
    discrete Parseval. Both come from one pass over the grid. A state from
    ``WavePacketModel.phase_locked`` carries the two spreads already, from
    the per-time moments of its parity packets.
    """
    if state._spreads is not None:
        return state._spreads
    _, spread_p, spread_x, _ = _state_spectrum(state, position=True)
    return spread_x, spread_p


def _phase_weights(theta: float) -> tuple[float, complex, complex]:
    """theta reduced mod 2*pi, and the weights (a, b) of the even and odd
    packets at it, from one exp(i*theta)."""
    _check_finite("theta", theta)
    th = float(theta) % (2.0 * math.pi)
    turn = np.exp(1j * th)
    return th, 0.5 * (1.0 - turn), 0.5 * (1.0 + turn)


#: The paper's six snapshots, (label, theta, t_frac, copies): the cat at t = 0,
#: the compass states at T_rev/8 and T_rev/16 and the two eight-fold states at
#: T_rev/16. ``copies`` counts the fractional-revival copies of the packet
#: (Averbukh & Perelman, Phys. Lett. A 139, 449 (1989)).
PAPER_STATES = (
    ("cat t=0", math.pi / 4, 0.0, 2),
    ("compass T/8", math.pi / 2, 0.125, 4),
    ("diagonal compass T/16", 0.0, 0.0625, 4),
    ("plain compass T/16", math.pi, 0.0625, 4),
    ("eightfold T/16 pi/4", math.pi / 4, 0.0625, 8),
    ("eightfold T/16 pi/2", math.pi / 2, 0.0625, 8),
)


class WavePacketModel:
    """Eigenbasis expansion engine for the phase-locked packet family.

    Checks the position grid once, as StateGrid would, and keeps a
    read-only copy of it as ``x``; the states it builds share that copy and
    skip the checks. Precomputes the real eigenfunction table and the level
    energies once.
    Every state at time t mixes the even and odd packets at t, which the
    model keeps for the last t it was asked for, read-only: a carpet or a
    theta scan at one time expands each packet once. Each packet sums its
    own parity's levels with np.einsum, which calls no BLAS. With the
    packets the model keeps the moments of their products, from which
    ``phase_locked`` gives each state its spreads.
    """

    def __init__(self, params: MorseParams, coeffs: CoefficientSet, x_grid: np.ndarray):
        if not coeffs.is_split:
            coeffs = split_even_odd(coeffs)
        n_levels = coeffs.n_max + 1
        x = np.array(x_grid, dtype=float)
        _check_uniform(x)
        x.flags.writeable = False
        self.params = params
        self.coeffs = coeffs
        self.x = x
        self.table = eigenfunction_table(params, n_levels, self.x)
        self.energies = energies(params, n_levels)
        self._parities = {"even": (slice(0, None, 2), coeffs.even_amplitudes),
                          "odd": (slice(1, None, 2), coeffs.odd_amplitudes)}
        self._packets_at: tuple[float, tuple] | None = None

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    def _packet(self, parity: str, t: float) -> np.ndarray:
        levels, amplitudes = self._parities[parity]
        phased = amplitudes * np.exp(-1j * self.energies[levels] * t)
        table = self.table[levels]
        psi = np.empty(self.x.size, dtype=np.complex128)
        # Fixed summation order over levels for bit-reproducibility.
        np.einsum("k,kx->x", np.ascontiguousarray(phased.real), table, out=psi.real)
        np.einsum("k,kx->x", np.ascontiguousarray(phased.imag), table, out=psi.imag)
        psi.flags.writeable = False
        return psi

    def _packets(self, t: float) -> tuple[np.ndarray, np.ndarray, tuple]:
        """(even, odd, moments) at t, from the one-entry cache: the two packets
        and the ``_moment_rows`` of their products and of their DFTs' products."""
        cached = self._packets_at
        if cached is None or cached[0] != t:
            _check_finite("t", t)
            even, odd = self._packet("even", t), self._packet("odd", t)
            moments = _moment_rows(self.x, _products(even, odd),
                                   _products(np.fft.fft(even), np.fft.fft(odd)))
            cached = (float(t), (even, odd, moments))
            self._packets_at = cached
        return cached[1]

    def subsidiary(self, parity: str, t: float) -> StateGrid:
        """Unit-norm packet restricted to one parity class of levels; psi is read-only."""
        if parity not in self._parities:
            raise InvalidParameterError(f"parity must be 'even' or 'odd', got {parity!r}")
        even, odd, _ = self._packets(t)
        return StateGrid._on_checked_grid(self.x, even if parity == "even" else odd, None, t)

    def _mix(self, theta: float, t: float, psi: np.ndarray | None = None,
             scratch: np.ndarray | None = None) -> tuple[float, complex, complex, np.ndarray]:
        """theta reduced mod 2*pi, the weights (a, b), and psi = a*even + b*odd,
        written into the complex grid-length buffers ``psi`` and ``scratch``
        when they are given."""
        th, a, b = _phase_weights(theta)
        even, odd, _ = self._packets(t)
        psi = np.multiply(a, even, out=psi)
        psi += np.multiply(b, odd, out=scratch)
        return th, a, b, psi

    def phase_locked(self, theta: float, t: float) -> StateGrid:
        """Coherent mix of the parity packets at control phase theta.

        theta is reduced mod 2*pi; the analytic norm is exactly 1. psi is
        read-only. The state carries its (position, momentum) spreads: each
        moment of |a*E + b*O|^2 is |a|^2*EE + |b|^2*OO + 2*Re(c*EO) with
        c = conj(a)*b, over the moments of the packets' products at t, and
        so is each moment of its spectrum. These are the sums of the
        state's own samples, regrouped, so they agree with them to rounding.
        """
        th, a, b, psi = self._mix(theta, t)
        psi.flags.writeable = False
        a, b = complex(a), complex(b)
        c = a.conjugate() * b
        aa, bb = abs(a) ** 2, abs(b) ** 2
        moments = [aa * ee + bb * oo + 2.0 * (c.real * re - c.imag * im)
                   for ee, oo, re, im in self._packets(t)[2]]
        return StateGrid._on_checked_grid(
            self.x, psi, th, t, (_spread(*moments[:3]), _spread(*moments[3:])))

    def amplitudes(self, theta: float, t: float) -> np.ndarray:
        """The level amplitudes c_m of ``phase_locked(theta, t)``, in level order.

        c_m is a*e_k for even m = 2k and b*o_k for odd m = 2k + 1, times
        exp(-i*E_m*t), where e and o are the normalized parity amplitudes and
        (a, b) the packet weights of ``phase_locked``. The state is
        sum_m c_m*phi_m(x) over the real eigenfunctions phi_m (``table``);
        ``phase_locked`` samples it through the two packets instead.
        """
        _, a, b = _phase_weights(theta)
        _check_finite("t", t)
        c = np.empty(self.energies.size, dtype=np.complex128)
        for weight, parity in ((a, "even"), (b, "odd")):
            levels, amplitudes = self._parities[parity]
            c[levels] = weight * amplitudes
        return c * np.exp(-1j * self.energies * t)

    def density(self, theta: float, t: float) -> np.ndarray:
        """|state(theta, t)|^2 on the position grid, without building the state."""
        return self._density_into(np.empty(self.x.size), theta, t)

    def _density_into(self, out: np.ndarray, theta: float, t: float,
                      psi: np.ndarray | None = None,
                      scratch: np.ndarray | None = None) -> np.ndarray:
        """``density(theta, t)`` written into ``out``, with ``psi`` and
        ``scratch`` as the complex buffers of ``_mix`` when given."""
        np.abs(self._mix(theta, t, psi, scratch)[3], out=out)
        return np.square(out, out=out)

    def density_decomposition(self, theta: float, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Even, odd and cross contributions whose pointwise sum is the density.

        With the packet weights (a, b) of ``phase_locked`` they are
        |a|^2*|even|^2, |b|^2*|odd|^2 and 2*Re(conj(a)*b*conj(even)*odd),
        where conj(a)*b = i*sin(theta)/2.
        """
        _, a, b = _phase_weights(theta)
        even, odd, _ = self._packets(t)
        return (abs(a) ** 2 * np.abs(even) ** 2, abs(b) ** 2 * np.abs(odd) ** 2,
                2.0 * np.real(np.conj(a) * b * np.conj(even) * odd))
