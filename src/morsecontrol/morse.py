"""Morse-oscillator bound states in a dimensionless stretch coordinate.

The molecule is described by V(x) = D*(exp(-2*beta*x) - 2*exp(-beta*x)) with
x = r/r0 - 1, so the kinetic term carries the effective mass mu*r0**2. All
quantities are in atomic units (hbar = 1). The well supports finitely many
bound states, controlled by the dimensionless depth parameter
r0*sqrt(2*mu*D)/beta.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridError, InvalidParameterError, TruncationWarning

#: One atomic unit of time, in seconds (CODATA).
ATOMIC_TIME_SECONDS = 2.4188843265857e-17

#: Smallest grid on which quadrature is considered meaningful.
MIN_GRID_POINTS = 16

#: Warn when a grid captures less than 1 - NORM_CAPTURE_TOL of an eigenstate.
NORM_CAPTURE_TOL = 1e-6


def depth_parameter(beta: float, mu: float, r0: float, D: float) -> float:
    """Dimensionless depth parameter r0*sqrt(2*mu*D)/beta of the well.

    Must exceed 1/2 for at least one bound state to exist.
    """
    for name, value in (("beta", beta), ("mu", mu), ("r0", r0), ("D", D)):
        if not value > 0:
            raise InvalidParameterError(f"{name} must be positive, got {value!r}")
    return r0 * math.sqrt(2.0 * mu * D) / beta


@dataclass(frozen=True, eq=False)
class MorseParams:
    """Physical constants of the molecule plus derived model quantities.

    beta: dimensionless steepness of the exponential wall
    mu:   reduced mass, atomic units
    r0:   equilibrium internuclear distance, atomic units
    D:    dissociation energy, atomic units
    depth: their dimensionless depth parameter, set and checked at construction
    """

    beta: float
    mu: float
    r0: float
    D: float

    def __post_init__(self) -> None:
        depth = depth_parameter(self.beta, self.mu, self.r0, self.D)
        if depth <= 0.5:
            raise InvalidParameterError(
                f"depth parameter {depth:.6g} <= 1/2: the well supports no bound state"
            )
        # the energies and the revival time take its square
        if not math.isfinite(depth * depth):
            raise InvalidParameterError(f"depth parameter {depth:.6g} overflows when squared")
        object.__setattr__(self, "depth", depth)

    @cached_property
    def effective_mass(self) -> float:
        """Mass conjugate to the dimensionless coordinate, mu*r0**2."""
        return self.mu * self.r0 ** 2

    @property
    def bound_state_count(self) -> int:
        return int(math.floor(self.depth - 0.5)) + 1

    @property
    def max_level(self) -> int:
        return self.bound_state_count - 1


#: Iodine ground-state parameters used throughout as defaults.
I2 = MorseParams(beta=4.954, mu=1.156e5, r0=5.03, D=0.057)


@dataclass(frozen=True)
class Eigenstate:
    """A single bound level: index, energy, and its decay exponent."""

    m: int
    energy: float
    exponent: float  # depth - m - 1/2, positive for every bound state


def _check_level(params: MorseParams, m: int) -> None:
    if not isinstance(m, (int, np.integer)) or m < 0 or m > params.max_level:
        raise InvalidParameterError(
            f"level m={m!r} outside bound range 0..{params.max_level}"
        )


def _check_levels(params: MorseParams, n_levels: int) -> None:
    if not 1 <= n_levels <= params.bound_state_count:
        raise InvalidParameterError(
            f"n_levels={n_levels} outside the bound levels 1..{params.bound_state_count}")


def energy(params: MorseParams, m: int) -> float:
    """Bound-state energy -(D/depth**2)*(depth - m - 1/2)**2."""
    _check_level(params, m)
    lam = params.depth
    return -(params.D / lam ** 2) * (lam - m - 0.5) ** 2


def eigenstate(params: MorseParams, m: int) -> Eigenstate:
    return Eigenstate(m=m, energy=energy(params, m), exponent=params.depth - m - 0.5)


def energies(params: MorseParams, n_levels: int) -> np.ndarray:
    """Energies of the lowest ``n_levels`` bound states."""
    _check_levels(params, n_levels)
    return np.array([energy(params, m) for m in range(n_levels)])


def characteristic_times(params: MorseParams) -> tuple[float, float]:
    """(classical period, revival time) in atomic units.

    The revival time is 2*pi*depth**2/D and the classical period is the
    revival time divided by (2*depth - 1), exactly.
    """
    lam = params.depth
    t_rev = 2.0 * math.pi * lam ** 2 / params.D
    t_cl = t_rev / (2.0 * lam - 1.0)
    return t_cl, t_rev


def morse_potential(params: MorseParams, x: np.ndarray) -> np.ndarray:
    """V(x) = D*(exp(-2*beta*x) - 2*exp(-beta*x)); minimum -D at x = 0."""
    e = np.exp(-params.beta * np.asarray(x, dtype=float))
    return params.D * (e * e - 2.0 * e)


def _check_uniform(x: np.ndarray) -> np.ndarray:
    """The steps ``x[1:] - x[:-1]`` (``np.diff(x)``) of the grid x; raise
    GridError unless x is 1-d, strictly increasing, finite and uniformly
    spaced."""
    if x.ndim != 1:
        raise GridError("grid must be a 1-d array")
    steps = x[1:] - x[:-1]
    # A NaN step makes the minimum NaN, which is not > 0.
    if x.size < 2 or not (low := steps.min()) > 0:
        raise GridError("grid must be strictly increasing")
    # Increasing, so finite if both ends are.
    if not (math.isfinite(x[0]) and math.isfinite(x[-1])):
        raise GridError("grid must be finite")
    # fl(s - s0) is monotone in s, so the extreme steps decide |s - s0| <= tol.
    s0 = steps[0]
    tol = 1e-9 * s0
    if not (steps.max() - s0 <= tol and s0 - low <= tol):
        raise GridError("grid must be uniformly spaced")
    return steps


def _check_grid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < MIN_GRID_POINTS:
        raise GridError(f"grid needs at least {MIN_GRID_POINTS} points, got {x.size}")
    _check_uniform(x)
    return x


def _laguerre_recurrence(m: int, order: float, xi: np.ndarray) -> np.ndarray:
    """Associated Laguerre polynomial L_m^(order)(xi) by the three-term recurrence.

    Benign for the small m used here; values stay well inside float64 range
    for any xi the bound-state prefactor does not already kill.
    """
    prev, current = np.zeros_like(xi), np.ones_like(xi)  # L_-1 and L_0
    for k in range(1, m + 1):
        prev, current = current, (
            (2.0 * k - 1.0 + order - xi) * current - (k - 1.0 + order) * prev
        ) / k
    return current


def _analytic_eigenfunction(params: MorseParams, m: int, x: np.ndarray) -> np.ndarray:
    """psi_m with its analytic normalization, assembled in log space.

    The normalization and the power/exponential prefactor are combined as
    logarithms (``math.lgamma`` for the norm), the Laguerre factor comes from the
    three-term recurrence, and the exponential is applied only at the end.
    At depth ~ 117 the individual gamma factors overflow by hundreds of
    orders of magnitude; the combined logarithm does not.
    """
    lam = params.depth
    s = lam - m - 0.5
    order = 2.0 * s
    log_norm = 0.5 * (
        math.log(params.beta) + math.log(order) + math.lgamma(m + 1) - math.lgamma(2.0 * lam - m)
    )
    # Far left of the well exp(-beta*x) overflows, far right it underflows to
    # 0; log_pre is then NaN or -inf there, and the alive mask below zeroes
    # those samples.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        xi = 2.0 * lam * np.exp(-params.beta * x)
        log_pre = log_norm + s * np.log(xi) - 0.5 * xi

    # Where the prefactor underflows to zero the Laguerre value is irrelevant;
    # clip xi there so the recurrence cannot overflow on extreme grids.
    alive = log_pre > -745.0
    xi_safe = np.where(alive, xi, 2.0 * lam)
    lag = _laguerre_recurrence(m, order, xi_safe)
    return np.where(alive, lag * np.exp(np.where(alive, log_pre, -745.0)), 0.0)


def evaluate_eigenfunction(params: MorseParams, m: int, x_grid: np.ndarray) -> np.ndarray:
    """Bound eigenfunction psi_m sampled on ``x_grid``, unit trapezoid norm.

    Warns with TruncationWarning when the grid captures less than
    1 - 1e-6 of the analytic norm, then renormalizes on the grid.
    """
    return eigenfunction_with_capture(params, m, x_grid)[0]


def eigenfunction_with_capture(params: MorseParams, m: int,
                               x_grid: np.ndarray) -> tuple[np.ndarray, float]:
    """(evaluate_eigenfunction(...), fraction of the analytic norm of psi_m the
    grid captures) from one evaluation; the fraction is 1 on an adequate grid."""
    _check_level(params, m)
    x = _check_grid(x_grid)
    psi = _analytic_eigenfunction(params, m, x)
    captured = float(np.trapezoid(psi * psi, x))
    if captured <= 0.0:
        raise GridError(f"grid captures no weight of eigenfunction m={m}")
    if captured < 1.0 - NORM_CAPTURE_TOL:
        warnings.warn(
            TruncationWarning(
                f"grid captures only {captured:.12g} of |psi_{m}|^2; widen the range"
            )
        )
    return psi / math.sqrt(captured), captured


def eigenfunction_table(params: MorseParams, n_levels: int, x_grid: np.ndarray) -> np.ndarray:
    """Stacked eigenfunctions, shape (n_levels, len(x_grid))."""
    _check_levels(params, n_levels)
    x = _check_grid(x_grid)
    return np.stack([evaluate_eigenfunction(params, m, x) for m in range(n_levels)])
