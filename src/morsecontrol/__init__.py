"""Phase-controlled Morse wave packets, Wigner distributions and
sub-Planck structure metrics for a model diatomic molecule."""

__version__ = "0.1.0"

from .analysis import (
    CarpetGrid,
    ScanResult,
    carpet,
    displaced_state,
    fringe_amplitude,
    momentum_density,
    sensitivity_scan,
    tile_area,
    uncertainties,
)
from .config import RunConfig, parse_config
from .gridfile import GridFile, read_grid, write_grid
from .morse import (
    ATOMIC_TIME_SECONDS,
    I2,
    Eigenstate,
    MorseParams,
    characteristic_times,
    depth_parameter,
    eigenfunction_table,
    eigenstate,
    energies,
    energy,
    evaluate_eigenfunction,
    morse_potential,
)
from .wavepacket import (
    CoefficientSet,
    StateGrid,
    WavePacketModel,
    phase_circle_coeffs,
    split_even_odd,
    su2_coefficients,
)
from .wigner import (
    WignerGrid,
    auto_momentum_grid,
    lobe_count,
    marginals,
    purity,
    spectral_moments,
    wigner_overlap,
    wigner_transform,
)

__all__ = [
    "ATOMIC_TIME_SECONDS",
    "CarpetGrid",
    "CoefficientSet",
    "Eigenstate",
    "GridFile",
    "I2",
    "MorseParams",
    "RunConfig",
    "ScanResult",
    "StateGrid",
    "WavePacketModel",
    "WignerGrid",
    "__version__",
    "auto_momentum_grid",
    "carpet",
    "characteristic_times",
    "depth_parameter",
    "displaced_state",
    "eigenfunction_table",
    "eigenstate",
    "energies",
    "energy",
    "evaluate_eigenfunction",
    "fringe_amplitude",
    "lobe_count",
    "marginals",
    "momentum_density",
    "morse_potential",
    "parse_config",
    "phase_circle_coeffs",
    "purity",
    "read_grid",
    "sensitivity_scan",
    "spectral_moments",
    "split_even_odd",
    "su2_coefficients",
    "tile_area",
    "uncertainties",
    "wigner_overlap",
    "wigner_transform",
    "write_grid",
]
