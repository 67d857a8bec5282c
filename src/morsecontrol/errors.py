"""Exception and warning types shared across the package."""


class InvalidParameterError(ValueError):
    """A physical parameter or level index is outside its allowed range."""


class GridError(ValueError):
    """A coordinate grid is unusable (too short, non-uniform, wrong shape)."""


class AliasingError(ValueError):
    """Momentum grid cannot represent the state's spectral content."""


class RangeAliasingError(AliasingError):
    """The momentum grid stops short of the state's spectral content."""


class SpacingAliasingError(AliasingError):
    """The position step is too coarse for exp(-2i*p*x') at the largest p."""


class DegenerateSplitError(ValueError):
    """Even/odd split requested but one parity class carries no weight."""


class TruncationError(ValueError):
    """An operation would push a non-negligible part of the state off the grid."""


class FormatError(ValueError):
    """A binary grid file is malformed or truncated."""


class ConfigError(ValueError):
    """A run configuration is unparsable or violates an invariant."""


class TruncationWarning(UserWarning):
    """Grid captures less of a wave function's norm than requested."""
