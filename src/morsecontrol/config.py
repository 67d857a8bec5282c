"""Run configuration: key=value files with defaults for the iodine molecule.

Lines are UTF-8 ``key=value`` pairs; ``#`` starts a comment. Unknown keys,
unparsable or non-finite values (nan, inf) and violated invariants raise
ConfigError naming the key and line. Angles accept ``pi`` expressions
("pi/8", "3pi/4", "2pi"); time fractions accept "a/b". ``build_model`` turns
a configuration into its packet model and ``momentum_grid`` gives a state
its configured momentum grid.
"""

from __future__ import annotations

import math
import re
from collections.abc import Mapping
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigError, RangeAliasingError, SpacingAliasingError
from .morse import I2, MorseParams
from .wavepacket import StateGrid, WavePacketModel, split_even_odd, su2_coefficients
from .wigner import auto_momentum_grid, check_momentum_grid

_PI_TOKEN = re.compile(
    r"^(?P<sign>[+-]?)(?P<coef>\d+\.?\d*|\.\d+)?\s*pi\s*(?:/\s*(?P<div>\d+\.?\d*|\.\d+))?$"
)


def parse_angle(token: str) -> float:
    """Radians from a plain float or a pi expression like '3pi/8'."""
    token = token.strip()
    match = _PI_TOKEN.match(token)
    if match:
        coef = float(match.group("coef")) if match.group("coef") else 1.0
        if match.group("sign") == "-":
            coef = -coef
        div = float(match.group("div")) if match.group("div") else 1.0
        if div == 0.0:
            raise ValueError("division by zero in angle")
        return coef * math.pi / div
    return float(token)


def parse_fraction(token: str) -> float:
    """Float from '0.125' or a ratio '1/8'."""
    token = token.strip()
    if "/" in token:
        num, _, den = token.partition("/")
        denominator = float(den)
        if denominator == 0.0:
            raise ValueError("division by zero in fraction")
        return float(num) / denominator
    return float(token)


def _parse_bool(token: str) -> bool:
    low = token.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {token!r}")


def _parse_float_list(token: str, item_parser) -> tuple[float, ...]:
    items = [piece for piece in token.split(",") if piece.strip()]
    if not items:
        raise ValueError("expected at least one value")
    return tuple(item_parser(piece) for piece in items)


@dataclass(frozen=True)
class RunConfig:
    """Scenario inputs: molecule, ladder, grids, control phases and times."""

    beta: float = I2.beta
    mu: float = I2.mu
    r0: float = I2.r0
    D: float = I2.D
    alpha: float = 2.0
    n_levels: int = 24
    x_min: float = -0.25
    x_max: float = 0.45
    nx: int = 2048
    np: int = 512
    auto_p: bool = True
    p_max: float | None = None
    theta: tuple[float, ...] = (0.0,)
    t_frac: tuple[float, ...] | None = (0.0,)
    t_au: tuple[float, ...] | None = None
    theta_count: int = 33
    steps: int = 64
    max_shift: float | None = None
    direction: str = "position"
    lobe_threshold: float = 0.3
    outdir: str = "out"
    workers: int = 1  # accepted and validated; has no effect
    format: str = "full"


_PARSERS = {
    "beta": float,
    "mu": float,
    "r0": float,
    "D": float,
    "alpha": float,
    "n_levels": int,
    "x_min": float,
    "x_max": float,
    "nx": int,
    "np": int,
    "auto_p": _parse_bool,
    "p_max": float,
    "theta": lambda v: _parse_float_list(v, parse_angle),
    "t_frac": lambda v: _parse_float_list(v, parse_fraction),
    "t_au": lambda v: _parse_float_list(v, float),
    "theta_count": int,
    "steps": int,
    "max_shift": lambda v: None if v.strip().lower() == "auto" else float(v),
    "direction": str,
    "lobe_threshold": float,
    "outdir": str,
    "workers": int,
    "format": str,
}

_FIELD_NAMES = {f.name for f in fields(RunConfig)}
assert set(_PARSERS) == _FIELD_NAMES


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def validate_config(cfg: RunConfig, where: str = "config") -> RunConfig:
    """Cross-field invariants; raises ConfigError naming the offender."""

    def fail(key: str, message: str) -> None:
        raise ConfigError(f"{where}: {key}: {message}")

    try:
        params = MorseParams(beta=cfg.beta, mu=cfg.mu, r0=cfg.r0, D=cfg.D)
    except ValueError as exc:
        raise ConfigError(f"{where}: beta, mu, r0, D: physical parameters invalid: {exc}") from exc
    if not 1 <= cfg.n_levels <= params.bound_state_count:
        fail("n_levels", f"must be 1..{params.bound_state_count} "
                         f"(the well binds {params.bound_state_count} states), got {cfg.n_levels}")
    for key in ("nx", "np"):
        value = getattr(cfg, key)
        if not (_is_power_of_two(value) and value >= 128):
            fail(key, f"must be a power of two >= 128, got {value}")
    if not cfg.x_min < cfg.x_max:
        fail("x_min", f"x_min={cfg.x_min} must be below x_max={cfg.x_max}")
    if cfg.p_max is not None and cfg.p_max <= 0:
        fail("p_max", f"must be positive, got {cfg.p_max}")
    if not cfg.auto_p and cfg.p_max is None:
        fail("p_max", "a positive p_max is required when auto_p is false")
    if cfg.t_frac is not None and cfg.t_au is not None:
        fail("t_au", "give times as t_frac or t_au, not both")
    if cfg.t_frac is None and cfg.t_au is None:
        fail("t_frac", "one of t_frac or t_au is required")
    if cfg.theta_count < 9:
        fail("theta_count", f"must be >= 9, got {cfg.theta_count}")
    if cfg.steps < 32:
        fail("steps", f"must be >= 32, got {cfg.steps}")
    if not 0.0 < cfg.lobe_threshold < 1.0:
        fail("lobe_threshold", f"must be in (0, 1), got {cfg.lobe_threshold}")
    if cfg.direction not in ("position", "momentum"):
        fail("direction", f"must be 'position' or 'momentum', got {cfg.direction!r}")
    if cfg.format not in ("full", "compact"):
        fail("format", f"must be 'full' or 'compact', got {cfg.format!r}")
    if cfg.workers < 1:
        fail("workers", f"must be >= 1, got {cfg.workers}")
    if cfg.max_shift is not None and cfg.max_shift <= 0:
        fail("max_shift", f"must be positive or 'auto', got {cfg.max_shift}")
    return cfg


def _assign(cfg: RunConfig, key: str, raw: str, where: str) -> RunConfig:
    if key not in _PARSERS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    try:
        value = _PARSERS[key](raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: {key}: cannot parse {raw!r} ({exc})") from exc
    if any(isinstance(v, float) and not math.isfinite(v)
           for v in (value if isinstance(value, tuple) else (value,))):
        raise ConfigError(f"{where}: {key}: must be finite, got {raw!r}")
    if key == "t_frac":
        cfg = replace(cfg, t_au=None)
    elif key == "t_au":
        cfg = replace(cfg, t_frac=None)
    return replace(cfg, **{key: value})


def parse_config(text: str) -> RunConfig:
    """RunConfig from key=value text, applied on top of the defaults."""
    cfg = RunConfig()
    seen: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key=value, got {line.strip()!r}")
        key, _, raw = body.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        cfg = _assign(cfg, key, raw, f"line {lineno}")
    return validate_config(cfg)


def apply_overrides(cfg: RunConfig, overrides: list[str]) -> RunConfig:
    """Apply --set key=value pairs on top of a parsed configuration."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set {item!r}: expected key=value")
        key, _, raw = item.partition("=")
        cfg = _assign(cfg, key.strip(), raw.strip(), f"--set {key.strip()}")
    return validate_config(cfg)


#: Environment override of the ``workers`` key, applied after ``--set``; like
#: the key it is parsed and validated but has no effect on any result.
WORKERS_ENV_VAR = "MORSECONTROL_WORKERS"


def apply_environment(cfg: RunConfig, environ: Mapping[str, str]) -> RunConfig:
    """Apply the MORSECONTROL_WORKERS override, if set, and revalidate."""
    raw = environ.get(WORKERS_ENV_VAR)
    if raw is None:
        return cfg
    return validate_config(_assign(cfg, "workers", raw, WORKERS_ENV_VAR), WORKERS_ENV_VAR)


#: Largest deviation of the eigen table's Gram matrix from the identity that
#: ``build_model`` accepts. Measured on the default well and ladder, sound
#: grids read 9.8e-15 to 2.8e-14 (the default grid, nx from 128 to 512, a
#: narrowed range) and 6.3e-12 at x_max=0.25 nx=512, which clips the tails
#: of the top levels; grids that miss the well or sample it too coarsely
#: (x_min=0.3 x_max=0.45, x_min=-60 or x_max=30 at nx=512) read 0.995 to
#: 1.0. 1e-8 sits between the two groups, three decades above the worst
#: sound grid, so rounding never trips it and a lost level always does.
GRAM_TOLERANCE = 1e-8


def build_model(cfg: RunConfig) -> WavePacketModel:
    """The packet model of ``cfg``: its well, its split ladder and its position grid.

    A ladder that cannot be split into two parity families raises ConfigError
    naming ``alpha, n_levels``. A grid on which the eigenfunctions are not
    orthonormal, the Gram matrix of the table under trapezoid weights off the
    identity by more than GRAM_TOLERANCE, cannot hold the packet and raises
    ConfigError naming ``nx, x_min, x_max``."""
    try:
        coeffs = split_even_odd(su2_coefficients(cfg.alpha, cfg.n_levels - 1))
    except ValueError as exc:
        raise ConfigError(f"config: alpha, n_levels: coherent ladder invalid: {exc}") from exc
    model = WavePacketModel(MorseParams(beta=cfg.beta, mu=cfg.mu, r0=cfg.r0, D=cfg.D),
                            coeffs, np.linspace(cfg.x_min, cfg.x_max, cfg.nx))
    weights = np.full(cfg.nx, model.dx)
    weights[[0, -1]] *= 0.5
    gram = np.einsum("mx,nx,x->mn", model.table, model.table, weights)
    deviation = float(np.abs(gram - np.eye(len(gram))).max())
    if deviation > GRAM_TOLERANCE:
        raise ConfigError(
            f"config: nx, x_min, x_max: the grid x_min={cfg.x_min!r}..x_max={cfg.x_max!r} "
            f"at nx={cfg.nx} cannot hold the packet: the eigenfunctions' Gram matrix is off "
            f"the identity by {deviation:.6g} (bound {GRAM_TOLERANCE:g}); the grid must "
            "cover the well and sample it finely: move x_min..x_max onto the well or raise nx")
    return model


def momentum_grid(cfg: RunConfig, state: StateGrid) -> np.ndarray:
    """The configured momentum grid, rejected naming the keys that fix it
    when ``state`` would alias on it."""
    if cfg.auto_p:
        p = auto_momentum_grid(state, n=cfg.np)
    else:
        p = np.linspace(-cfg.p_max, cfg.p_max, cfg.np)
    try:
        return check_momentum_grid(state, p)
    except RangeAliasingError as exc:
        raise ConfigError(
            f"np, p_max, auto_p: {exc}; raise p_max or set auto_p=true") from exc
    except SpacingAliasingError as exc:
        raise ConfigError(
            f"nx, x_min, x_max: {exc}; raise nx or narrow x_min..x_max") from exc


def config_times(cfg: RunConfig, revival_time: float) -> tuple[tuple[float, ...], tuple[float, ...] | None]:
    """(absolute times in a.u., matching revival fractions or None)."""
    if cfg.t_frac is not None:
        return tuple(f * revival_time for f in cfg.t_frac), cfg.t_frac
    return tuple(cfg.t_au or ()), None
