"""Run configuration: key=value files with defaults for the iodine molecule.

Lines are UTF-8 ``key=value`` pairs; ``#`` starts a comment. Unknown keys,
unparsable or non-finite values (nan, inf) and violated invariants raise
ConfigError naming the key and line. Angles accept ``pi`` expressions
("pi/8", "3pi/4", "2pi"); time fractions accept "a/b". ``load_config`` reads
a configuration as the CLI does, from a file, ``key=value`` overrides and
the environment. ``build_model`` turns a configuration into its packet model
and ``momentum_grid`` gives a state its configured momentum grid.
"""

from __future__ import annotations

import math
import os
import re
import warnings
from collections.abc import Iterable
from dataclasses import dataclass, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .errors import ConfigError, GridError, RangeAliasingError, SpacingAliasingError
from .morse import I2, MorseParams
from .wavepacket import StateGrid, WavePacketModel, split_even_odd, su2_coefficients
from .wigner import (DEFAULT_LOBE_THRESHOLD, DEFAULT_MOMENTUM_POINTS, auto_momentum_grid,
                     check_momentum_grid)

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
    np: int = DEFAULT_MOMENTUM_POINTS
    auto_p: bool = True
    p_max: float | None = None
    theta: tuple[float, ...] = (0.0,)
    t_frac: tuple[float, ...] | None = (0.0,)
    t_au: tuple[float, ...] | None = None
    theta_count: int = 33
    steps: int = 64
    max_shift: float | None = None
    direction: str = "position"
    lobe_threshold: float = DEFAULT_LOBE_THRESHOLD
    outdir: str = "out"
    workers: int = 1  # accepted and validated; has no effect
    format: str = "full"


#: Each key's parser: by its annotated type in RunConfig, except for the keys
#: whose text is a list or may be ``auto``.
_BY_TYPE = {float: float, int: int, str: str, bool: _parse_bool, float | None: float}
_PARSERS = {name: _BY_TYPE.get(hint) for name, hint in get_type_hints(RunConfig).items()}
_PARSERS.update(
    theta=lambda v: _parse_float_list(v, parse_angle),
    t_frac=lambda v: _parse_float_list(v, parse_fraction),
    t_au=lambda v: _parse_float_list(v, float),
    max_shift=lambda v: None if v.strip().lower() == "auto" else float(v),
)
assert all(_PARSERS.values()), "every RunConfig key needs a parser"


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def validate_config(cfg: RunConfig) -> RunConfig:
    """Cross-field invariants; raises ConfigError naming the offender."""

    def fail(key: str, message: str) -> None:
        raise ConfigError(f"config: {key}: {message}")

    try:
        params = MorseParams(beta=cfg.beta, mu=cfg.mu, r0=cfg.r0, D=cfg.D)
    except ValueError as exc:
        raise ConfigError(f"config: beta, mu, r0, D: physical parameters invalid: {exc}") from exc
    if not 1 <= cfg.n_levels <= params.bound_state_count:
        fail("n_levels", f"must be 1..{params.bound_state_count} "
                         f"(the well binds {params.bound_state_count} states), got {cfg.n_levels}")
    for key in ("nx", "np"):
        value = getattr(cfg, key)
        if not (_is_power_of_two(value) and value >= 128):
            fail(key, f"must be a power of two >= 128, got {value}")
    if not cfg.x_min < cfg.x_max:
        fail("x_min", f"x_min={cfg.x_min} must be below x_max={cfg.x_max}")
    if not math.isfinite(cfg.x_max - cfg.x_min):
        fail("x_min, x_max", f"the range x_max - x_min must be finite, got {cfg.x_max - cfg.x_min}")
    if cfg.p_max is not None and cfg.p_max <= 0:
        fail("p_max", f"must be positive, got {cfg.p_max}")
    if cfg.p_max is not None and not math.isfinite(2.0 * cfg.p_max):
        fail("p_max", f"the range 2*p_max must be finite, got {2.0 * cfg.p_max}")
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


def _assign_lines(cfg: RunConfig, text: str) -> RunConfig:
    """``cfg`` with each key=value line of ``text`` assigned, in order."""
    seen: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key=value, got {line.strip()!r}")
        key, _, raw = body.partition("=")
        key = key.strip()
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        cfg = _assign(cfg, key, raw.strip(), f"line {lineno}")
    return cfg


def parse_config(text: str) -> RunConfig:
    """RunConfig from key=value text, applied on top of the defaults."""
    return validate_config(_assign_lines(RunConfig(), text))


#: Environment override of the ``workers`` key, applied after ``--set``; like
#: the key it is parsed and validated but has no effect on any result.
WORKERS_ENV_VAR = "MORSECONTROL_WORKERS"


def load_config(path: str | None = None, overrides: Iterable[str] = ()) -> RunConfig:
    """The defaults, then the lines of the file at ``path``, each ``key=value``
    of ``overrides`` (the CLI's --outdir and --set) and MORSECONTROL_WORKERS,
    assigned in order and validated once. A validation error starts with the
    variable's name when it is about the workers the variable set, and names
    the file when the same sources without the file would not fail the same
    way."""
    cfg = RunConfig()
    note = ""
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"config file {str(path)!r}: {exc.strerror}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {str(path)!r}: not UTF-8 text ({exc.reason} "
                              f"at byte {exc.start})") from exc
        note = f" (config file {str(path)!r})"
        try:
            cfg = _assign_lines(cfg, text)
        except ConfigError as exc:
            raise ConfigError(f"{exc}{note}") from exc
    bare = RunConfig()  # the same sources without the file
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set {item!r}: expected key=value")
        key, _, raw = (part.strip() for part in item.partition("="))
        cfg, bare = (_assign(c, key, raw, f"--set {key}") for c in (cfg, bare))
    env = os.environ.get(WORKERS_ENV_VAR)
    if env is not None:
        cfg, bare = (_assign(c, "workers", env, WORKERS_ENV_VAR) for c in (cfg, bare))
    try:
        return validate_config(cfg)
    except ConfigError as exc:
        if env is not None and str(exc).startswith("config: workers:"):
            raise ConfigError(str(exc).replace("config", WORKERS_ENV_VAR, 1)) from exc
        if note and _error(bare) != str(exc):
            raise ConfigError(f"{exc}{note}") from exc
        raise


def _error(cfg: RunConfig) -> str | None:
    """validate_config's message for ``cfg``, or None if it is valid."""
    try:
        validate_config(cfg)
    except ConfigError as exc:
        return str(exc)
    return None


#: Largest deviation of the eigen table's Gram matrix from the identity that
#: ``build_model`` accepts. Measured on the default well and ladder, sound
#: grids read 9.8e-15 to 2.8e-14 (the default grid, nx from 128 to 512, a
#: narrowed range) and 6.3e-12 at x_max=0.25 nx=512, which clips the tails
#: of the top levels; grids that miss the well or sample it too coarsely
#: (x_min=0.3 x_max=0.45, x_min=-60 or x_max=30 at nx=512) read 0.995 to
#: 1.0. 1e-8 sits between the two groups, three decades above the worst
#: sound grid, so rounding never trips it and a lost level always does.
GRAM_TOLERANCE = 1e-8


def _grid_error(cfg: RunConfig, cause: str) -> ConfigError:
    """The error of a position grid of ``cfg`` that cannot hold the packet
    for ``cause``, naming ``nx, x_min, x_max``."""
    return ConfigError(
        f"config: nx, x_min, x_max: the grid x_min={cfg.x_min!r}..x_max={cfg.x_max!r} "
        f"at nx={cfg.nx} cannot hold the packet: {cause}; the grid must cover the well "
        "and sample it finely: move x_min..x_max onto the well or raise nx")


def build_model(cfg: RunConfig) -> WavePacketModel:
    """The packet model of ``cfg``: its well, its split ladder and its position grid.

    A ladder that cannot be split into two parity families raises ConfigError
    naming ``alpha, n_levels``. A grid on which the eigen table cannot be
    built (GridError), or on which the eigenfunctions are not orthonormal,
    the Gram matrix of the table under trapezoid weights off the identity by
    more than GRAM_TOLERANCE, cannot hold the packet and raises ConfigError
    naming ``nx, x_min, x_max``. The warnings of building the table
    (TruncationWarning) are held until the grid passes, then issued; a grid
    that fails drops them, as its error names the cause."""
    try:
        coeffs = split_even_odd(su2_coefficients(cfg.alpha, cfg.n_levels - 1))
    except ValueError as exc:
        raise ConfigError(f"config: alpha, n_levels: coherent ladder invalid: {exc}") from exc
    with warnings.catch_warnings(record=True) as held:
        warnings.simplefilter("always")
        try:
            model = WavePacketModel(MorseParams(beta=cfg.beta, mu=cfg.mu, r0=cfg.r0, D=cfg.D),
                                    coeffs, np.linspace(cfg.x_min, cfg.x_max, cfg.nx))
        except GridError as exc:
            raise _grid_error(cfg, str(exc)) from exc
    weights = np.full(cfg.nx, model.dx)
    weights[[0, -1]] *= 0.5
    gram = np.einsum("mx,nx,x->mn", model.table, model.table, weights)
    deviation = float(np.abs(gram - np.eye(len(gram))).max())
    if deviation > GRAM_TOLERANCE:
        raise _grid_error(cfg, f"the eigenfunctions' Gram matrix is off the identity by "
                               f"{deviation:.6g} (bound {GRAM_TOLERANCE:g})")
    for caught in held:
        warnings.warn_explicit(caught.message, caught.category, caught.filename, caught.lineno,
                               source=caught.source)
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
