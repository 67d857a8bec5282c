"""Command-line scenarios: deterministic CSV and grid-file outputs.

Every command reads one RunConfig (defaults, then --config file, then --set
overrides, then the MORSECONTROL_WORKERS environment variable), computes pure
results, and serializes them with fixed formatting so identical
configurations produce byte-identical files: every float is the text of
``format(v, ".17g")``, or ``".9g"`` under ``format=compact``. CSV lines go
to disk as they are formatted. A 2-d grid CSV (``wigner``, ``carpet``) is
formatted in blocks of whole grid rows, a few thousand values each, by the
array formatter of ``textfmt``, which gives the same bytes. Its rows are cut
into one span per CPU the row-block threads use; each span after the first
is formatted by a forked child into a hidden part file that the command
then appends in order, so the bytes are those of one writer. Files are
written under temporary names and moved into place only when the whole
command succeeds, so a failed or interrupted run leaves the output
directory as it was; exit codes are 0 (ok), 1 (bad input), 2 (internal
error).
"""

from __future__ import annotations

import argparse
import math
import os
import shutil
import signal
import sys
import traceback
from collections.abc import Callable, Iterable
from functools import partial
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import carpet, fringe_amplitude, sensitivity_scan, tile_area, uncertainties
from .config import (RunConfig, apply_environment, apply_overrides, build_model,
                     config_times, momentum_grid, parse_config, validate_config)
from .errors import ConfigError, RangeAliasingError, TruncationError
from .gridfile import GridFile, write_grid
from .morse import MorseParams, characteristic_times, eigenfunction_with_capture, eigenstate
from .textfmt import float_text
from .wavepacket import WavePacketModel
from .wigner import _worker_count, lobe_count, wigner_transform

THETA_LABELS = ("0", "pi/8", "pi/4", "3pi/8", "pi/2", "5pi/8", "3pi/4", "7pi/8", "pi")
THETA_ROW = tuple(k * math.pi / 8.0 for k in range(9))

#: Reference inverse-action values the table2 command checks itself against;
#: exceeding the tolerance triggers the convention-discrepancy report.
TABLE2_REFERENCES = (
    (math.pi / 2.0, 0.125, "pi/2 T_rev/8", 0.083),
    (0.0, 0.0625, "0 T_rev/16", 0.0766),
    (math.pi, 0.0625, "pi T_rev/16", 0.0837),
)
TABLE2_TOLERANCE = 0.15


class _Workspace:
    """Model and grids built once per command from the configuration."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.params = MorseParams(beta=cfg.beta, mu=cfg.mu, r0=cfg.r0, D=cfg.D)
        self.x = np.linspace(cfg.x_min, cfg.x_max, cfg.nx)
        self.classical_period, self.revival_time = characteristic_times(self.params)
        self.times, self.time_fracs = config_times(cfg, self.revival_time)
        self.precision = 17 if cfg.format == "full" else 9
        self.spec = f".{self.precision}g"
        self._model: WavePacketModel | None = None

    @property
    def model(self) -> WavePacketModel:
        if self._model is None:
            self._model = build_model(self.cfg)
        return self._model

    def row(self, *values) -> str:
        """One CSV line: strings as given, None as an empty field, numbers at ``spec``."""
        return ",".join(v if isinstance(v, str) else "" if v is None else format(v, self.spec)
                        for v in values)

    def header(self, *lines: str) -> list[str]:
        """The provenance comment lines, then ``lines``."""
        return [
            f"# morsecontrol {__version__}",
            f"# depth_parameter={self.params.depth!r} bound_states={self.params.bound_state_count}",
            f"# classical_period_au={self.classical_period!r} revival_time_au={self.revival_time!r}",
            "# conventions: wigner_prefactor=1/pi overlap_factor=2pi "
            "tile_area=1/(dx*dp) momentum=conjugate-to-dimensionless-x",
            *lines,
        ]


def _write_lines(path: Path, lines: Iterable[str]) -> None:
    """Write each of ``lines`` and a newline to ``path`` as it arrives."""
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(line + "\n" for line in lines)


class _Outputs:
    """Stages one command's files next to their final names.

    ``path`` hands out a temporary name in the output directory; ``commit``
    moves every staged file onto its final name with ``os.replace``, and
    ``discard`` deletes whatever is still staged. A command that fails or is
    interrupted therefore neither leaves a partial file nor clobbers the
    previous run's files. ``remove`` names a previous run's file that the
    command no longer writes; it is deleted at ``commit`` and only there.
    """

    def __init__(self, outdir: str):
        self.dir = Path(outdir)
        self.staged: list[tuple[Path, Path]] = []  # (temporary, final)
        self.removed: list[Path] = []

    def path(self, name: str) -> Path:
        self.dir.mkdir(parents=True, exist_ok=True)
        tmp = self.dir / f".{name}.{os.getpid()}.tmp"
        self.staged.append((tmp, self.dir / name))
        return tmp

    def csv(self, name: str, lines: Iterable[str]) -> None:
        """Stage ``name`` holding ``lines``, streamed as they are produced."""
        _write_lines(self.path(name), lines)

    def remove(self, name: str) -> None:
        self.removed.append(self.dir / name)

    def commit(self) -> None:
        for tmp, final in self.staged:
            os.replace(tmp, final)
        for path in self.removed:
            path.unlink(missing_ok=True)
        self.staged.clear()

    def discard(self) -> None:
        for tmp, _ in self.staged:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
        self.staged.clear()


def _single_time(ws: _Workspace, command: str) -> tuple[float, float | None]:
    """(t, t_frac or None) of a command that runs at one time only."""
    if len(ws.times) > 1:
        key = "t_frac" if ws.time_fracs is not None else "t_au"
        raise ConfigError(f"{key}: the {command} command takes one time, got {len(ws.times)}")
    return ws.times[0], None if ws.time_fracs is None else ws.time_fracs[0]


def _time_text(t: float, t_frac: float | None) -> str:
    return f"t={t!r}" + ("" if t_frac is None else f" t_frac={t_frac!r}")


#: Grid values per text block of a grid CSV (8 rows at np=512): the scratch
#: arrays of a block stay near 1 MB, so the peak memory of ``wigner`` stays
#: near that of its grid.
_BLOCK_VALUES = 4096


def _grid_lines(ws: _Workspace, row_axis: np.ndarray, col_axis: np.ndarray,
                values: np.ndarray):
    """``row,column,value`` CSV text of a 2-d grid in row-major order: one
    block of whole grid rows per item, without a trailing newline."""
    precision = ws.precision
    cols = np.strings.add(float_text(col_axis, precision), b",")[None, :]
    step = max(1, _BLOCK_VALUES // len(col_axis))
    for start in range(0, len(row_axis), step):
        block = values[start:start + step]
        rows = np.strings.add(float_text(row_axis[start:start + step], precision), b",")
        lines = np.strings.add(np.strings.add(rows[:, None], cols),
                               float_text(block, precision).reshape(block.shape))
        yield b"\n".join(lines.ravel().tolist()).decode("ascii")


def _write_grid_files(ws: _Workspace, out: _Outputs, stem: str, axes: tuple[np.ndarray, ...],
                      values: np.ndarray, t: float, t_frac: float | None,
                      meta: dict[str, str], header: tuple[str, ...]) -> None:
    """``stem``.wgrd and ``stem``.csv of one 2-d grid at time ``t``: ``meta``
    joins the shared metadata keys and ``header`` follows the provenance."""
    meta = {
        "version": __version__,
        "t": repr(float(t)),
        "t_frac": "" if t_frac is None else repr(float(t_frac)),
        "depth_parameter": repr(ws.params.depth),
        **meta,
    }
    write_grid(out.path(f"{stem}.wgrd"), GridFile(axes=axes, payload=values, meta=meta))
    _write_grid_csv(ws, out.path(f"{stem}.csv"), ws.header(*header), *axes, values)


def _write_grid_csv(ws: _Workspace, path: Path, header: list[str], row_axis: np.ndarray,
                    col_axis: np.ndarray, values: np.ndarray) -> None:
    """``header`` and the ``_grid_lines`` of a 2-d grid, written to ``path``.

    The rows are cut into ``_worker_count()`` contiguous spans. Each span
    after the first is formatted by a forked child into the part file
    ``path``.k; this process writes the header and the first span to
    ``path``, then appends each child's part in order. No text is held in
    memory. Raises RuntimeError if a child fails. Whatever happens, every
    child is reaped and every part deleted before this returns or raises.
    """
    n_rows = len(row_axis)
    n_spans = max(1, min(_worker_count(), n_rows)) if hasattr(os, "fork") else 1
    bounds = [n_rows * k // n_spans for k in range(n_spans + 1)]

    def span(k: int):
        rows = slice(bounds[k], bounds[k + 1])
        return _grid_lines(ws, row_axis[rows], col_axis, values[rows])

    children: list[tuple[int, Path]] = []
    try:
        # The row-block thread pools have shut down by now, so this process
        # runs no thread of the package's own; a child only formats and
        # writes text, with no BLAS call and no lock. SIGINT stays blocked
        # until every child is recorded here and is inside _write_part.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT}) if n_spans > 1 else None
        try:
            for k in range(1, n_spans):
                part = path.with_name(f"{path.name}.{k}")
                pid = os.fork()
                if pid == 0:
                    _write_part(part, partial(span, k), mask)
                children.append((pid, part))
        finally:
            if mask is not None:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        _write_lines(path, chain(header, span(0)))
        for k, (pid, part) in enumerate(children, start=1):
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code != 0:
                raise RuntimeError(f"formatting rows {bounds[k]} to {bounds[k + 1] - 1} "
                                   f"of {path.name} failed in process {pid} (exit {code})")
            with open(part, "rb") as src, open(path, "ab") as dst:
                shutil.copyfileobj(src, dst)
    finally:
        for pid, part in children:
            _stop(pid)
            part.unlink(missing_ok=True)


def _write_part(path: Path, lines: Callable[[], Iterable[str]],
                mask: set[signal.Signals]) -> None:
    """In a forked child: restore the signal ``mask``, write ``lines()`` to
    ``path`` and leave through os._exit, with status 1 and the traceback on
    stderr if anything fails. Never returns, so the child never runs its
    parent's code."""
    code = 1
    try:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        _write_lines(path, lines())
        code = 0
    except BaseException:
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)


def _stop(pid: int) -> None:
    """Kill and reap the child ``pid`` unless it has been reaped already."""
    try:
        if os.waitpid(pid, os.WNOHANG)[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    except ChildProcessError:
        pass


def _lattice(ws: _Workspace):
    fracs = ws.time_fracs if ws.time_fracs is not None else [None] * len(ws.times)
    for theta in ws.cfg.theta:
        for t, frac in zip(ws.times, fracs):
            yield theta, t, frac


def cmd_eigen(ws: _Workspace, out: _Outputs) -> None:
    rows = []
    for m in range(ws.cfg.n_levels):
        es = eigenstate(ws.params, m)
        psi, capture = eigenfunction_with_capture(ws.params, m, ws.x)
        norm = float(np.trapezoid(psi * psi, ws.x))
        rows.append(ws.row(m, es.energy, es.exponent, norm, capture))
    out.csv("eigen.csv", ws.header("m,energy,exponent,norm,capture", *rows))


def cmd_state(ws: _Workspace, out: _Outputs) -> None:
    for index, (theta, t, frac) in enumerate(_lattice(ws)):
        state = ws.model.phase_locked(theta, t)
        out.csv(f"state_{index:03d}.csv", ws.header(
            f"# theta={state.theta!r} {_time_text(t, frac)}",
            "x,re,im,density",
            *(ws.row(x, amp.real, amp.imag, d)
              for x, amp, d in zip(state.x, state.psi, state.density)),
        ))


def cmd_wigner(ws: _Workspace, out: _Outputs) -> None:
    for index, (theta, t, frac) in enumerate(_lattice(ws)):
        state = ws.model.phase_locked(theta, t)
        w = wigner_transform(state, momentum_grid(ws.cfg, state))
        lobes = lobe_count(w, ws.cfg.lobe_threshold)
        meta = {
            "theta": repr(float(w.theta)),
            "wigner_prefactor": "1/pi",
            "overlap_factor": "2pi",
            "norm_captured": repr(float(w.norm_captured)),
            "lobe_count": str(lobes),
            "lobe_threshold": repr(ws.cfg.lobe_threshold),
        }
        header = (f"# theta={state.theta!r} {_time_text(t, frac)}",
                  f"# lobe_count={lobes} norm_captured={ws.row(w.norm_captured)}",
                  "x,p,w")
        _write_grid_files(ws, out, f"wigner_{index:03d}", (w.x, w.p), w.values, t, frac,
                          meta, header)


def cmd_carpet(ws: _Workspace, out: _Outputs) -> None:
    t, frac = _single_time(ws, "carpet")
    grid = carpet(ws.model, t, ws.cfg.theta_count)
    _write_grid_files(ws, out, "carpet", (grid.theta, grid.x), grid.density, t, frac,
                      {"axes": "theta,x"}, (f"# {_time_text(t, frac)}", "theta,x,density"))


def cmd_metrics(ws: _Workspace, out: _Outputs) -> None:
    rows = []
    for theta, t, frac in _lattice(ws):
        state = ws.model.phase_locked(theta, t)
        dx_spread, dp_spread = uncertainties(state)
        action = dx_spread * dp_spread
        fringes = fringe_amplitude(state.density, ws.x, ws.params.r0)
        lobes = lobe_count(wigner_transform(state, momentum_grid(ws.cfg, state)),
                           ws.cfg.lobe_threshold)
        rows.append(ws.row(state.theta, frac, t, dx_spread, dp_spread, action,
                           1.0 / action, fringes, lobes))
    out.csv("metrics.csv", ws.header(
        "theta,t_frac,t,dx,dp,action,tile_area,fringe_amplitude,lobe_count", *rows))


def cmd_sensitivity(ws: _Workspace, out: _Outputs) -> None:
    cfg = ws.cfg
    if len(cfg.theta) > 1:
        raise ConfigError(f"theta: the sensitivity command takes one value, got {len(cfg.theta)}")
    t, frac = _single_time(ws, "sensitivity")
    state = ws.model.phase_locked(cfg.theta[0], t)
    if cfg.max_shift is not None:
        max_shift = cfg.max_shift
    else:
        dx_spread, dp_spread = uncertainties(state)
        max_shift = dx_spread if cfg.direction == "position" else dp_spread
    p = momentum_grid(ws.cfg, state)
    try:
        scan = sensitivity_scan(state, cfg.direction, max_shift, cfg.steps, p=p)
    except TruncationError as exc:
        raise ConfigError(
            f"max_shift, x_min, x_max: {exc}; lower max_shift or widen x_min..x_max") from exc
    except RangeAliasingError as exc:
        raise ConfigError(
            f"max_shift, p_max, auto_p: for a displaced state, {exc}; lower max_shift, "
            "or set auto_p=false with a larger p_max") from exc
    cross = {int(i): v for i, v in zip(scan.wigner_indices, scan.wigner_overlaps)}
    out.csv("sensitivity.csv", ws.header(
        f"# theta={state.theta!r} {_time_text(t, frac)}",
        f"# direction={cfg.direction} max_shift={ws.row(max_shift)}",
        f"# first_zero={ws.row(scan.first_zero)}",
        "shift,overlap,wigner_overlap",
        *(ws.row(s, ov, cross.get(k))
          for k, (s, ov) in enumerate(zip(scan.shifts, scan.overlaps))),
    ))


def cmd_table1(ws: _Workspace, out: _Outputs) -> None:
    t = ws.revival_time / 8.0
    values = [fringe_amplitude(ws.model.density(theta, t), ws.x, ws.params.r0)
              for theta in THETA_ROW]
    out.csv("table1.csv", ws.header(
        "# fringe amplitudes at t = T_rev/8, per atomic unit of r",
        ws.row("theta", *THETA_LABELS),
        ws.row("A_m", *values),
    ))


def cmd_table2(ws: _Workspace, out: _Outputs) -> None:
    rows = {}
    for label, frac in (("T_rev/8", 0.125), ("T_rev/16", 0.0625)):
        rows[label] = [tile_area(ws.model.phase_locked(theta, frac * ws.revival_time))
                       for theta in THETA_ROW]
    out.csv("table2.csv", ws.header(
        "# inverse action 1/(dx*dp) over the control phase at two times",
        ws.row("theta", *THETA_LABELS),
        *(ws.row(label, *row) for label, row in rows.items()),
    ))

    deviations = []
    for theta, frac, label, reference in TABLE2_REFERENCES:
        row = rows["T_rev/8"] if frac == 0.125 else rows["T_rev/16"]
        value = row[THETA_ROW.index(theta)]
        if abs(value - reference) > TABLE2_TOLERANCE * reference:
            deviations.append(ws.row(label, theta, frac, value, value * ws.params.r0, reference))
    if deviations:
        out.csv("table2_convention_report.csv", ws.header(
            "# tile areas deviate more than 15% from the reference values;",
            "# both momentum-scaling conventions are recorded rather than rescaling silently",
            "label,theta,t_frac,tile_area_x_conjugate,tile_area_r_scaled,reference",
            *deviations,
        ))
    else:
        out.remove("table2_convention_report.csv")


COMMANDS = {
    "eigen": cmd_eigen,
    "state": cmd_state,
    "wigner": cmd_wigner,
    "carpet": cmd_carpet,
    "metrics": cmd_metrics,
    "sensitivity": cmd_sensitivity,
    "table1": cmd_table1,
    "table2": cmd_table2,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morsecontrol",
        description="Phase-controlled Morse wave packets and their phase-space structure",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name, help=f"run the {name} scenario")
        cmd.add_argument("--config", type=str, default=None, help="key=value configuration file")
        cmd.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                         help="override one configuration key (repeatable)")
        cmd.add_argument("--outdir", type=str, default=None, help="output directory")
    return parser


def load_config(args: argparse.Namespace) -> RunConfig:
    cfg = validate_config(RunConfig())
    if args.config is not None:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        cfg = parse_config(path.read_text(encoding="utf-8"))
    if args.outdir is not None:
        cfg = apply_overrides(cfg, [f"outdir={args.outdir}"])
    if args.set:
        cfg = apply_overrides(cfg, args.set)
    return apply_environment(cfg, os.environ)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out: _Outputs | None = None
    try:
        cfg = load_config(args)
        ws = _Workspace(cfg)
        out = _Outputs(cfg.outdir)
        COMMANDS[args.command](ws, out)
        out.commit()
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2
    finally:
        if out is not None:
            out.discard()


if __name__ == "__main__":
    sys.exit(main())
