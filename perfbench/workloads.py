"""The three benchmark workloads: gallery, sweep and cli.

Each is a closed loop with one client: a pass issues its operations one
after another, each only after the previous one returned, and the harness
repeats passes until the run's time is up. An operation is one state
(gallery, sweep), one carpet (sweep) or one CLI command (cli). Inputs are
drawn once per run from the seed and every pass repeats them.

``run_pass`` returns the pass time (the sum of its operation times), the
per-item times in ms, and the spans recorded when a tracer was given.
Correctness checks never stop a run: a failed operation or a failed check
is counted in ``Outcome`` and reported through ``failed``/``error_rate``.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from probe import build_model

HERE = Path(__file__).resolve().parent

#: The six paper snapshots, with the lobe count gated at LOBE_THRESHOLD
#: (None: the eight-fold states, recorded but not gated, because they are the
#: known failing acceptance criterion 4).
PAPER_STATES = (
    ("cat_t0", math.pi / 4, 0.0, 2),
    ("compass_T8", math.pi / 2, 1 / 8, 4),
    ("diagonal_compass_T16", 0.0, 1 / 16, 4),
    ("plain_compass_T16", math.pi, 1 / 16, 4),
    ("eightfold_T16_quarter", math.pi / 4, 1 / 16, None),
    ("eightfold_T16_half", math.pi / 2, 1 / 16, None),
)
#: Revival fractions the seeded states are drawn at, one state each.
GALLERY_T_FRACS = (0.0, 1 / 4, 1 / 8, 1 / 16, 1 / 32)
CLI_T_FRACS = ("0", "1/4", "1/8", "1/16", "1/32")
LOBE_THRESHOLD = 0.3
#: |norm_captured - 1| allowed, as in acceptance criterion 3.
NORM_TOL = 1e-3
#: At T_rev/4 some control phases put ~0.1% of the momentum distribution
#: outside the automatic momentum grid (worst seen 1.1e-3, theta ~ 4.36), so
#: the norm is gated there at this looser tolerance and its error recorded.
NORM_TOL_QUARTER = 2e-3

#: Sweep lattice: stratified draws, so every seed spreads the same amount of
#: work over theta in [0, 2pi) and t_frac in [0, 1/4).
SWEEP_THETAS = 16
SWEEP_TIMES = 8
SWEEP_MAX_T_FRAC = 0.25

#: The CLI commands in the order a pass runs them, with the files each must write.
CLI_OUTPUTS = {
    "eigen": ("eigen.csv",),
    "state": ("state_000.csv",),
    "wigner": ("wigner_000.wgrd", "wigner_000.csv"),
    "carpet": ("carpet.wgrd", "carpet.csv"),
    "metrics": ("metrics.csv",),
    "sensitivity": ("sensitivity.csv",),
    "table1": ("table1.csv",),
    "table2": ("table2.csv",),
}
CHILD_TIMEOUT_S = 150


class Outcome:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.observations: dict = {}

    def op(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{label}: {'; '.join(problems)}")


def _failure(exc: BaseException) -> list[str]:
    return [f"{type(exc).__name__}: {exc}"]


class _InProcess:
    """Shared set-up of the workloads that call the package's functions."""

    def __init__(self, mc, rng: np.random.Generator, nx: int, np_points: int, work: Path):
        self.mc = mc
        self.nx = nx
        self.np = np_points
        self.work = work
        self.inputs = self.draw(rng)
        self.model = None

    def setup(self, tracer=None) -> list[dict]:
        """Build the model (traced when a tracer is given) and warm up."""
        if tracer is not None:
            tracer.install()
        try:
            self.model = build_model(self.mc, self.nx)
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.t_rev = self.mc.characteristic_times(self.model.params)[1]
        self.warm_up()
        return tracer.take() if tracer is not None else []

    def run_pass(self, outcome: Outcome, tracer=None):
        if tracer is not None:
            tracer.install()
        try:
            pass_s, items_ms = self.one_pass(outcome)
        finally:
            if tracer is not None:
                tracer.uninstall()
        return pass_s, items_ms, tracer.take() if tracer is not None else []


class Gallery(_InProcess):
    """Paper snapshots plus seeded states, each through the full Wigner chain."""

    def draw(self, rng):
        seeded = tuple((f"seeded_t{frac:g}", float(rng.uniform(0.0, 2.0 * math.pi)), frac, None)
                       for frac in GALLERY_T_FRACS)
        return PAPER_STATES + seeded

    def warm_up(self) -> None:
        self.state_op(Outcome(), 0, *self.inputs[0])

    def one_pass(self, outcome: Outcome):
        items_ms = [1e3 * self.state_op(outcome, i, *spec) for i, spec in enumerate(self.inputs)]
        return sum(items_ms) / 1e3, items_ms

    def state_op(self, outcome: Outcome, index: int, label: str, theta: float,
                 t_frac: float, lobes_expected: int | None) -> float:
        mc = self.mc
        path = self.work / f"gallery_{index:02d}.wgrd"
        start = time.perf_counter()
        try:
            state = self.model.phase_locked(theta, t_frac * self.t_rev)
            w = mc.wigner_transform(state, mc.auto_momentum_grid(state, n=self.np))
            lobes = mc.lobe_count(w, LOBE_THRESHOLD)
            area = mc.tile_area(state)
            grid = mc.GridFile(axes=(w.x, w.p), payload=w.values,
                               meta={"label": label, "lobe_count": str(lobes)})
            mc.write_grid(path, grid)
            back = mc.read_grid(path)
        except Exception as exc:
            outcome.op(label, _failure(exc))
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start

        problems = []
        if not (len(back.axes) == 2
                and all(a.tobytes() == b.tobytes() for a, b in zip(back.axes, grid.axes))
                and back.payload.tobytes() == grid.payload.tobytes()
                and back.meta == grid.meta):
            problems.append(".wgrd round trip is not bit-exact")
        if lobes_expected is not None and lobes != lobes_expected:
            problems.append(f"lobe count {lobes} at threshold {LOBE_THRESHOLD}, expected {lobes_expected}")
        norm_error = abs(w.norm_captured - 1.0)
        norm_tol = NORM_TOL
        if t_frac == 1 / 4:
            norm_tol = NORM_TOL_QUARTER
            outcome.observations.setdefault("norm_error_at_t_frac_1/4", {})[label] = norm_error
        if norm_error > norm_tol:
            problems.append(f"norm_captured {w.norm_captured!r} off by more than {norm_tol}")
        if not (math.isfinite(area) and area > 0.0):
            problems.append(f"tile area {area!r} is not finite and positive")
        outcome.observations.setdefault("lobe_counts", {})[label] = lobes
        outcome.op(label, problems)
        return elapsed


class Sweep(_InProcess):
    """A theta x t_frac lattice: a carpet per time, tile area and fringes per state."""

    def draw(self, rng):
        thetas = 2.0 * math.pi * (np.arange(SWEEP_THETAS) + rng.random(SWEEP_THETAS)) / SWEEP_THETAS
        fracs = SWEEP_MAX_T_FRAC * (np.arange(SWEEP_TIMES) + rng.random(SWEEP_TIMES)) / SWEEP_TIMES
        return {"theta": thetas.tolist(), "t_frac": fracs.tolist(),
                "theta_count": self.mc.RunConfig().theta_count}

    def warm_up(self) -> None:
        self.time_op(Outcome(), self.inputs["t_frac"][0], self.inputs["theta"][:1])

    def one_pass(self, outcome: Outcome):
        pass_s = 0.0
        items_ms: list[float] = []
        for frac in self.inputs["t_frac"]:
            pass_s += self.time_op(outcome, frac, self.inputs["theta"], items_ms)
        return pass_s, items_ms

    def time_op(self, outcome: Outcome, frac: float, thetas, items_ms=None) -> float:
        mc = self.mc
        t = frac * self.t_rev
        label = f"carpet t_frac={frac:.6f}"
        start = time.perf_counter()
        try:
            grid = mc.carpet(self.model, t, self.inputs["theta_count"])
        except Exception as exc:
            outcome.op(label, _failure(exc))
            grid = None
        total = time.perf_counter() - start
        if grid is not None:
            ok = (grid.density.shape == (self.inputs["theta_count"], self.nx)
                  and bool(np.isfinite(grid.density).all()))
            outcome.op(label, [] if ok else [f"carpet shape {grid.density.shape} or values not finite"])

        for theta in thetas:
            label = f"state theta={theta:.6f} t_frac={frac:.6f}"
            start = time.perf_counter()
            try:
                state = self.model.phase_locked(theta, t)
                area = mc.tile_area(state)
                fringes = mc.fringe_amplitude(state.density, state.x, self.model.params.r0)
                problems = []
            except Exception as exc:
                problems = _failure(exc)
            elapsed = time.perf_counter() - start
            total += elapsed
            if items_ms is not None:
                items_ms.append(1e3 * elapsed)
            if not problems:
                if not (math.isfinite(area) and area > 0.0):
                    problems.append(f"tile area {area!r} is not finite and positive")
                if not math.isfinite(fringes):
                    problems.append(f"fringe amplitude {fringes!r} is not finite")
            outcome.op(label, problems)
        return total


class Cli:
    """The eight CLI commands, each in a fresh ``python -m morsecontrol.cli`` process."""

    def __init__(self, rng: np.random.Generator, nx: int, np_points: int, work: Path, env: dict):
        self.work = work
        self.env = env
        self.passes = 0
        grid = ["--set", f"nx={nx}", "--set", f"np={np_points}"]
        self.plan = []
        for command, outputs in CLI_OUTPUTS.items():
            theta = float(rng.uniform(0.0, 2.0 * math.pi))
            frac = CLI_T_FRACS[int(rng.integers(len(CLI_T_FRACS)))]
            self.plan.append((command, ["--set", f"theta={theta!r}", "--set", f"t_frac={frac}", *grid],
                              outputs))
        self.inputs = [(command, args) for command, args, _ in self.plan]

    def setup(self, tracer=None) -> list[dict]:
        return []

    def run_pass(self, outcome: Outcome, tracer=None):
        pass_dir = self.work / f"pass{self.passes}"
        spans_path = self.work / "spans.json"
        items_ms, spans, hashes, csv_bytes = [], [], {}, 0
        try:
            for command, args, outputs in self.plan:
                outdir = pass_dir / command
                if tracer is not None:
                    prefix = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path)]
                else:
                    prefix = [sys.executable, "-m", "morsecontrol.cli"]
                argv = [*prefix, command, "--outdir", str(outdir), *args]
                start = time.perf_counter()
                try:
                    proc = subprocess.run(argv, env=self.env, stdin=subprocess.DEVNULL,
                                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                          timeout=CHILD_TIMEOUT_S)
                    problems = [] if proc.returncode == 0 else [
                        f"exit {proc.returncode}: {proc.stderr.decode(errors='replace').strip()[-300:]}"]
                except subprocess.TimeoutExpired:
                    problems = [f"timed out after {CHILD_TIMEOUT_S} s"]
                items_ms.append(1e3 * (time.perf_counter() - start))

                if not problems:
                    missing = [name for name in outputs if not (outdir / name).is_file()]
                    if missing:
                        problems.append(f"missing outputs {missing}")
                outcome.op(command, problems)
                if tracer is not None and spans_path.is_file():
                    spans += json.loads(spans_path.read_text(encoding="utf-8"))
                    spans_path.unlink()
                if outdir.is_dir() and not problems:
                    for path in sorted(outdir.iterdir()):
                        if path.suffix == ".csv":
                            csv_bytes += path.stat().st_size
                        if self.passes == 0:
                            hashes[f"{command}/{path.name}"] = _sha256(path)
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)
        if self.passes == 0:
            outcome.observations["sha256"] = hashes
        outcome.observations["csv_bytes"] = csv_bytes
        self.passes += 1
        return sum(items_ms) / 1e3, items_ms, spans


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()
