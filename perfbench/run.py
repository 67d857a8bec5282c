#!/usr/bin/env python3
"""morsecontrol benchmark harness.

    python3 perfbench/run.py --workload {gallery,sweep,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout. The package is imported from ``src/`` of
that checkout and driven only from outside: through its public functions
(gallery, sweep) or through ``python -m morsecontrol.cli`` in fresh
processes (cli). With ``--trace 0`` the last line of standard output holds
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
from call-site spans (see tracer.py). The lines before it print every
metric with its unit and sample count, and a JSON record of the run
(machine, environment, inputs, checks) is written under ``.perfbench/runs/``.
See perfbench/README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracer import IMPORT_MODULES, Tracer, import_times_ms, layer_metrics, per_layer_names, percentile
from workloads import Cli, Gallery, Outcome, Sweep

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Set-up probes run before and again after the timed passes, so that
#: setup_s samples the machine at both ends of the run.
SETUP_PROBES_EACH_SIDE = 2
#: The end-to-end metrics of the result line. run_p50_s, run_min_s,
#: item_p50_ms, item_p95_ms and error_rate are printed and recorded too; see
#: README.md for why they carry no bound.
END_TO_END = ("setup_s", "run_s", "peak_rss_mb")
#: How run_s sums up the pass times of a run. A sweep pass (about 0.15 s) is
#: shorter than the spells in which the machine runs fast or slow, so each pass
#: reads one of two speeds and the median pass flips between them; the fastest
#: pass is steady. Gallery and cli passes (5-20 s) average over those spells,
#: so their median is steady, while the fastest of 2-6 of them is not.
RUN_S_OF = {"gallery": statistics.median, "sweep": min, "cli": statistics.median}
PROBE_TIMEOUT_S = 60

BLAS_NOTE = ("BLAS threads are left at the library default and recorded, not pinned: "
             "pinning OPENBLAS_NUM_THREADS=1 would hide the per-call BLAS stalls "
             "(phase_locked at ~8 ms against a 0.15 ms median; a carpet at 657 ms "
             "against 28 ms) that users see at the default setting.")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("gallery", "sweep", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--nx", type=int, default=2048, help="position grid points")
    parser.add_argument("--np", type=int, default=512, help="momentum grid points")
    return parser.parse_args(argv)


# ------------------------------------------------------------- environment

def _openblas_threads() -> dict[str, int]:
    """Effective thread count of every OpenBLAS loaded in this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                           and ".so" in line})
    except OSError:
        return {}
    threads = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                threads[Path(path).name] = int(fn())
                break
    return threads


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "morsecontrol").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads_effective": _openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threads_note": BLAS_NOTE,
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "seed": seed,
    }


# ------------------------------------------------------------------ set-up

def setup_probes(nx: int, env: dict, importtime: bool, work: Path):
    """Times of fresh-process set-ups, and per-module import times when asked."""
    seconds, imports = [], []
    for k in range(SETUP_PROBES_EACH_SIDE):
        log = work / f"probe{k}.log"
        flags = ["-X", "importtime"] if importtime else []
        with open(log, "wb") as err:
            proc = subprocess.run([sys.executable, *flags, str(HERE / "probe.py"), str(nx)],
                                  env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                  stderr=err, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): "
                               f"{log.read_text(errors='replace')[-500:]}")
        seconds.append(json.loads(proc.stdout)["setup_s"])
        if importtime:
            imports.append(import_times_ms(log.read_text(errors="replace")))
    return seconds, imports


# ----------------------------------------------------------------- metrics

def _metric(value: float, unit: str, n: int) -> dict:
    return {"value": float(value), "unit": unit, "n": int(n)}


def end_to_end(setup_s, passes_s, run_s_of, items_ms, peak_rss_mb, outcome) -> dict:
    return {
        "setup_s": _metric(statistics.median(setup_s), "s", len(setup_s)),
        "run_s": _metric(run_s_of(passes_s), "s", len(passes_s)),
        "run_p50_s": _metric(statistics.median(passes_s), "s", len(passes_s)),
        "run_min_s": _metric(min(passes_s), "s", len(passes_s)),
        "item_p50_ms": _metric(percentile(items_ms, 50), "ms", len(items_ms)),
        "item_p95_ms": _metric(percentile(items_ms, 95), "ms", len(items_ms)),
        "peak_rss_mb": _metric(peak_rss_mb, "MB", 1),
        "error_rate": _metric(outcome.failed / max(outcome.attempted, 1), "ratio",
                              outcome.attempted),
    }


def per_layer(imports, setup_spans, pass_spans, traced_s, untraced_s, csv_bytes) -> dict:
    metrics = {}
    for name, module in IMPORT_MODULES.items():
        values = [probe.get(module, 0.0) for probe in imports]
        metrics[name] = _metric(statistics.median(values), "ms", len(values))
    metrics.update(layer_metrics(setup_spans, pass_spans, len(traced_s)))
    metrics["cli.csv_bytes"] = _metric(csv_bytes, "bytes", 1)
    overhead = statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    metrics["trace.overhead_frac"] = _metric(overhead, "ratio", len(traced_s) + len(untraced_s))
    return metrics


# -------------------------------------------------------------------- main

def run(args) -> dict:
    sys.path.insert(0, str(SRC))
    import morsecontrol

    if SRC not in Path(morsecontrol.__file__).resolve().parents:
        raise RuntimeError(f"imported morsecontrol from {morsecontrol.__file__}, not from {SRC}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("MORSECONTROL_WORKERS", None)  # default config: workers=1

    work = ROOT / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        rng = np.random.default_rng(args.seed)
        if args.workload == "cli":
            workload = Cli(rng, args.nx, args.np, work, env)
        else:
            cls = Gallery if args.workload == "gallery" else Sweep
            workload = cls(morsecontrol, rng, args.nx, args.np, work)

        setup_s, imports = setup_probes(args.nx, env, bool(args.trace), work)
        tracer = Tracer() if args.trace else None
        setup_spans = workload.setup(tracer)

        outcome = Outcome()
        untraced_s, traced_s, items_ms, pass_spans = [], [], [], []
        start = time.perf_counter()
        while True:
            traced = tracer is not None and len(traced_s) < len(untraced_s)
            pass_s, pass_items, spans = workload.run_pass(outcome, tracer if traced else None)
            if traced:
                traced_s.append(pass_s)
                pass_spans += spans
            else:
                untraced_s.append(pass_s)
                items_ms += pass_items
            if time.perf_counter() - start >= args.seconds and (tracer is None or traced_s):
                break

        more_setup_s, more_imports = setup_probes(args.nx, env, bool(args.trace), work)
        setup_s += more_setup_s
        imports += more_imports
        if args.workload == "cli":
            peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = end_to_end(setup_s, untraced_s, RUN_S_OF[args.workload], items_ms,
                             peak_kb / 1024.0, outcome)
        if tracer is not None:
            metrics.update(per_layer(imports, setup_spans, pass_spans, traced_s, untraced_s,
                                     outcome.observations.get("csv_bytes", 0)))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "grid": {"nx": args.nx, "np": args.np},
        "environment": environment(args.seed),
        "inputs": workload.inputs,
        "passes": {"untraced_s": untraced_s, "traced_s": traced_s},
        "items_ms": items_ms,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "failures": outcome.failures,
        "observations": outcome.observations,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "morsecontrol" / "__init__.py").is_file():
        print(f"error: {SRC / 'morsecontrol'} not found; run from a morsecontrol checkout",
              file=sys.stderr)
        return 2
    # On SIGTERM, unwind normally: subprocess.run kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        record = run(args)
    except (RuntimeError, OSError, subprocess.SubprocessError, ImportError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    runs = ROOT / ".perfbench" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    record_path = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, allow_nan=False) + "\n", encoding="utf-8")

    names = per_layer_names() if args.trace else END_TO_END
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(record['passes']['untraced_s'])}+{len(record['passes']['traced_s'])} "
          f"attempted={record['attempted']} failed={record['failed']}")
    metrics = record["metrics"]
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']:6s} n={m['n']}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    print(f"record: {record_path.relative_to(ROOT)}")
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
                    for name in names},
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
