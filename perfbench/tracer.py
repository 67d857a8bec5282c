"""Call-site spans around morsecontrol's public functions, and the per-layer
metrics computed from them.

A layer is a module of the package. ``Tracer.install`` replaces each target
function with a timing wrapper in every loaded ``morsecontrol`` module that
holds a reference to it: ``cli.py`` and ``analysis.py`` bind
``wigner_transform``, ``carpet`` and the others by name, so patching only the
defining module would miss their calls. ``uninstall`` puts the originals
back, so untraced passes run the unmodified program.

Spans are kept in memory as dicts with the layer name, the parent span's
name, start and end (``perf_counter_ns``), self time (duration minus the
traced child spans inside it) and the counters listed in ``TARGETS``.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time

from workloads import CLI_OUTPUTS


def _grid_counters(args, kwargs, result):
    return {"cells": int(result.values.size), "out_bytes": int(result.values.nbytes)}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _items(args, kwargs, result):
    return {"items": len(result)}


def _rows(args, kwargs, result):
    return {"rows": int(result.density.shape[0])}


#: (module, attribute, span name, counters from the call and its result,
#: fields reported). Targets missing from the package are skipped; their
#: metrics read 0.
TARGETS = (
    ("morsecontrol.config", "apply_overrides", "config.apply_overrides", None, ("ms",)),
    ("morsecontrol.morse", "eigenfunction_table", "morse.eigenfunction_table", None,
     ("calls", "ms")),
    ("morsecontrol.morse", "norm_capture", "morse.norm_capture", None, ("calls",)),
    ("morsecontrol.wavepacket", "WavePacketModel.phase_locked", "wavepacket.phase_locked", None,
     ("calls", "self_ms", "p50_us", "p99_us")),
    ("morsecontrol.wigner", "wigner_transform", "wigner.wigner_transform", _grid_counters,
     ("calls", "ms", "cells", "out_bytes")),
    ("morsecontrol.wigner", "lobe_count", "wigner.lobe_count", None, ("calls", "self_ms")),
    ("morsecontrol.parallel", "ordered_map", "parallel.ordered_map", _items,
     ("calls", "items", "ms")),
    ("morsecontrol.analysis", "carpet", "analysis.carpet", _rows, ("calls", "self_ms", "rows")),
    ("morsecontrol.analysis", "uncertainties", "analysis.uncertainties", None,
     ("calls", "self_ms")),
    ("morsecontrol.analysis", "fringe_amplitude", "analysis.fringe_amplitude", None,
     ("calls", "self_ms")),
    ("morsecontrol.analysis", "sensitivity_scan", "analysis.sensitivity_scan", None,
     ("calls", "self_ms")),
    ("morsecontrol.analysis", "compute_metrics", "analysis.compute_metrics", None,
     ("calls", "self_ms")),
    ("morsecontrol.gridfile", "write_grid", "gridfile.write_grid", _file_bytes,
     ("calls", "ms", "bytes")),
    ("morsecontrol.gridfile", "read_grid", "gridfile.read_grid", _file_bytes,
     ("calls", "ms", "bytes")),
)


class Tracer:
    """Installs timing wrappers and collects their spans in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[list] = []  # open spans; the benchmark calls from one thread
        self._undo: list = []

    def _wrap(self, fn, name: str, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else None
            frame = [name, 0]  # span name, nanoseconds covered by traced children
            stack.append(frame)
            ok = False
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                span = {"name": name, "parent": parent[0] if parent else None,
                        "start_ns": start, "end_ns": end,
                        "self_ns": end - start - frame[1], "ok": ok}
                if ok and counters is not None:
                    span.update(counters(args, kwargs, result))
                self.spans.append(span)

        return traced

    def _replace(self, owner, key: str, value, original) -> None:
        setattr(owner, key, value)
        self._undo.append(functools.partial(setattr, owner, key, original))

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "morsecontrol" or n.startswith("morsecontrol."))]
        for module_name, attr, span, counters, _ in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                continue
            wrapper = self._wrap(original, span, counters)
            if owner_name:  # a method: every caller reaches it through the class
                self._replace(owner, leaf, wrapper, original)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapper, original)
        cli = sys.modules.get("morsecontrol.cli")
        commands = getattr(cli, "COMMANDS", {})
        for command, fn in list(commands.items()):
            commands[command] = self._wrap(fn, f"cli.{command}", None)
            self._undo.append(functools.partial(commands.__setitem__, command, fn))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def take(self) -> list[dict]:
        spans, self.spans = self.spans, []
        return spans


# ---------------------------------------------------------------- metrics

#: ``parallel.ordered_map`` is also reported per parent span.
ORDERED_MAP_PARENTS = {
    "wigner_transform": "wigner.wigner_transform",
    "carpet": "analysis.carpet",
    "sensitivity_scan": "analysis.sensitivity_scan",
}

UNITS = {"calls": "count", "items": "count", "cells": "count", "rows": "count",
         "ms": "ms", "self_ms": "ms", "p50_us": "us", "p99_us": "us",
         "bytes": "bytes", "out_bytes": "bytes"}

#: Import timings read from ``python -X importtime`` in the set-up probes.
IMPORT_MODULES = {
    "import.morsecontrol_ms": "morsecontrol",
    "import.scipy_signal_ms": "scipy.signal",
    "import.scipy_special_ms": "scipy.special",
    "import.scipy_ndimage_ms": "scipy.ndimage",
}


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _field(spans: list[dict], field: str) -> float:
    if field == "calls":
        return float(len(spans))
    if field == "ms":
        return sum(s["end_ns"] - s["start_ns"] for s in spans) / 1e6
    if field == "self_ms":
        return sum(s["self_ns"] for s in spans) / 1e6
    if field in ("p50_us", "p99_us"):
        return percentile([(s["end_ns"] - s["start_ns"]) / 1e3 for s in spans], int(field[1:3]))
    return float(sum(s.get(field, 0) for s in spans))


def layer_metrics(setup_spans: list[dict], pass_spans: list[dict], passes: int) -> dict:
    """Per-layer metrics for one set-up plus one average pass.

    Totals (calls, times, bytes) are the set-up spans plus the pass spans
    divided by the number of traced passes; percentiles pool every call.
    Each metric is ``{"value", "unit", "n"}`` with n the number of spans.
    """
    groups: dict[str, tuple[list, list]] = {}

    def add(key: str, span: dict, in_setup: bool) -> None:
        groups.setdefault(key, ([], []))[0 if in_setup else 1].append(span)

    for in_setup, spans in ((True, setup_spans), (False, pass_spans)):
        for span in spans:
            add(span["name"], span, in_setup)
            if span["name"] == "parallel.ordered_map":
                for tag, parent in ORDERED_MAP_PARENTS.items():
                    if span["parent"] == parent:
                        add(f"parallel.ordered_map.{tag}", span, in_setup)

    layers = ([(span, fields) for _, _, span, _, fields in TARGETS]
              + [(f"parallel.ordered_map.{tag}", ("calls", "items", "ms"))
                 for tag in ORDERED_MAP_PARENTS]
              + [(f"cli.{command}", ("self_ms",)) for command in CLI_OUTPUTS])
    metrics = {}
    for layer, fields in layers:
        setup, per_pass = groups.get(layer, ([], []))
        for field in fields:
            if field in ("p50_us", "p99_us"):
                value = _field(setup + per_pass, field)
            else:
                value = _field(setup, field) + _field(per_pass, field) / max(passes, 1)
            metrics[f"{layer}.{field}"] = {"value": value, "unit": UNITS[field],
                                           "n": len(setup) + len(per_pass)}
    return metrics


def import_times_ms(importtime_log: str) -> dict[str, float]:
    """Import time per module in IMPORT_MODULES, in ms, from ``-X importtime``.

    A module's time is the cumulative time of its own line, or, when the
    interpreter logs no line for the package itself (scipy.special and
    scipy.ndimage are loaded that way), the summed cumulative times of its
    outermost submodule lines.
    """
    entries = []  # (depth, module, cumulative us), in log order: children first
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        _, cumulative, module = line[len("import time:"):].split("|")
        if cumulative.strip().isdigit():
            entries.append((len(module) - len(module.lstrip()), module.strip(), int(cumulative)))
    parents: list[str | None] = [None] * len(entries)
    stack: list[tuple[int, str]] = []
    for i in range(len(entries) - 1, -1, -1):  # a parent is logged after its children
        depth, module, _ = entries[i]
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parents[i] = stack[-1][1] if stack else None
        stack.append((depth, module))

    def within(module: str | None, package: str) -> bool:
        return module is not None and (module == package or module.startswith(package + "."))

    return {package: sum(us for (_, module, us), parent in zip(entries, parents)
                         if within(module, package) and not within(parent, package)) / 1e3
            for package in IMPORT_MODULES.values()}


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    return [*IMPORT_MODULES, *layer_metrics([], [], 1), "cli.csv_bytes", "trace.overhead_frac"]
