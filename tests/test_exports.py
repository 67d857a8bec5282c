"""The package's public names all resolve, and so do the names the
benchmark's tracer wraps."""

import ast
import importlib
from pathlib import Path

import morsecontrol

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
#: Tracer targets that name code the package no longer has. The tracer skips
#: a missing target without a word, so its metrics read 0; this list keeps
#: any other target from going the same way.
STALE_TRACER_TARGETS = {
    ("morsecontrol.config", "apply_overrides"),
    ("morsecontrol.morse", "norm_capture"),
    ("morsecontrol.parallel", "ordered_map"),
    ("morsecontrol.analysis", "compute_metrics"),
}


def test_all_names_resolve():
    missing = [name for name in morsecontrol.__all__ if not hasattr(morsecontrol, name)]
    assert missing == []


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from morsecontrol import *", namespace)
    assert set(morsecontrol.__all__) <= set(namespace)


def _tracer_targets(source: str) -> list[tuple[str, str]]:
    """(module, attribute) of each entry of the tracer's ``TARGETS`` table,
    read from its source without importing it; none if the table is gone."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "TARGETS" for target in node.targets):
            return [(ast.literal_eval(entry.elts[0]), ast.literal_eval(entry.elts[1]))
                    for entry in node.value.elts]
    return []


def _resolves(module_name: str, attr: str) -> bool:
    try:
        owner = importlib.import_module(module_name)
    except ModuleNotFoundError:
        return False
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return owner is not None


def test_benchmark_tracer_targets_resolve():
    targets = _tracer_targets(TRACER.read_text(encoding="utf-8"))
    unresolved = {target for target in targets if not _resolves(*target)}
    assert unresolved <= STALE_TRACER_TARGETS
