"""Smoke test of the benchmark harness itself, at the smallest grid the
config accepts (nx = np = 128).

    python3 -m pytest -q perfbench/test_smoke.py

At that grid every Wigner transform raises AliasingError, so the gallery
states and the wigner, metrics and sensitivity commands fail; the runs must
count those failures and still report every metric. A run with the invalid
``--np 100``, which the config validator rejects, must count every command
as failed instead of aborting.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 7

sys.path.insert(0, str(HERE))
from workloads import CLI_OUTPUTS  # noqa: E402


def _run(workload: str, trace: int, *extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--nx", "128", "--np", "128", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _result_and_record(proc: subprocess.CompletedProcess, workload: str, trace: int):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    record_path = ROOT / ".perfbench" / "runs" / f"{workload}-seed{SEED}-trace{trace}.json"
    return result, json.loads(record_path.read_text(encoding="utf-8"))


def _check_metrics(result: dict, record: dict, declared: list[dict]) -> None:
    expected = {m["name"]: m["unit"] for m in declared}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        metric = record["metrics"][name]
        assert metric["unit"] == unit
        assert isinstance(metric["n"], int) and metric["n"] >= 0, name


@pytest.mark.parametrize("workload", ["gallery", "sweep", "cli"])
def test_every_end_to_end_metric_has_unit_and_sample_count(workload):
    result, record = _result_and_record(_run(workload, 0), workload, 0)
    _check_metrics(result, record, BENCHMARK["end_to_end"])
    for name, unit in (("run_p50_s", "s"), ("run_min_s", "s"), ("item_p50_ms", "ms"),
                       ("item_p95_ms", "ms"), ("error_rate", "ratio")):  # printed, not bounded
        assert record["metrics"][name]["unit"] == unit
        assert isinstance(record["metrics"][name]["n"], int)
    error_rate = record["metrics"]["error_rate"]
    assert error_rate["n"] == result["attempted"]
    assert error_rate["value"] == result["failed"] / result["attempted"]
    if workload == "gallery":  # every state aliases at this grid
        assert result["failed"] == result["attempted"]
        assert all("AliasingError" in failure for failure in record["failures"])
    for key in ("nproc", "blas", "blas_threads_effective", "blas_threads_note",
                "python", "numpy", "scipy", "commit", "source_sha256", "seed"):
        assert key in record["environment"]


def test_failed_commands_are_counted_and_every_layer_metric_reported():
    result, record = _result_and_record(_run("cli", 1), "cli", 1)
    _check_metrics(result, record, BENCHMARK["per_layer"])
    passes = len(record["passes"]["untraced_s"]) + len(record["passes"]["traced_s"])
    assert result["attempted"] == len(CLI_OUTPUTS) * passes
    assert result["failed"] == 3 * passes
    assert not result["correct"]
    assert record["metrics"]["error_rate"]["value"] > 0.0
    failed = {failure.split(":")[0] for failure in record["failures"]
              if "exit 1" in failure and "position spacing too coarse" in failure}
    assert failed == {"wigner", "metrics", "sensitivity"}
    assert record["metrics"]["wavepacket.phase_locked.calls"]["value"] > 0


def test_invalid_config_is_counted_instead_of_aborting():
    result, record = _result_and_record(_run("cli", 0, "--np", "100"), "cli", 0)
    assert result["attempted"] == len(CLI_OUTPUTS) * len(record["passes"]["untraced_s"])
    assert result["failed"] == result["attempted"]
    assert all("exit 1" in failure and "got 100" in failure for failure in record["failures"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
