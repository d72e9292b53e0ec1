"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload must emit every metric named in BENCHMARK.json and pass
its own checks, and a planted wrong expectation must show up as a
failure, which proves the checks can fail.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--seed", "3", "--seconds", "0.2", *args],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def _lines(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(workload):
    report, result = _lines(_run(ROOT, "--workload", workload, "--small", "--trace", "1"))
    assert result["correct"] and result["failed"] == 0, report["failures"]
    assert report["error_ratio"] == 0
    assert set(report["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in report["metrics"].values())
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_planted_wrong_expectation_is_a_failure(workload):
    report, result = _lines(_run(ROOT, "--workload", workload, "--small", "--trace", "0", "--plant-fault"))
    assert not result["correct"]
    assert result["failed"] >= 1
    assert report["error_ratio"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
