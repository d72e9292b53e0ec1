"""tests/ab.py runs end to end: this checkout against itself."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from tests import ab

ROOT = Path(__file__).resolve().parents[1]


def test_against_itself_one_round():
    done = subprocess.run(
        [sys.executable, "-m", "tests.ab", str(ROOT), "--workload", "check-large", "--rounds", "1"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["outputs_equal"] and report["mismatched_inputs"] == 0
    assert report["inputs"] == 4 and report["seeds"] == [1, 1] and report["rounds"] == 1
    for series in ("change", "control"):
        (ratio,) = report[series]["ratios"]
        assert ratio > 0 and report[series]["iqr"] == [ratio, ratio]


@pytest.mark.parametrize("workload", ["stm-gcoff-1t", "stm-gc-2t"])
def test_stm_units_against_itself(workload):
    # in process, on the workloads' small plan of 300 transactions
    report = ab.report(ROOT, workload, range(1, 2), 1, small=True)
    assert report["outputs_equal"] and report["mismatched_inputs"] == 0
    assert report["inputs"] == 1 and report["threads"] == 1
    for series in ("change", "control"):
        (ratio,) = report[series]["ratios"]
        assert ratio > 0
