"""tests/ab.py runs end to end: this checkout against itself."""

import json
import subprocess
import sys
from pathlib import Path

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
