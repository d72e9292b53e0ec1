#!/usr/bin/env python3
"""Run every workload over ten seeds and summarise the spread.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Each run is ``run.py --workload W --seed S --seconds <run_seconds> --trace 0``
with seeds 1 to 10. The workloads take turns, one run each per seed, so
a slow or fast stretch of the machine falls on all of them alike rather
than on one workload's ten runs. For each end-to-end metric it reports
the median, the quartiles and the spread: the distance between the
quartiles as a share of the median, which must stay below the metric's
bound in BENCHMARK.json. The summary also records each run's wall time
and the machine of the first run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
FIRST_SEED = 1


def _run(workload: str, seed: int, seconds: int) -> tuple[dict, dict, float]:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1]), wall


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", type=Path, help="write the summary as JSON here")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {w: {name: [] for name in bounds} for w in workloads}
    walls = {w: [] for w in workloads}
    failed = dict.fromkeys(workloads, 0)
    machine = None
    for seed in range(FIRST_SEED, FIRST_SEED + RUNS):
        for workload in workloads:
            report, result, wall = _run(workload, seed, spec["run_seconds"])
            machine = machine or report["machine"]
            walls[workload].append(round(wall, 1))
            failed[workload] += result["failed"]
            for name in bounds:
                values[workload][name].append(result["metrics"][name]["value"])
            print(f"seed {seed} {workload}: {wall:.1f} s, failed {result['failed']}", flush=True)
    summary = {"run_seconds": spec["run_seconds"], "runs": RUNS, "machine": machine, "workloads": {}}
    for workload in workloads:
        rows = {}
        for name, vals in values[workload].items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds[name], "values": vals}
            flag = "" if spread < bounds[name] / 3 else "  <-- spread above a third of the bound"
            print(f"{workload:17s} {name:16s} median {med:12.4f}  spread {spread:6.3f}"
                  f"  bound {bounds[name]}{flag}  values {[round(v, 4) for v in vals]}")
        print(f"{workload:17s} failed {failed[workload]}; wall per run {walls[workload]}")
        summary["workloads"][workload] = {"metrics": rows, "failed": failed[workload],
                                          "wall_s": walls[workload]}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
