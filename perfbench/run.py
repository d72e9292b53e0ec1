#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload stm-gc-2t --seed 7 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``
there. Inputs are generated from ``--seed``. Set-up runs SETUP_REPS
times and must produce the same input digest each time; then the
workload is timed for at least ``--seconds`` seconds of work and its
outputs are checked.

With ``--trace 0`` the metrics are the end-to-end metrics. With
``--trace 1`` the run is measured untraced first, then set up and
measured again with the layer wrappers of tracing.py installed; the
metrics are the per-layer ones plus the tracing overhead, and the spans
are written to ``.perfbench_out/trace-<workload>.json``.

Standard output ends with two JSON lines. The first is the full report:
every metric with its unit and sample count, the failures, the input
digest and the machine. The last line is the result
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 5

END_TO_END_UNITS = {
    "tx_per_cpu_s": "1/s",
    "latency_cpu_mean_ms": "ms",
    "latency_cpu_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="tiny inputs, for the smoke test")
    ap.add_argument("--plant-fault", action="store_true",
                    help="check against one wrong expectation; the run must report a failure")
    return ap.parse_args(argv)


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _code_fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.glob("mvtostm/*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _quantile(values: list[float], q: int) -> float:
    """q-th percentile, interpolated between samples, never beyond them."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _end_to_end(outcome, setup_times, peak_rss_mb) -> dict[str, dict]:
    lat_ms = [x * 1e3 for x in outcome.unit_costs()]
    values = {
        "tx_per_cpu_s": (outcome.tx_per_cpu_s(), outcome.units),
        "latency_cpu_mean_ms": (statistics.fmean(lat_ms), len(lat_ms)),
        "latency_cpu_p90_ms": (_quantile(lat_ms, 90), len(lat_ms)),
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "peak_rss_mb": (peak_rss_mb, 1),
    }
    return {
        name: {"value": v, "unit": END_TO_END_UNITS[name], "samples": n}
        for name, (v, n) in values.items()
    }


def _setup(workload, workloads, seed, workdir, failures):
    """Set up SETUP_REPS times; only the set-up itself is on the clock, not the digest."""
    times, digests = [], []
    for _ in range(SETUP_REPS):
        t0 = time.process_time()
        inputs = workload.setup(seed, workdir)
        times.append(time.process_time() - t0)
        digests.append(workloads.digest(inputs))
    if len(set(digests)) != 1:
        failures.append(f"set-ups from seed {seed} gave different input digests {digests}")
    return inputs, digests[0], times


def _check_record(workload, seed, small, digest, outcome, failures) -> None:
    """Compare inputs and verdicts with an earlier run of the same code and seed."""
    record = {
        "digest": digest,
        "counts": {k: v for k, v in outcome.counts.items() if k.startswith("verdict_")},
    }
    size = "-small" if small else ""
    path = OUT / "records" / f"{workload.name}{size}-seed{seed}-{_code_fingerprint()}.json"
    if path.is_file():
        earlier = json.loads(path.read_text())
        if earlier != record:
            failures.append(f"run differs from an earlier run of seed {seed}: {earlier} != {record}")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record))


def _traced(workload, tracing, args, workdir, untraced, failures):
    setup_tracer, tracer = tracing.Tracer(), tracing.Tracer()
    with setup_tracer.installed():
        if hasattr(workload, "write_inputs"):
            setup_tracer.wrap(workload, "write_inputs", "harness.input_gen")
        inputs = workload.setup(args.seed, workdir)
    with tracer.installed():
        outcome = workload.measure(inputs, args.seconds, tracer=tracer)
    failures.extend(outcome.failures)
    tracing.write(OUT / f"trace-{workload.name}.json", setup_tracer, tracer)
    metrics = tracing.layer_metrics(tracer, setup_tracer, outcome)
    traced_rate = outcome.tx_per_cpu_s()
    metrics["bench.trace_overhead_pct"] = (untraced["tx_per_cpu_s"]["value"] / traced_rate - 1) * 100
    return outcome, metrics


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "mvtostm" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mvtostm.harness
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](small=args.small)
    workdir = OUT / "inputs" / workload.name
    failures: list[str] = []

    inputs, digest, setup_times = _setup(workload, workloads, args.seed, workdir, failures)
    outcome = workload.measure(inputs, args.seconds, plant=args.plant_fault)
    # taken before the latency statistics, whose lists of samples grow
    # with the run's speed and would count otherwise
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures.extend(outcome.failures)
    if not outcome.units:
        print(f"error: no unit of work completed: {failures[:5]}", file=sys.stderr)
        return 1
    _check_record(workload, args.seed, args.small, digest, outcome, failures)
    attempted = outcome.attempted + 2  # the set-up digests and the record
    end_to_end = _end_to_end(outcome, setup_times, peak_rss_mb)

    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_digest": digest,
        "metrics": end_to_end,
        # wall clock, not gated: steal time on a shared VM swings it widely
        "wall_tx_per_s": outcome.units / outcome.busy,
        "wall_seconds_timed": outcome.busy,
        "failures": failures[:20],
        "counts": dict(outcome.counts),
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "git_sha": _git_sha(),
            "switch_interval_s": (mvtostm.harness.SWITCH_INTERVAL if workload.threads > 1
                                  else sys.getswitchinterval()),
        },
    }
    metrics = {name: {"value": m["value"], "unit": m["unit"]} for name, m in end_to_end.items()}
    if args.trace:
        traced, layer = _traced(workload, tracing, args, workdir, end_to_end, failures)
        attempted += traced.attempted
        units = _layer_units()
        metrics = {name: {"value": v, "unit": units[name]} for name, v in layer.items()}
        report["layer_metrics"] = metrics
        report["traced_end_to_end"] = {
            "tx_per_cpu_s": traced.tx_per_cpu_s(),
            "latency_cpu_mean_ms": statistics.fmean(traced.unit_costs()) * 1e3,
            "wall_tx_per_s": traced.units / traced.busy,
        }
    report["error_ratio"] = len(failures) / attempted
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def _layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
