"""Time a benchmark workload's unit here against another checkout, in one process.

    python -m tests.ab OTHER_CHECKOUT [--workload W] [--seeds FIRST-LAST] [--rounds N]

W is one of check-exhaustive (the default), check-large, stm-gcoff-1t
and stm-gc-2t. It imports this checkout's src/mvtostm as mvtostm and
OTHER_CHECKOUT's under another package name, so both run in this one
process, and times each side on the same inputs in thread CPU time:

* check-exhaustive and check-large: one `opacity-check FILE
  --emit-witness` per input, as the benchmark does, with stdout and
  stderr captured. The inputs are the workload's files for each seed
  (default 1-1), written with perfbench.workloads' write_inputs into a
  temporary directory. The output is stdout, stderr and exit status.
* stm-gcoff-1t: perfbench.workloads._run_plan over StmGcOff1T's plan
  for each seed, on a fresh bare Registry of the side's: GC off, no
  recorder, no monitor.
* stm-gc-2t: the same plan on one thread, on a Registry with
  stm-gc-2t's settings: GC at threshold 2, recorder and lock monitor on.
  The benchmark runs two threads; this times the same code on one.
  The output is the final version lists and, where recorded, the
  history text and version notes.

An untimed pass first runs both checkouts once per input, which warms
them up and compares their output. Each timed round then runs three
sides per input: this checkout, OTHER_CHECKOUT, and this checkout again
as an A/A control, in one of the six orders of the three, taken in turn
from input to input and from round to round, so each side runs about as
often after each other side.

It prints JSON, with "threads": 1 since every unit runs on one
thread. `change` holds, per round, this checkout's total time
over OTHER_CHECKOUT's; `control` holds the control's over this
checkout's, the spread that noise alone gives. Each series has its
median, its quartiles and the count of rounds below 1 (this side
faster). `outputs_equal` says whether, on the untimed pass, the outputs
matched between the checkouts on every input. It exits 0 when they all
matched, 1 otherwise.

A change that must not slow a workload shows it with this against its
parent: its `change` median should not read above the control's
quartiles. It uses the standard library only, and pytest does not
collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import importlib
import importlib.util
import io
import itertools
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHECK_WORKLOADS = ("check-exhaustive", "check-large")
STM_WORKLOADS = ("stm-gcoff-1t", "stm-gc-2t")
WORKLOADS = CHECK_WORKLOADS + STM_WORKLOADS
OTHER = "ab_other_mvtostm"  # the package name OTHER_CHECKOUT loads under


def _package(checkout: Path, name: str):
    """checkout's src/mvtostm, imported as name."""
    package = checkout / "src" / "mvtostm"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _check_unit(package):
    """One opacity-check call of package on a path: (seconds, output)."""
    main = importlib.import_module(f"{package.__name__}.cli").opacity_check_main

    def unit(path: str) -> tuple[float, tuple[str, str, int]]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.thread_time()
            status = main([path, "--emit-witness"])
            spent = time.thread_time() - start
        return spent, (out.getvalue(), err.getvalue(), status)

    return unit


def _stm_unit(package, workload: str):
    """One run of a plan on a fresh Registry of package's, with the
    workload's registry settings: (seconds, output)."""
    from perfbench.workloads import STM_SHAPE, StmGc2T, _run_plan, _WorkerStats

    recorded = workload == "stm-gc-2t"
    objects = STM_SHAPE["object_count"]

    def unit(plan) -> tuple[float, tuple]:
        recorder = package.Recorder() if recorded else None
        registry = package.Registry(
            objects,
            gc_threshold=StmGc2T.gc_threshold if recorded else None,
            recorder=recorder,
            monitor=package.LockOrderMonitor() if recorded else None,
        )
        stats = _WorkerStats()
        start = time.thread_time()
        _run_plan(registry, plan, 1, stats, [])
        spent = time.thread_time() - start
        if stats.error is not None:
            raise stats.error
        versions = [
            [(vt.ts, vt.value, sorted(vt.readers)) for vt in registry.tobject(oid).versions]
            for oid in range(1, objects + 1)
        ]
        if recorder is None:
            return spent, (versions,)
        notes = [tuple(n) for n in recorder.version_notes()]
        return spent, (versions, recorder.history().serialize(), notes)

    return unit


def _series(ratios: list[float]) -> dict:
    quartiles = (
        statistics.quantiles(ratios, n=4, method="inclusive")
        if len(ratios) > 1
        else ratios * 3
    )
    return {
        "ratios": [round(r, 4) for r in ratios],
        "median": round(statistics.median(ratios), 4),
        "iqr": [round(quartiles[0], 4), round(quartiles[2], 4)],
        "below_1": sum(r < 1 for r in ratios),
    }


def _seeds(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def report(other: Path, workload: str, seeds: range, rounds: int, small: bool = False) -> dict:
    """The A/B report of workload's unit, this checkout against other,
    on the workload's inputs for seeds (its small ones when small)."""
    import mvtostm
    from perfbench.workloads import WORKLOADS as BENCH

    with tempfile.TemporaryDirectory() as tmp:
        if workload in CHECK_WORKLOADS:
            unit = _check_unit
            bench = BENCH[workload](small=small)
            inputs = [
                str(path)
                for seed in seeds
                for path in bench.write_inputs(seed, Path(tmp) / str(seed))[1]
            ]
        else:
            unit = functools.partial(_stm_unit, workload=workload)
            bench = BENCH["stm-gcoff-1t"](small=small)
            inputs = [bench.setup(seed, Path(tmp)).data for seed in seeds]
        here = unit(mvtostm)
        sides = {"here": here, "other": unit(_package(other.resolve(), OTHER)), "control": here}
        orders = list(itertools.permutations(sides))
        change, control = [], []
        mismatches = 0
        for x in inputs:
            mismatches += sides["here"](x)[1] != sides["other"](x)[1]
        for r in range(rounds):
            gc.collect()
            total = dict.fromkeys(sides, 0.0)
            for i, x in enumerate(inputs):
                for name in orders[(r + i) % len(orders)]:
                    total[name] += sides[name](x)[0]
            change.append(total["here"] / total["other"])
            control.append(total["control"] / total["here"])
    return {
        "workload": workload,
        "seeds": [seeds[0], seeds[-1]],
        "inputs": len(inputs),
        "rounds": rounds,
        "threads": 1,  # every unit runs on this one thread
        "change": _series(change),
        "control": _series(control),
        "outputs_equal": mismatches == 0,
        "mismatched_inputs": mismatches,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m tests.ab", description=__doc__.split("\n")[0]
    )
    ap.add_argument("other", metavar="OTHER_CHECKOUT", type=Path, help="a tree with src/mvtostm")
    ap.add_argument("--workload", choices=WORKLOADS, default="check-exhaustive")
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1"), help="FIRST-LAST (default 1)")
    ap.add_argument("--rounds", type=int, default=5)
    args = ap.parse_args(argv)
    if not (args.other / "src" / "mvtostm").is_dir():
        ap.error(f"{args.other} has no src/mvtostm directory")
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    result = report(args.other, args.workload, args.seeds, args.rounds)
    print(json.dumps(result, indent=2))
    return 0 if result["outputs_equal"] else 1


if __name__ == "__main__":
    sys.exit(main())
