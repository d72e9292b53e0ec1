"""Time opacity-check here against another checkout, in one process.

    python -m tests.ab OTHER_CHECKOUT [--workload check-exhaustive|check-large]
                       [--seeds FIRST-LAST] [--rounds N]

It writes the workload's inputs for the seeds (default 1-1) with
perfbench.workloads' write_inputs into a temporary directory. It
imports this checkout's src/mvtostm as mvtostm and OTHER_CHECKOUT's
under another package name, so both run in this one process, and times
one `opacity-check FILE --emit-witness` per input and side, as the
benchmark does: opacity_check_main in thread CPU time, with stdout and
stderr captured. An untimed pass first calls both checkouts once per
input, which warms them up and compares their output. Each timed round
then runs three sides per input: this checkout, OTHER_CHECKOUT, and
this checkout again as an A/A control, in one of the six orders of the
three, taken in turn from input to input and from round to round, so
each side runs about as often after each other side.

It prints JSON. `change` holds, per round, this checkout's total time
over OTHER_CHECKOUT's; `control` holds the control's over this
checkout's, the spread that noise alone gives. Each series has its
median, its quartiles and the count of rounds below 1 (this side
faster). `outputs_equal` says whether, on the untimed pass, stdout,
stderr and exit status matched between the checkouts on every input.
It exits 0 when they all matched, 1 otherwise.

A change that must not slow the checker shows it with this against its
parent: its `change` median should not read above the control's
quartiles.
The STM workloads are not covered. It uses the standard library only,
and pytest does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
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
WORKLOADS = ("check-exhaustive", "check-large")
OTHER = "ab_other_mvtostm"  # the package name OTHER_CHECKOUT loads under


def _main_of(checkout: Path, name: str):
    """opacity_check_main of checkout's src/mvtostm, imported as name."""
    package = checkout / "src" / "mvtostm"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli").opacity_check_main


def _call(main, path: str) -> tuple[float, tuple[str, str, int]]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.thread_time()
        status = main([path, "--emit-witness"])
        spent = time.thread_time() - start
    return spent, (out.getvalue(), err.getvalue(), status)


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
    from mvtostm.cli import opacity_check_main
    from perfbench.workloads import WORKLOADS as BENCH

    sides = {
        "here": opacity_check_main,
        "other": _main_of(args.other.resolve(), OTHER),
        "control": opacity_check_main,
    }
    orders = list(itertools.permutations(sides))
    change, control = [], []
    mismatches = 0
    with tempfile.TemporaryDirectory() as tmp:
        paths = [
            str(path)
            for seed in args.seeds
            for path in BENCH[args.workload]().write_inputs(seed, Path(tmp) / str(seed))[1]
        ]
        for path in paths:
            mismatches += _call(sides["here"], path)[1] != _call(sides["other"], path)[1]
        for r in range(args.rounds):
            gc.collect()
            total = dict.fromkeys(sides, 0.0)
            for i, path in enumerate(paths):
                for name in orders[(r + i) % len(orders)]:
                    total[name] += _call(sides[name], path)[0]
            change.append(total["here"] / total["other"])
            control.append(total["control"] / total["here"])
    report = {
        "workload": args.workload,
        "seeds": [args.seeds[0], args.seeds[-1]],
        "inputs": len(paths),
        "rounds": args.rounds,
        "change": _series(change),
        "control": _series(control),
        "outputs_equal": mismatches == 0,
        "mismatched_inputs": mismatches,
    }
    print(json.dumps(report, indent=2))
    return 0 if mismatches == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
