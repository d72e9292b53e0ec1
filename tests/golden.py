"""Golden checker output: one line per deterministic input history.

Each line names an input and records three calls on it: check_auto(h),
check_auto(h, 720) and check_with_order(h, timestamp_order(h)). A call
is recorded by its verdict's status, orders_tested, order, cycle,
invalid read and a sha256 prefix of its witness serialization, or by the
exception it raised. The inputs come from the generators and corpus in
tests/support.py and from replayed schedules; no thread runs.

tests/test_golden.py regenerates the lines and compares them with the
committed file. A change that means to alter checker output rewrites
the file, and the file's diff is the list of verdicts that moved:

    python -m tests.golden --write

Without --write the lines are printed to stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

if __name__ == "__main__":
    # run as a script from a checkout where the package is not installed
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mvtostm.checker import check_auto, check_with_order, timestamp_order
from mvtostm.errors import StmError
from mvtostm.harness import replay
from mvtostm.history import parse
from tests import support

PATH = Path(__file__).with_name("golden_checker.jsonl")

BUDGET = 720

# two committed writers of the value 7 on x, and a read of it
AMBIGUOUS_TEXT = "w 1 x 7\nc 1\nw 2 x 7\nc 2\nr 3 x 7\n"


def _lane_script(seed: int) -> str:
    """support.random_lane_schedule as a replay script."""
    object_count = 2 + seed % 2
    lines = ["objects " + " ".join(f"o{n}" for n in range(1, object_count + 1))]
    for lane, op, obj, value in support.random_lane_schedule(seed, object_count):
        words = ["step", f"t{lane}", op]
        if obj is not None:
            words.append(f"o{obj}")
        if value is not None:
            words.append(str(value))
        lines.append(" ".join(words))
    return "\n".join(lines) + "\n"


def inputs():
    """(name, history) pairs, in file order."""
    for name in (
        "REFERENCE_TEXT",
        "WRITE_SKEW_TEXT",
        "ABORTED_READER_TEXT",
        "CYCLIC_FIRST_PREFIX_TEXT",
    ):
        yield name, parse(getattr(support, name))
    yield "AMBIGUOUS_TEXT", parse(AMBIGUOUS_TEXT)
    for seed in range(600):
        yield f"concurrent/{seed}", support.random_concurrent_history(seed)
    for seed in range(200):
        h = support.random_legal_tseq(seed)
        yield f"tseq/{seed}", h
        yield f"tseq-shuffled/{seed}", support.shuffle_preserving_tx_order(seed, h)
        illegal = support.mutate_illegal(seed, h)
        if illegal is not None:
            yield f"tseq-illegal/{seed}", illegal
    for seed in range(200):
        yield f"well-formed/{seed}", support.random_well_formed_history(seed)
    for seed in range(150):
        script = _lane_script(seed)
        for gc in (None, 1, 2):
            yield f"lanes/{seed}/gc-{gc or 'off'}", replay(script, gc)
    for seed in range(300):
        yield f"replay/{seed}", replay(support.random_replay_script(seed))


def _record(call) -> dict:
    try:
        v = call()
    except (ValueError, StmError) as exc:
        return {"raises": f"{type(exc).__name__}: {exc}"}
    out = {"status": v.status, "tested": v.orders_tested}
    if v.order is not None:
        out["order"] = v.order
    if v.cycle is not None:
        out["cycle"] = v.cycle
    if v.invalid_read is not None:
        out["invalid"] = v.invalid_read.line()
    if v.serialization is not None:
        text = v.serialization.serialize().encode()
        out["witness"] = hashlib.sha256(text).hexdigest()[:12]
    return out


def _line(name: str, h) -> str:
    calls = [
        _record(lambda: check_auto(h)),
        _record(lambda: check_auto(h, BUDGET)),
        _record(lambda: check_with_order(h, timestamp_order(h))),
    ]
    return json.dumps([name, *calls], sort_keys=True, separators=(",", ":"))


def lines() -> list[str]:
    return [_line(name, h) for name, h in inputs()]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m tests.golden",
        description="Print, or rewrite, the golden checker output.",
    )
    ap.add_argument("--write", action="store_true", help=f"rewrite {PATH.name}")
    args = ap.parse_args(argv)
    entries = lines()
    text = "".join(f"{entry}\n" for entry in entries)
    if args.write:
        PATH.write_text(text, encoding="utf-8")
        print(f"wrote {len(entries)} lines to {PATH}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
