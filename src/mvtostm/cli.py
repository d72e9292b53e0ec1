"""Console entry points: opacity-check, mvto-stress, mvto-replay."""

from __future__ import annotations

import argparse
import functools
import sys

from . import checker, harness
from .errors import HistoryFormatError, ReplayError, StmError
from .history import parse

EXIT_OPAQUE = 0
EXIT_NOT_OPAQUE = 1
EXIT_UNDECIDED = 2


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_UNDECIDED


def _read_file(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None


def _write_file(path: str, text: str) -> bool:
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


@functools.cache
def _checker_parser() -> argparse.ArgumentParser:
    """opacity-check's parser, built once: parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="opacity-check",
        description="Decide whether a recorded history is opaque.",
    )
    ap.add_argument("file", help="history file (b/r/w/c/a lines)")
    ap.add_argument(
        "--order",
        choices=("auto", "ts"),
        default="auto",
        help="version order strategy: ascending timestamps only, or "
        "timestamps with exhaustive fallback (default)",
    )
    ap.add_argument(
        "--budget",
        type=int,
        default=checker.DEFAULT_BUDGET,
        help="max version orders the exhaustive search may try",
    )
    ap.add_argument(
        "--emit-witness",
        action="store_true",
        help="on an opaque verdict, print the witness order and serialization",
    )
    return ap


def opacity_check_main(argv: list[str] | None = None) -> int:
    args = _checker_parser().parse_args(argv)
    text = _read_file(args.file)
    if text is None:
        return EXIT_UNDECIDED
    # both strategies try the timestamp order first, and the text alone
    # often certifies it; events are built and checked only when it does not
    certified = checker.certify_text(text)
    if certified is not None:
        verdict = checker.Verdict("opaque", order=certified[0], orders_tested=1)
    else:
        try:
            history = parse(text)
        except HistoryFormatError as exc:
            return _fail(str(exc))
        try:
            if args.order == "ts":
                verdict = checker.check_with_order(history)
            else:
                verdict = checker.check_auto(history, args.budget)
        except ValueError as exc:  # non-unique written values
            return _fail(str(exc))
    print(verdict.summary())
    if verdict.opaque and args.emit_witness:
        for obj in sorted(verdict.order):
            chain = " ".join(str(w) for w in verdict.order[obj])
            print(f"# order {obj}: {chain}")
        witness = certified[1] if certified else verdict.serialization.serialize()
        sys.stdout.write(witness)
    if verdict.status == "opaque":
        return EXIT_OPAQUE
    if verdict.status in ("not_opaque", "invalid"):
        return EXIT_NOT_OPAQUE
    return EXIT_UNDECIDED


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        if sep:
            return int(lo), int(hi)
        return int(text), int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected N or A..B, got {text!r}"
        ) from None


def stress_main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="mvto-stress",
        description="Run randomized transactions against the STM and "
        "verify the recorded history.",
    )
    cfg = harness.WorkloadConfig()
    ap.add_argument("--threads", type=int, default=cfg.threads)
    ap.add_argument(
        "--txs", type=int, default=cfg.txs_per_thread, help="transactions per thread"
    )
    ap.add_argument("--objects", type=int, default=cfg.object_count)
    ap.add_argument("--reads", type=_parse_range, default=cfg.reads_per_tx, metavar="A..B")
    ap.add_argument("--writes", type=_parse_range, default=cfg.writes_per_tx, metavar="A..B")
    ap.add_argument("--ro-frac", type=float, default=cfg.ro_fraction)
    ap.add_argument(
        "--gc-threshold",
        type=int,
        default=0,
        help="collect an object once its version list exceeds this; 0 disables gc",
    )
    ap.add_argument("--seed", type=int, default=cfg.seed)
    ap.add_argument("--retry-limit", type=int, default=cfg.retry_limit)
    ap.add_argument("--dump", metavar="PATH", help="write the history to PATH")
    args = ap.parse_args(argv)
    try:
        config = harness.WorkloadConfig(
            threads=args.threads,
            txs_per_thread=args.txs,
            object_count=args.objects,
            reads_per_tx=args.reads,
            writes_per_tx=args.writes,
            ro_fraction=args.ro_frac,
            gc_threshold=args.gc_threshold or None,
            seed=args.seed,
            retry_limit=args.retry_limit,
        )
        report = harness.run(config)
    except (StmError, TimeoutError) as exc:
        return _fail(str(exc))
    print(report.format_report())
    for key, value in report.key_values().items():
        print(f"{key}={value}")
    if args.dump and not _write_file(args.dump, report.history.serialize()):
        return EXIT_UNDECIDED
    return EXIT_OPAQUE if report.verdict.opaque else EXIT_NOT_OPAQUE


def replay_main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="mvto-replay",
        description="Execute a scripted schedule and print the recorded history.",
    )
    ap.add_argument("script", help="replay script (objects/step lines)")
    ap.add_argument("--dump", metavar="PATH", help="write the history to PATH")
    args = ap.parse_args(argv)
    text = _read_file(args.script)
    if text is None:
        return EXIT_UNDECIDED
    try:
        history = harness.replay(text)
    except ReplayError as exc:
        return _fail(str(exc))
    if args.dump:
        if not _write_file(args.dump, history.serialize()):
            return EXIT_UNDECIDED
    else:
        sys.stdout.write(history.serialize())
    return 0
