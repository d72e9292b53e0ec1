"""Stress driver and deterministic replayer for the STM core.

The stress half spawns worker threads that run randomized read-then-write
transactions against one shared registry, records the resulting history,
and hands it to the checker. The replay half executes a scripted
schedule step by step on a single thread, which pins down the exact
interleaving and makes the recorded history reproducible.
"""

from __future__ import annotations

import random
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

from .checker import Verdict, check_with_order
from .core import Registry, Transaction
from .errors import ConfigError, InvariantViolation, ReplayError, UsageError
from .history import ABORT, COMMIT, TERMINALS, WRITE, History, Recorder, VersionNote
from .locks import LockOrderMonitor

WATCHDOG_SECONDS = 30.0

# Transactions finish in microseconds, far below the interpreter's
# default 5 ms preemption slice, so threads would otherwise run whole
# transactions back to back and never actually contend.
SWITCH_INTERVAL = 5e-5

# Written values pack (transaction id, object id, write index) into one
# integer, which keeps every committed value distinct per object without
# any coordination between workers: transaction ids are globally unique.
_OBJ_LIMIT = 1000
_IDX_LIMIT = 1000


def encode_value(tx_id: int, object_id: int, write_idx: int) -> int:
    if not 1 <= object_id < _OBJ_LIMIT:
        raise ConfigError(f"object id {object_id} not encodable (max {_OBJ_LIMIT - 1})")
    if not 0 <= write_idx < _IDX_LIMIT:
        raise ConfigError(f"write index {write_idx} not encodable (max {_IDX_LIMIT - 1})")
    return (tx_id * _OBJ_LIMIT + object_id) * _IDX_LIMIT + write_idx


def decode_value(value: int) -> tuple[int, int, int]:
    """Inverse of encode_value: (transaction id, object id, write index)."""
    rest, write_idx = divmod(value, _IDX_LIMIT)
    tx_id, object_id = divmod(rest, _OBJ_LIMIT)
    return tx_id, object_id, write_idx


@dataclass(frozen=True)
class WorkloadConfig:
    threads: int = 4
    txs_per_thread: int = 25
    object_count: int = 16
    reads_per_tx: tuple[int, int] = (1, 3)
    writes_per_tx: tuple[int, int] = (1, 2)
    ro_fraction: float = 0.2
    gc_threshold: int | None = None
    seed: int = 0
    retry_limit: int = 2

    def __post_init__(self):
        if self.threads < 1:
            raise ConfigError(f"threads must be positive, got {self.threads}")
        if self.txs_per_thread < 1:
            raise ConfigError(f"txs per thread must be positive, got {self.txs_per_thread}")
        if not 1 <= self.object_count < _OBJ_LIMIT:
            raise ConfigError(
                f"object count must be in 1..{_OBJ_LIMIT - 1}, got {self.object_count}"
            )
        for name, rng in (("reads", self.reads_per_tx), ("writes", self.writes_per_tx)):
            lo, hi = rng
            if not 0 <= lo <= hi:
                raise ConfigError(f"{name} range must satisfy 0 <= lo <= hi, got {rng}")
        if self.writes_per_tx[1] >= _IDX_LIMIT:
            raise ConfigError(f"writes per tx capped at {_IDX_LIMIT - 1}")
        if self.writes_per_tx[1] > self.object_count:
            # written objects are distinct, so the pool must be large enough
            raise ConfigError(
                f"writes per tx upper bound {self.writes_per_tx[1]} exceeds "
                f"object count {self.object_count}"
            )
        if not 0.0 <= self.ro_fraction <= 1.0:
            raise ConfigError(f"ro fraction must be in [0, 1], got {self.ro_fraction}")
        if self.gc_threshold is not None and self.gc_threshold < 1:
            raise ConfigError(f"gc threshold must be >= 1, got {self.gc_threshold}")
        if self.retry_limit < 0:
            raise ConfigError(f"retry limit must be >= 0, got {self.retry_limit}")


@dataclass(frozen=True)
class TxScript:
    """One transaction's plan: objects to read, then objects to write.

    Written values are not part of the plan; they are derived from the
    transaction id at execution time, so every attempt writes fresh
    values.
    """

    reads: tuple[int, ...]
    writes: tuple[int, ...]

    @property
    def read_only(self) -> bool:
        return not self.writes


def thread_script(config: WorkloadConfig, worker: int) -> list[TxScript]:
    """The fixed transaction plans for one worker.

    Seeded with a string so the stream is stable across processes; the
    same config and worker index always produce the same plans.
    """
    rng = random.Random(f"{config.seed}/{worker}")
    plans = []
    for _ in range(config.txs_per_thread):
        n_reads = rng.randint(*config.reads_per_tx)
        reads = tuple(rng.randint(1, config.object_count) for _ in range(n_reads))
        if rng.random() < config.ro_fraction:
            writes: tuple[int, ...] = ()
        else:
            n_writes = rng.randint(*config.writes_per_tx)
            # distinct targets; writing one object twice only keeps the
            # last value anyway
            pool = list(range(1, config.object_count + 1))
            rng.shuffle(pool)
            writes = tuple(pool[: min(n_writes, config.object_count)])
        plans.append(TxScript(reads, writes))
    return plans


@dataclass
class _WorkerStats:
    # commits and aborts are counted from the recorded history
    gave_up: int = 0
    # (aborting id i, object, prior creator j, reader k)
    witnesses: list[tuple[int, int, int, int]] = field(default_factory=list)
    error: BaseException | None = None


def _run_attempt(registry: Registry, script: TxScript, stats: _WorkerStats) -> bool:
    tx = registry.begin()
    for obj in script.reads:
        registry.read(tx, obj)
    for idx, obj in enumerate(script.writes):
        registry.write(tx, obj, encode_value(tx.id, obj, idx))
    if registry.try_commit(tx):
        return True
    if tx.abort_witness is None:
        raise InvariantViolation(
            f"transaction {tx.id} aborted without a conflict witness"
        )
    obj, j, k = tx.abort_witness
    if not j < tx.id < k:
        raise InvariantViolation(
            f"abort witness for {tx.id} is not a conflict: {j} < {tx.id} < {k} fails"
        )
    stats.witnesses.append((tx.id, obj, j, k))
    return False


def _worker(
    registry: Registry,
    scripts: list[TxScript],
    retry_limit: int,
    start: threading.Event,
    stats: _WorkerStats,
) -> None:
    try:
        start.wait()
        for script in scripts:
            aborts = 0
            while not _run_attempt(registry, script, stats):
                aborts += 1
                if aborts > retry_limit:
                    stats.gave_up += 1
                    break
    except BaseException as exc:  # surfaced by run() after the join
        stats.error = exc


def _tally(history: History) -> Counter:
    """Terminal events keyed by (kind, is update): a transaction that
    recorded a write is an update transaction, any other is read-only."""
    writers: set[int] = set()
    tally: Counter = Counter()
    for e in history.events:
        if e.kind == WRITE:
            writers.add(e.tx)
        elif e.kind in TERMINALS:
            tally[e.kind, e.tx in writers] += 1
    return tally


@dataclass
class RunReport:
    config: WorkloadConfig
    history: History
    verdict: Verdict
    wall_seconds: float
    ro_committed: int
    ro_aborted: int
    update_committed: int
    update_aborted: int
    retries: int
    gave_up: int
    witnesses: tuple[tuple[int, int, int, int], ...]
    versions_per_object: dict[int, int]
    gc_deleted_per_object: dict[int, int]
    lock_acquisitions: int
    lock_violations: int
    version_notes: tuple[VersionNote, ...]

    @property
    def committed(self) -> int:
        return self.ro_committed + self.update_committed

    @property
    def aborted(self) -> int:
        return self.ro_aborted + self.update_aborted

    @property
    def gc_deleted(self) -> int:
        return sum(self.gc_deleted_per_object.values())

    def key_values(self) -> dict[str, object]:
        cfg = self.config
        return {
            "threads": cfg.threads,
            "txs_per_thread": cfg.txs_per_thread,
            "objects": cfg.object_count,
            "gc_threshold": 0 if cfg.gc_threshold is None else cfg.gc_threshold,
            "seed": cfg.seed,
            "events": len(self.history),
            "committed": self.committed,
            "aborted": self.aborted,
            "ro_committed": self.ro_committed,
            "ro_aborted": self.ro_aborted,
            "update_committed": self.update_committed,
            "update_aborted": self.update_aborted,
            "retries": self.retries,
            "gave_up": self.gave_up,
            "gc_deleted": self.gc_deleted,
            "max_versions": max(self.versions_per_object.values()),
            "lock_acquisitions": self.lock_acquisitions,
            "lock_violations": self.lock_violations,
            "verdict": self.verdict.status,
            "wall_seconds": round(self.wall_seconds, 3),
        }

    def format_report(self) -> str:
        cfg = self.config
        gc_note = (
            "off" if cfg.gc_threshold is None else f"threshold {cfg.gc_threshold}"
        )
        lines = [
            f"stress: {cfg.threads} threads x {cfg.txs_per_thread} txs, "
            f"{cfg.object_count} objects, gc {gc_note}, seed {cfg.seed}",
            f"committed {self.committed} (ro {self.ro_committed}, "
            f"update {self.update_committed}); aborted {self.aborted} "
            f"(ro {self.ro_aborted}, update {self.update_aborted}); "
            f"retries {self.retries}, gave up {self.gave_up}",
            f"gc: {self.gc_deleted} versions deleted; "
            f"largest version list {max(self.versions_per_object.values())}",
            f"locks: {self.lock_acquisitions} acquisitions, "
            f"{self.lock_violations} order violations",
            f"verdict: {self.verdict.summary()}",
            f"wall: {self.wall_seconds:.2f} s",
        ]
        return "\n".join(lines)


def run(config: WorkloadConfig, watchdog: float = WATCHDOG_SECONDS) -> RunReport:
    """Execute one stress run and verify its recorded history.

    Raises TimeoutError when a worker outlives the watchdog and
    InvariantViolation when the run breaks a protocol guarantee that the
    implementation is supposed to enforce unconditionally.
    """
    recorder = Recorder()
    monitor = LockOrderMonitor()
    registry = Registry(
        config.object_count,
        gc_threshold=config.gc_threshold,
        recorder=recorder,
        monitor=monitor,
    )
    scripts = [thread_script(config, w) for w in range(config.threads)]
    stats = [_WorkerStats() for _ in range(config.threads)]
    start = threading.Event()
    workers = [
        threading.Thread(
            target=_worker,
            args=(registry, scripts[w], config.retry_limit, start, stats[w]),
            name=f"stress-{w}",
            daemon=True,
        )
        for w in range(config.threads)
    ]
    prior_interval = sys.getswitchinterval()
    sys.setswitchinterval(SWITCH_INTERVAL)
    began = time.monotonic()
    try:
        for t in workers:
            t.start()
        start.set()
        deadline = began + watchdog
        for t in workers:
            t.join(max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(prior_interval)
    stuck = [t.name for t in workers if t.is_alive()]
    if stuck:
        raise TimeoutError(
            f"watchdog: workers {stuck} still running after {watchdog:.0f} s"
        )
    wall = time.monotonic() - began
    for s in stats:
        if s.error is not None:
            raise s.error
    if recorder.invalid_reason is not None:
        raise InvariantViolation(
            f"recorded history is malformed: {recorder.invalid_reason}"
        )
    leftover = registry.live_ids()
    if leftover:
        raise InvariantViolation(f"live set not drained: {sorted(leftover)}")
    if monitor.violations:
        raise InvariantViolation(
            f"lock order violated: {monitor.violations[:3]}"
        )
    history = recorder.history()
    tally = _tally(history)
    ro_aborted = tally[ABORT, False]
    if ro_aborted:
        raise InvariantViolation(
            f"{ro_aborted} read-only transactions aborted; reads never conflict"
        )
    verdict = check_with_order(history)
    update_aborted = tally[ABORT, True]
    gave_up = sum(s.gave_up for s in stats)
    return RunReport(
        config=config,
        history=history,
        verdict=verdict,
        wall_seconds=wall,
        ro_committed=tally[COMMIT, False],
        ro_aborted=ro_aborted,
        update_committed=tally[COMMIT, True],
        update_aborted=update_aborted,
        # every abort is retried except the last of a script given up on
        retries=update_aborted - gave_up,
        gave_up=gave_up,
        witnesses=tuple(w for s in stats for w in s.witnesses),
        versions_per_object={
            oid: len(registry.tobject(oid).versions)
            for oid in range(1, config.object_count + 1)
        },
        gc_deleted_per_object={
            oid: registry.tobject(oid).gc_deleted
            for oid in range(1, config.object_count + 1)
        },
        lock_acquisitions=monitor.acquisitions,
        lock_violations=len(monitor.violations),
        version_notes=tuple(recorder.version_notes()),
    )


# ------------------------------------------------------------------- replay


@dataclass(frozen=True)
class ReplayStep:
    line_no: int
    thread: str
    op: str
    obj: str | None = None
    value: int | None = None


_STEP_FIELDS = {"b": 0, "r": 1, "w": 2, "c": 0, "a": 0}


def parse_script(text: str) -> tuple[list[str], list[ReplayStep]]:
    """Parse a replay script into its object tokens and its steps.

    Shape:

        objects x y z        # or: objects 3  (names then 1..3)
        step 0 b
        step 0 r x
        step 0 w x 5
        step 0 c

    Steps execute in file order, one at a time; the thread field only
    selects which transaction handle the step drives.
    """
    objects: list[str] | None = None
    steps: list[ReplayStep] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "objects":
            if objects is not None:
                raise ReplayError(line_no, "duplicate objects line")
            if steps:
                raise ReplayError(line_no, "objects line must precede steps")
            if len(tokens) < 2:
                raise ReplayError(line_no, "objects line names no objects")
            if len(tokens) == 2 and tokens[1].isdecimal():
                count = int(tokens[1])
                if count < 1:
                    raise ReplayError(line_no, "object count must be positive")
                objects = [str(i) for i in range(1, count + 1)]
            else:
                objects = tokens[1:]
                if len(set(objects)) != len(objects):
                    raise ReplayError(line_no, "duplicate object name")
            continue
        if tokens[0] != "step":
            raise ReplayError(line_no, f"expected 'objects' or 'step', got {tokens[0]!r}")
        if objects is None:
            raise ReplayError(line_no, "steps must follow an objects line")
        if len(tokens) < 3:
            raise ReplayError(line_no, "step needs a thread and an operation")
        thread, op = tokens[1], tokens[2]
        extra = _STEP_FIELDS.get(op)
        if extra is None:
            raise ReplayError(line_no, f"unknown operation {op!r}")
        if len(tokens) != 3 + extra:
            raise ReplayError(
                line_no, f"operation {op!r} takes {extra} argument(s)"
            )
        obj = value = None
        if extra >= 1:
            obj = tokens[3]
            if obj not in objects:
                raise ReplayError(line_no, f"undefined object {obj!r}")
        if extra == 2:
            try:
                value = int(tokens[4], 10)
            except ValueError:
                raise ReplayError(line_no, f"bad value {tokens[4]!r}") from None
        steps.append(ReplayStep(line_no, thread, op, obj, value))
    return objects or [], steps


def replay(text: str, gc_threshold: int | None = None) -> History:
    """Execute a replay script and return the recorded history.

    Steps run strictly in script order on the calling thread, which is
    observably equivalent to running each step on its own thread behind
    a step barrier, and deterministic. A read after a write in the same
    transaction raises ReplayError naming its line.
    """
    objects, steps = parse_script(text)
    if not steps:
        return History()
    ids = {name: i for i, name in enumerate(objects, start=1)}
    recorder = Recorder(object_name=lambda oid: objects[oid - 1])
    registry = Registry(len(objects), gc_threshold=gc_threshold, recorder=recorder)
    open_tx: dict[str, Transaction] = {}
    for s in steps:
        tx = open_tx.get(s.thread)
        if s.op == "b":
            if tx is not None:
                raise ReplayError(
                    s.line_no, f"thread {s.thread} already has a live transaction"
                )
            open_tx[s.thread] = registry.begin()
            continue
        if tx is None:
            raise ReplayError(
                s.line_no, f"thread {s.thread} has no live transaction"
            )
        if s.op == "r":
            try:
                registry.read(tx, ids[s.obj])
            except UsageError as exc:  # a read after a write
                raise ReplayError(s.line_no, str(exc)) from exc
        elif s.op == "w":
            registry.write(tx, ids[s.obj], s.value)
        elif s.op == "c":
            registry.try_commit(tx)
            del open_tx[s.thread]
        else:
            registry.try_abort(tx)
            del open_tx[s.thread]
    return recorder.history()
