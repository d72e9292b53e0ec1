"""Multiversion timestamp-ordered software transactional memory.

Each shared object keeps a list of committed versions sorted by creator
timestamp. A read returns the newest version older than the reader and
never blocks on writers; writes are buffered in the transaction until
commit. An update commit validates each written object: it must abort
iff some existing version was created before the committer and already
read by a transaction younger than the committer, because installing the
new version would silently invalidate that read.

Locking discipline: objects are locked in ascending object id, and the
registry's own lock (timestamp counter plus live-transaction set) ranks
after every object. All locks are FIFO-fair.
"""

from __future__ import annotations

import bisect
from collections.abc import Sequence
from dataclasses import dataclass, field

from . import history as hist
from .errors import ConfigError, InvariantViolation, UsageError
from .gc import insert_tuple
from .locks import FairLock, LockOrderMonitor

LIVE = "live"
COMMITTED = "committed"
ABORTED = "aborted"


@dataclass
class VersionTuple:
    """One committed version of a shared object.

    readers collects the ids of every transaction that read this
    version; entries are never removed, even when the reader terminates.
    The next committed writer of the object is the version after this
    one in the object's list.
    """

    ts: int
    value: int
    readers: set[int] = field(default_factory=set)


class TObject:
    """A shared object: its sorted version list plus its lock."""

    __slots__ = ("object_id", "lock", "versions")

    def __init__(self, object_id: int):
        self.object_id = object_id
        self.lock = FairLock()
        self.versions: list[VersionTuple] = [VersionTuple(0, 0)]

    def find(self, ts: int) -> VersionTuple:
        """Version with the largest creator timestamp strictly below ts.

        Caller must hold the object's lock. A candidate always exists
        while the gc retention rule holds; its absence is a bug.
        """
        idx = bisect.bisect_left(self.versions, ts, key=lambda vt: vt.ts)
        if idx == 0:
            raise InvariantViolation(
                f"object {self.object_id} has no version older than {ts}"
            )
        return self.versions[idx - 1]

    def find_conflict(self, ts: int) -> tuple[int, int] | None:
        """Return (creator, reader) with creator < ts < reader, or None.

        Such a pair means a younger transaction already read an older
        version, so installing a version at ts would invalidate it.
        Caller must hold the object's lock.
        """
        for vt in self.versions:
            if vt.ts < ts:
                later = [k for k in vt.readers if k > ts]
                if later:
                    return vt.ts, min(later)
        return None

    def insert_version(self, vt: VersionTuple) -> None:
        idx = bisect.bisect_left(self.versions, vt.ts, key=lambda v: v.ts)
        if idx < len(self.versions) and self.versions[idx].ts == vt.ts:
            raise InvariantViolation(
                f"object {self.object_id} already has a version at {vt.ts}"
            )
        self.versions.insert(idx, vt)


class Transaction:
    """Handle for one transaction; confined to one thread at a time."""

    __slots__ = ("id", "write_set", "status", "abort_witness")

    def __init__(self, tx_id: int):
        self.id = tx_id
        self.write_set: dict[int, int] = {}
        self.status = LIVE
        # (object id, prior creator j, reader k) with j < id < k, set
        # when commit validation fails
        self.abort_witness: tuple[int, int, int] | None = None

    @property
    def read_only(self) -> bool:
        return not self.write_set

    def __repr__(self):
        return f"<Transaction {self.id} {self.status}>"


class Registry:
    """Shared state for one STM instance.

    Objects are numbered 1..object_count; that numbering is the global
    lock order. An optional recorder receives each event inside the
    critical section that makes it visible, and an optional monitor
    observes every lock acquisition.
    """

    def __init__(
        self,
        object_count: int,
        gc_threshold: int | None = None,
        recorder=None,
        monitor: LockOrderMonitor | None = None,
    ):
        if object_count < 1:
            raise ConfigError(f"object count must be at least 1, got {object_count}")
        if gc_threshold is not None and gc_threshold < 1:
            raise ConfigError(f"gc threshold must be at least 1, got {gc_threshold}")
        self.object_count = object_count
        self.gc_threshold = gc_threshold
        self._objects = [TObject(i) for i in range(1, object_count + 1)]
        self._live_lock = FairLock()
        self._live_rank = object_count + 1
        self._live: set[int] = set()
        self._counter = 1
        self._recorder = recorder
        self._monitor = monitor

    # -- lock plumbing

    def _acquire(self, lock: FairLock, rank: int) -> None:
        lock.acquire()
        if self._monitor is not None:
            self._monitor.on_acquired(rank)

    def _release(self, lock: FairLock, rank: int) -> None:
        if self._monitor is not None:
            self._monitor.on_released(rank)
        lock.release()

    def _record(self, kind: str, tx_id: int, obj_id=None, value=None) -> None:
        if self._recorder is not None:
            self._recorder.on_event(kind, tx_id, obj_id, value)

    # -- introspection

    def tobject(self, object_id: int) -> TObject:
        if not 1 <= object_id <= self.object_count:
            raise UsageError(
                f"object id {object_id} outside 1..{self.object_count}"
            )
        return self._objects[object_id - 1]

    def live_ids(self) -> set[int]:
        with self._live_lock:
            return set(self._live)

    def lock_handoffs(self) -> int:
        """Releases, over every object lock and the live lock, that
        served a queued waiter."""
        return self._live_lock.handoffs + sum(o.lock.handoffs for o in self._objects)

    # -- protocol operations

    def begin(self) -> Transaction:
        self._acquire(self._live_lock, self._live_rank)
        try:
            tx_id = self._counter
            self._counter += 1
            self._live.add(tx_id)
            self._record(hist.BEGIN, tx_id)
        finally:
            self._release(self._live_lock, self._live_rank)
        return Transaction(tx_id)

    def read(self, tx: Transaction, object_id: int) -> int:
        """Value of the newest version older than tx; tx joins its readers.

        A re-read finds the same version as the first read: a committer
        between that version and tx fails validation against tx's
        reader entry, and gc keeps the version while tx is live.
        """
        self._require_live(tx)
        if tx.write_set:
            raise UsageError(
                f"transaction {tx.id} read after write: reads must precede writes"
            )
        tobj = self.tobject(object_id)
        self._acquire(tobj.lock, tobj.object_id)
        try:
            vt = tobj.find(tx.id)
            vt.readers.add(tx.id)
            self._record(hist.READ, tx.id, object_id, vt.value)
        finally:
            self._release(tobj.lock, tobj.object_id)
        return vt.value

    def write(self, tx: Transaction, object_id: int, value: int) -> None:
        """Buffer the write locally; shared state is untouched until commit."""
        self._require_live(tx)
        self.tobject(object_id)
        tx.write_set[object_id] = value
        self._record(hist.WRITE, tx.id, object_id, value)

    def try_commit(self, tx: Transaction) -> bool:
        """Commit tx. Returns True on commit, False on abort.

        Read-only transactions commit unconditionally. Update
        transactions lock their written objects in ascending id order
        and validate each one. Once all pass, one live-lock section
        takes tx out of the live set, installs every new version, notes
        each one and collects its object when gc is on, and records the
        commit event. The object locks are still held throughout, so
        any later read that returns one of the new versions is recorded
        after the commit that published them.
        """
        self._require_live(tx)
        targets = [(oid, self.tobject(oid)) for oid in sorted(tx.write_set)]
        held: list[TObject] = []
        try:
            for oid, tobj in targets:
                self._acquire(tobj.lock, tobj.object_id)
                held.append(tobj)
                pair = tobj.find_conflict(tx.id)
                if pair is not None:
                    tx.abort_witness = (oid, pair[0], pair[1])
                    break
            else:
                self._finish(tx, COMMITTED, hist.COMMIT, targets)
                return True
        finally:
            for tobj in reversed(held):
                self._release(tobj.lock, tobj.object_id)
        self._finish(tx, ABORTED, hist.ABORT)
        return False

    def try_abort(self, tx: Transaction) -> None:
        """Abort tx voluntarily. Reader entries it left behind remain."""
        self._require_live(tx)
        tx.write_set.clear()
        self._finish(tx, ABORTED, hist.ABORT)

    # -- internals

    def _finish(
        self,
        tx: Transaction,
        final_status: str,
        event: str,
        written: Sequence[tuple[int, TObject]] = (),
    ) -> None:
        """Terminate tx in one live-lock section.

        tx first leaves the live set with final_status, so it ends even
        when the recorder or gc raises later, and a tx that is not live
        raises before any version goes in. Then each written object gets
        tx's version, noted and collected when gc is on, and event is
        recorded. Collection deletes what it would with tx still live:
        tx's id is its new version's timestamp, so it never lies
        strictly inside a window of an object tx writes.
        """
        self._acquire(self._live_lock, self._live_rank)
        try:
            if tx.id not in self._live:
                raise InvariantViolation(f"transaction {tx.id} not in live set")
            self._live.discard(tx.id)
            tx.status = final_status
            for oid, tobj in written:
                tobj.insert_version(VersionTuple(tx.id, tx.write_set[oid]))
            for oid, tobj in written:
                if self._recorder is not None:
                    self._recorder.on_version_insert(oid, tx.id)
                if self.gc_threshold is not None:
                    insert_tuple(tobj, self.gc_threshold, self)
            self._record(event, tx.id)
        finally:
            self._release(self._live_lock, self._live_rank)

    def _require_live(self, tx: Transaction) -> None:
        if tx.status != LIVE:
            raise UsageError(f"transaction {tx.id} is already {tx.status}")
