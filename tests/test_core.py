import random

import pytest
from hypothesis import given, strategies as st

from mvtostm import core
from mvtostm.core import ABORTED, COMMITTED, LIVE, Registry, TObject, VersionTuple
from mvtostm.errors import ConfigError, InvariantViolation, UsageError
from mvtostm.gc import insert_tuple
from mvtostm.history import COMMIT, Recorder
from mvtostm.locks import LockOrderMonitor


def find_by_scan(versions, ts):
    """Linear-scan reference for TObject.find."""
    best = None
    for vt in versions:
        if vt.ts < ts and (best is None or vt.ts > best.ts):
            best = vt
    return best


class TestTObject:
    def test_initial_version(self):
        tobj = TObject(1)
        assert [(vt.ts, vt.value) for vt in tobj.versions] == [(0, 0)]

    @given(st.integers(min_value=0, max_value=10_000))
    def test_find_matches_linear_scan(self, seed):
        rng = random.Random(f"find/{seed}")
        tobj = TObject(1)
        for ts in sorted(rng.sample(range(1, 60), rng.randint(0, 10))):
            tobj.insert_version(VersionTuple(ts, ts * 10))
        reader = rng.randint(1, 70)
        assert tobj.find(reader) is find_by_scan(tobj.versions, reader)

    def test_find_below_all_versions_is_a_bug(self):
        tobj = TObject(1)
        tobj.versions = [VersionTuple(5, 50)]
        with pytest.raises(InvariantViolation):
            tobj.find(3)

    def test_insert_keeps_order(self):
        tobj = TObject(1)
        tobj.insert_version(VersionTuple(7, 70))
        tobj.insert_version(VersionTuple(3, 30))
        assert [vt.ts for vt in tobj.versions] == [0, 3, 7]

    def test_insert_duplicate_ts_rejected(self):
        tobj = TObject(1)
        tobj.insert_version(VersionTuple(3, 30))
        with pytest.raises(InvariantViolation):
            tobj.insert_version(VersionTuple(3, 99))

    def test_find_conflict_returns_smallest_reader(self):
        tobj = TObject(1)
        tobj.versions[0].readers.update({4, 9, 6})
        assert tobj.find_conflict(2) == (0, 4)

    def test_no_conflict_when_readers_older(self):
        tobj = TObject(1)
        tobj.versions[0].readers.update({1, 2})
        assert tobj.find_conflict(5) is None

    def test_conflict_only_on_older_versions(self):
        # A reader of a version written after ts does not block ts.
        tobj = TObject(1)
        tobj.insert_version(VersionTuple(6, 60, readers={9}))
        assert tobj.find_conflict(4) is None


class TestRegistryBasics:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            Registry(0)
        with pytest.raises(ConfigError):
            Registry(4, gc_threshold=0)

    def test_ids_are_sequential_from_one(self):
        reg = Registry(2)
        assert [reg.begin().id for _ in range(3)] == [1, 2, 3]
        assert reg.live_ids() == {1, 2, 3}
        assert reg.begin().id == 4

    def test_lock_handoffs_sum_every_lock(self):
        reg = Registry(2)
        reg.tobject(1).lock.handoffs = 1
        reg.tobject(2).lock.handoffs = 2
        reg._live_lock.handoffs = 4
        assert reg.lock_handoffs() == 7

    def test_unknown_object_rejected(self):
        reg = Registry(2)
        tx = reg.begin()
        with pytest.raises(UsageError):
            reg.read(tx, 3)
        with pytest.raises(UsageError):
            reg.write(tx, 0, 1)


class TestReadWrite:
    def test_read_initial_zero_and_reader_logged(self):
        reg = Registry(1)
        tx = reg.begin()
        assert reg.read(tx, 1) == 0
        assert reg.tobject(1).versions[0].readers == {tx.id}

    def test_read_returns_newest_older_version(self):
        reg = Registry(1)
        for value in (10, 20):
            tx = reg.begin()
            reg.write(tx, 1, value)
            assert reg.try_commit(tx)
        reader = reg.begin()  # id 3
        assert reg.read(reader, 1) == 20

    def test_old_transaction_does_not_see_younger_commit(self):
        reg = Registry(1)
        old = reg.begin()  # id 1
        young = reg.begin()  # id 2
        reg.write(young, 1, 7)
        assert reg.try_commit(young)
        assert reg.read(old, 1) == 0

    def test_reader_skips_aborted_writers(self):
        reg = Registry(1)
        reg.begin()  # id 1: raise the next id past the aborted writer
        loser = reg.begin()  # id 2
        spoiler = reg.begin()  # id 3 reads before loser commits
        assert reg.read(spoiler, 1) == 0
        reg.write(loser, 1, 999)
        assert not reg.try_commit(loser)
        reader = reg.begin()
        assert reg.read(reader, 1) == 0

    def test_reread_returns_first_value(self):
        reg = Registry(1)
        old = reg.begin()
        assert reg.read(old, 1) == 0
        # a younger writer slips in a newer version
        young = reg.begin()
        reg.write(young, 1, 7)
        assert reg.try_commit(young)
        assert reg.read(old, 1) == 0  # same value as the first read
        recorded = reg.tobject(1).versions[0].readers
        assert old.id in recorded

    def test_read_after_write_rejected(self):
        reg = Registry(2)
        tx = reg.begin()
        reg.write(tx, 1, 5)
        with pytest.raises(UsageError):
            reg.read(tx, 2)

    def test_write_buffers_until_commit(self):
        reg = Registry(1)
        tx = reg.begin()
        reg.write(tx, 1, 5)
        reg.write(tx, 1, 6)  # overwrite keeps the last value
        assert [vt.ts for vt in reg.tobject(1).versions] == [0]
        assert reg.try_commit(tx)
        assert [(vt.ts, vt.value) for vt in reg.tobject(1).versions] == [
            (0, 0),
            (tx.id, 6),
        ]


class TestCommit:
    def test_read_only_commits_unconditionally(self):
        reg = Registry(1)
        ro = reg.begin()
        reg.read(ro, 1)
        # a younger update commits a conflicting-looking version first
        up = reg.begin()
        reg.write(up, 1, 5)
        assert reg.try_commit(up)
        assert reg.try_commit(ro)
        assert ro.status == COMMITTED

    def test_update_aborts_when_younger_already_read_past_it(self):
        reg = Registry(1)
        writer = reg.begin()  # id 1
        reader = reg.begin()  # id 2
        assert reg.read(reader, 1) == 0
        reg.write(writer, 1, 5)
        assert not reg.try_commit(writer)
        assert writer.status == ABORTED
        assert writer.abort_witness == (1, 0, 2)
        assert [vt.ts for vt in reg.tobject(1).versions] == [0]
        assert not reg.tobject(1).lock.locked()

    def test_update_commits_when_readers_are_older(self):
        reg = Registry(1)
        reader = reg.begin()  # id 1
        writer = reg.begin()  # id 2
        assert reg.read(reader, 1) == 0
        reg.write(writer, 1, 5)
        assert reg.try_commit(writer)
        assert writer.status == COMMITTED
        assert writer.abort_witness is None

    def test_conflict_on_second_object_installs_nothing(self):
        reg = Registry(2)
        writer = reg.begin()  # id 1
        reader = reg.begin()  # id 2
        assert reg.read(reader, 2) == 0
        reg.write(writer, 1, 11)
        reg.write(writer, 2, 22)
        assert not reg.try_commit(writer)
        assert writer.abort_witness == (2, 0, 2)
        assert [vt.ts for vt in reg.tobject(1).versions] == [0]
        assert [vt.ts for vt in reg.tobject(2).versions] == [0]
        assert not reg.tobject(1).lock.locked()
        assert not reg.tobject(2).lock.locked()

    def test_multi_object_commit_installs_all(self):
        reg = Registry(3)
        tx = reg.begin()
        reg.write(tx, 3, 33)
        reg.write(tx, 1, 11)
        assert reg.try_commit(tx)
        assert reg.tobject(1).versions[-1].value == 11
        assert reg.tobject(3).versions[-1].value == 33
        assert [vt.ts for vt in reg.tobject(2).versions] == [0]

    def test_finished_transactions_reject_operations(self):
        reg = Registry(1)
        tx = reg.begin()
        assert reg.try_commit(tx)
        for op in (
            lambda: reg.read(tx, 1),
            lambda: reg.write(tx, 1, 5),
            lambda: reg.try_commit(tx),
            lambda: reg.try_abort(tx),
        ):
            with pytest.raises(UsageError):
                op()

    def test_commit_drains_live_set(self):
        reg = Registry(1)
        a, b = reg.begin(), reg.begin()
        reg.write(a, 1, 1)
        assert reg.try_commit(a)
        reg.try_abort(b)
        assert reg.live_ids() == set()

    def test_voluntary_abort(self):
        reg = Registry(1)
        tx = reg.begin()
        reg.write(tx, 1, 5)
        reg.try_abort(tx)
        assert tx.status == ABORTED
        assert tx.write_set == {}
        assert tx.abort_witness is None
        assert [vt.ts for vt in reg.tobject(1).versions] == [0]


class TestRecording:
    def test_events_recorded_per_operation(self):
        rec = Recorder()
        reg = Registry(2, recorder=rec)
        tx = reg.begin()
        reg.read(tx, 1)
        reg.write(tx, 2, 5)
        reg.try_commit(tx)
        assert [e.line() for e in rec.history()] == [
            "b 1",
            "r 1 1 0",
            "w 1 2 5",
            "c 1",
        ]

    def test_abort_recorded_for_failed_commit(self):
        rec = Recorder()
        reg = Registry(1, recorder=rec)
        w = reg.begin()
        r = reg.begin()
        reg.read(r, 1)
        reg.write(w, 1, 5)
        assert not reg.try_commit(w)
        kinds = [e.kind for e in rec.history() if e.tx == w.id]
        assert kinds == ["b", "w", "a"]

    def test_insert_notes_without_gc(self):
        rec = Recorder()
        reg = Registry(1, recorder=rec)
        tx = reg.begin()
        reg.write(tx, 1, 5)
        reg.try_commit(tx)
        notes = rec.version_notes()
        assert [(n.action, n.obj, n.ts) for n in notes] == [("insert", "1", 1)]


class TestFinishOrder:
    """A finishing transaction leaves the live set before its versions
    go in, in the same live-lock section."""

    def test_committer_is_not_live_while_its_objects_are_collected(self, monkeypatch):
        registry = Registry(2, gc_threshold=1)
        seen = []

        def noting(tobj, threshold, reg):
            seen.append((tobj.object_id, set(reg._live)))
            insert_tuple(tobj, threshold, reg)

        monkeypatch.setattr(core, "insert_tuple", noting)
        older = registry.begin()
        tx = registry.begin()
        registry.write(tx, 1, 10)
        registry.write(tx, 2, 20)
        assert registry.try_commit(tx)
        assert seen == [(1, {older.id}), (2, {older.id})]
        # the live older transaction still pins the initial versions
        assert [vt.ts for vt in registry.tobject(1).versions] == [0, tx.id]

    def test_commit_of_a_transaction_not_in_the_live_set_installs_nothing(self):
        recorder = Recorder()
        registry = Registry(1, recorder=recorder)
        tx = registry.begin()
        registry.write(tx, 1, 10)
        registry._live.discard(tx.id)
        with pytest.raises(InvariantViolation, match="not in live set"):
            registry.try_commit(tx)
        assert [vt.ts for vt in registry.tobject(1).versions] == [0]
        assert [e.line() for e in recorder.history()] == ["b 1", "w 1 1 10"]
        assert not registry._live_lock.locked()
        assert not registry.tobject(1).lock.locked()


class TestExceptionSafety:
    """An exception raised while commit holds locks must release them.

    It must also terminate the transaction: once validation passes, it
    leaves the live set before its versions go in, so it ends committed.
    """

    @pytest.mark.parametrize(
        "gc_threshold, hook",
        [
            (None, "on_version_insert"),
            (None, "on_event"),
            (1, "on_version_insert"),
            (1, "on_version_delete"),
            (1, "on_event"),  # raised while gc's live lock is held
        ],
    )
    def test_failing_recorder_leaves_no_lock_held(self, gc_threshold, hook):
        recorder = Recorder()
        monitor = LockOrderMonitor()
        registry = Registry(3, gc_threshold=gc_threshold, recorder=recorder, monitor=monitor)

        def inject(*args):
            if hook != "on_event" or args[0] == COMMIT:
                raise RuntimeError("injected")

        tx = registry.begin()
        registry.read(tx, 1)
        registry.write(tx, 1, 10)
        registry.write(tx, 2, 20)
        setattr(recorder, hook, inject)
        with pytest.raises(RuntimeError, match="injected"):
            registry.try_commit(tx)
        delattr(recorder, hook)

        locks = [registry.tobject(oid).lock for oid in (1, 2, 3)]
        assert not any(lock.locked() for lock in locks + [registry._live_lock])
        assert registry.live_ids() == set()
        assert tx.status == COMMITTED
        fresh = registry.begin()
        assert registry.read(fresh, 1) == 10
        assert registry.read(fresh, 2) == 20
        registry.write(fresh, 1, 11)
        registry.write(fresh, 2, 21)
        assert registry.try_commit(fresh)
        assert monitor.violations == []

    @pytest.mark.parametrize("end, status", [("try_commit", COMMITTED), ("try_abort", ABORTED)])
    def test_failing_recorder_still_ends_a_transaction_without_writes(self, end, status):
        recorder = Recorder()
        registry = Registry(1, recorder=recorder)
        tx = registry.begin()
        registry.read(tx, 1)

        def inject(*args):
            raise RuntimeError("injected")

        recorder.on_event = inject
        with pytest.raises(RuntimeError, match="injected"):
            getattr(registry, end)(tx)
        assert tx.status == status
        assert registry.live_ids() == set()
        assert not registry._live_lock.locked()


class TestTransaction:
    def test_status_lifecycle(self):
        reg = Registry(1)
        tx = reg.begin()
        assert tx.status == LIVE
        assert tx.read_only
        reg.write(tx, 1, 5)
        assert not tx.read_only
        assert reg.try_commit(tx)
        assert tx.status == COMMITTED

    def test_repr_mentions_id_and_status(self):
        reg = Registry(1)
        tx = reg.begin()
        assert "1" in repr(tx) and LIVE in repr(tx)
