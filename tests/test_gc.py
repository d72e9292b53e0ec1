from mvtostm.core import Registry
from mvtostm.gc import collect
from mvtostm.history import Recorder
from mvtostm.locks import FairLock, LockOrderMonitor
from tests import support


def committed_writer(reg, oid, value):
    tx = reg.begin()
    reg.write(tx, oid, value)
    assert reg.try_commit(tx)
    return tx.id


def timestamps(tobj):
    return [vt.ts for vt in tobj.versions]


class TestNtsChain:
    """The paper's nts of a version, its next committed writer, is the
    version after it in the object's list."""

    def test_inserts_link_successors(self):
        reg = Registry(1, gc_threshold=50)
        for value in (10, 20, 30):
            committed_writer(reg, 1, value)
        assert timestamps(reg.tobject(1)) == [0, 1, 2, 3]

    def test_gc_disabled_keeps_every_version(self):
        reg = Registry(1)
        committed_writer(reg, 1, 10)
        committed_writer(reg, 1, 20)
        assert timestamps(reg.tobject(1)) == [0, 1, 2]


class TestCollect:
    def test_quiescent_collect_keeps_only_newest(self):
        reg = Registry(1, gc_threshold=1)
        for value in (10, 20, 30):
            committed_writer(reg, 1, value)
        last = committed_writer(reg, 1, 40)
        tobj = reg.tobject(1)
        assert timestamps(tobj) == [last]
        assert tobj.gc_deleted == 4
        assert not reg._live_lock.locked()

    def test_live_transaction_protects_its_window(self):
        reg = Registry(1, gc_threshold=1)
        committed_writer(reg, 1, 10)  # ts 1
        committed_writer(reg, 1, 20)  # ts 2
        bystander = reg.begin()  # id 3, keeps (2, 4) occupied
        committed_writer(reg, 1, 30)  # ts 4 triggers collection
        tobj = reg.tobject(1)
        # ts 2 must survive: transaction 3 would read it
        assert timestamps(tobj) == [2, 4]
        assert reg.read(bystander, 1) == 20

    def test_deleting_between_survivors_repairs_the_chain(self):
        reg = Registry(1, gc_threshold=1)
        guard = reg.begin()  # id 1 protects the initial version
        committed_writer(reg, 1, 10)  # ts 2
        committed_writer(reg, 1, 20)  # ts 3: collection deletes ts 2 only
        tobj = reg.tobject(1)
        assert timestamps(tobj) == [0, 3]
        assert tobj.gc_deleted == 1
        assert reg.read(guard, 1) == 0

    def test_initial_version_is_collectable(self):
        reg = Registry(1, gc_threshold=1)
        committed_writer(reg, 1, 10)
        tobj = reg.tobject(1)
        assert all(vt.ts != 0 for vt in tobj.versions)

    def test_newest_version_never_deleted(self):
        reg = Registry(1, gc_threshold=1)
        last = committed_writer(reg, 1, 10)
        assert timestamps(reg.tobject(1)) == [last]

    def test_collect_leaves_live_lock_held(self, monkeypatch):
        # Collection runs under the committer's object lock and live lock:
        # it takes no lock of its own and releases neither.
        reg = Registry(1)
        committed_writer(reg, 1, 10)  # ts 1
        guard = reg.begin()  # id 2 protects ts 1
        committed_writer(reg, 1, 30)  # ts 3
        committed_writer(reg, 1, 40)  # ts 4
        tobj = reg.tobject(1)

        def refuse(lock):
            raise AssertionError("collect acquired a lock")

        with tobj.lock:
            reg._live_lock.acquire()
            monkeypatch.setattr(FairLock, "acquire", refuse)
            collect(tobj, reg)
            monkeypatch.undo()
            assert reg._live_lock.locked()
            assert tobj.lock.locked()
            reg._live_lock.release()
        assert timestamps(tobj) == [1, 4]
        assert reg.read(guard, 1) == 10

    def test_collect_honors_already_held_live_lock(self):
        # An update commit takes the live lock once, for its own removal
        # from the live set; collection reuses that hold, gc on or off.
        for gc_threshold in (None, 1):
            monitor = LockOrderMonitor()
            reg = Registry(3, gc_threshold=gc_threshold, monitor=monitor)
            for _ in range(3):
                tx = reg.begin()
                reg.write(tx, 1, 10)
                reg.write(tx, 3, 30)
                before = monitor.acquisitions
                assert reg.try_commit(tx)
                # objects 1 and 3, then the live lock
                assert monitor.acquisitions - before == 2 + 1

    def test_deletions_recorded_as_notes(self):
        rec = Recorder()
        reg = Registry(1, gc_threshold=1, recorder=rec)
        committed_writer(reg, 1, 10)
        committed_writer(reg, 1, 20)
        deletes = [n for n in rec.version_notes() if n.action == "delete"]
        assert [(n.obj, n.ts) for n in deletes] == [("1", 0), ("1", 1)]


class TestMultiObjectCommit:
    def test_single_live_lock_hold_spans_all_collections(self):
        rec = Recorder()
        reg = Registry(3, gc_threshold=1, recorder=rec)
        for _ in range(3):
            tx = reg.begin()
            for oid in (1, 2, 3):
                reg.write(tx, oid, tx.id * 100 + oid)
            assert reg.try_commit(tx)
        for oid in (1, 2, 3):
            assert len(reg.tobject(oid).versions) == 1
            assert not reg.tobject(oid).lock.locked()
        assert not reg._live_lock.locked()
        assert reg.live_ids() == set()


class TestAgainstOracle:
    def test_scripted_run_never_deletes_a_live_target(self):
        rec = Recorder()
        reg = Registry(2, gc_threshold=1, recorder=rec)
        early = reg.begin()  # id 1 stays live across collections
        for _ in range(6):
            tx = reg.begin()
            reg.read(tx, 1)
            reg.write(tx, 2, tx.id * 1000)
            reg.try_commit(tx)
        assert reg.read(early, 2) == 0  # its target must still exist
        reg.try_abort(early)
        violations = support.oracle_gc_violations(
            rec.history(), rec.version_notes()
        )
        assert violations == []

    def test_oracle_flags_a_premature_deletion(self):
        # The oracle itself must be able to see a bad deletion: feed it a
        # fabricated log where a live reader's target is dropped.
        rec = Recorder()
        rec.on_event("b", 1)
        rec.on_event("b", 2)
        rec.on_version_insert("x", 2)
        rec.on_version_delete("x", 0)  # transaction 1 still needs ts 0
        violations = support.oracle_gc_violations(
            rec.history(), rec.version_notes()
        )
        assert [(n.ts, tx) for n, tx in violations] == [(0, 1)]


def _apply(reg, open_tx, step):
    lane, op, obj, value = step
    if op == "b":
        open_tx[lane] = reg.begin()
        return open_tx[lane].id
    if op == "r":
        return reg.read(open_tx[lane], obj)
    if op == "w":
        return reg.write(open_tx[lane], obj, value)
    tx = open_tx.pop(lane)
    if op == "c":
        return reg.try_commit(tx), tx.abort_witness
    return reg.try_abort(tx)


def _version_lists(reg):
    return [
        [(vt.ts, vt.value, sorted(vt.readers)) for vt in reg.tobject(oid).versions]
        for oid in range(1, reg.object_count + 1)
    ]


def _deleted(reg):
    return [reg.tobject(oid).gc_deleted for oid in range(1, reg.object_count + 1)]


def _lockstep(reference_cls, seed, gc_threshold, object_count=3):
    """Run one random lane schedule on Registry and on reference_cls side
    by side. After every step, compare the step's result and every
    version list; at the end, compare histories, version notes and gc
    deletions. Returns the reference registry."""
    recorders = [Recorder(), Recorder()]
    new, ref = (
        cls(object_count, gc_threshold=gc_threshold, recorder=rec)
        for cls, rec in zip((Registry, reference_cls), recorders)
    )
    open_new, open_ref = {}, {}
    for step in support.random_lane_schedule(seed, object_count):
        assert _apply(new, open_new, step) == _apply(ref, open_ref, step), (seed, step)
        assert _version_lists(new) == _version_lists(ref), (seed, step)
    assert recorders[0].history() == recorders[1].history()
    assert recorders[0].version_notes() == recorders[1].version_notes()
    assert _deleted(new) == _deleted(ref)
    return ref


class TestAgainstNtsChain:
    """Deciding each version against the next list element collects
    exactly what the hand-kept nts chain did, step for step."""

    def test_random_schedules(self):
        for gc_threshold in (None, 1, 2, 8):
            deleted = 0
            for seed in range(300):
                deleted += sum(_deleted(_lockstep(support.NtsChainRegistry, seed, gc_threshold)))
            # every threshold must actually collect, or nothing was compared
            assert (deleted > 0) == (gc_threshold is not None)


class TestAgainstCachedReads:
    """A re-read that searches the version list again returns what the
    first read returned, step for step."""

    def test_random_schedules(self):
        for gc_threshold in (None, 1, 2, 8):
            re_reads = 0
            for seed in range(300):
                re_reads += _lockstep(support.CachedReadRegistry, seed, gc_threshold).re_reads
            # every threshold must re-read, or nothing was compared
            assert re_reads > 0, gc_threshold
