import itertools

import pytest

from mvtostm import harness
from mvtostm.checker import check_brute_force, timestamp_order
from mvtostm.core import Registry
from mvtostm.errors import ConfigError, InvariantViolation, ReplayError
from mvtostm.harness import (
    ReplayStep,
    WorkloadConfig,
    decode_value,
    encode_value,
    parse_script,
    replay,
    run,
    thread_script,
)
from mvtostm.history import BEGIN, Recorder, parse
from tests import support


class TestValueEncoding:
    def test_round_trip(self):
        assert decode_value(encode_value(7, 16, 2)) == (7, 16, 2)
        assert decode_value(encode_value(1, 1, 0)) == (1, 1, 0)
        assert decode_value(encode_value(12345, 999, 999)) == (12345, 999, 999)

    def test_values_are_distinct_across_ops(self):
        seen = {
            encode_value(tx, obj, idx)
            for tx in (1, 2, 3)
            for obj in (1, 2)
            for idx in (0, 1)
        }
        assert len(seen) == 12

    def test_field_limits(self):
        with pytest.raises(ConfigError):
            encode_value(1, 0, 0)
        with pytest.raises(ConfigError):
            encode_value(1, 1000, 0)
        with pytest.raises(ConfigError):
            encode_value(1, 1, 1000)


class TestWorkloadConfig:
    def test_defaults_are_valid(self):
        cfg = WorkloadConfig()
        assert cfg.threads == 4 and cfg.object_count == 16

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"threads": 0},
            {"txs_per_thread": 0},
            {"object_count": 0},
            {"object_count": 1000},
            {"reads_per_tx": (3, 1)},
            {"reads_per_tx": (-1, 2)},
            {"writes_per_tx": (2, 1)},
            {"writes_per_tx": (0, 1000)},
            {"writes_per_tx": (0, 5), "object_count": 4},
            {"ro_fraction": -0.1},
            {"ro_fraction": 1.5},
            {"gc_threshold": 0},
            {"retry_limit": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            WorkloadConfig(**kwargs)

    def test_scripts_are_deterministic(self):
        cfg = WorkloadConfig(seed=42)
        a = thread_script(cfg, worker=3)
        b = thread_script(cfg, worker=3)
        assert a == b
        assert a != thread_script(cfg, worker=4)
        assert a != thread_script(WorkloadConfig(seed=43), worker=3)

    def test_scripts_respect_bounds(self):
        cfg = WorkloadConfig(
            txs_per_thread=50,
            object_count=8,
            reads_per_tx=(1, 3),
            writes_per_tx=(1, 2),
            ro_fraction=0.5,
            seed=7,
        )
        scripts = thread_script(cfg, worker=0)
        assert len(scripts) == 50
        saw_ro = saw_update = False
        for script in scripts:
            assert 1 <= len(script.reads) <= 3
            assert all(1 <= o <= 8 for o in script.reads + script.writes)
            assert len(set(script.writes)) == len(script.writes)
            if script.read_only:
                saw_ro = True
            else:
                assert 1 <= len(script.writes) <= 2
                saw_update = True
        assert saw_ro and saw_update


class TestRun:
    def test_single_thread_commits_everything(self):
        report = run(WorkloadConfig(threads=1, txs_per_thread=30, seed=5))
        assert report.update_aborted == 0
        assert report.ro_aborted == 0
        assert report.committed == 30
        assert report.gave_up == 0
        assert report.verdict.status == "opaque"
        assert report.lock_violations == 0
        assert report.lock_acquisitions > 0
        assert report.lock_handoffs == 0  # one thread never queues

    def test_contended_run_aborts_and_stays_opaque(self):
        report = None
        for seed in range(5):
            report = run(
                WorkloadConfig(
                    threads=8,
                    txs_per_thread=25,
                    object_count=4,
                    writes_per_tx=(1, 2),
                    ro_fraction=0.2,
                    seed=seed,
                )
            )
            assert report.ro_aborted == 0
            assert report.verdict.status == "opaque"
            for i, obj, j, k in report.witnesses:
                assert j < i < k, (i, obj, j, k)
            if report.update_aborted > 0:
                break
        assert report.update_aborted > 0, "no contention in any seed"

    def test_report_counts_are_consistent(self):
        # The commit and abort tallies are counted from the history;
        # gave_up and the witnesses are kept by the workers. The three
        # records must agree on every input.
        shapes = itertools.product((2, 4, 8), (None, 1, 2), (0, 1, 2))
        configs = [WorkloadConfig(threads=2, txs_per_thread=10, seed=9)] + [
            WorkloadConfig(
                threads=threads,
                txs_per_thread=10,
                object_count=4,
                gc_threshold=gc,
                retry_limit=retry,
                seed=seed,
            )
            for seed, (threads, gc, retry) in enumerate(shapes)
        ]
        reports = [run(cfg) for cfg in configs]
        for cfg, report in zip(configs, reports):
            total = cfg.threads * cfg.txs_per_thread
            scripts = [s for w in range(cfg.threads) for s in thread_script(cfg, w)]
            # read-only transactions never abort, so each commits once
            assert report.ro_committed == sum(s.read_only for s in scripts), cfg
            assert report.update_aborted == len(report.witnesses), cfg
            assert report.committed + report.gave_up == total, cfg
            assert report.retries == report.aborted - report.gave_up, cfg
        assert any(r.gave_up > 0 for r in reports), "no input gave up a script"
        assert any(r.update_aborted > 0 for r in reports), "no contention"
        kv = reports[0].key_values()
        assert kv["threads"] == 2 and kv["verdict"] == "opaque"
        text = reports[0].format_report()
        assert "committed" in text and "verdict" in text

    def test_gc_run_deletes_versions(self):
        report = run(
            WorkloadConfig(
                threads=4,
                txs_per_thread=25,
                object_count=2,
                writes_per_tx=(1, 1),
                ro_fraction=0.0,
                gc_threshold=2,
                seed=11,
            )
        )
        assert report.gc_deleted > 0
        assert report.verdict.status == "opaque"
        assert report.ro_aborted == 0
        h = report.history
        assert support.oracle_read_mismatches(h) == []
        assert support.oracle_write_rule_violations(h) == []
        assert support.oracle_gc_violations(h, report.version_notes) == []

    def test_watchdog_fires(self):
        with pytest.raises(TimeoutError, match="watchdog"):
            run(
                WorkloadConfig(threads=4, txs_per_thread=400, seed=1),
                watchdog=0.0,
            )

    def test_runs_are_reproducible(self):
        cfg = WorkloadConfig(threads=2, txs_per_thread=5, seed=3)
        a, b = run(cfg), run(cfg)
        # Scheduling varies, durable outcomes must not drift with it:
        # both runs issue identical scripts, so committed work matches.
        assert a.config == b.config
        assert a.committed + a.gave_up == b.committed + b.gave_up


class TestRunRefusals:
    """run() refuses a run that breaks a protocol guarantee. Each test
    injects one fault into a one-thread run."""

    CONFIG = WorkloadConfig(threads=1, txs_per_thread=3, seed=5)

    def test_abort_without_a_witness(self, monkeypatch):
        def abort(registry, tx):
            registry.try_abort(tx)
            return False

        monkeypatch.setattr(Registry, "try_commit", abort)
        with pytest.raises(
            InvariantViolation, match="^transaction 1 aborted without a conflict witness$"
        ):
            run(self.CONFIG)

    def test_witness_that_is_not_a_conflict(self, monkeypatch):
        def abort(registry, tx):
            registry.try_abort(tx)
            tx.abort_witness = (1, tx.id, tx.id + 1)
            return False

        monkeypatch.setattr(Registry, "try_commit", abort)
        with pytest.raises(
            InvariantViolation,
            match=r"^abort witness for 1 is not a conflict: 1 < 1 < 2 fails$",
        ):
            run(self.CONFIG)

    def test_exception_in_a_worker(self, monkeypatch):
        def read(registry, tx, object_id):
            raise RuntimeError("injected")

        monkeypatch.setattr(Registry, "read", read)
        with pytest.raises(RuntimeError, match="^injected$"):
            run(self.CONFIG)

    def test_malformed_recording(self, monkeypatch):
        on_event = Recorder.on_event

        def begin_twice(recorder, kind, tx, obj=None, value=None):
            on_event(recorder, kind, tx, obj, value)
            if kind == BEGIN:
                on_event(recorder, kind, tx, obj, value)

        monkeypatch.setattr(Recorder, "on_event", begin_twice)
        with pytest.raises(
            InvariantViolation,
            match="^recorded history is malformed: "
            "begin is not the first event of transaction 1$",
        ):
            run(self.CONFIG)

    def test_live_set_not_drained(self, monkeypatch):
        begin = Registry.begin

        def leaky(registry):
            begin(registry)  # a transaction nobody finishes
            return begin(registry)

        monkeypatch.setattr(Registry, "begin", leaky)
        with pytest.raises(
            InvariantViolation, match=r"^live set not drained: \[1, 3, 5\]$"
        ):
            run(self.CONFIG)

    def test_lock_order_violation(self, monkeypatch):
        read = Registry.read

        def read_under_live_lock(registry, tx, object_id):
            registry._acquire(registry._live_lock, registry._live_rank)
            try:
                return read(registry, tx, object_id)
            finally:
                registry._release(registry._live_lock, registry._live_rank)

        monkeypatch.setattr(Registry, "read", read_under_live_lock)
        # (thread, held ranks, acquired rank): the live lock ranks 17
        with pytest.raises(
            InvariantViolation, match=r"^lock order violated: \[\(\d+, \(17,\), \d+\)"
        ):
            run(self.CONFIG)

    def test_read_only_abort(self, monkeypatch):
        try_commit = Registry.try_commit

        def abort_readers(registry, tx):
            if not tx.read_only:
                return try_commit(registry, tx)
            registry.try_abort(tx)
            tx.abort_witness = (1, 0, tx.id + 1)
            return False

        monkeypatch.setattr(Registry, "try_commit", abort_readers)
        config = WorkloadConfig(threads=1, txs_per_thread=1, ro_fraction=1.0, seed=5)
        with pytest.raises(
            InvariantViolation,
            match="^3 read-only transactions aborted; reads never conflict$",
        ):
            run(config)


class TestParseScript:
    def test_named_objects(self):
        objects, steps = parse_script("objects x y z\nstep a b\nstep a r x\n")
        assert objects == ["x", "y", "z"]
        assert steps[0] == ReplayStep(2, "a", "b", None, None)
        assert steps[1] == ReplayStep(3, "a", "r", "x", None)

    def test_numbered_objects(self):
        objects, steps = parse_script("objects 3\nstep t w 2 9\n")
        assert objects == ["1", "2", "3"]
        assert steps[0] == ReplayStep(2, "t", "w", "2", 9)

    def test_non_decimal_digit_is_a_name(self):
        # "²" is a digit to str.isdigit but not a decimal int() accepts
        objects, steps = parse_script("objects ²\nstep t w ² 9\n")
        assert objects == ["²"]
        assert steps[0] == ReplayStep(2, "t", "w", "²", 9)

    def test_comments_and_blanks(self):
        objects, steps = parse_script(
            "# setup\nobjects x\n\nstep a b  # begin\nstep a c\n"
        )
        assert [s.op for s in steps] == ["b", "c"]

    @pytest.mark.parametrize(
        "text, line_no, fragment",
        [
            ("step a b\n", 1, "objects"),
            ("objects x\nobjects y\n", 2, "objects"),
            ("objects\n", 1, "objects"),
            ("objects x x\n", 1, "duplicate"),
            ("objects 0\n", 1, "object count"),
            ("objects x\nstep a q\n", 2, "unknown"),
            ("objects x\nstep a\n", 2, "thread"),
            ("objects x\nstep a r\n", 2, "argument"),
            ("objects x\nstep a r x 1\n", 2, "argument"),
            ("objects x\nstep a w x\n", 2, "argument"),
            ("objects x\nstep a r y\n", 2, "undefined object"),
            ("objects x\nstep a w x five\n", 2, "value"),
            ("objects x\nbogus a b\n", 2, "step"),
        ],
    )
    def test_rejects_malformed_scripts(self, text, line_no, fragment):
        with pytest.raises(ReplayError, match=fragment) as info:
            parse_script(text)
        assert info.value.line_no == line_no


class TestReplay:
    def test_empty_script_empty_history(self):
        h = replay("objects 1\n")
        assert len(h) == 0
        assert h.serialize() == ""

    def test_reference_schedule_outcome(self):
        h = replay(support.REFERENCE_SCRIPT)
        assert h.serialize() == support.REFERENCE_REPLAYED

    def test_replay_is_deterministic(self):
        a = replay(support.REFERENCE_SCRIPT)
        b = replay(support.REFERENCE_SCRIPT)
        assert a.serialize() == b.serialize()

    def test_replayed_schedule_is_opaque(self):
        h = replay(support.REFERENCE_SCRIPT)
        assert check_brute_force(h).status == "opaque"

    def test_commit_rule_violation_aborts(self):
        # T2 read the version T1 wants to overwrite, and T2's id sits
        # above T1's: the writer must abort.
        h = replay(
            "objects x\n"
            "step a b\n"
            "step b b\n"
            "step b r x\n"
            "step a w x 5\n"
            "step a c\n"
            "step b c\n"
        )
        assert h.serialize() == "b 1\nb 2\nr 2 x 0\nw 1 x 5\na 1\nc 2\n"

    def test_writer_commits_when_reader_is_older(self):
        h = replay(
            "objects x\n"
            "step a b\n"
            "step b b\n"
            "step a r x\n"
            "step a c\n"
            "step b w x 7\n"
            "step b c\n"
        )
        assert h.serialize() == "b 1\nb 2\nr 1 x 0\nc 1\nw 2 x 7\nc 2\n"

    def test_implicit_values_come_from_the_store(self):
        h = replay(
            "objects x\n"
            "step a b\n"
            "step a w x 33\n"
            "step a c\n"
            "step b b\n"
            "step b r x\n"
            "step b c\n"
        )
        assert "r 2 x 33" in h.serialize()

    def test_thread_lifecycle_errors(self):
        with pytest.raises(ReplayError, match="already has a live"):
            replay("objects x\nstep a b\nstep a b\n")
        with pytest.raises(ReplayError, match="no live"):
            replay("objects x\nstep a c\n")
        with pytest.raises(ReplayError, match="no live"):
            replay("objects x\nstep a b\nstep a c\nstep a r x\n")
        with pytest.raises(ReplayError, match="line 4: .*read after write"):
            replay("objects x\nstep a b\nstep a w x 5\nstep a r x\n")

    def test_gc_during_replay(self):
        lines = ["objects x"]
        for i in range(6):
            t = f"t{i}"
            lines += [f"step {t} b", f"step {t} w x {100 + i}", f"step {t} c"]
        h = replay("\n".join(lines) + "\n", gc_threshold=1)
        assert check_brute_force(h).status == "opaque"

    def test_object_names_round_trip(self):
        h = replay(
            "objects alpha beta\n"
            "step a b\n"
            "step a r alpha\n"
            "step a r beta\n"
            "step a c\n"
        )
        assert h.objects() == {"alpha", "beta"}
        assert timestamp_order(h) == {"alpha": (0,), "beta": (0,)}
