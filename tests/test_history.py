import threading
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from mvtostm.errors import HistoryFormatError
from mvtostm.history import (
    Event,
    History,
    Recorder,
    parse,
    well_formedness_violation,
)
from tests import support


class TestEvent:
    def test_line_with_object(self):
        assert Event("r", 3, "x", 7).line() == "r 3 x 7"
        assert Event("w", 1, "y", -2).line() == "w 1 y -2"

    def test_line_bare(self):
        assert Event("b", 2).line() == "b 2"
        assert Event("c", 9).line() == "c 9"

    def test_position_is_not_stored(self):
        # an event's order is its index in its history; seq is ignored
        assert Event("r", 1, "x", 0, seq=7) == Event("r", 1, "x", 0)
        assert hash(Event("r", 1, "x", 0, seq=7)) == hash(Event("r", 1, "x", 0))

    def test_seq_is_not_an_attribute(self):
        for event in (Event("c", 2), Event("r", 1, "x", 0, seq=7)):
            with pytest.raises(AttributeError):
                event.seq
        assert replace(Event("r", 1, "x", 0, seq=7), tx=2) == Event("r", 2, "x", 0)


class TestParse:
    def test_reference_history(self):
        h = parse(support.REFERENCE_TEXT)
        assert len(h) == 15
        assert h.committed() == {1, 2, 3}
        assert h.aborted() == set()
        assert h.incomplete() == {4}
        assert h.objects() == {"x", "y", "z"}

    def test_comments_and_blank_lines(self):
        h = parse("# header\n\nr 1 x 0  # trailing\n\nc 1\n")
        assert [e.line() for e in h] == ["r 1 x 0", "c 1"]

    def test_empty_text(self):
        assert parse("") == History()

    @pytest.mark.parametrize(
        "text, line_no",
        [
            ("q 1\n", 1),
            ("r 1 x\n", 1),
            ("c 1 x\n", 1),
            ("r one x 0\n", 1),
            ("r 0 x 0\n", 1),
            ("r -2 x 0\n", 1),
            ("r 1 x zero\n", 1),
            ("c 1\nw 1 x 5\n", 2),
            ("w 1 x 5\nr 1 y 0\n", 2),
            ("r 1 x 0\nb 1\n", 2),
            ("b 1\nb 1\n", 2),
        ],
    )
    def test_rejects_with_line_number(self, text, line_no):
        with pytest.raises(HistoryFormatError) as err:
            parse(text)
        assert err.value.line_no == line_no
        assert str(err.value).startswith(f"line {line_no}:")

    def test_begin_optional(self):
        h = parse("r 1 x 0\nb 2\nc 1\nc 2\n")
        assert h.txns() == {1, 2}


class TestHistory:
    def test_events_of_preserves_order(self):
        h = parse(support.REFERENCE_TEXT)
        assert [e.line() for e in h.events_of(4)] == [
            "r 4 x 5",
            "r 4 y 10",
            "r 4 z 10",
        ]

    def test_serialize_round_trip(self):
        h = parse(support.REFERENCE_TEXT)
        assert h.serialize() == support.REFERENCE_TEXT
        assert parse(h.serialize()) == h

    def test_serialize_empty(self):
        assert History().serialize() == ""

    def test_complete_appends_after_last_event(self):
        # T1's abort lands right after its last event, not at the end.
        h = parse("r 1 x 0\nr 2 x 0\nc 2\n")
        done = h.complete()
        assert [e.line() for e in done] == [
            "r 1 x 0",
            "a 1",
            "r 2 x 0",
            "c 2",
        ]

    def test_complete_reference_history(self):
        done = parse(support.REFERENCE_TEXT).complete()
        assert len(done) == 16
        assert done.events[-1].line() == "a 4"
        assert done.incomplete() == set()

    def test_complete_idempotent(self):
        done = parse(support.REFERENCE_TEXT).complete()
        assert done.complete() is done

    @given(st.integers(min_value=0, max_value=10_000))
    def test_round_trip_property(self, seed):
        h = support.random_well_formed_history(seed)
        text = h.serialize()
        again = parse(text)
        assert again == h
        assert again.serialize() == text


class TestWellFormedness:
    def test_clean_history(self):
        assert well_formedness_violation(parse(support.REFERENCE_TEXT).events) is None

    def test_reports_index_and_message(self):
        events = (Event("w", 1, "x", 5), Event("r", 1, "y", 0))
        idx, msg = well_formedness_violation(events)
        assert idx == 1
        assert "read after write" in msg

    def test_unknown_kind(self):
        events = (Event("b", 1), Event("x", 1))
        assert well_formedness_violation(events) == (1, "unknown event kind 'x'")


class TestRecorder:
    def test_records_in_order(self):
        rec = Recorder()
        rec.on_event("b", 1)
        rec.on_event("r", 1, 2, 0)
        rec.on_event("c", 1)
        h = rec.history()
        assert [e.line() for e in h] == ["b 1", "r 1 2 0", "c 1"]
        assert rec.invalid_reason is None

    def test_object_naming(self):
        rec = Recorder(object_name=lambda oid: f"obj{oid}")
        rec.on_event("r", 1, 3, 0)
        assert rec.history().events[0].obj == "obj3"

    def test_flags_invalid_instead_of_raising(self):
        for calls, flaw in (
            ([("w", 1, 1, 5), ("r", 1, 2, 0)], "read after write"),
            ([("b", 1), ("c", 1), ("r", 1, 1, 0)], "event after terminal"),
            ([("r", 1, 1, 0), ("b", 1), ("c", 1)], "begin is not the first"),
            ([("b", 2), ("c", 0), ("c", 2), ("w", 2, 1, 5)], "must be positive"),
        ):
            rec = Recorder()
            for call in calls:
                rec.on_event(*call)
            events = rec.history().events
            assert len(events) == len(calls)  # every event retained for debugging
            assert rec.invalid_reason == well_formedness_violation(events)[1]
            assert flaw in rec.invalid_reason

    def test_version_notes_positions(self):
        rec = Recorder()
        rec.on_version_insert(1, 0)  # before any event
        rec.on_event("b", 1)
        rec.on_version_insert(2, 1)
        notes = rec.version_notes()
        assert [(n.action, n.obj, n.ts, n.after_seq) for n in notes] == [
            ("insert", "1", 0, -1),
            ("insert", "2", 1, 0),
        ]

    def test_history_returns_snapshot(self):
        rec = Recorder()
        rec.on_event("b", 1)
        snap = rec.history()
        rec.on_event("c", 1)
        assert len(snap) == 1
        assert len(rec.history()) == 2

    def test_concurrent_appends_all_land(self):
        rec = Recorder()

        def log(tx):
            rec.on_event("b", tx)
            for i in range(100):
                rec.on_event("r", tx, 1, i)
            rec.on_event("c", tx)

        threads = [threading.Thread(target=log, args=(tx,)) for tx in (1, 2, 3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        h = rec.history()
        assert len(h) == 306
        for tx in (1, 2, 3):
            lane = [e.line() for e in h if e.tx == tx]
            reads = [f"r {tx} 1 {i}" for i in range(100)]
            assert lane == [f"b {tx}", *reads, f"c {tx}"]
        assert rec.invalid_reason is None
