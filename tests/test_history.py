import pickle
import threading

import pytest
from hypothesis import given, strategies as st

from mvtostm.errors import HistoryFormatError
from mvtostm.history import (
    CANONICAL_LINES,
    Event,
    History,
    Recorder,
    parse,
    well_formedness_violation,
)
from tests import golden, support


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
        assert Event("r", 1, "x", 0, seq=7)._replace(tx=2) == Event("r", 2, "x", 0)

    def test_replace_builds_a_new_event(self):
        event = Event("w", 1, "x", 5)
        changed = event._replace(value=6)
        assert type(changed) is Event
        assert changed.line() == "w 1 x 6"
        assert event.line() == "w 1 x 5"

    def test_fields_are_read_only(self):
        event = Event("r", 1, "x", 0)
        for field in ("kind", "tx", "obj", "value"):
            with pytest.raises(AttributeError):
                setattr(event, field, 1)
        with pytest.raises(AttributeError):
            event.seq = 3
        assert event == Event("r", 1, "x", 0)

    def test_repr(self):
        assert repr(Event("r", 1, "x", 0)) == "Event(kind='r', tx=1, obj='x', value=0)"
        assert repr(Event("c", 2)) == "Event(kind='c', tx=2, obj=None, value=None)"

    def test_hash_is_that_of_the_field_tuple(self):
        assert hash(Event("w", 3, "y", -1)) == hash(("w", 3, "y", -1))

    def test_history_survives_pickle(self):
        # a checker in another process unpickles recorded histories
        h = parse(support.REFERENCE_TEXT)
        again = pickle.loads(pickle.dumps(h))
        assert again == h
        assert all(type(e) is Event for e in again.events)
        assert again.serialize() == support.REFERENCE_TEXT


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

    def test_negative_values(self):
        h = parse("w 1 x -5\nc 1\nr 2 x -5\n")
        assert [e.value for e in h] == [-5, None, -5]

    @pytest.mark.parametrize(
        "text, message",
        [
            # each spelling names transaction 10 or value 5 to int()
            ("b 1_0\n", "bad transaction id '1_0'"),
            ("r \u0661\u0660 x 0\n", "bad transaction id '\u0661\u0660'"),
            ("b +5\n", "bad transaction id '+5'"),
            ("w 1 x +5\n", "bad value '+5'"),
            ("w 1 x 1_0\n", "bad value '1_0'"),
            ("w 1 x \u0661\u0660\n", "bad value '\u0661\u0660'"),
            ("w 1 x -+5\n", "bad value '-+5'"),
            ("w 1 x -\n", "bad value '-'"),
            ("w 1 x \uff15\n", "bad value '\uff15'"),
            # each spelling names transaction 7, value 7 or value 0 to
            # int(), but serialize writes it otherwise
            ("b 007\n", "bad transaction id '007'"),
            ("w 1 x 007\n", "bad value '007'"),
            ("w 1 x -0\n", "bad value '-0'"),
            ("w 1 x -007\n", "bad value '-007'"),
            ("b 00\n", "bad transaction id '00'"),
        ],
    )
    def test_integers_are_ascii_digits(self, text, message):
        with pytest.raises(HistoryFormatError) as err:
            parse("b 3\nc 3\n" + text)
        assert err.value.line_no == 3
        assert str(err.value) == f"line 3: {message}"

    @pytest.mark.parametrize(
        "token", ["0", "7", "10", "-7", "-0", "00", "07", "-07", " 7", "+7", "1_0", "\u0667"]
    )
    def test_canonical_lines_share_the_integer_rule(self, token):
        # a line is canonical iff parse takes its integers and writes the
        # line back unchanged
        for line in (f"b {token}", f"w 3 x {token}"):
            try:
                event = parse(line + "\n").events[0]
            except HistoryFormatError:
                round_trips = False
            else:
                round_trips = event.line() == line
            assert bool(CANONICAL_LINES.fullmatch(line)) == round_trips, line

    @given(
        st.lists(
            st.one_of(
                st.builds(
                    Event,
                    st.sampled_from("rw"),
                    st.integers(min_value=1),
                    # an object as parse reads it: no whitespace, no "#"
                    st.text(min_size=1, max_size=4).filter(
                        lambda s: not any(c.isspace() or c == "#" for c in s)
                    ),
                    st.integers(),
                ),
                st.builds(Event, st.sampled_from("bca"), st.integers(min_value=1)),
            ),
            max_size=12,
        )
    )
    def test_canonical_lines_finds_each_written_line(self, events):
        # the pattern has no groups, so findall returns the lines themselves
        lines = [e.line() for e in events]
        text = "".join(line + "\n" for line in lines)
        assert CANONICAL_LINES.findall(text) == lines
        assert CANONICAL_LINES.findall(text.rstrip("\n")) == lines

    def test_a_bad_line_outranks_an_earlier_shape_violation(self):
        # every line is read before the shape is judged
        with pytest.raises(HistoryFormatError) as err:
            parse("c 1\nr 1 x 0\nr 2 x oops\n")
        assert str(err.value) == "line 3: bad value 'oops'"
        with pytest.raises(HistoryFormatError) as err:
            parse("c 1\nr 1 x 0\nr 2 x 0\nb 2\n")
        assert str(err.value) == "line 2: event after terminal of transaction 1"


def _outcome(parser, text):
    try:
        return parser(text)
    except HistoryFormatError as exc:
        return exc.line_no, str(exc)


# Tokens that int(token, 10) rejects too, so both parsers must refuse them
# with the same message.
BAD_INTEGERS = ("one", "1x", "x1", "0x1f", "1.0", "--1", "1-", "-", "1e3", "1,0")
CORRUPTIONS = (
    "drop_field",
    "bad_integer",
    "unknown_kind",
    "comment",
    "blank",
    "after_terminal",
    "read_after_write",
)


def _corrupt(lines: list[str], how: str, at: int, pick: int) -> None:
    """Apply one corruption to the text's lines in place."""
    i = at % (len(lines) + 1)
    target = lines[i % len(lines)].split() if lines else []
    if how == "blank":
        lines.insert(i, ("", "   ", "\t")[pick % 3])
    elif how == "comment":
        if not target or pick % 3 == 0:
            lines.insert(i, "# a comment line")
        elif pick % 3 == 1:
            lines[i % len(lines)] += "  # trailing"
        else:
            # a "#" inside a line cuts it short
            cut = 1 + pick % len(target)
            lines[i % len(lines)] = " ".join(target[:cut]) + " #" + " ".join(target[cut:])
    elif not target:
        lines.append("q 1")
    elif how == "drop_field":
        del target[pick % len(target)]
        lines[i % len(lines)] = " ".join(target)
    elif how == "bad_integer":
        bad = BAD_INTEGERS[pick % len(BAD_INTEGERS)]
        slot = (1, 3)[pick % 2] if len(target) == 4 else 1
        if slot < len(target):
            target[slot] = bad
        else:
            target.append(bad)
        lines[i % len(lines)] = " ".join(target)
    elif how == "unknown_kind":
        target[0] = ("q", "R", "bb", "x", "rw")[pick % 5]
        lines[i % len(lines)] = " ".join(target)
    elif how == "after_terminal":
        ends = [j for j, line in enumerate(lines) if line[:2] in ("c ", "a ")]
        if ends:
            j = ends[pick % len(ends)]
            tokens = lines[j].split()
            if len(tokens) >= 2:
                lines.insert(j + 1 + pick % (len(lines) - j), f"r {tokens[1]} x 0")
    elif how == "read_after_write":
        writes = [j for j, line in enumerate(lines) if line.startswith("w ")]
        if writes:
            j = writes[pick % len(writes)]
            tokens = lines[j].split()
            if len(tokens) >= 3:
                lines.insert(j + 1, f"r {tokens[1]} {tokens[2]} 0")


class TestParserAgainstReference:
    """parse gives support.reference_parse's events, or raises the same
    HistoryFormatError, on every golden input and on corrupted texts."""

    def test_golden_inputs(self):
        texts = [getattr(support, name) for name in (
            "REFERENCE_TEXT",
            "WRITE_SKEW_TEXT",
            "ABORTED_READER_TEXT",
            "CYCLIC_FIRST_PREFIX_TEXT",
        )]
        texts.append(golden.AMBIGUOUS_TEXT)
        texts.extend(h.serialize() for _name, h in golden.inputs())
        for text in texts:
            assert parse(text) == support.reference_parse(text)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        concurrent=st.booleans(),
        corruptions=st.lists(
            st.tuples(
                st.sampled_from(CORRUPTIONS),
                st.integers(min_value=0, max_value=1_000),
                st.integers(min_value=0, max_value=1_000),
            ),
            max_size=3,
        ),
    )
    def test_corrupted_texts(self, seed, concurrent, corruptions):
        if concurrent:
            h = support.random_concurrent_history(seed)
        else:
            h = support.random_well_formed_history(seed)
        lines = h.serialize().splitlines()
        for how, at, pick in corruptions:
            _corrupt(lines, how, at, pick)
        text = "\n".join(lines) + "\n"
        assert _outcome(parse, text) == _outcome(support.reference_parse, text)

    @pytest.mark.parametrize("how", CORRUPTIONS)
    def test_each_corruption_is_rejected_alike(self, how):
        refused = 0
        for seed in range(40):
            lines = support.random_concurrent_history(seed).serialize().splitlines()
            _corrupt(lines, how, seed * 7, seed)
            text = "\n".join(lines) + "\n"
            got = _outcome(parse, text)
            assert got == _outcome(support.reference_parse, text)
            refused += isinstance(got, tuple)
        # blank lines are legal, and so are comments unless a "#" cuts a
        # line short; every other corruption breaks the text
        if how == "blank":
            assert refused == 0
        elif how != "comment":
            assert refused > 0


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
