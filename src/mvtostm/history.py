"""Transactional event histories: recording, completion, text round-trip.

A history is a sequence of events, each belonging to one transaction:

    b <tx>              transaction began
    r <tx> <obj> <val>  read returned val
    w <tx> <obj> <val>  write of val was issued
    c <tx>              transaction committed
    a <tx>              transaction aborted

Transaction ids are positive integers; id 0 is reserved for the implicit
initializing transaction that wrote 0 to every object and never appears
as an event. Objects are free-form tokens (typically "x1".."xn" or bare
integers). Within one transaction all reads precede all writes, a begin
(if present) comes first, and nothing follows the single terminal event.
In the text, ids are ASCII digits and values ASCII digits with an
optional leading "-", with no leading zero and no "-0": the spelling
serialize writes. A "#" starts a comment.

An Event is an immutable named tuple of its four fields, so it costs
about what a tuple costs to build, compare and hash; its position is its
index in its history. parse and the Recorder build events straight from
their fields, and parse checks each line and the history's shape in one
pass over the text.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from typing import NamedTuple

from .errors import HistoryFormatError

BEGIN = "b"
READ = "r"
WRITE = "w"
COMMIT = "c"
ABORT = "a"

EVENT_KINDS = frozenset((BEGIN, READ, WRITE, COMMIT, ABORT))
TERMINALS = frozenset((COMMIT, ABORT))

# _new_tuple(Event, fields) builds an event with no Python-level call
_new_tuple = tuple.__new__


class _EventFields(NamedTuple):
    kind: str
    tx: int
    obj: str | None = None
    value: int | None = None


class Event(_EventFields):
    """One event: an immutable named tuple of kind, tx, obj and value.

    It compares and hashes as that tuple. An event's order is its index
    in its history, so seq= is accepted and kept nowhere.
    """

    __slots__ = ()

    def __new__(cls, kind: str, tx: int, obj=None, value=None, seq=None):
        return _new_tuple(cls, (kind, tx, obj, value))

    def line(self) -> str:
        kind = self.kind
        if kind == READ or kind == WRITE:
            return "%s %s %s %s" % self
        return f"{kind} {self.tx}"


def well_formedness_violation(events) -> tuple[int, str] | None:
    """Index and message of the first shape-breaking event, or None."""
    last_kind: dict[int, str] = {}
    for i, event in enumerate(events):
        before = last_kind.get(event.tx)
        if event.kind not in EVENT_KINDS:
            msg = f"unknown event kind {event.kind!r}"
        elif event.tx < 1:
            msg = f"transaction id must be positive, got {event.tx}"
        elif before in TERMINALS:
            msg = f"event after terminal of transaction {event.tx}"
        elif event.kind == BEGIN and before is not None:
            msg = f"begin is not the first event of transaction {event.tx}"
        elif event.kind == READ and before == WRITE:
            msg = f"read after write in transaction {event.tx}"
        else:
            last_kind[event.tx] = event.kind
            continue
        return i, msg
    return None


@dataclass(frozen=True)
class History:
    events: tuple[Event, ...] = ()

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def txns(self) -> set[int]:
        return {e.tx for e in self.events}

    def committed(self) -> set[int]:
        return {e.tx for e in self.events if e.kind == COMMIT}

    def aborted(self) -> set[int]:
        return {e.tx for e in self.events if e.kind == ABORT}

    def incomplete(self) -> set[int]:
        return self.txns() - {e.tx for e in self.events if e.kind in TERMINALS}

    def events_of(self, tx: int) -> tuple[Event, ...]:
        return tuple(e for e in self.events if e.tx == tx)

    def objects(self) -> set[str]:
        return {e.obj for e in self.events if e.obj is not None}

    def complete(self) -> "History":
        """Append an abort immediately after the last event of each live
        transaction; already-terminated transactions are untouched."""
        live = self.incomplete()
        if not live:
            return self
        last = {}
        for i, e in enumerate(self.events):
            if e.tx in live:
                last[e.tx] = i
        out: list[Event] = []
        for i, e in enumerate(self.events):
            out.append(e)
            if e.tx in live and last[e.tx] == i:
                out.append(Event(ABORT, e.tx))
        return History(tuple(out))

    def serialize(self) -> str:
        if not self.events:
            return ""
        return "\n".join(map(Event.line, self.events)) + "\n"


# A line exactly as Event.line writes it, under parse's integer rule. An
# object holds no whitespace and no "#". The pattern has no groups, so
# findall returns the matching lines themselves.
CANONICAL_LINES = re.compile(
    r"^(?:[rw] [1-9][0-9]* [^\s#]+ (?:0|-?[1-9][0-9]*)|[bca] [1-9][0-9]*)$",
    re.MULTILINE,
)


def _signed(token: str) -> int | None:
    """The integer token spells the way str writes it, or None: ASCII
    digits with no leading zero, after a "-" unless the integer is 0."""
    digits = token[1:] if token[:1] == "-" else token
    if digits.isdigit() and digits.isascii() and (digits[0] != "0" or token == "0"):
        return int(token)
    return None


def parse(text: str) -> History:
    """Parse the line format back into a History.

    Rejects malformed lines and histories that are not well formed,
    always naming the offending line. A line that does not parse is
    reported before any shape violation, wherever each lies. Ids and
    values are ASCII digits with no leading zero, a value with an
    optional leading "-" and never "-0": the spelling serialize writes.
    """
    events: list[Event] = []
    append = events.append
    last_kind: dict[int, str] = {}
    shape: tuple[int, str] | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        tokens = raw.split()
        if not tokens:
            continue
        kind = tokens[0]
        if kind not in EVENT_KINDS:
            raise HistoryFormatError(line_no, f"unknown event kind {kind!r}")
        want = 4 if kind == READ or kind == WRITE else 2
        if len(tokens) != want:
            raise HistoryFormatError(
                line_no, f"expected {want} fields for {kind!r}, got {len(tokens)}"
            )
        token = tokens[1]
        # the common spelling takes a shortcut; _signed holds the rule
        if token.isdigit() and token.isascii() and token[0] != "0":
            tx = int(token)
        else:
            tx = _signed(token)
        if tx is None:
            raise HistoryFormatError(line_no, f"bad transaction id {token!r}")
        if tx < 1:
            raise HistoryFormatError(line_no, f"transaction id must be positive, got {tx}")
        if want == 4:
            obj, token = tokens[2], tokens[3]
            if token.isdigit() and token.isascii() and token[0] != "0":
                value = int(token)
            else:
                value = _signed(token)
            if value is None:
                raise HistoryFormatError(line_no, f"bad value {token!r}")
        else:
            obj = value = None
        if shape is None:
            # the checks of well_formedness_violation that parsing leaves open
            before = last_kind.get(tx)
            if before in TERMINALS:
                shape = line_no, f"event after terminal of transaction {tx}"
            elif kind == BEGIN and before is not None:
                shape = line_no, f"begin is not the first event of transaction {tx}"
            elif kind == READ and before == WRITE:
                shape = line_no, f"read after write in transaction {tx}"
            last_kind[tx] = kind
        append(_new_tuple(Event, (kind, tx, obj, value)))
    if shape is not None:
        raise HistoryFormatError(*shape)
    return History(tuple(events))


class VersionNote(NamedTuple):
    """Side-log entry for one version-list insertion or deletion.

    after_seq is the index of the last history event recorded before the
    change; entries at equal positions are ordered by their own index in
    the log.
    """

    action: str  # "insert" | "delete"
    obj: str
    ts: int
    after_seq: int


class Recorder:
    """Collects events at their linearization points.

    Appends are serialized internally, so callers may invoke it while
    holding object locks. Recording only appends: the shape of the
    history is judged when invalid_reason is read, so a malformed event
    never raises inside a critical section.
    """

    def __init__(self, object_name=str):
        self._guard = threading.Lock()
        self._events: list[Event] = []
        self._notes: list[VersionNote] = []
        self._object_name = object_name

    @property
    def invalid_reason(self) -> str | None:
        """Message of the first shape violation recorded so far, or None."""
        bad = well_formedness_violation(self.history().events)
        return None if bad is None else bad[1]

    def on_event(self, kind: str, tx: int, obj=None, value=None) -> None:
        name = self._object_name(obj) if obj is not None else None
        with self._guard:
            self._events.append(_new_tuple(Event, (kind, tx, name, value)))

    def on_version_insert(self, obj, ts: int) -> None:
        self._note("insert", obj, ts)

    def on_version_delete(self, obj, ts: int) -> None:
        self._note("delete", obj, ts)

    def _note(self, action: str, obj, ts: int) -> None:
        name = self._object_name(obj)
        with self._guard:
            note = (action, name, ts, len(self._events) - 1)
            self._notes.append(_new_tuple(VersionNote, note))

    def history(self) -> History:
        with self._guard:
            return History(tuple(self._events))

    def version_notes(self) -> list[VersionNote]:
        with self._guard:
            return list(self._notes)
