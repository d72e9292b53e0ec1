"""Opacity checking for recorded histories.

A history is opaque when its transactions, including the aborted and the
still-live ones, can be laid out in some sequential order that respects
real time and in which every read returns the latest previously
committed write. The test used here: fix, per object, a total order over
the committed versions, then build a graph with one vertex per
transaction (plus the initializing transaction 0) and three edge
families:

* rt: T_a finished before T_b began (taken from the input history as
  given, not from its completion),
* rf: T_b read a value that T_a committed,
* mv: for each read and each other committed writer of the same object,
  the writer goes before the version that was read, or after the reader.

If the graph is acyclic for some version order, the history is opaque,
and any topological order of the graph expanded transaction by
transaction is a witness serialization. The checker verifies each
witness it emits against independent legality, equivalence, and
real-time checks rather than trusting the construction. Each check
projects its history once, when it builds its analysis, and every order
it tries shares that projection; only a witness builds the completion.

One engine decides every version order. The rt, rf and T0 edges are
per-vertex bit sets, built in one sweep of the events; a version order
adds its mv edges to them, as one predecessor bit set per version from
one sweep of each object's order, and one Kahn peel, ties broken by
ascending id, yields the topological order or leaves the vertices on or
after a cycle, from which one rule extracts the cycle. Every fixed order
takes that one path, then the witness checks. topological_order peels an
OpacityGraph with the same peel, so it gives the engine's answer.

Text comes first. certify_text reads a history's text in one pass and
decides whether the ascending serialization, T0 then every transaction
by id, certifies it: legality is the predecessor fact (a read returns
the newest committed version below the reader, and a commit finds no
reader above it of its predecessor's version), equivalence is a line
count, and real time holds when no larger id terminated before a
transaction began. A line costs one str.split: the canonical ids have no
leading zero, so a transaction is keyed by its id's text, and int()
runs once per transaction. Its witness is the input's own lines
regrouped by id. opacity-check builds events and calls check_with_order
or check_auto only when it declines.

check_with_order decides one order by its peel. check_auto decides the
timestamp order that way first. When that order is cyclic, one walk
decides every order, in product order: objects sorted, each object's
writers through their permutations in lexicographic order, ascending
first, so the timestamp order is the first leaf. Each object's mv edges
join the closure of the prefix when the walk picks its permutation, and
a prefix whose edges close a cycle is skipped with every completion.
The walk tries only the permutations that put T0 first, which are the
first (k-1)! of an object's k!, and only the ascending one of an object
nobody reads; the first acyclic order in product order is always among
them. The first acyclic order wins, its rank in product order is the
count of orders tried, and the peel orders its graph for the witness.
When none is acyclic, every order counts, and the verdict's cycle is
the one the timestamp order's peel left.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from operator import attrgetter

from .errors import InvariantViolation, UsageError
from .history import (
    ABORT,
    BEGIN,
    CANONICAL_LINES,
    COMMIT,
    READ,
    TERMINALS,
    WRITE,
    Event,
    History,
)

T0 = 0

DEFAULT_BUDGET = 10**6

_tx = attrgetter("tx")

VersionOrder = dict[str, tuple[int, ...]]

_Reads = dict[str, list[tuple[int, int]]]  # per object, (reader, writer) pairs


# ---------------------------------------------------------------- projections


def committed_writes(history: History) -> dict[str, dict[int, int]]:
    """Final committed value per object, keyed by writer id.

    Transaction 0 appears as a writer of 0 on every object the history
    mentions. A transaction writing the same object twice contributes
    only its last value; earlier values never become a version.
    """
    committed = history.committed()
    writes: dict[str, dict[int, int]] = {obj: {T0: 0} for obj in history.objects()}
    for e in history.events:
        if e.kind == WRITE and e.tx in committed:
            writes[e.obj][e.tx] = e.value
    return writes


def invalid_read(history: History) -> Event | None:
    """First read with no committed-before writer of its value, or None."""
    return _Analysis(history).invalid


def real_time_pairs(history: History) -> set[tuple[int, int]]:
    """(a, b) pairs where a terminated before b's first event.

    The checks never build these pairs: static_masks holds them as each
    transaction's rt bit set.
    """
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    terminated: set[int] = set()
    for i, e in enumerate(history.events):
        first.setdefault(e.tx, i)
        last[e.tx] = i
        if e.kind in TERMINALS:
            terminated.add(e.tx)
    return {
        (a, b)
        for a in terminated
        for b in first
        if a != b and last[a] < first[b]
    }


def _real_time_violation(history: History, topo: list[int]) -> tuple[int, int] | None:
    """A pair (a, b) where a terminated before b began in the history as
    given but topo does not rank a before b, or None.

    One sweep stands in for checking every real_time_pairs pair: b is
    out of order iff some transaction terminated before b's first event
    ranks above b.
    """
    rank = {tx: i for i, tx in enumerate(topo)}
    top, top_tx = -1, None
    seen: set[int] = set()
    for e in history.events:
        if e.tx not in seen:
            seen.add(e.tx)
            if top > rank[e.tx]:
                return top_tx, e.tx
        if e.kind in TERMINALS and rank[e.tx] > top:
            top, top_tx = rank[e.tx], e.tx
    return None


# ------------------------------------------------------------------ legality


def is_t_sequential(history: History) -> bool:
    """Transactions appear in contiguous blocks, each block but the last
    ending in a terminal event."""
    seen: set[int] = set()
    prev: int | None = None
    last_kind: str | None = None
    for e in history.events:
        if e.tx != prev:
            if e.tx in seen:
                return False
            if prev is not None and last_kind not in TERMINALS:
                return False
            seen.add(e.tx)
            prev = e.tx
        last_kind = e.kind
    return True


def illegal_read(history: History) -> Event | None:
    """First read of a sequential history that does not return the
    latest previously committed write (0 before any commit), or None."""
    if not is_t_sequential(history):
        raise UsageError("legality is defined only for sequential histories")
    current: dict[str, int] = {}
    staged: dict[int, dict[str, int]] = {}
    for e in history.events:
        if e.kind == READ:
            if current.get(e.obj, 0) != e.value:
                return e
        elif e.kind == WRITE:
            staged.setdefault(e.tx, {})[e.obj] = e.value
        elif e.kind == COMMIT:
            current.update(staged.pop(e.tx, {}))
        elif e.kind == ABORT:
            staged.pop(e.tx, None)
    return None


def equivalent(h1: History, h2: History) -> bool:
    """Same events transaction by transaction, order within each kept.

    A stable sort by tx groups each transaction's events in their own
    order. Every event of a group has that group's tx, so comparing
    whole events compares kind, object and value; an event shared by
    both histories compares by identity.
    """
    return sorted(h1.events, key=_tx) == sorted(h2.events, key=_tx)


# --------------------------------------------------------------------- graph


@dataclass(frozen=True)
class OpacityGraph:
    vertices: frozenset[int]
    edges: frozenset[tuple[int, int, str]]  # (from, to, label)

    def edge_pairs(self) -> set[tuple[int, int]]:
        return {(u, v) for u, v, _ in self.edges}


def _mv_masks(reads, seq) -> list[tuple[int, int]]:
    """Version-order constraints from one object's reads, as (vertex,
    predecessor bit set) entries, one per constrained vertex, in one
    sweep of its version order: O(reads + writers) mask operations.

    reads holds (reader, writer) pairs and seq the object's committed
    writers in version order, all as vertex indices. The rule: for a
    read of j by k and any other writer i but k, i serializes before j
    when i's version is ordered before j's, and k serializes before i
    otherwise. Per vertex, a writer w follows the readers of every
    earlier version but itself, and a version that was read follows
    every earlier writer but its reader, when it has exactly one
    distinct reader. A second reader's read puts the first before the
    version too, when the first is an earlier writer.
    """
    readers: dict[int, int] = {}
    for k, j in reads:
        readers[j] = readers.get(j, 0) | 1 << k
    masks = []
    older = earlier_readers = 0  # bits of the writers and readers so far
    for w in seq:
        mask = earlier_readers & ~(1 << w)
        read = readers.get(w, 0)
        if read:
            mask |= older if read & (read - 1) else older & ~read
            earlier_readers |= read
        if mask:
            masks.append((w, mask))
        older |= 1 << w
    return masks


class _Analysis:
    """One projection of a history, shared by every version order a
    check tries, made when the analysis is built.

    Completion only appends aborts, so writes and reads come from the
    history as given. The bit sets are built on first use, so an
    invalid read stops a check before any is built, and only a witness
    builds the completion.

    One pass over the events resolves the reads in order and stops at
    the first that decides: a read of a value that two writers of its
    object committed raises ValueError, and a read of a value that no
    transaction committed before it, T0 writing 0, is invalid. So reads
    is complete whenever invalid is None.
    """

    def __init__(self, history: History):
        self.history = history
        self.writes = writes = committed_writes(history)
        # per object, each committed value mapped to the writers of it
        index: dict[str, dict[int, list[int]]] = {}
        for obj, by_writer in writes.items():
            by_value = index[obj] = {}
            for w, v in by_writer.items():
                by_value.setdefault(v, []).append(w)
        reads: _Reads = defaultdict(list)
        invalid = None
        committed = {T0}
        for e in history.events:
            kind, tx, obj, value = e
            if kind == READ:
                writers = index[obj].get(value, ())
                if len(writers) > 1:
                    raise ValueError(
                        f"value {value} on object {obj} was committed by transactions "
                        f"{sorted(writers)}; per-object written values must be unique"
                    )
                if committed.isdisjoint(writers):
                    invalid = e
                    break
                reads[obj].append((tx, writers[0]))
            elif kind == COMMIT:
                committed.add(tx)
        self.invalid = invalid  # the first invalid read, or None
        # per object, (reader, writer) for every read before that one
        self.reads = reads

    @cached_property
    def completed(self) -> History:
        return self.history.complete()

    @cached_property
    def static_masks(self) -> tuple[list[int], dict[int, int], list[int], list[int], _Reads]:
        """The rt, rf and T0 edges as bit sets over vertex indices: the
        vertices by index, the index of each, per index its rt and T0
        predecessors and its rf ones, and per object the reads as
        (reader, writer) indices.

        One sweep of the history as given indexes T0 first, then each
        transaction at its terminal event, then the live ones, which
        precede nothing. A transaction's rt predecessors are T0 and the
        transactions terminated before its first event. That needs each
        terminal to be its transaction's last event, so an event after
        one is a UsageError. Then each of those edges, and each rf edge
        from a writer that committed before the read, runs from a lower
        index to a higher one. The rt set is also closed: whatever
        reaches a terminated transaction terminated before it.
        """
        index = {T0: 0}
        first_rt: dict[int, int] = {}
        done = 1  # bits of T0 and of every transaction terminated so far
        for kind, tx, _, _ in self.history.events:
            if tx not in first_rt:
                first_rt[tx] = done
            elif tx in index:
                raise UsageError(
                    f"event after terminal of transaction {tx}: the search "
                    "is defined only for well-formed histories"
                )
            if kind in TERMINALS:
                done |= 1 << index.setdefault(tx, len(index))
        for tx in first_rt:
            index.setdefault(tx, len(index))
        vertex = list(index)
        rt = [first_rt.get(v, 0) for v in vertex]
        rf = [0] * len(vertex)
        reads: _Reads = {}
        for obj, pairs in self.reads.items():
            reads[obj] = indexed = [(index[k], index[j]) for k, j in pairs]
            for k, j in indexed:
                if j != k:
                    rf[k] |= 1 << j
        return vertex, index, rt, rf, reads

    def validate_order(self, order: VersionOrder) -> None:
        want = {obj: set(ws) for obj, ws in self.writes.items()}
        if set(order) != set(want):
            raise UsageError(
                f"version order must name exactly the objects {sorted(want)}, "
                f"got {sorted(order)}"
            )
        for obj, seq in order.items():
            if len(seq) != len(want[obj]) or set(seq) != want[obj]:
                raise UsageError(
                    f"version order for {obj} must cover exactly the committed "
                    f"writers {sorted(want[obj])}, got {list(seq)}"
                )


def topological_order(graph: OpacityGraph):
    """(order, None) with ties broken by ascending id, or (None, cycle).

    The cycle is an explicit vertex list u1..um with edges u1->u2,
    ..., um->u1, extracted deterministically.
    """
    vertex = sorted(graph.vertices)
    index = {v: i for i, v in enumerate(vertex)}
    preds = [0] * len(vertex)
    for u, v in graph.edge_pairs():
        if u == v:
            return None, [u]
        preds[index[v]] |= 1 << index[u]
    return _peel(vertex, preds)


def _peel(vertex: list[int], preds: list[int]):
    """Kahn's peel of the graph whose vertex of index v has the id
    vertex[v] and the predecessors in the bit set preds[v]: (order,
    None), ties broken by ascending id, or (None, cycle).

    A vertex waits on one predecessor not peeled yet, the highest
    index; when that one is peeled, the vertex is ready or waits on the
    next. So it becomes ready when its last predecessor goes, as with
    in-degree counts, and no successor lists are built. What no peel
    removes is the set of vertices on or after a cycle, whichever ready
    vertex each step takes.
    """
    waiting: list[list[int]] = [[] for _ in preds]
    ready = []
    for v, p in enumerate(preds):
        if p:
            waiting[p.bit_length() - 1].append(v)
        else:
            ready.append((vertex[v], v))
    heapify(ready)
    left = (1 << len(preds)) - 1  # the vertices not peeled yet
    out: list[int] = []
    while ready:
        tx, u = heappop(ready)
        out.append(tx)
        left ^= 1 << u
        for v in waiting[u]:
            p = preds[v] & left
            if p:
                waiting[p.bit_length() - 1].append(v)
            else:
                heappush(ready, (vertex[v], v))
    if not left:
        return out, None
    return None, _extract_cycle(vertex, preds, left)


def _extract_cycle(vertex: list[int], preds: list[int], left: int) -> list[int]:
    """The cycle through the vertices a peel left, the bit set left, by
    id: from the smallest id left, step to the smallest predecessor
    left until a vertex repeats, and list that loop as u1..um with edges
    u1->u2, ..., um->u1."""
    # every vertex left has a predecessor left, so the walk must close a
    # loop; it lists the predecessors only of the vertices it visits
    by_id = vertex.__getitem__
    cur = min(_bits(left), key=by_id)
    path = [cur]
    at = {cur: 0}
    while True:
        cur = min(_bits(preds[cur] & left), key=by_id)
        if cur in at:
            tail = path[at[cur]:]
            return [vertex[v] for v in (tail[0], *tail[:0:-1])]
        at[cur] = len(path)
        path.append(cur)


# ------------------------------------------------------------------ verdicts


@dataclass
class Verdict:
    status: str  # opaque | not_opaque | invalid | undecided
    order: VersionOrder | None = None
    serialization: History | None = None
    cycle: list[int] | None = None
    invalid_read: Event | None = None
    detail: str = ""
    orders_tested: int = 0

    @property
    def opaque(self) -> bool:
        return self.status == "opaque"

    def summary(self) -> str:
        if self.status == "opaque":
            objects = len(self.order)
            txns = len({t for ts in self.order.values() for t in ts} - {0})
            return (
                f"opaque: {txns} writer(s), {objects} object(s), "
                f"{self.orders_tested} order(s) tried"
            )
        if self.status == "not_opaque":
            if self.cycle is not None:
                loop = "->".join(str(v) for v in self.cycle + self.cycle[:1])
                return f"not opaque: cycle {loop} ({self.detail})"
            return f"not opaque: {self.detail}"
        if self.status == "invalid":
            return f"not opaque: invalid read {self.invalid_read.line()!r}"
        return f"undecided: {self.detail}"


def timestamp_order(history: History) -> VersionOrder:
    """Per-object version order by ascending creator timestamp."""
    # completion only appends aborts, so it changes no committed write
    return _ascending_order(committed_writes(history))


def _ascending_order(writes) -> VersionOrder:
    return {obj: tuple(sorted(writers)) for obj, writers in writes.items()}


def sequential_order(history: History) -> VersionOrder:
    """Version order induced by a sequential history: writers ordered by
    the position of their transaction, 0 first."""
    if not is_t_sequential(history):
        raise UsageError("sequential order is defined only for sequential histories")
    first: dict[int, int] = {T0: -1}
    for i, e in enumerate(history.events):
        first.setdefault(e.tx, i)
    return {
        obj: tuple(sorted(writers, key=first.__getitem__))
        for obj, writers in committed_writes(history).items()
    }


def serialization_from(completed: History, topo: list[int]) -> History:
    per_tx: dict[int, list[Event]] = defaultdict(list)
    for e in completed.events:
        per_tx[e.tx].append(e)
    return History(tuple(e for tx in topo if tx != T0 for e in per_tx.get(tx, ())))


def _witness(analysis: _Analysis, topo: list[int]) -> tuple[History, str | None]:
    """Expand a topological order and check it independently.

    Returns the serialization and the first check it fails, or None.
    Any order of the vertices keeps every event, so a mismatch there is
    a bug and raises at once.
    """
    s = serialization_from(analysis.completed, topo)
    offending = illegal_read(s)
    if offending is not None:
        return s, f"emitted serialization is not legal at {offending.line()!r}"
    if not equivalent(s, analysis.completed):
        raise InvariantViolation("emitted serialization lost or changed events")
    broken = _real_time_violation(analysis.history, topo)
    if broken is not None:
        a, b = broken
        return s, f"emitted serialization breaks real-time order {a} before {b}"
    return s, None


def _invalid(bad: Event) -> Verdict:
    return Verdict(
        "invalid",
        invalid_read=bad,
        detail="a read returns a value no transaction committed before it",
    )


def _order_verdict(analysis: _Analysis, order: VersionOrder, tested: int = 1) -> Verdict:
    """Decide under one valid version order by peeling its graph, the
    rt, rf and T0 bit sets plus the order's mv masks; the witness checks
    then certify an acyclic result. The verdict reports tested orders."""
    vertex, index, rt, rf, reads = analysis.static_masks
    preds = [a | b for a, b in zip(rt, rf)]
    for obj, seq in order.items():
        for v, mask in _mv_masks(reads.get(obj, ()), [index[w] for w in seq]):
            preds[v] |= mask
    topo, cycle = _peel(vertex, preds)
    if topo is None:
        return Verdict(
            "not_opaque",
            order=dict(order),
            cycle=cycle,
            detail="under the supplied version order",
            orders_tested=tested,
        )
    s, failure = _witness(analysis, topo)
    if failure is not None:
        raise InvariantViolation(failure)
    return Verdict("opaque", order=dict(order), serialization=s, orders_tested=tested)


def check_with_order(history: History, order: VersionOrder | None = None) -> Verdict:
    """Decide opacity under one fixed version order, by default the
    timestamp order, by peeling its graph; UsageError if a given order
    does not list exactly each object's committed writers, or if an
    event follows its transaction's terminal."""
    analysis = _Analysis(history)
    if analysis.invalid is not None:
        return _invalid(analysis.invalid)
    if order is None:
        order = _ascending_order(analysis.writes)
    else:
        analysis.validate_order(order)
    return _order_verdict(analysis, order)


def certify_text(text: str) -> tuple[VersionOrder, str] | None:
    """The timestamp order and the text of the ascending serialization,
    when that serialization certifies the history text; otherwise None.

    It decides in one pass over the lines, each split on its spaces
    once; a transaction's id becomes an int at its first line and its
    lines are keyed by the id's text. Whenever it answers, parse
    and then check_with_order or check_auto would call the history
    opaque under this order, one order tried, with this witness: each
    transaction's lines in ascending id, and "a <id>" after a live one's.
    It takes only canonical lines (history.CANONICAL_LINES), so every
    error, message and line number still comes from parse. It declines
    on any other text, and at the first line that breaks one of these
    rules:

    * shape: nothing follows a terminal, a begin comes first and no read
      follows a write of its transaction;
    * valid reads: the value read is committed on its object, before
      the read, by one writer, T0 writing 0; two committed writers of
      one value on one object decline even unread;
    * legality under ascending order, by the predecessor fact: at a read
      by i, the newest committed writer below i wrote the value read;
      at a commit of j on an object, no reader above j has read the
      version of j's predecessor there;
    * real time: no transaction with a larger id terminated before a
      transaction's first line.

    Equivalence holds by construction. Its stream form is a line count:
    every input line is in the witness once, or InvariantViolation.
    """
    found = CANONICAL_LINES.findall(text)
    lines = text.count("\n")
    if text and not text.endswith("\n"):
        lines += 1
    if len(found) != lines:
        return None
    # per transaction, keyed by its id's text (canonical ids have no
    # leading zero, so the text is unique): its id, the kinds its next
    # line may have by the shape rule, then its lines in order
    groups: dict[str, list] = {}
    # per object: each committed value's version, and the committed
    # writers ascending, T0 first, beside their versions; a version is a
    # one-slot list holding the largest id that read it
    objects: dict[str, tuple[dict[str, list[int]], list[int], list[list[int]]]] = {}
    staged: dict[str, dict[str, str]] = {}  # last value written per object
    done = 0  # the largest id terminated so far
    for line in found:
        fields = line.split(" ")
        kind = fields[0]
        group = groups.get(fields[1])
        if group is None:
            tx = int(fields[1])
            if done > tx:
                return None
            groups[fields[1]] = group = [tx, "", line]
        elif kind not in group[1]:
            return None
        else:
            group.append(line)
            tx = group[0]
        if kind == READ:
            group[1] = "rwca"
            obj = fields[2]
            versions = objects.get(obj)
            if versions is None:
                initial = [0]
                versions = objects[obj] = ({"0": initial}, [T0], [initial])
            # the value's version is committed, and it is the newest
            # committed below tx; a value with no version is not one
            by_value, writers, by_writer = versions
            read = by_value.get(fields[3])
            if by_writer[bisect(writers, tx) - 1] is not read:
                return None
            if read[0] < tx:
                read[0] = tx
        elif kind == WRITE:
            group[1] = "wca"
            obj = fields[2]
            if obj not in objects:
                initial = [0]
                objects[obj] = ({"0": initial}, [T0], [initial])
            staged.setdefault(fields[1], {})[obj] = fields[3]
        elif kind == BEGIN:
            group[1] = "rwca"
        else:
            group[1] = ""
            if done < tx:
                done = tx
            writes = staged.pop(fields[1], None)
            if kind == COMMIT and writes:
                for obj, value in writes.items():
                    by_value, writers, by_writer = objects[obj]
                    at = bisect(writers, tx)
                    # a duplicate value, or a reader above tx that read the
                    # version of tx's predecessor
                    if value in by_value or by_writer[at - 1][0] > tx:
                        return None
                    by_value[value] = version = [0]
                    writers.insert(at, tx)
                    by_writer.insert(at, version)
    live = sum(1 for group in groups.values() if group[1])
    witness = _regrouped(groups)
    if len(witness) != lines + live:
        raise InvariantViolation("emitted serialization lost or changed events")
    order = {obj: tuple(versions[1]) for obj, versions in objects.items()}
    return order, ("\n".join(witness) + "\n" if witness else "")


def _regrouped(groups: dict[str, list]) -> list[str]:
    """Each transaction's lines in ascending id, with "a <id>" after the
    lines of each one that has not terminated; a group holds the id, the
    kinds its next line may have (none after a terminal), then the lines."""
    out: list[str] = []
    for group in sorted(groups.values()):
        out += itertools.islice(group, 2, None)
        if group[1]:
            out.append(f"{ABORT} {group[0]}")
    return out


def _bits(mask: int):
    """The indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _closure(rt: list[int], rf: list[int]) -> list[int]:
    """Per vertex index, the bit set of the vertices that reach it over
    the rt, rf and T0 edges of _Analysis.static_masks, in one sweep up
    the indices.

    Each edge must run from a lower index to a higher one; one that does
    not is an InvariantViolation. The rt sets are closed already, so a
    vertex adds only what reaches the writers it read.
    """
    above: list[int] = []
    for v, (before, read) in enumerate(zip(rt, rf)):
        if (before | read) >> v:
            raise InvariantViolation("the rt, rf and T0 edges close a cycle")
        for j in _bits(read):
            before |= above[j] | 1 << j
        above.append(before)
    return above


def _extended(above: list[int], masks) -> list[int] | None:
    """A copy of the closure above with the mv masks added, each a
    vertex and the bit set of its new predecessors, or None when one
    closes a cycle.

    A simple cycle through the new edges of one vertex v enters v once,
    so one mask closes a cycle iff v reaches one of its predecessors.
    Otherwise v and every vertex v reaches gain those predecessors and
    what reaches them.
    """
    above = above.copy()
    for v, mask in masks:
        gain = mask
        for u in _bits(mask):
            if above[u] >> v & 1:
                return None
            gain |= above[u]
        if above[v] & gain == gain:
            continue
        bit = 1 << v
        for w, a in enumerate(above):
            if w == v or a & bit:
                above[w] = a | gain
    return above


def _choices(writers: list[int], reads: list[tuple[int, int]]):
    """An object's version orders the search tries: (rank, permutation,
    mv masks) for each permutation of writers, ascending, that puts T0
    first, by rank; only the first when no one reads the object.

    With T0 = writers[0] first, these are exactly the first (k-1)! of
    the k! permutations, so each keeps its rank among all of them. The
    others never come first in product order: in an acyclic order with
    a writer w ahead of T0 on an object, no read of the object returns a
    version ordered before T0, and only w can read T0's version, or T0's
    rt edge to w closes a cycle. Moving T0 to the front then adds only
    edges out of T0 and drops the rest, so the graph stays acyclic and
    the order ranks lower. With no reads, every permutation adds the
    same nothing, and the first ranks lowest.
    """
    head, *rest = writers
    for i, tail in enumerate(itertools.permutations(rest)):
        perm = (head, *tail)
        yield i, perm, _mv_masks(reads, perm)
        if not reads:
            return


_DONE = (None, None, None)


def _first_acyclic(analysis: _Analysis) -> tuple[VersionOrder, int] | None:
    """The first version order, in product order, whose graph is acyclic,
    with its rank in that order counted from 1; or None.

    The walk goes object by object, through _choices. The rt, rf and T0
    edges are the same under every order, so their closure is built
    once, from _Analysis.static_masks. An object's mv edges depend only
    on its own permutation and are added to the prefix's closure when
    the walk chooses it, so memory stays that of one path. Edges only
    accumulate along a prefix, so a prefix whose edges close a cycle is
    skipped with every completion. The walk permutes vertex indices, so
    an order's constraints come out as masks over them.
    """
    vertex, index, rt, rf, reads = analysis.static_masks
    root = _closure(rt, rf)
    objs = sorted(analysis.writes)
    # per object, its choices by vertex index as a tee, which keeps what
    # it produced: every copy replays them, and each one's masks are
    # built once
    choices = [
        itertools.tee(
            _choices([index[w] for w in sorted(analysis.writes[obj])], reads.get(obj, ())),
            1,
        )[0]
        for obj in objs
    ]
    sizes = [math.factorial(len(analysis.writes[obj])) for obj in objs]

    # depth-first; a frame holds the closure of the edges its prefix fixes,
    # the prefix's rank and the next object's choices left
    stack = [(root, (), 0, choices[0].__copy__())]
    while stack:
        above, prefix, rank, perms = stack[-1]
        i, perm, masks = next(perms, _DONE)
        if perm is None:
            stack.pop()
            continue
        extended = _extended(above, masks) if masks else above
        if extended is None:
            continue
        d = len(prefix)
        chosen = prefix + (perm,)
        ranked = rank * sizes[d] + i
        if d + 1 == len(objs):
            order = {obj: tuple(vertex[w] for w in seq) for obj, seq in zip(objs, chosen)}
            return order, ranked + 1
        stack.append((extended, chosen, ranked, choices[d + 1].__copy__()))
    return None


def check_auto(history: History, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Decide opacity over every version order; check_brute_force is
    the same function.

    The timestamp order goes first, decided as check_with_order decides
    it, by its peel. When the peel leaves a cycle, one walk tries every
    order, object by object, skipping the completions of every cyclic
    prefix. Only the order found is then peeled and gets a witness; when
    none is found, the timestamp order's cycle is the verdict's. The
    search never guesses: when the candidate count exceeds the budget,
    only the timestamp order is tried, and the verdict is undecided
    rather than wrong when it fails.
    """
    analysis = _Analysis(history)
    if analysis.invalid is not None:
        return _invalid(analysis.invalid)
    ts = _order_verdict(analysis, _ascending_order(analysis.writes))
    if ts.opaque:
        return ts
    total = math.prod(math.factorial(len(ws)) for ws in analysis.writes.values())
    if total > budget:
        return Verdict(
            "undecided",
            detail=f"{total} candidate version orders exceed budget {budget}",
        )
    found = _first_acyclic(analysis)
    if found is None:
        return Verdict(
            "not_opaque",
            cycle=ts.cycle,
            detail=f"no version order yields an acyclic graph ({total} tried)",
            orders_tested=total,
        )
    order, rank = found
    verdict = _order_verdict(analysis, order, rank)
    if not verdict.opaque:
        raise InvariantViolation(f"search accepted the cyclic version order {order}")
    return verdict


check_brute_force = check_auto
