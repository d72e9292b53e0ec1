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
projects its history once for every order it tries, and only a witness
builds the completion.

When the version order lists every object's writers in ascending id,
as the timestamp order does, the checker first tries the ascending
serialization itself: T0, then every transaction by id. If that passes
the witness checks, every edge of the graph runs from a lower id to a
higher one, so the ascending order is exactly the topological order
the graph would yield, and the graph is never built. This is the
common case on MVTO histories, where timestamp order is the witness.
Otherwise the graph decides, as above.

Text comes first. certify_text reads a history's text in one pass and
decides whether the ascending serialization certifies it, the check
above in stream form: legality is the predecessor fact (a read returns
the newest committed version below the reader, and a commit finds no
reader above it of its predecessor's version), equivalence is a line
count, and real time holds when no larger id terminated before a
transaction began. Its witness is the input's own lines regrouped by
id. opacity-check builds events and calls check_with_order or
check_auto only when it declines.

When the timestamp order fails, check_auto searches the other version
orders in product order: objects sorted, each object's writers through
their permutations in lexicographic order, ascending first. The first
acyclic order wins, and its rank in that order is the count of orders
tried; when none is acyclic, every order counts. The walk skips each
completion of a prefix whose edges already close a cycle, so verdict,
order and count are those of building one graph per order.
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

RT = "rt"
RF = "rf"
MV = "mv"

T0 = 0

DEFAULT_BUDGET = 10**6

_tx = attrgetter("tx")

VersionOrder = dict[str, tuple[int, ...]]


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


def _writer_index(writes) -> dict[str, dict[int, list[int]]]:
    """Per object, each committed value mapped to the writers of it."""
    index: dict[str, dict[int, list[int]]] = {}
    for obj, by_writer in writes.items():
        by_value = index[obj] = {}
        for w, v in by_writer.items():
            by_value.setdefault(v, []).append(w)
    return index


def _resolve_writer(index, obj, value) -> int | None:
    candidates = index[obj].get(value)
    if candidates is None:
        return None
    if len(candidates) > 1:
        raise ValueError(
            f"value {value} on object {obj} was committed by transactions "
            f"{sorted(candidates)}; per-object written values must be unique"
        )
    return candidates[0]


def invalid_read(history: History) -> Event | None:
    """First read with no committed-before writer of its value, or None."""
    return _Analysis(history).invalid


def real_time_pairs(history: History) -> set[tuple[int, int]]:
    """(a, b) pairs where a terminated before b's first event."""
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

    def labeled(self, label: str) -> set[tuple[int, int]]:
        return {(u, v) for u, v, lab in self.edges if lab == label}


def _mv_pairs(reads, seq) -> list[tuple[int, int]]:
    """Version-order constraints from one object's reads, as (from, to)
    pairs.

    reads holds (reader, writer) pairs and seq the object's committed
    writers in version order, all in one labelling of the vertices. For
    a read of j by k and any other writer i: if i's version is ordered
    before j's, i must serialize before j; otherwise the reader k must
    serialize before i. The writer that was read and the reader itself
    impose nothing on themselves.
    """
    pairs = []
    for k, j in reads:
        older = True  # i's version comes before j's
        for i in seq:
            if i == j:
                older = False
            elif i != k:
                pairs.append((i, j) if older else (k, i))
    return pairs


class _Analysis:
    """One projection of a history, shared by every version order a
    check tries.

    Completion only appends aborts, so writes, reads and vertices come
    from the history as given. The rest is built on first use: a history
    certified by its ascending serialization never pays for the edges,
    and only a witness builds the completion.
    """

    def __init__(self, history: History):
        self.history = history
        self.writes = committed_writes(history)
        self._index = _writer_index(self.writes)
        self.vertices = frozenset(history.txns() | {T0})

    @cached_property
    def completed(self) -> History:
        return self.history.complete()

    @cached_property
    def invalid(self) -> Event | None:
        """First read with no committed-before writer of its value, or None;
        an ambiguous value read after it raises nothing."""
        events = self.history.events
        commit_pos = {e.tx: i for i, e in enumerate(events) if e.kind == COMMIT}
        for i, e in enumerate(events):
            if e.kind != READ:
                continue
            writer = _resolve_writer(self._index, e.obj, e.value)
            if writer is None or (writer != T0 and commit_pos[writer] > i):
                return e
        return None

    @cached_property
    def last_event(self) -> dict[int, int]:
        """Index of each vertex's last event in the history; T0's is -1."""
        return {T0: -1} | {e.tx: i for i, e in enumerate(self.history.events)}

    @cached_property
    def reads(self) -> dict[str, list[tuple[int, int]]]:
        """Per object, (reader, writer) for every read with a committed
        writer."""
        reads: dict[str, list[tuple[int, int]]] = defaultdict(list)
        for e in self.history.events:
            if e.kind == READ:
                writer = _resolve_writer(self._index, e.obj, e.value)
                if writer is not None:
                    reads[e.obj].append((e.tx, writer))
        return reads

    @cached_property
    def static_edges(self) -> frozenset[tuple[int, int, str]]:
        static: set[tuple[int, int, str]] = set()
        # rt comes from the history as given: a live transaction precedes
        # nothing, even after completion inserts its abort
        for a, b in real_time_pairs(self.history):
            static.add((a, b, RT))
        for t in self.vertices:
            if t != T0:
                static.add((T0, t, RT))
        for reads in self.reads.values():
            for k, j in reads:
                if j != k:
                    static.add((j, k, RF))
        return frozenset(static)

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

    def graph(self, order: VersionOrder) -> OpacityGraph:
        edges = set(self.static_edges)
        for obj, seq in order.items():
            edges.update((u, v, MV) for u, v in _mv_pairs(self.reads.get(obj, ()), seq))
        return OpacityGraph(self.vertices, frozenset(edges))


def build_graph(history: History, order: VersionOrder) -> OpacityGraph:
    analysis = _Analysis(history)
    analysis.validate_order(order)
    return analysis.graph(order)


def topological_order(graph: OpacityGraph):
    """(order, None) with ties broken by ascending id, or (None, cycle).

    The cycle is an explicit vertex list u1..um with edges u1->u2,
    ..., um->u1, extracted deterministically.
    """
    pairs = graph.edge_pairs()
    succ: dict[int, set[int]] = defaultdict(set)
    pred: dict[int, set[int]] = defaultdict(set)
    for u, v in pairs:
        if u == v:
            return None, [u]
        succ[u].add(v)
        pred[v].add(u)
    indeg = {v: len(pred[v]) for v in graph.vertices}
    heap = [v for v in graph.vertices if indeg[v] == 0]
    heapify(heap)
    out: list[int] = []
    while heap:
        v = heappop(heap)
        out.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heappush(heap, w)
    if len(out) == len(graph.vertices):
        return out, None
    remaining = set(graph.vertices) - set(out)
    return None, _extract_cycle(remaining, pred)


def _extract_cycle(remaining: set[int], pred) -> list[int]:
    # every vertex left after peeling has a predecessor among the leftovers;
    # walking smallest predecessors must close a loop
    start = min(remaining)
    path = [start]
    index = {start: 0}
    cur = start
    while True:
        nxt = min(p for p in pred[cur] if p in remaining)
        if nxt in index:
            tail = path[index[nxt]:]
            return [tail[0]] + tail[:0:-1]
        index[nxt] = len(path)
        path.append(nxt)
        cur = nxt


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


def _graph_verdict(analysis: _Analysis, order: VersionOrder, tested: int = 1) -> Verdict:
    """Decide under one valid version order by building the graph; the
    verdict reports tested orders."""
    topo, cycle = topological_order(analysis.graph(order))
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


def _order_verdict(analysis: _Analysis, order: VersionOrder) -> Verdict:
    """Decide under one valid version order: the ascending serialization
    when the order allows it and it passes, the graph otherwise."""
    if all(list(seq) == sorted(seq) for seq in order.values()):
        s, failure = _witness(analysis, sorted(analysis.vertices))
        if failure is None:
            return Verdict(
                "opaque", order=dict(order), serialization=s, orders_tested=1
            )
    return _graph_verdict(analysis, order)


def check_with_order(history: History, order: VersionOrder | None = None) -> Verdict:
    """Decide opacity under one fixed version order, by default the
    timestamp order; UsageError if a given order does not list exactly
    each object's committed writers."""
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

    It decides in one pass over the lines. Whenever it answers, parse
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
    groups: dict[int, list[str]] = {}  # each transaction's lines, in order
    # per object: each committed value's version, and the committed
    # writers ascending, T0 first, beside their versions; a version is a
    # one-slot list holding the largest id that read it
    objects: dict[str, tuple[dict[str, list[int]], list[int], list[list[int]]]] = {}
    staged: dict[int, dict[str, str]] = {}  # last value written per object
    done = 0  # the largest id terminated so far
    for line, rw, rw_tx, obj, value, other, other_tx in found:
        kind = rw or other
        tx = int(rw_tx or other_tx)
        group = groups.get(tx)
        if group is None:
            if done > tx:
                return None
            groups[tx] = [line]
        else:
            before = group[-1][0]
            if before in TERMINALS or kind == BEGIN or (kind == READ and before == WRITE):
                return None
            group.append(line)
        if rw:
            versions = objects.get(obj)
            if versions is None:
                initial = [0]
                versions = objects[obj] = ({"0": initial}, [T0], [initial])
            if kind == READ:
                # the value's version is committed, and it is the newest
                # committed below tx; a value with no version is not one
                by_value, writers, by_writer = versions
                read = by_value.get(value)
                if by_writer[bisect(writers, tx) - 1] is not read:
                    return None
                if read[0] < tx:
                    read[0] = tx
            else:
                staged.setdefault(tx, {})[obj] = value
        elif kind != BEGIN:
            if done < tx:
                done = tx
            writes = staged.pop(tx, None)
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
    live = sum(group[-1][0] not in TERMINALS for group in groups.values())
    witness = _regrouped(groups)
    if len(witness) != lines + live:
        raise InvariantViolation("emitted serialization lost or changed events")
    order = {obj: tuple(versions[1]) for obj, versions in objects.items()}
    return order, ("\n".join(witness) + "\n" if witness else "")


def _regrouped(groups: dict[int, list[str]]) -> list[str]:
    """Each transaction's lines in ascending id, with "a <id>" after the
    lines of each one that has not terminated."""
    out: list[str] = []
    for tx in sorted(groups):
        group = groups[tx]
        out += group
        if group[-1][0] not in TERMINALS:
            out.append(f"{ABORT} {tx}")
    return out


def _closure(size: int, pairs) -> list[int]:
    """Per vertex index, the bit set of the vertices it reaches over
    pairs, each of which must run from a lower index to a higher one,
    in one sweep from the highest source down."""
    reach = [0] * size
    for u, v in sorted(pairs, reverse=True):
        if u >= v:
            raise InvariantViolation("the rt, rf and T0 edges close a cycle")
        reach[u] |= reach[v] | 1 << v
    return reach


def _extended(reach: list[int], pairs) -> list[int] | None:
    """A copy of the closure reach with pairs added, or None when one of
    them closes a cycle."""
    reach = reach.copy()
    for u, v in pairs:
        if reach[v] >> u & 1:
            return None
        gain = reach[v] | 1 << v
        if reach[u] & gain == gain:
            continue
        bit = 1 << u
        for w, r in enumerate(reach):
            if w == u or r & bit:
                reach[w] = r | gain
    return reach


def _first_acyclic(analysis: _Analysis) -> tuple[VersionOrder, int] | None:
    """The first version order, in product order, whose graph is acyclic,
    with its rank in that order counted from 1; or None.

    The walk goes object by object. The rt, rf and T0 edges are the same
    under every order, so their reachability closure is built once, in
    one sweep over the vertices indexed T0 first, then by last event.
    Each such edge runs forward in that order, as it ends at a
    transaction whose last event comes later (an rf writer committed
    before the read, since invalid reads never reach the search); one
    that does not is an InvariantViolation. An object's mv edges
    depend only on its own permutation and are added to the prefix's
    closure when the walk chooses it, so memory stays that of one path.
    Edges only accumulate along a prefix, so a prefix whose edges close
    a cycle is skipped with every completion. The walk permutes vertex
    indices, so an order's constraints come out as index pairs.
    """
    objs = sorted(analysis.writes)
    last = analysis.last_event
    vertex = sorted(last, key=last.__getitem__)
    index = {v: i for i, v in enumerate(vertex)}
    writers = [[index[w] for w in sorted(analysis.writes[obj])] for obj in objs]
    reads = [[(index[k], index[j]) for k, j in analysis.reads.get(obj, ())] for obj in objs]
    root = _closure(
        len(index), [(index[u], index[v]) for u, v, _ in analysis.static_edges]
    )
    # depth-first; a frame holds the closure of the edges its prefix fixes,
    # the prefix's rank and the next object's indexed permutations left
    stack = [(root, (), 0, enumerate(itertools.permutations(writers[0])))]
    while stack:
        reach, prefix, rank, perms = stack[-1]
        i, perm = next(perms, (None, None))
        if perm is None:
            stack.pop()
            continue
        d = len(prefix)
        extended = _extended(reach, _mv_pairs(reads[d], perm))
        if extended is None:
            continue
        chosen = prefix + (perm,)
        ranked = rank * math.factorial(len(perm)) + i
        if d + 1 == len(objs):
            order = {obj: tuple(vertex[w] for w in seq) for obj, seq in zip(objs, chosen)}
            return order, ranked + 1
        deeper = enumerate(itertools.permutations(writers[d + 1]))
        stack.append((extended, chosen, ranked, deeper))
    return None


def check_auto(history: History, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Decide opacity over every version order; check_brute_force is
    the same function.

    The timestamp order goes first, certified by its ascending
    serialization or by its graph. Only when it fails are the other
    orders searched, object by object, skipping the completions of
    every cyclic prefix. The search never guesses: when the candidate
    count exceeds the budget the verdict is undecided rather than
    wrong.
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
    verdict = _graph_verdict(analysis, order, rank)
    if not verdict.opaque:
        raise InvariantViolation(f"search accepted the cyclic version order {order}")
    return verdict


check_brute_force = check_auto
