"""Shared test material: corpus histories, generators, and independent oracles.

The oracles here deliberately reimplement the checked properties from
their definitions (linear scans, replays, exhaustive searches) without
touching the package's graph machinery, so that agreement between the
two is evidence and not circularity.
"""

from __future__ import annotations

import itertools
import math
import random
import re
import threading
from bisect import bisect
from collections import defaultdict
from heapq import heapify, heappop, heappush

from mvtostm import checker
from mvtostm.checker import Verdict, invalid_read
from mvtostm.core import ABORTED, COMMITTED, Registry, Transaction, VersionTuple
from mvtostm.errors import HistoryFormatError, InvariantViolation, UsageError
from mvtostm.history import (
    ABORT,
    BEGIN,
    COMMIT,
    EVENT_KINDS,
    READ,
    TERMINALS,
    WRITE,
    Event,
    History,
    VersionNote,
    well_formedness_violation,
)

# Printed by conftest's terminal summary hook after the run.
ACCEPTANCE_LINES: list[str] = []


# ------------------------------------------------------------------- corpus

# Reference history: three committed transactions and one live reader
# over objects x, y, z. T1 and T2 exhibit a read/write crossover on x and
# y (each reads the initial value of an object the other committed), so
# no serialization can satisfy both.
REFERENCE_TEXT = """\
r 1 x 0
r 2 x 0
r 1 y 0
r 3 z 0
w 1 x 5
w 3 y 15
w 2 y 10
w 1 z 10
c 1
c 2
r 4 x 5
r 4 y 10
w 3 z 15
c 3
r 4 z 10
"""

# The version order this history is conventionally paired with.
REFERENCE_ORDER = {"x": (0, 1), "y": (0, 2, 3), "z": (0, 1, 3)}

# The same schedule as a replay script (begins made explicit, commits
# attempted where the history shows them).
REFERENCE_SCRIPT = """\
objects x y z
step 1 b
step 1 r x
step 2 b
step 2 r x
step 1 r y
step 3 b
step 3 r z
step 1 w x 5
step 3 w y 15
step 2 w y 10
step 1 w z 10
step 1 c
step 2 c
step 4 b
step 4 r x
step 4 r y
step 3 w z 15
step 3 c
step 4 r z
"""

# What the STM actually records when that schedule is replayed: the
# commit rule rejects T1 (T2 already read x from the initial version)
# and T3 (T4 already read y from T2), so T4 sees the initial x and z.
REFERENCE_REPLAYED = """\
b 1
r 1 x 0
b 2
r 2 x 0
r 1 y 0
b 3
r 3 z 0
w 1 x 5
w 3 y 15
w 2 y 10
w 1 z 10
a 1
c 2
b 4
r 4 x 0
r 4 y 10
w 3 z 15
a 3
r 4 z 0
"""

# Minimal read/write crossover: not opaque under any version order.
WRITE_SKEW_TEXT = """\
r 1 x 0
r 2 y 0
w 1 y 1001
w 2 x 2001
c 1
c 2
"""

# An aborted transaction whose two reads straddle another transaction's
# commit; its own reads rule out every serialization even though only
# one transaction committed.
ABORTED_READER_TEXT = """\
r 1 x 0
w 2 x 5001
w 2 y 5002
c 2
r 1 y 5002
a 1
"""

# T1 and T2 write x concurrently; T3 reads T1's x after both committed,
# so under x order 0, 1, 2 the mv edge 3->2 meets the rt edge 2->3. x
# order 0, 2, 1 with the ascending y order works.
CYCLIC_FIRST_PREFIX_TEXT = """\
b 1
b 2
w 1 x 1
w 2 x 2
c 1
c 2
b 3
r 3 x 1
c 3
b 4
w 4 y 4
c 4
b 5
r 5 y 4
w 5 y 5
c 5
"""


# --------------------------------------------------------------- generators


def random_well_formed_history(seed: int) -> History:
    """Arbitrary well-formed history for round-trip testing.

    Shapes vary: optional begins, read-only and write-only transactions,
    live transactions, negative values, gaps in transaction ids.
    """
    rng = random.Random(f"roundtrip/{seed}")
    objects = ["x", "y", "z9", "big_obj"][: rng.randint(1, 4)]
    tx_ids = sorted(rng.sample(range(1, 30), rng.randint(1, 6)))
    per_tx: list[list[Event]] = []
    for tx in tx_ids:
        events: list[Event] = []
        if rng.random() < 0.7:
            events.append(Event(BEGIN, tx))
        for _ in range(rng.randint(0, 3)):
            events.append(
                Event(READ, tx, rng.choice(objects), rng.randint(-50, 50))
            )
        for _ in range(rng.randint(0, 3)):
            events.append(
                Event(WRITE, tx, rng.choice(objects), rng.randint(-50, 50))
            )
        if rng.random() < 0.8:
            events.append(Event(rng.choice((COMMIT, ABORT)), tx))
        if not events:
            events.append(Event(COMMIT, tx))
        per_tx.append(events)
    merged: list[Event] = []
    while per_tx:
        lane = rng.randrange(len(per_tx))
        merged.append(per_tx[lane].pop(0))
        if not per_tx[lane]:
            per_tx.pop(lane)
    return History(tuple(merged))


def random_legal_tseq(seed: int) -> History:
    """Random t-sequential history whose reads are all legal by
    construction; written values are unique per object and nonzero."""
    rng = random.Random(f"tseq/{seed}")
    objects = ["x", "y", "z"][: rng.randint(1, 3)]
    state = {obj: 0 for obj in objects}
    counters = {obj: 0 for obj in objects}
    events: list[Event] = []
    n_txs = rng.randint(1, 6)
    for tx in range(1, n_txs + 1):
        if rng.random() < 0.7:
            events.append(Event(BEGIN, tx))
        for _ in range(rng.randint(0, 3)):
            obj = rng.choice(objects)
            events.append(Event(READ, tx, obj, state[obj]))
        staged: dict[str, int] = {}
        for _ in range(rng.randint(0, 2)):
            obj = rng.choice(objects)
            counters[obj] += 1
            staged[obj] = counters[obj]
            events.append(Event(WRITE, tx, obj, staged[obj]))
        last = tx == n_txs
        roll = rng.random()
        if last and roll < 0.15:
            pass  # leave the final transaction live
        elif roll < 0.85:
            events.append(Event(COMMIT, tx))
            state.update(staged)
        else:
            events.append(Event(ABORT, tx))
    return History(tuple(events))


def random_concurrent_history(seed: int) -> History:
    """Five transactions over objects x, y, z, at most three open at
    once, about one in ten aborted.

    Every read returns a value committed before it: the newest one, or
    half the time an older one when there is any, so most of these
    histories are not opaque under any version order. Written values
    are unique.
    """
    rng = random.Random(f"concurrent/{seed}")
    objects = ("x", "y", "z")
    waiting = []
    for tx in range(1, 6):
        steps = [(BEGIN, tx, None)]
        steps += [(READ, tx, rng.choice(objects)) for _ in range(rng.randint(1, 2))]
        steps += [(WRITE, tx, obj) for obj in rng.sample(objects, rng.randint(0, 2))]
        steps.append((ABORT if rng.random() < 0.1 else COMMIT, tx, None))
        waiting.append(steps)
    committed = {obj: [0] for obj in objects}
    staged: dict[int, dict[str, int]] = {}
    events: list[Event] = []
    value = 0
    running: list[list[tuple]] = []
    while waiting or running:
        if waiting and len(running) < 3 and (not running or rng.random() < 0.5):
            running.append(waiting.pop(0))
        lane = rng.randrange(len(running))
        kind, tx, obj = running[lane].pop(0)
        if not running[lane]:
            running.pop(lane)
        val = None
        if kind == READ:
            values = committed[obj]
            older = values[:-1]
            val = rng.choice(older) if older and rng.random() < 0.5 else values[-1]
        elif kind == WRITE:
            value += 1
            val = staged.setdefault(tx, {})[obj] = value
        elif kind == COMMIT:
            for o, v in staged.pop(tx, {}).items():
                committed[o].append(v)
        events.append(Event(kind, tx, obj, val))
    return History(tuple(events))


def random_replay_script(seed: int) -> str:
    """A replay script: a few threads, one transaction each, randomly
    interleaved; some end in commit, some in abort, some stay live."""
    rng = random.Random(f"schedule/{seed}")
    objects = ["x", "y", "z"][: rng.randint(1, 3)]
    value = 0
    lanes = []
    for t in range(rng.randint(2, 5)):
        steps = [f"step t{t} b"]
        steps += [f"step t{t} r {rng.choice(objects)}" for _ in range(rng.randint(0, 2))]
        for obj in rng.sample(objects, rng.randint(0, len(objects))):
            value += 1
            steps.append(f"step t{t} w {obj} {value}")
        roll = rng.random()
        if roll < 0.8:
            steps.append(f"step t{t} c")
        elif roll < 0.9:
            steps.append(f"step t{t} a")
        lanes.append(steps)
    lines = ["objects " + " ".join(objects)]
    while lanes:
        lane = rng.randrange(len(lanes))
        lines.append(lanes[lane].pop(0))
        if not lanes[lane]:
            lanes.pop(lane)
    return "\n".join(lines) + "\n"


def long_replay_script(seed: int, transactions: int, lanes: int = 4) -> str:
    """A replay script of many transactions over eight objects, at most
    lanes of them open at once, each reading one or two objects and
    writing up to two; about one in twenty ends in abort."""
    rng = random.Random(f"long-schedule/{seed}")
    objects = [f"x{i}" for i in range(8)]
    value = 0
    waiting = []
    for t in range(transactions):
        steps = [f"step t{t} b"]
        steps += [f"step t{t} r {rng.choice(objects)}" for _ in range(rng.randint(1, 2))]
        for obj in rng.sample(objects, rng.randint(0, 2)):
            value += 1
            steps.append(f"step t{t} w {obj} {value}")
        steps.append(f"step t{t} {'a' if rng.random() < 0.05 else 'c'}")
        waiting.append(steps)
    waiting.reverse()
    running: list[list[str]] = []
    lines = ["objects " + " ".join(objects)]
    while waiting or running:
        while waiting and len(running) < lanes:
            running.append(waiting.pop())
        lane = rng.randrange(len(running))
        lines.append(running[lane].pop(0))
        if not running[lane]:
            running.pop(lane)
    return "\n".join(lines) + "\n"


def mutate_illegal(seed: int, history: History) -> History | None:
    """Corrupt one read so the history stops being legal, or None when
    there is nothing to corrupt."""
    rng = random.Random(f"mutate/{seed}")
    reads = [i for i, e in enumerate(history.events) if e.kind == READ]
    if not reads:
        return None
    target = rng.choice(reads)
    events = list(history.events)
    bad = events[target]._replace(
        value=events[target].value + 1 + rng.randint(0, 3)
    )
    events[target] = bad
    return History(tuple(events))


def shuffle_preserving_tx_order(seed: int, history: History) -> History:
    """Random permutation of the events that keeps each transaction's own
    event order (a different interleaving of the same transactions)."""
    rng = random.Random(f"shuffle/{seed}")
    lanes: dict[int, list[Event]] = {}
    for e in history.events:
        lanes.setdefault(e.tx, []).append(e)
    pending = list(lanes.values())
    merged: list[Event] = []
    while pending:
        lane = rng.randrange(len(pending))
        merged.append(pending[lane].pop(0))
        if not pending[lane]:
            pending.pop(lane)
    return History(tuple(merged))


# -------------------------------------------------------- parser references


def reference_parse(text: str) -> History:
    """The parser as it was before events became named tuples: every line
    checked on its own, the shape walked afterwards by
    well_formedness_violation. It takes integers with int(token, 10), so
    it also accepts "1_0", "+5", non-ASCII digits, leading zeros and
    "-0", which parse now rejects; a differential test must keep such
    tokens out of its texts.
    """
    events: list[Event] = []
    lines: list[int] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind not in EVENT_KINDS:
            raise HistoryFormatError(line_no, f"unknown event kind {kind!r}")
        want = 4 if kind in (READ, WRITE) else 2
        if len(tokens) != want:
            raise HistoryFormatError(
                line_no, f"expected {want} fields for {kind!r}, got {len(tokens)}"
            )
        try:
            tx = int(tokens[1], 10)
        except ValueError:
            raise HistoryFormatError(line_no, f"bad transaction id {tokens[1]!r}") from None
        if tx < 1:
            raise HistoryFormatError(line_no, f"transaction id must be positive, got {tx}")
        obj = value = None
        if kind in (READ, WRITE):
            obj = tokens[2]
            try:
                value = int(tokens[3], 10)
            except ValueError:
                raise HistoryFormatError(line_no, f"bad value {tokens[3]!r}") from None
        events.append(Event(kind, tx, obj, value))
        lines.append(line_no)
    bad = well_formedness_violation(events)
    if bad is not None:
        idx, msg = bad
        raise HistoryFormatError(lines[idx], msg)
    return History(tuple(events))


def tuple_equivalent(h1: History, h2: History) -> bool:
    """checker.equivalent as it was: each transaction's events projected
    to (kind, obj, value) tuples, bucket by bucket."""

    def by_tx(h: History):
        per: dict[int, list] = {}
        for e in h.events:
            per.setdefault(e.tx, []).append((e.kind, e.obj, e.value))
        return per

    return by_tx(h1) == by_tx(h2)


# A line exactly as Event.line writes it, with groups: the whole line,
# then a read's or write's kind, id, object and value, then a b, c or a
# line's kind and id.
_REFERENCE_CANONICAL_LINES = re.compile(
    r"^(([rw]) ([1-9][0-9]*) ([^\s#]+) (0|-?[1-9][0-9]*)|([bca]) ([1-9][0-9]*))$",
    re.MULTILINE,
)


def reference_certify_text(text: str) -> tuple[dict, str] | None:
    """checker.certify_text as it was: a seven-group line pattern, int()
    on every line's id, and per-transaction state keyed by that int. A
    differential test holds the current body to the same answers."""
    found = _REFERENCE_CANONICAL_LINES.findall(text)
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
                versions = objects[obj] = ({"0": initial}, [0], [initial])
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
    # the lines regrouped in ascending id, "a <id>" after a live one's
    witness: list[str] = []
    for tx in sorted(groups):
        group = groups[tx]
        witness += group
        if group[-1][0] not in TERMINALS:
            witness.append(f"{ABORT} {tx}")
    if len(witness) != lines + live:
        raise InvariantViolation("emitted serialization lost or changed events")
    order = {obj: tuple(versions[1]) for obj, versions in objects.items()}
    return order, ("\n".join(witness) + "\n" if witness else "")


# ------------------------------------------------------------------ oracles


def _final_committed_writes(history: History) -> dict[str, dict[int, int]]:
    committed = {e.tx for e in history.events if e.kind == COMMIT}
    writes: dict[str, dict[int, int]] = {}
    for e in history.events:
        if e.kind == WRITE and e.tx in committed:
            writes.setdefault(e.obj, {})[e.tx] = e.value
    return writes


def oracle_read_mismatches(history: History) -> list[Event]:
    """Reads that do not return the value of the newest transaction that
    committed before the read (in recorded order) with an id below the
    reader's; the initial value 0 stands in when there is none.

    A repeated read of the same object must return whatever the first
    read returned, even if a newer qualifying version was committed in
    between: one transaction observing two values of one object could
    never be serialized at a single point.

    This replays the recorded order directly and is the ground truth for
    histories produced by the STM, where version installation and event
    recording happen under the same locks.
    """
    committed_values: dict[str, dict[int, int]] = {}
    staged: dict[int, dict[str, int]] = {}
    pinned: dict[tuple[int, str], int] = {}
    mismatches: list[Event] = []
    for e in history.events:
        if e.kind == WRITE:
            staged.setdefault(e.tx, {})[e.obj] = e.value
        elif e.kind == COMMIT:
            for obj, value in staged.pop(e.tx, {}).items():
                committed_values.setdefault(obj, {})[e.tx] = value
        elif e.kind == READ:
            key = (e.tx, e.obj)
            if key in pinned:
                expected = pinned[key]
            else:
                writers = committed_values.get(e.obj, {})
                older = [j for j in writers if j < e.tx]
                expected = writers[max(older)] if older else 0
                pinned[key] = expected
            if e.value != expected:
                mismatches.append(e)
    return mismatches


def oracle_write_rule_violations(
    history: History,
) -> list[tuple[Event, int, int]]:
    """Reads-from pairs broken by an intervening committed writer.

    For each read r_k(obj) that took its value from committed writer j,
    no transaction i with j < i < k may have committed a write to obj
    anywhere in the history; if one did, either the read or that commit
    should not have happened. Returns (read event, j, i) triples.
    """
    writes = _final_committed_writes(history)
    violations = []
    for e in history.events:
        if e.kind != READ:
            continue
        by_writer = writes.get(e.obj, {})
        sources = [j for j, v in by_writer.items() if v == e.value]
        if e.value == 0 and not sources:
            sources = [0]
        if len(sources) != 1:
            continue  # unresolvable read: not this oracle's concern
        j = sources[0]
        for i in by_writer:
            if j < i < e.tx:
                violations.append((e, j, i))
    return violations


def oracle_gc_violations(
    history: History, notes: list[VersionNote] | tuple[VersionNote, ...]
) -> list[tuple[VersionNote, int]]:
    """Deletions that removed some live transaction's read target.

    Replays the event stream and the version-change log in their
    recorded interleaving, tracking which versions exist per object and
    which transactions are live (begun, no terminal yet). At each
    deletion, a live transaction whose newest-older version is exactly
    the deleted one proves the deletion premature. A live transaction
    that already installed its own version on the object is exempt: its
    read phase is over (version installation happens at commit, after
    all reads), so nothing it will ever do can target the deleted tuple.
    Returns (note, transaction) pairs.
    """
    by_position: dict[int, list[VersionNote]] = {}
    for note in notes:
        by_position.setdefault(note.after_seq, []).append(note)
    versions: dict[str, set[int]] = {}
    live: set[int] = set()
    violations: list[tuple[VersionNote, int]] = []

    def apply_notes(pos: int) -> None:
        for note in by_position.get(pos, ()):
            existing = versions.setdefault(note.obj, {0})
            if note.action == "insert":
                existing.add(note.ts)
                continue
            for l in live:
                if l in existing:
                    continue
                older = [s for s in existing if s < l]
                if older and max(older) == note.ts:
                    violations.append((note, l))
            existing.discard(note.ts)

    apply_notes(-1)
    for i, e in enumerate(history.events):
        if e.kind == BEGIN:
            live.add(e.tx)
        elif e.kind in TERMINALS:
            live.discard(e.tx)
        apply_notes(i)
    return violations


def _legal_as_blocks(
    blocks: list[tuple[int, tuple[Event, ...]]]
) -> bool:
    """Direct legality walk over transactions laid out back to back."""
    current: dict[str, int] = {}
    for _tx, events in blocks:
        staged: dict[str, int] = {}
        committed = False
        for e in events:
            if e.kind == READ:
                if current.get(e.obj, 0) != e.value:
                    return False
            elif e.kind == WRITE:
                staged[e.obj] = e.value
            elif e.kind == COMMIT:
                committed = True
        if committed:
            current.update(staged)
    return True


def oracle_opaque_by_search(history: History) -> bool:
    """Opacity straight from the definition: some ordering of all
    transactions (live ones completed to aborted) that respects the
    original real-time precedence and reads legally.

    Exhaustive over transaction permutations; suitable for small
    histories only.
    """
    completed = history.complete()
    txns = sorted(completed.txns())
    blocks = {tx: completed.events_of(tx) for tx in txns}
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    terminated: set[int] = set()
    for i, e in enumerate(history.events):
        first.setdefault(e.tx, i)
        last[e.tx] = i
        if e.kind in TERMINALS:
            terminated.add(e.tx)
    rt = {
        (a, b)
        for a in terminated
        for b in first
        if a != b and last[a] < first[b]
    }
    for perm in itertools.permutations(txns):
        position = {tx: i for i, tx in enumerate(perm)}
        if any(position[a] >= position[b] for a, b in rt):
            continue
        if _legal_as_blocks([(tx, blocks[tx]) for tx in perm]):
            return True
    return False


def oracle_acyclic_dfs(vertices, pairs) -> bool:
    """Cycle detection by recursive three-color depth-first search."""
    succ: dict[int, list[int]] = {v: [] for v in vertices}
    for u, v in pairs:
        succ[u].append(v)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {v: WHITE for v in vertices}

    def visit(v: int) -> bool:
        color[v] = GRAY
        for w in succ[v]:
            if color[w] == GRAY:
                return False
            if color[w] == WHITE and not visit(w):
                return False
        color[v] = BLACK
        return True

    return all(color[v] != WHITE or visit(v) for v in sorted(vertices))


# ------------------------------------------------------- graph references
#
# Unlike the oracles above, these decide through the package's own graph
# machinery. They are the plain graph path that the checker's shortcuts
# must reproduce verdict for verdict.


def reference_topological_order(graph: checker.OpacityGraph):
    """topological_order as a heap-driven Kahn sort over in-degree
    counts and successor sets: (order, None) with ties broken by
    ascending id, or (None, cycle)."""
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
    return None, _reference_extract_cycle(remaining, pred)


def _reference_extract_cycle(remaining: set[int], pred) -> list[int]:
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


def reference_mv_pairs(reads, seq) -> list[tuple[int, int]]:
    """The mv rule as one (from, to) pair per constraint, O(reads x
    writers), as the checker had it before per-version masks.

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


def reference_graph_verdict(analysis, order, tested: int = 1) -> Verdict:
    """Decide under one valid version order by building its labelled
    graph, real_time_pairs included, and sorting it with
    reference_topological_order; the verdict reports tested orders."""
    edges = set(analysis.static_edges)
    for obj, seq in order.items():
        pairs = reference_mv_pairs(analysis.reads.get(obj, ()), seq)
        edges.update((u, v, checker.MV) for u, v in pairs)
    graph = checker.OpacityGraph(analysis.vertices, frozenset(edges))
    topo, cycle = reference_topological_order(graph)
    if topo is None:
        return Verdict(
            "not_opaque",
            order=dict(order),
            cycle=cycle,
            detail="under the supplied version order",
            orders_tested=tested,
        )
    s, failure = checker._witness(analysis, topo)
    if failure is not None:
        raise InvariantViolation(failure)
    return Verdict("opaque", order=dict(order), serialization=s, orders_tested=tested)


def check_with_graph(history: History, order) -> Verdict:
    """check_with_order decided by the labelled graph, through
    reference_graph_verdict."""
    bad = invalid_read(history)
    if bad is not None:
        return checker._invalid(bad)
    analysis = checker._Analysis(history)
    analysis.validate_order(order)
    return reference_graph_verdict(analysis, order)


def reference_mv_edges(reads, writers_by_obj, positions) -> set[tuple[int, int, str]]:
    """The labelled mv rule as the checker had it before one rule served
    both the graph and the search: (k, obj, j) reads, writers by object
    and positions by object.

    For read (k, obj, j) and any other committed writer i of obj: if i's
    version is ordered before j's, i must serialize before j; otherwise
    the reader k must serialize before i.
    """
    edges: set[tuple[int, int, str]] = set()
    for k, obj, j in reads:
        pos = positions[obj]
        for i in writers_by_obj[obj]:
            if i == j or i == k:
                continue
            if pos[i] < pos[j]:
                edges.add((i, j, checker.MV))
            else:
                edges.add((k, i, checker.MV))
    return edges


def brute_force_reference(history: History, budget: int) -> Verdict:
    """Exhaustive search with no timestamp shortcut.

    Counts the candidate orders against the budget first, then builds
    one graph per version order, starting from the ascending one, and
    keeps the first cycle it meets. Any faster search must give the same
    Verdict wherever this one decides.
    """
    bad = invalid_read(history)
    if bad is not None:
        return checker._invalid(bad)
    analysis = checker._Analysis(history)
    objs = sorted(analysis.writes)
    total = math.prod(math.factorial(len(analysis.writes[obj])) for obj in objs)
    if total > budget:
        return Verdict(
            "undecided",
            detail=f"{total} candidate version orders exceed budget {budget}",
        )
    tested = 0
    first_cycle = None
    for combo in itertools.product(
        *(itertools.permutations(sorted(analysis.writes[obj])) for obj in objs)
    ):
        tested += 1
        verdict = reference_graph_verdict(analysis, dict(zip(objs, combo)), tested)
        if verdict.opaque:
            return verdict
        if first_cycle is None:
            first_cycle = verdict.cycle
    return Verdict(
        "not_opaque",
        cycle=first_cycle,
        detail=f"no version order yields an acyclic graph ({tested} tried)",
        orders_tested=tested,
    )


def _reference_closure(size: int, pairs) -> list[int]:
    """Per vertex index, the bit set of the vertices it reaches over
    pairs, each running from a lower index to a higher one."""
    reach = [0] * size
    for u, v in sorted(pairs, reverse=True):
        if u >= v:
            raise InvariantViolation("the rt, rf and T0 edges close a cycle")
        reach[u] |= reach[v] | 1 << v
    return reach


def reference_extended(reach: list[int], pairs) -> list[int] | None:
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


def _reference_first_acyclic(analysis) -> tuple[dict, int] | None:
    """The first acyclic version order in product order and its rank,
    walking every permutation of every object."""
    objs = sorted(analysis.writes)
    last = {0: -1} | {e.tx: i for i, e in enumerate(analysis.history.events)}
    vertex = sorted(last, key=last.__getitem__)
    index = {v: i for i, v in enumerate(vertex)}
    writers = [[index[w] for w in sorted(analysis.writes[obj])] for obj in objs]
    reads = [[(index[k], index[j]) for k, j in analysis.reads.get(obj, ())] for obj in objs]
    root = _reference_closure(
        len(index), [(index[u], index[v]) for u, v, _ in analysis.static_edges]
    )
    stack = [(root, (), 0, enumerate(itertools.permutations(writers[0])))]
    while stack:
        reach, prefix, rank, perms = stack[-1]
        i, perm = next(perms, (None, None))
        if perm is None:
            stack.pop()
            continue
        d = len(prefix)
        extended = reference_extended(reach, reference_mv_pairs(reads[d], perm))
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


def reference_check_auto(
    history: History, budget: int = checker.DEFAULT_BUDGET
) -> Verdict:
    """check_auto before the search decided the timestamp order itself:
    the timestamp order through the ascending serialization, then its
    graph, then, when it fails and the budget allows, a walk of every
    permutation of every object, and the found order's graph."""
    analysis = checker._Analysis(history)
    if analysis.invalid is not None:
        return checker._invalid(analysis.invalid)
    ts_order = checker._ascending_order(analysis.writes)
    s, failure = checker._witness(analysis, sorted(analysis.vertices))
    if failure is None:
        return Verdict("opaque", order=dict(ts_order), serialization=s, orders_tested=1)
    ts = reference_graph_verdict(analysis, ts_order)
    if ts.opaque:
        return ts
    total = math.prod(math.factorial(len(ws)) for ws in analysis.writes.values())
    if total > budget:
        return Verdict(
            "undecided",
            detail=f"{total} candidate version orders exceed budget {budget}",
        )
    found = _reference_first_acyclic(analysis)
    if found is None:
        return Verdict(
            "not_opaque",
            cycle=ts.cycle,
            detail=f"no version order yields an acyclic graph ({total} tried)",
            orders_tested=total,
        )
    order, rank = found
    return reference_graph_verdict(analysis, order, rank)


# ------------------------------------------------------ nts-chain reference


class NtsChainRegistry(Registry):
    """Reference update commit that keeps an explicit nts chain.

    A version's nts is the timestamp of the next committed writer of its
    object, updated by hand on every insertion and deletion; collection
    decides each version against its nts. Here nts lives in a side
    table keyed by (object id, version ts). Per object the commit
    installs, notes and collects before it moves on, then records the
    commit and leaves the live set. Locks are not taken, so use it from
    one thread only, and always with a recorder.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.nts: dict[tuple[int, int], int | None] = {}

    def try_commit(self, tx: Transaction) -> bool:
        self._require_live(tx)
        targets = [(oid, self.tobject(oid)) for oid in sorted(tx.write_set)]
        for oid, tobj in targets:
            pair = tobj.find_conflict(tx.id)
            if pair is not None:
                tx.abort_witness = (oid, pair[0], pair[1])
                self._terminate(tx, ABORTED, ABORT)
                return False
        for oid, tobj in targets:
            vt = VersionTuple(tx.id, tx.write_set[oid])
            if self.gc_threshold is None:
                tobj.insert_version(vt)
                self._recorder.on_version_insert(oid, tx.id)
            else:
                self._insert_tuple(tobj, vt)
        self._terminate(tx, COMMITTED, COMMIT)
        return True

    def _terminate(self, tx: Transaction, status: str, event: str) -> None:
        self._record(event, tx.id)
        self._live.remove(tx.id)
        tx.status = status

    def _insert_tuple(self, tobj, vt) -> None:
        oid = tobj.object_id
        prev = tobj.find(vt.ts)
        self.nts[oid, vt.ts] = self.nts.get((oid, prev.ts))
        self.nts[oid, prev.ts] = vt.ts
        tobj.insert_version(vt)
        self._recorder.on_version_insert(oid, vt.ts)
        if len(tobj.versions) > self.gc_threshold:
            self._collect(tobj)

    def _collect(self, tobj) -> None:
        oid = tobj.object_id
        survivors = []
        for vt in tobj.versions:
            nts = self.nts.get((oid, vt.ts))
            if nts is not None and not any(vt.ts < j < nts for j in self._live):
                tobj.gc_deleted += 1
                self._recorder.on_version_delete(oid, vt.ts)
                if survivors:
                    self.nts[oid, survivors[-1].ts] = nts
            else:
                survivors.append(vt)
        tobj.versions = survivors


# ------------------------------------------------------ cached-read reference


class CachedReadRegistry(Registry):
    """Reference read path that answers a re-read from a per-transaction
    cache of first results instead of searching the version list again.

    The cache lives in a side table keyed by (transaction id, object
    id); re_reads counts the reads it answered.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.first_reads: dict[tuple[int, int], int] = {}
        self.re_reads = 0

    def read(self, tx: Transaction, object_id: int) -> int:
        self._require_live(tx)
        if tx.write_set:
            raise UsageError(
                f"transaction {tx.id} read after write: reads must precede writes"
            )
        key = tx.id, object_id
        if key in self.first_reads:
            self.re_reads += 1
            value = self.first_reads[key]
            self._record(READ, tx.id, object_id, value)
            return value
        value = self.first_reads[key] = super().read(tx, object_id)
        return value


# ------------------------------------------------------ ticket-lock reference


class TicketLock:
    """Reference FIFO lock: a Condition ticket lock whose release wakes
    every waiter with notify_all, and only the ticket being served
    proceeds. Abandoned tickets are skipped when served.

    queued() is the number of drawn tickets not yet served, the same
    measure as FairLock's queue length.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._next_ticket = 0
        self._serving = 0
        self._abandoned: set[int] = set()

    def acquire(self) -> None:
        with self._cond:
            ticket = self._next_ticket
            self._next_ticket += 1
            try:
                while ticket != self._serving:
                    self._cond.wait()
            except BaseException:
                if ticket == self._serving:
                    self._serve_next()
                else:
                    self._abandoned.add(ticket)
                raise

    def release(self) -> None:
        with self._cond:
            if self._serving == self._next_ticket:
                raise RuntimeError("release unlocked lock")
            self._serve_next()

    def _serve_next(self) -> None:
        self._serving += 1
        while self._serving in self._abandoned:
            self._abandoned.remove(self._serving)
            self._serving += 1
        self._cond.notify_all()

    def locked(self) -> bool:
        with self._cond:
            return self._serving != self._next_ticket

    def queued(self) -> int:
        with self._cond:
            return max(0, self._next_ticket - self._serving - 1 - len(self._abandoned))


def random_lane_schedule(seed: int, object_count: int) -> list[tuple]:
    """A random interleaving of a few threads' transaction steps.

    Each step is (lane, op, object, value) with op one of "b", "r",
    "w", "c" and "a". A lane runs one to eight transactions back to
    back; each reads, then writes distinct objects, then commits,
    aborts or, for a lane's last transaction, stays live.
    """
    rng = random.Random(f"lanes/{seed}")
    objects = range(1, object_count + 1)
    value = 0
    lanes = []
    for lane in range(rng.randint(2, 5)):
        steps = []
        n_tx = rng.randint(1, 8)
        for n in range(n_tx):
            steps.append((lane, "b", None, None))
            steps += [(lane, "r", rng.choice(objects), None) for _ in range(rng.randint(0, 3))]
            for obj in rng.sample(objects, rng.randint(0, object_count)):
                value += 1
                steps.append((lane, "w", obj, value))
            roll = rng.random()
            if roll < 0.8 or (roll >= 0.9 and n < n_tx - 1):
                steps.append((lane, "c", None, None))
            elif roll < 0.9:
                steps.append((lane, "a", None, None))
        lanes.append(steps)
    schedule = []
    while lanes:
        i = rng.randrange(len(lanes))
        schedule.append(lanes[i].pop(0))
        if not lanes[i]:
            lanes.pop(i)
    return schedule
