"""Span tracing for the traced benchmark run, installed from outside.

``Tracer.installed()`` replaces public functions and methods of each
layer with wrappers that record a span around the original call: name,
start, end and the enclosing span. Nothing under ``src/`` knows about
it, and the untraced run never installs it. Spans stay in memory, one
buffer per thread, and ``write`` dumps them when the run ends. Counts
taken at the same boundaries (versions scanned, rt pairs built, orders
tried) are kept beside the spans.

``layer_metrics`` turns spans and counts into the per-layer metrics
listed in BENCHMARK.json. A layer that did no work on a workload reports
0 for its metrics.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import threading
import time
from array import array
from collections import Counter, defaultdict

import mvtostm.checker
import mvtostm.cli
import mvtostm.core
import mvtostm.gc
import mvtostm.harness
from mvtostm.core import Registry, TObject
from mvtostm.history import History, Recorder
from mvtostm.locks import FairLock, LockOrderMonitor

# One span is four int64 slots in its thread's buffer.
NAME, START, END, PARENT = range(4)


class _Buffer:
    __slots__ = ("thread", "spans", "stack", "counts")

    def __init__(self, thread: str):
        self.thread = thread
        self.spans = array("q")
        self.stack: list[int] = []
        self.counts: Counter = Counter()


class Tracer:
    def __init__(self):
        self.active = True
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._guard = threading.Lock()
        self.buffers: list[_Buffer] = []
        self._patches: list[tuple[object, str, object]] = []
        # Live locks of every registry built while tracing; held so their
        # ids stay unique for the run.
        self._live_locks: dict[int, FairLock] = {}

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            with self._guard:
                nid = self._ids.setdefault(name, len(self.names))
                if nid == len(self.names):
                    self.names.append(name)
        return nid

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer(threading.current_thread().name)
            with self._guard:
                self.buffers.append(buf)
        return buf

    def wrap(self, owner, attr: str, name, before=None, after=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``name`` is a span name, or a function of the call's arguments
        returning one. ``before(args)`` runs outside the span and its
        result is handed to ``after(args, result, state, counts)``.
        """
        orig = getattr(owner, attr)
        pick = name if callable(name) else None
        fixed = None if pick else self._name_id(name)
        tracer, clock = self, time.perf_counter_ns

        def traced(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            buf = tracer._buffer()
            state = before(args) if before else None
            spans, stack = buf.spans, buf.stack
            idx = len(spans)
            nid = fixed if pick is None else tracer._name_id(pick(args))
            spans.extend((nid, 0, 0, stack[-1] if stack else -1))
            stack.append(idx)
            spans[idx + START] = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                spans[idx + END] = clock()
                stack.pop()
            if after:
                after(args, result, state, buf.counts)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    @contextlib.contextmanager
    def installed(self):
        _install(self)
        try:
            yield self
        finally:
            for owner, attr, orig in reversed(self._patches):
                setattr(owner, attr, orig)
            self._patches.clear()

    def is_live_lock(self, lock) -> bool:
        return id(lock) in self._live_locks

    def counts(self) -> Counter:
        total: Counter = Counter()
        for buf in self.buffers:
            total.update(buf.counts)
        return total

    def dump(self) -> dict:
        return {
            "names": self.names,
            "layout": ["name", "start_ns", "end_ns", "parent"],
            "threads": [{"thread": b.thread, "spans": b.spans.tolist()} for b in self.buffers],
            "counts": dict(self.counts()),
        }


def _install(tracer: Tracer) -> None:
    w = tracer.wrap

    # core
    def note_registry(args, result, state, counts):
        lock = args[0]._live_lock
        tracer._live_locks[id(lock)] = lock

    w(Registry, "__init__", "core.registry_init", after=note_registry)
    w(Registry, "begin", "core.begin")
    w(Registry, "read", "core.read")
    w(Registry, "try_commit", lambda a: "core.commit" if a[1].write_set else "core.commit_ro")

    def scanned(args, result, state, counts):
        tobj, ts = args
        versions = readers = 0
        for vt in tobj.versions:
            versions += 1
            if vt.ts < ts:
                readers += len(vt.readers)
                if result is not None and vt.ts == result[0]:
                    break
        counts["core.validate.versions"] += versions
        counts["core.validate.readers"] += readers

    w(TObject, "find_conflict", "core.validate", after=scanned)
    w(TObject, "insert_version", "core.install")

    # gc: core calls insert_tuple by its own module's name for it
    w(mvtostm.core, "insert_tuple", "gc.install")

    def deleted(args, result, before, counts):
        counts["gc.deleted"] += before - len(args[0].versions)

    w(mvtostm.gc, "collect", "gc.sweep", before=lambda a: len(a[0].versions), after=deleted)

    # locks
    w(FairLock, "acquire", lambda a: "locks.acquire_live" if tracer.is_live_lock(a[0]) else "locks.acquire")
    w(LockOrderMonitor, "on_acquired", "locks.monitor")
    w(LockOrderMonitor, "on_released", "locks.monitor")

    # history
    w(Recorder, "on_event", "history.append")
    w(mvtostm.cli, "parse", "history.parse")
    w(History, "serialize", "history.serialize")

    # checker
    ck = mvtostm.checker

    def count(key, size):
        def after(args, result, state, counts):
            counts[key] += size(args, result)
            counts[key + ".calls"] += 1
        return after

    w(ck, "invalid_read", "checker.invalid_read")
    w(ck, "real_time_pairs", "checker.rt_pairs", after=count("checker.rt_pairs", lambda a, r: len(r)))
    w(ck, "topological_order", "checker.topo", after=count("checker.edges", lambda a, r: len(a[0].edges)))
    for fn in ("serialization_from", "illegal_read", "equivalent"):
        w(ck, fn, "checker.certify." + fn)
    w(ck, "check_with_order", "checker.check_with_order")
    w(ck, "check_brute_force", "checker.brute")
    w(ck, "check_auto", "checker.check_auto",
      after=count("checker.orders", lambda a, r: r.orders_tested))

    # harness and cli
    w(mvtostm.harness, "thread_script", "harness.plan")
    w(mvtostm.cli, "opacity_check_main", "cli.call")


# ------------------------------------------------------------------ metrics


class _Spans:
    """Durations, self times and parent names of every span, by name."""

    def __init__(self, tracer: Tracer):
        self.durations: dict[str, list[int]] = defaultdict(list)
        self.self_ns: dict[str, int] = Counter()
        self.rt_analysis_ns = 0
        self.rt_certify_ns = 0
        self.witness_serialize: list[int] = []
        names = tracer.names
        for buf in tracer.buffers:
            s = buf.spans
            child_ns: Counter = Counter()
            rt_seen: set[int] = set()
            for i in range(0, len(s), 4):
                dur = s[i + END] - s[i + START]
                parent = s[i + PARENT]
                if parent >= 0:
                    child_ns[parent] += dur
            for i in range(0, len(s), 4):
                name = names[s[i + NAME]]
                dur = s[i + END] - s[i + START]
                self.durations[name].append(dur)
                self.self_ns[name] += dur - child_ns[i]
                parent = s[i + PARENT]
                parent_name = names[s[parent + NAME]] if parent >= 0 else None
                if name == "checker.rt_pairs":
                    # The first rt build under a check is the analysis; a
                    # later one re-checks real time on the witness.
                    if parent in rt_seen:
                        self.rt_certify_ns += dur
                    else:
                        rt_seen.add(parent)
                        self.rt_analysis_ns += dur
                elif name == "history.serialize" and parent_name == "cli.call":
                    self.witness_serialize.append(dur)

    def total(self, *names: str) -> int:
        return sum(sum(self.durations.get(n, ())) for n in names)

    def n(self, *names: str) -> int:
        return sum(len(self.durations.get(n, ())) for n in names)

    def mean(self, *names: str) -> float:
        n = self.n(*names)
        return self.total(*names) / n if n else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _pct(values: list[int], q: int) -> float:
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(measure: Tracer, setup: Tracer, outcome) -> dict[str, float]:
    """Per-layer metrics of one traced measure phase and one traced set-up."""
    sp, st = _Spans(measure), _Spans(setup)
    c = measure.counts()
    oc = outcome.counts
    committed = oc["committed"]
    threads_wall_ns = outcome.threads * outcome.busy * 1e9
    histories = sp.n("cli.call")
    us, ms = 1e3, 1e6
    acquires = sp.durations.get("locks.acquire", []) + sp.durations.get("locks.acquire_live", [])
    certify_ns = sp.rt_certify_ns + sp.total(
        "checker.certify.serialization_from", "checker.certify.illegal_read", "checker.certify.equivalent"
    )
    return {
        "core.begin_us": sp.mean("core.begin") / us,
        "core.read_us": sp.mean("core.read") / us,
        "core.commit_us": sp.mean("core.commit") / us,
        "core.validate_us": sp.mean("core.validate") / us,
        "core.validate_share": _ratio(sp.total("core.validate"), threads_wall_ns),
        "core.versions_per_validate": _ratio(c["core.validate.versions"], sp.n("core.validate")),
        "core.readers_per_validate": _ratio(c["core.validate.readers"], sp.n("core.validate")),
        "core.install_us": sp.mean("core.install") / us,
        "core.max_versions": oc["max_versions"],
        "core.abort_ratio": _ratio(oc["update_aborts"], oc["update_attempts"]),
        "core.retries_per_tx": _ratio(oc["retries"], committed),
        "gc.sweeps_per_commit": _ratio(sp.n("gc.sweep"), committed),
        "gc.sweep_us": sp.mean("gc.sweep") / us,
        "gc.deleted_per_sweep": _ratio(c["gc.deleted"], sp.n("gc.sweep")),
        "gc.install_us": sp.mean("gc.install") / us,
        "locks.acquire_us_p50": statistics.median(acquires) / us if acquires else 0.0,
        "locks.acquire_us_p99": _pct(acquires, 99) / us,
        "locks.acquires_per_commit": _ratio(len(acquires), committed),
        "locks.wait_share": _ratio(sum(acquires), threads_wall_ns),
        "locks.live_lock_acquire_share": _ratio(sp.n("locks.acquire_live"), len(acquires)),
        "locks.live_lock_time_share": _ratio(sp.total("locks.acquire_live"), sum(acquires)),
        "locks.monitor_us": sp.mean("locks.monitor") / us,
        "history.append_us": sp.mean("history.append") / us,
        "history.events_per_commit": _ratio(sp.n("history.append"), committed),
        "history.parse_ms": sp.mean("history.parse") / ms,
        "history.serialize_ms": _ratio(sum(sp.witness_serialize), len(sp.witness_serialize)) / ms,
        "checker.invalid_read_ms": _ratio(sp.total("checker.invalid_read"), histories) / ms,
        "checker.rt_pairs_ms": _ratio(sp.rt_analysis_ns, histories) / ms,
        "checker.rt_pairs": _ratio(c["checker.rt_pairs"], c["checker.rt_pairs.calls"]),
        "checker.edges": _ratio(c["checker.edges"], c["checker.edges.calls"]),
        "checker.topo_ms": _ratio(sp.total("checker.topo"), histories) / ms,
        "checker.certify_ms": _ratio(certify_ns, histories) / ms,
        "checker.graph_ms": _ratio(sp.self_ns["checker.check_with_order"], histories) / ms,
        "checker.brute_ms": _ratio(sp.total("checker.brute"), histories) / ms,
        "checker.orders_per_history": _ratio(c["checker.orders"], c["checker.orders.calls"]),
        "harness.plan_ms": st.total("harness.plan") / ms,
        "harness.input_gen_s": st.total("harness.input_gen") / 1e9,
        "cli.call_ms": sp.mean("cli.call") / ms,
        "cli.self_ms": _ratio(sp.self_ns["cli.call"], histories) / ms,
    }


def write(path, setup: Tracer, measure: Tracer) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"setup": setup.dump(), "measure": measure.dump()}, f)
