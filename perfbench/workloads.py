"""The four benchmark workloads.

Each workload has two halves. ``setup(seed, workdir)`` builds the inputs
from the seed alone; ``digest(inputs)`` hashes them, outside the set-up
clock, and two set-ups from one seed must agree. ``measure(inputs, seconds, ...)``
runs closed-loop *rounds* (an epoch of planned transactions on a fresh
registry, or a pass over every input history) until ``seconds`` of
timed wall time have passed, always finishing the current round. It
also checks the program's outputs after each round and tallies failures.

Time is taken on the CPU clock. On the shared virtual machine this
benchmark was built on, steal time swings wall time by 2-3x within a
second, while the CPU clock of the measured threads stays within about
10%. Each unit of work (a transaction, or one checker call) is keyed so
that repeats of the same unit in later rounds can be recognised; see
``Outcome``.

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is written down in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import pickle
import random
import select
import statistics
import subprocess
import sys
import threading
import time
from array import array
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field
from pathlib import Path

from mvtostm import cli, harness
from mvtostm.checker import check_with_order, timestamp_order
from mvtostm.core import Registry
from mvtostm.history import ABORT, BEGIN, COMMIT, READ, WRITE, Event, History, Recorder
from mvtostm.locks import LockOrderMonitor

# Criterion-2 plan shape: 16 objects, 1..3 reads, 1..2 writes, 20% read-only.
STM_SHAPE = dict(object_count=16, reads_per_tx=(1, 3), writes_per_tx=(1, 2), ro_fraction=0.2)

# A planned transaction that still has not committed after this many
# aborts counts as a failure (an uncommitted transaction).
RETRY_CAP = 1000


@dataclass
class Inputs:
    data: object  # what measure() consumes
    raw: object  # what the digest covers: the plans, or the history texts


@dataclass
class Outcome:
    """What one measured phase did and which of its checks failed.

    The rate is every transaction of the run over every CPU second of
    its timed rounds. Latencies come from ``unit_costs``. On one thread
    a unit of work (planned transaction *i* of the epoch, or history *h*)
    does the same work every round, so ``cpu`` keeps the CPU seconds of
    each repeat by unit and a unit costs the mean of its repeats. With
    two threads the work depends on the interleaving, so every repeat is
    a sample of its own, kept in the flat ``samples``.
    """

    threads: int = 1
    cpu: dict = field(default_factory=lambda: defaultdict(list))
    samples: array = field(default_factory=lambda: array("d"))
    rounds: int = 0
    busy: float = 0.0  # wall seconds of timed work
    busy_cpu: float = 0.0  # CPU seconds of timed work
    units: int = 0  # transactions committed or checked, over all rounds
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)

    def more(self, seconds: float) -> bool:
        """Start another round? Rounds are whole, so the last may run over."""
        return self.busy < seconds

    def timed(self, units: int, wall: float, cpu: float) -> None:
        self.rounds += 1
        self.units += units
        self.busy += wall
        self.busy_cpu += cpu

    def sample(self, key, cpu: float) -> None:
        if self.threads > 1:
            self.samples.append(cpu)
        else:
            self.cpu[key].append(cpu)

    def unit_costs(self) -> list[float]:
        """CPU seconds per unit of work."""
        if self.threads == 1:
            return [statistics.fmean(v) for v in self.cpu.values()]
        return self.samples.tolist()

    def tx_per_cpu_s(self) -> float:
        return self.units / self.busy_cpu

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def digest(inputs: Inputs) -> str:
    h = hashlib.sha256()
    for part in inputs.raw:
        h.update(part.encode() if isinstance(part, str) else repr(part).encode())
    return h.hexdigest()[:16]


# ------------------------------------------------------------------ STM side


@dataclass
class _WorkerStats:
    update_attempts: int = 0
    update_aborts: int = 0
    ro_aborts: int = 0
    retries: int = 0
    gave_up: int = 0
    bad_witnesses: list = field(default_factory=list)
    error: BaseException | None = None


def _transact(registry, script, key: int, stats: _WorkerStats) -> bool:
    """Run one planned transaction until it commits.

    Written values are derived from the plan position ``key``, not from
    the transaction id, so the expected final state follows from the plan.
    """
    aborts = 0
    while True:
        tx = registry.begin()
        for obj in script.reads:
            registry.read(tx, obj)
        for idx, obj in enumerate(script.writes):
            registry.write(tx, obj, harness.encode_value(key, obj, idx))
        if script.writes:
            stats.update_attempts += 1
        if registry.try_commit(tx):
            return True
        if script.writes:
            stats.update_aborts += 1
        else:
            stats.ro_aborts += 1
        witness = tx.abort_witness
        if witness is None or not witness[1] < tx.id < witness[2]:
            stats.bad_witnesses.append((tx.id, witness))
        aborts += 1
        if aborts >= RETRY_CAP:
            stats.gave_up += 1
            return False
        stats.retries += 1


def _run_plan(registry, plan, first_key: int, stats: _WorkerStats, costs: list, start=None):
    """Execute a plan in order; costs[i] is the CPU time of plan[i], retries included."""
    try:
        if start is not None:
            start.wait()
        clock = time.thread_time
        for pos, script in enumerate(plan):
            t0 = clock()
            committed = _transact(registry, script, first_key + pos, stats)
            costs.append(clock() - t0 if committed else None)
    except BaseException as exc:  # reported as a failure after the join
        stats.error = exc


def _record_costs(out: Outcome, key, costs: list) -> None:
    for pos, cost in enumerate(costs):
        if cost is not None:
            out.sample((key, pos), cost)


def _tally(out: Outcome, stats: list[_WorkerStats], planned: int, registry) -> int:
    """Count an epoch's planned transactions, failures and aborts; return the longest list."""
    out.attempted += planned
    c = out.counts
    for s in stats:
        out.failures.extend("uncommitted transaction" for _ in range(s.gave_up))
        out.check(s.error is None, f"exception: {s.error!r}")
        c["update_attempts"] += s.update_attempts
        c["update_aborts"] += s.update_aborts
        c["retries"] += s.retries
        c["ro_aborts"] += s.ro_aborts
    c["committed"] += planned - sum(s.gave_up for s in stats)
    longest = max(len(registry.tobject(o).versions) for o in range(1, registry.object_count + 1))
    c["max_versions"] = max(c["max_versions"], longest)
    return longest


class StmGcOff1T:
    """One client thread on a bare Registry: GC off, no recorder, no monitor."""

    name = "stm-gcoff-1t"
    threads = 1

    def __init__(self, small: bool = False):
        # 14k transactions take the longest version list past 1,000;
        # 13k fell short on some seeds.
        self.txs = 300 if small else 14_000
        self.min_longest = 0 if small else 1000

    def setup(self, seed: int, workdir: Path) -> Inputs:
        config = harness.WorkloadConfig(threads=1, txs_per_thread=self.txs, seed=seed, **STM_SHAPE)
        plan = harness.thread_script(config, 0)
        return Inputs(plan, plan)

    def measure(self, inputs: Inputs, seconds: float, plant: bool = False, tracer=None) -> Outcome:
        plan = inputs.data
        expected = self._final_values(plan)
        if plant:
            expected[1] += 1
        out = Outcome(threads=1)
        while out.more(seconds):
            registry = Registry(STM_SHAPE["object_count"])
            stats, costs = _WorkerStats(), []
            t0, c0 = time.perf_counter(), time.process_time()
            _run_plan(registry, plan, 1, stats, costs)
            out.timed(len(plan) - stats.gave_up, time.perf_counter() - t0, time.process_time() - c0)
            _record_costs(out, 0, costs)
            with _paused(tracer):
                self._verify(registry, plan, stats, expected, out)
        return out

    @staticmethod
    def _final_values(plan) -> dict[int, int]:
        expected = {obj: 0 for obj in range(1, STM_SHAPE["object_count"] + 1)}
        for pos, script in enumerate(plan):
            for idx, obj in enumerate(script.writes):
                expected[obj] = harness.encode_value(pos + 1, obj, idx)
        return expected

    def _verify(self, registry, plan, stats, expected, out: Outcome) -> None:
        longest = _tally(out, [stats], len(plan), registry)
        out.check(longest > self.min_longest,
                  f"longest version list {longest}, expected over {self.min_longest}")
        out.check(stats.update_aborts + stats.ro_aborts == 0,
                  f"{stats.update_aborts + stats.ro_aborts} aborts with one thread")
        tx = registry.begin()
        for obj, want in expected.items():
            got = registry.read(tx, obj)
            out.check(got == want, f"object {obj}: newest value {got}, last planned write {want}")
        registry.try_commit(tx)


class StmGc2T:
    """Two client threads; GC at threshold 2, recorder and lock monitor on."""

    name = "stm-gc-2t"
    threads = 2
    gc_threshold = 2

    def __init__(self, small: bool = False):
        # Transactions per thread per epoch. Each epoch's history is checked
        # after timing, and the checker is super-quadratic in history
        # length, so epochs stay short. Epochs cycle through a pool of
        # plans, so one run averages over many plans, not one.
        self.txs = 20 if small else 32
        self.pool = 2 if small else 50

    def setup(self, seed: int, workdir: Path) -> Inputs:
        pool = []
        for epoch in range(self.pool):
            config = harness.WorkloadConfig(
                threads=self.threads, txs_per_thread=self.txs, seed=seed * 1000 + epoch, **STM_SHAPE
            )
            pool.append([harness.thread_script(config, w) for w in range(self.threads)])
        return Inputs(pool, pool)

    def measure(self, inputs: Inputs, seconds: float, plant: bool = False, tracer=None) -> Outcome:
        out = Outcome(threads=self.threads)
        with _checker_process() as checker:
            while out.more(seconds):
                index = out.rounds % len(inputs.data)
                plans = inputs.data[index]
                recorder, monitor = Recorder(), LockOrderMonitor()
                registry = Registry(
                    STM_SHAPE["object_count"], gc_threshold=self.gc_threshold,
                    recorder=recorder, monitor=monitor,
                )
                stats = [_WorkerStats() for _ in plans]
                costs = [[] for _ in plans]
                start = threading.Event()
                workers = [
                    threading.Thread(
                        target=_run_plan,
                        args=(registry, plan, 1 + w * self.txs, stats[w], costs[w], start),
                        daemon=True,
                    )
                    for w, plan in enumerate(plans)
                ]
                for t in workers:
                    t.start()
                prior = sys.getswitchinterval()
                sys.setswitchinterval(harness.SWITCH_INTERVAL)
                try:
                    t0, c0 = time.perf_counter(), time.process_time()
                    start.set()
                    deadline = time.monotonic() + harness.WATCHDOG_SECONDS
                    for t in workers:
                        t.join(max(0.0, deadline - time.monotonic()))
                    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
                finally:
                    sys.setswitchinterval(prior)
                stuck = any(t.is_alive() for t in workers)
                out.check(not stuck, f"watchdog: an epoch outlived {harness.WATCHDOG_SECONDS} s")
                if stuck:
                    break
                planned = sum(len(p) for p in plans)
                out.timed(planned - sum(s.gave_up for s in stats), wall, cpu)
                for w, worker_costs in enumerate(costs):
                    _record_costs(out, (index, w), worker_costs)
                expect = "not_opaque" if plant and out.rounds == 1 else "opaque"
                with _paused(tracer):
                    _tally(out, stats, planned, registry)
                    self._verify(registry, recorder, monitor, stats, expect, out, checker)
        return out

    @staticmethod
    def _verify(registry, recorder, monitor, stats, expect: str, out: Outcome, checker) -> None:
        for s in stats:
            out.check(not s.bad_witnesses, f"abort witnesses without j < i < k: {s.bad_witnesses[:3]}")
            out.check(s.ro_aborts == 0, f"{s.ro_aborts} read-only aborts")
        out.check(not monitor.violations, f"lock order violated: {monitor.violations[:3]}")
        live = registry.live_ids()
        out.check(not live, f"live set not drained: {sorted(live)[:5]}")
        out.check(recorder.invalid_reason is None, f"malformed history: {recorder.invalid_reason}")
        pickle.dump(recorder.history(), checker.stdin)
        checker.stdin.flush()
        # Poll rather than block: a vCPU left idle while the child works
        # starts the next epoch cold, which cost stm-gc-2t about 15% of
        # its commits per CPU second on the baseline machine.
        while not select.select([checker.stdout], [], [], 0)[0]:
            pass
        status = checker.stdout.readline().strip() or "no answer from the checker process"
        out.check(status == expect, f"history verdict {status}, expected {expect}")


def serve_checks() -> None:
    """Child process: check each pickled history on stdin under its
    timestamp order, and print the verdict's status."""
    while True:
        try:
            history = pickle.load(sys.stdin.buffer)
        except EOFError:
            return
        print(check_with_order(history, timestamp_order(history)).status, flush=True)


@contextlib.contextmanager
def _checker_process():
    """A second interpreter that checks stm-gc-2t's recorded histories.

    The checker's memory grows faster than quadratically with history
    length, and an epoch with a burst of retries records a history
    several times the usual length. Checking in another process keeps
    that memory out of this process's peak RSS, which then measures the
    STM under test, not the benchmark's checks. The child is a fresh
    interpreter, not a fork, so it shares no pages with this process
    and the timed epochs take no copy-on-write faults; it works only
    between epochs, while this process waits for its answer.
    """
    here = Path(__file__).resolve().parent
    paths = [str(here.parent / "src"), str(here)]
    child = subprocess.Popen(
        [sys.executable, "-c", f"import sys; sys.path[:0] = {paths!r}; "
                               "import workloads; workloads.serve_checks()"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=False,
    )
    child.stdout = io.TextIOWrapper(child.stdout)
    try:
        yield child
    finally:
        with contextlib.suppress(OSError):
            child.stdin.close()
        try:
            child.wait(10)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()


# -------------------------------------------------------------- checker side


def _interleave(rng: random.Random, per_tx: list[list], concurrency: int):
    """Merge per-transaction step lists, at most ``concurrency`` open at once."""
    todo = deque(deque(steps) for steps in per_tx)
    active: list[deque] = []
    while todo or active:
        while todo and len(active) < concurrency:
            active.append(todo.popleft())
        i = rng.randrange(len(active))
        yield active[i].popleft()
        if not active[i]:
            active.pop(i)


class _CheckerWorkload:
    """Histories written to files in set-up, checked by opacity-check in-process."""

    threads = 1

    def setup(self, seed: int, workdir: Path) -> Inputs:
        texts, paths = self.write_inputs(seed, workdir)
        return Inputs(paths, texts)

    def write_inputs(self, seed: int, workdir: Path) -> tuple[list[str], list[Path]]:
        """Generate the histories from the seed and write one file each."""
        workdir.mkdir(parents=True, exist_ok=True)
        texts = self._histories(seed)
        paths = [workdir / f"h{i:04d}.txt" for i in range(len(texts))]
        for path, text in zip(paths, texts):
            path.write_text(text, encoding="utf-8")
        return texts, paths

    def measure(self, inputs: Inputs, seconds: float, plant: bool = False, tracer=None) -> Outcome:
        out = Outcome()
        passes = []
        # transactions per history: the distinct ids in its step lines
        sizes = [len({line.split()[1] for line in text.splitlines()}) for text in inputs.raw]
        while out.more(seconds):
            verdicts, checked, wall, cpu = Counter(), 0, 0.0, 0.0
            for i, (path, n_tx) in enumerate(zip(inputs.data, sizes)):
                stdout, stderr = io.StringIO(), io.StringIO()
                out.attempted += 1
                try:
                    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                        t0, c0 = time.perf_counter(), time.thread_time()
                        rc = cli.opacity_check_main([str(path), "--emit-witness"])
                        dt, dc = time.perf_counter() - t0, time.thread_time() - c0
                except Exception as exc:  # noqa: BLE001 - counted as a failure
                    out.failures.append(f"{path.name}: {exc!r}")
                    continue
                wall += dt
                cpu += dc
                checked += n_tx
                out.sample(i, dc)
                verdicts[rc] += 1
                self._check_call(out, path, rc, stdout.getvalue(), stderr.getvalue(), plant and i == 0)
            out.timed(checked, wall, cpu)
            passes.append(verdicts)
        self._check_passes(out, passes, plant)
        out.counts["passes"] = len(passes)
        return out

    def _check_call(self, out, path, rc, stdout, stderr, plant) -> None:
        raise NotImplementedError

    def _check_passes(self, out, passes, plant) -> None:
        """Checks over whole passes; none by default."""


class CheckLarge(_CheckerWorkload):
    """Long engine-made histories; the timestamp order always succeeds."""

    name = "check-large"
    # Transactions per history; fixed so that only contents depend on the seed.
    sizes = (300, 450, 600, 750)
    small_sizes = (30, 60)
    concurrency = 4
    abort_fraction = 0.05

    def __init__(self, small: bool = False):
        self.sizes = self.small_sizes if small else type(self).sizes

    def _histories(self, seed: int) -> list[str]:
        return [self._history(seed, i, n) for i, n in enumerate(self.sizes)]

    def _history(self, seed: int, index: int, n_tx: int) -> str:
        """Record one history by replaying an interleaved script on one thread."""
        config = harness.WorkloadConfig(threads=1, txs_per_thread=n_tx, seed=seed * 1000 + index, **STM_SHAPE)
        plans = harness.thread_script(config, 0)
        rng = random.Random(f"check-large/{seed}/{index}")
        value = 0
        per_tx = []
        for t, script in enumerate(plans):
            steps = [f"step {t} b"] + [f"step {t} r {obj}" for obj in script.reads]
            for obj in script.writes:
                value += 1
                steps.append(f"step {t} w {obj} {value}")
            steps.append(f"step {t} {'a' if rng.random() < self.abort_fraction else 'c'}")
            per_tx.append(steps)
        lines = [f"objects {STM_SHAPE['object_count']}"]
        lines.extend(_interleave(rng, per_tx, self.concurrency))
        return harness.replay("\n".join(lines) + "\n").serialize()

    def _check_call(self, out, path, rc, stdout, stderr, plant) -> None:
        want = 1 if plant else 0
        out.check(rc == want and "# order " in stdout,
                  f"{path.name}: exit {rc}, expected {want} with a witness; {stderr.strip()[:200]}")


class CheckExhaustive(_CheckerWorkload):
    """Small histories with valid reads; most are not opaque under any order."""

    name = "check-exhaustive"
    objects = ("x", "y", "z")
    n_tx = 5
    # Bands of candidate version orders, the product over objects of
    # (committed writers + 1)!, which is what brute force enumerates on a
    # non-opaque history. The top, 720, is far below the default budget,
    # so no verdict is undecided. Each band is split by whether any read
    # returned an older value than the newest: about half of the
    # histories without such a read are opaque, and about a tenth of
    # those with one. Equal strata keep a pass's work nearly the same
    # for every seed.
    bands = ((1, 12), (13, 72), (73, 144), (145, 720))
    concurrency = 3
    abort_fraction = 0.1
    stale_read_fraction = 0.5

    def __init__(self, small: bool = False):
        self.per_stratum = 2 if small else 125

    def _histories(self, seed: int) -> list[str]:
        rng = random.Random(f"check-exhaustive/{seed}")
        chosen = {(band, stale): [] for band in self.bands for stale in (False, True)}
        draws = 0
        while any(len(h) < self.per_stratum for h in chosen.values()):
            draws += 1
            history, stale = self._history(rng, seed * 1_000_000 + draws)
            orders = self._orders(history)
            for band in self.bands:
                stratum = chosen[band, stale]
                if band[0] <= orders <= band[1] and len(stratum) < self.per_stratum:
                    stratum.append(history.serialize())
        # interleave the strata so every stretch of a pass has the same mix
        return [h for group in zip(*chosen.values()) for h in group]

    def _history(self, rng: random.Random, plan_seed: int) -> tuple[History, bool]:
        """A history with valid reads, and whether any read was not of the newest value."""
        config = harness.WorkloadConfig(
            threads=1, txs_per_thread=self.n_tx, object_count=len(self.objects),
            reads_per_tx=(1, 2), writes_per_tx=(1, 2), ro_fraction=0.2, seed=plan_seed,
        )
        per_tx = []
        for t, script in enumerate(harness.thread_script(config, 0), start=1):
            steps = [(BEGIN, t, None)] + [(READ, t, self.objects[o - 1]) for o in script.reads]
            steps += [(WRITE, t, self.objects[o - 1]) for o in script.writes]
            steps.append((ABORT if rng.random() < self.abort_fraction else COMMIT, t, None))
            per_tx.append(steps)
        committed = {obj: [0] for obj in self.objects}
        staged: dict[int, dict] = {}
        events, value, stale = [], 0, False
        for kind, t, obj in _interleave(rng, per_tx, self.concurrency):
            val = None
            if kind == READ:
                # valid by construction: the value was committed before the read
                values = committed[obj]
                val = values[-1] if rng.random() >= self.stale_read_fraction else rng.choice(values)
                stale = stale or val != values[-1]
            elif kind == WRITE:
                value += 1
                val = staged.setdefault(t, {})[obj] = value
            elif kind == COMMIT:
                for o, v in staged.pop(t, {}).items():
                    committed[o].append(v)
            events.append(Event(kind, t, obj, val, seq=len(events)))
        return History(tuple(events)), stale

    @staticmethod
    def _orders(history: History) -> int:
        committed = history.committed()
        writers = Counter(obj for obj, tx in {(e.obj, e.tx) for e in history
                                             if e.kind == WRITE and e.tx in committed})
        return math.prod(math.factorial(writers[o] + 1) for o in history.objects())

    def _check_call(self, out, path, rc, stdout, stderr, plant) -> None:
        out.check(rc in (0, 1) and stdout.startswith("opaque" if rc == 0 else "not opaque"),
                  f"{path.name}: exit {rc}: {(stdout + stderr).strip()[:200]}")

    def _check_passes(self, out, passes, plant) -> None:
        expected = Counter(passes[0])
        if plant:
            expected[0] += 1
        for n, counts in enumerate(passes, start=1):
            out.check(counts == expected, f"pass {n} verdict counts {dict(counts)}, expected {dict(expected)}")
        out.counts.update({f"verdict_exit_{rc}": n for rc, n in passes[0].items()})


WORKLOADS = {w.name: w for w in (StmGcOff1T, StmGc2T, CheckLarge, CheckExhaustive)}


@contextlib.contextmanager
def _paused(tracer):
    """Keep correctness checks that run between timed epochs out of the trace."""
    if tracer is None:
        yield
        return
    tracer.active = False
    try:
        yield
    finally:
        tracer.active = True
