"""Starvation-free locking primitives and lock-order instrumentation."""

from __future__ import annotations

import threading
import time
from collections import deque


class FairLock:
    """FIFO hand-off mutual exclusion lock.

    The liveness argument for commit needs starvation-free locks, and
    the built-in threading.Lock gives no fairness guarantee. This lock
    serves waiters strictly in arrival order, so no thread can be
    overtaken forever while the lock keeps changing hands.

    A short threading.Lock guard protects the held flag and a queue of
    gates, one per waiting thread, each a threading.Lock that starts
    out locked. An uncontended acquire only sets the flag under the
    guard. A contended one queues its gate and blocks on it. Release
    opens only the head gate and leaves the flag set: ownership passes
    straight to the oldest waiter, so no thread that arrives later can
    barge in between, and no other waiter is woken (a queue lock in
    the manner of Mellor-Crummey and Scott). With no waiter, release
    clears the flag.

    After a hand-off, release yields the interpreter (time.sleep(0)) so
    that the new owner runs at once. Without the yield the owner sleeps
    through the releaser's time slice while it holds the lock, and two
    threads fall into lockstep: on two-thread stress runs, pairs of
    transactions that each read what the other writes then aborted
    each other hundreds of times in a row (once until a 1,000-abort
    retry cap gave up), against at most 7 times with the yield.

    handoffs counts the releases that served a queued waiter.
    """

    __slots__ = ("_guard", "_held", "_waiters", "handoffs")

    def __init__(self):
        self._guard = threading.Lock()
        self._held = False
        self._waiters: deque[threading.Lock] = deque()
        self.handoffs = 0

    def acquire(self) -> None:
        with self._guard:
            if not self._held:
                self._held = True
                return
            gate = threading.Lock()
            gate.acquire()
            self._waiters.append(gate)
        try:
            self._wait(gate)
        except BaseException:
            # the wait raised (say, KeyboardInterrupt): give up the
            # place in the queue, or the lock if it was served meanwhile
            with self._guard:
                if gate in self._waiters:
                    self._waiters.remove(gate)
                else:
                    self._serve_next()
            raise

    def _wait(self, gate: threading.Lock) -> None:
        """Block until a release opens gate (a seam for tests)."""
        gate.acquire()

    def release(self) -> None:
        """Serve the head waiter; RuntimeError if unheld, as threading.Lock."""
        with self._guard:
            if not self._held:
                raise RuntimeError("release unlocked lock")
            handed_off = self._serve_next()
        if handed_off:
            time.sleep(0)  # yield the interpreter to the new owner

    def _serve_next(self) -> bool:
        """Hand the lock to the head waiter and return True, or free it;
        the caller holds _guard."""
        if self._waiters:
            self.handoffs += 1
            self._waiters.popleft().release()
            return True
        self._held = False
        return False

    def locked(self) -> bool:
        return self._held

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc):
        self.release()
        return False


class LockOrderMonitor:
    """Observes lock acquisitions and flags rank-order violations.

    Deadlock freedom rests on every thread acquiring locks in strictly
    ascending rank (objects by id, registry lock last). Each acquisition
    while a lock of equal or higher rank is already held by the same
    thread is recorded as a violation.
    """

    def __init__(self):
        self._local = threading.local()
        self._guard = threading.Lock()
        self.acquisitions = 0
        self.violations: list[tuple[int, tuple[int, ...], int]] = []

    def _held(self) -> list[int]:
        held = getattr(self._local, "held", None)
        if held is None:
            held = self._local.held = []
        return held

    def on_acquired(self, rank: int) -> None:
        held = self._held()
        with self._guard:
            self.acquisitions += 1
            if held and rank <= max(held):
                self.violations.append(
                    (threading.get_ident(), tuple(held), rank)
                )
        held.append(rank)

    def on_released(self, rank: int) -> None:
        held = self._held()
        if rank in held:
            held.remove(rank)
