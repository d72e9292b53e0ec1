"""Starvation-free locking primitives and lock-order instrumentation."""

from __future__ import annotations

import threading


class FairLock:
    """FIFO (ticket) mutual exclusion lock.

    Waiters are served strictly in arrival order, so no thread can be
    overtaken forever while the lock keeps changing hands. The built-in
    threading.Lock gives no fairness guarantee, which the liveness
    argument for commit needs.
    """

    __slots__ = ("_cond", "_next_ticket", "_serving")

    def __init__(self):
        self._cond = threading.Condition()
        self._next_ticket = 0
        self._serving = 0

    def acquire(self) -> None:
        with self._cond:
            ticket = self._next_ticket
            self._next_ticket += 1
            while ticket != self._serving:
                self._cond.wait()

    def release(self) -> None:
        """Serve the next ticket; RuntimeError if unheld, as threading.Lock."""
        with self._cond:
            if self._serving == self._next_ticket:
                raise RuntimeError("release unlocked lock")
            self._serving += 1
            self._cond.notify_all()

    def locked(self) -> bool:
        with self._cond:
            return self._serving != self._next_ticket

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
