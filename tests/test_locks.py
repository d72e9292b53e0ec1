import random
import sys
import threading
import time

import pytest

from mvtostm.locks import FairLock, LockOrderMonitor
from tests import support

TIMEOUT = 10.0  # seconds; a lost hand-off fails a test instead of hanging it


def _join(thread: threading.Thread) -> None:
    thread.join(TIMEOUT)
    assert not thread.is_alive(), f"{thread.name} still blocked after {TIMEOUT} s"


def _until(predicate, what: str) -> None:
    """Poll predicate until it holds; fail after TIMEOUT seconds."""
    deadline = time.monotonic() + TIMEOUT
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting until {what}"
        time.sleep(0.001)


def _queued(lock: FairLock) -> int:
    return len(lock._waiters)


class TestFairLock:
    def test_acquire_release(self):
        lock = FairLock()
        assert not lock.locked()
        lock.acquire()
        assert lock.locked()
        lock.release()
        assert not lock.locked()
        assert lock.handoffs == 0

    def test_context_manager(self):
        lock = FairLock()
        with lock:
            assert lock.locked()
        assert not lock.locked()

    def test_mutual_exclusion(self):
        # more threads than cores and a short switch interval, so an
        # unguarded read-modify-write of total would lose updates
        lock = FairLock()
        total = 0

        def bump():
            nonlocal total
            for _ in range(2000):
                with lock:
                    seen = total
                    total = seen + 1

        threads = [threading.Thread(target=bump, daemon=True) for _ in range(4)]
        prior = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                _join(t)
        finally:
            sys.setswitchinterval(prior)
        assert total == 8000
        assert not lock.locked() and _queued(lock) == 0

    def test_fifo_service_order(self):
        # Three waiters queue behind a held lock, each only after the
        # one before it is queued; the grants come back in that order.
        lock = FairLock()
        grants: list[int] = []
        lock.acquire()

        def waiter(idx: int):
            lock.acquire()
            grants.append(idx)
            lock.release()

        threads = []
        for idx in range(3):
            t = threading.Thread(target=waiter, args=(idx,), daemon=True)
            t.start()
            _until(lambda: _queued(lock) == idx + 1, f"waiter {idx} is queued")
            threads.append(t)
        lock.release()
        for t in threads:
            _join(t)
        assert grants == [0, 1, 2]
        assert lock.handoffs == 3

    def test_no_barging_after_a_handoff(self):
        # A release that serves a queued waiter leaves the lock held, so
        # a thread arriving after it queues and is granted second.
        lock = FairLock()
        grants: list[str] = []
        go = threading.Event()
        lock.acquire()

        def first():
            lock.acquire()
            grants.append("first")
            go.wait(TIMEOUT)
            lock.release()

        def late():
            lock.acquire()
            grants.append("late")
            lock.release()

        a = threading.Thread(target=first, daemon=True)
        a.start()
        _until(lambda: _queued(lock) == 1, "the first waiter is queued")
        lock.release()
        assert lock.locked() and _queued(lock) == 0
        b = threading.Thread(target=late, daemon=True)
        b.start()
        _until(lambda: _queued(lock) == 1, "the late thread is queued")
        assert "late" not in grants
        go.set()
        _join(a)
        _join(b)
        assert grants == ["first", "late"]
        assert not lock.locked()

    def test_handoffs_count_served_waiters(self):
        lock = FairLock()
        with lock:
            pass
        assert lock.handoffs == 0  # a release with no waiter serves no one
        lock.acquire()
        t = threading.Thread(target=lambda: (lock.acquire(), lock.release()), daemon=True)
        t.start()
        _until(lambda: _queued(lock) == 1, "the waiter is queued")
        lock.release()
        _join(t)
        assert lock.handoffs == 1
        assert not lock.locked()

    def test_reusable_after_contention(self):
        lock = FairLock()
        for _ in range(5):
            with lock:
                pass
        assert not lock.locked()

    def test_stray_release_raises_and_lock_still_works(self):
        lock = FairLock()
        with lock:
            pass
        with pytest.raises(RuntimeError):
            lock.release()
        assert not lock.locked()
        acquired = threading.Event()

        def take():
            with lock:
                acquired.set()

        # a helper thread, so a lock broken by the stray release fails
        # the test instead of hanging it
        t = threading.Thread(target=take, daemon=True)
        t.start()
        _join(t)
        assert acquired.is_set(), "acquire did not return after a stray release"

    class Interrupt(BaseException):
        """Stands in for a KeyboardInterrupt raised inside a wait."""

    def test_waiter_interrupted_while_queued(self, monkeypatch):
        lock = FairLock()
        lock.acquire()

        def interrupted(_lock, _gate):
            monkeypatch.undo()
            raise self.Interrupt

        monkeypatch.setattr(FairLock, "_wait", interrupted)
        with pytest.raises(self.Interrupt):
            lock.acquire()
        assert _queued(lock) == 0
        lock.release()
        # the abandoned place is gone, so the next acquire is served
        assert not lock.locked()
        assert lock.handoffs == 0
        lock.acquire()
        lock.release()
        with pytest.raises(RuntimeError):
            lock.release()

    def test_waiter_interrupted_as_it_is_served(self, monkeypatch):
        lock = FairLock()
        lock.acquire()

        def served_then_interrupted(_lock, _gate):
            monkeypatch.undo()
            lock.release()  # the holder hands over during the wait
            raise self.Interrupt

        monkeypatch.setattr(FairLock, "_wait", served_then_interrupted)
        with pytest.raises(self.Interrupt):
            lock.acquire()
        # the interrupted waiter released the lock it was just served
        assert not lock.locked()
        assert lock.handoffs == 1
        with pytest.raises(RuntimeError):
            lock.release()
        lock.acquire()
        assert lock.locked()


class TestAgainstTicketLock:
    """FairLock and the ticket lock it replaced grant the same threads
    in the same order under the same schedule of arrivals and releases."""

    @staticmethod
    def _trace(lock, queued, schedule) -> list[tuple]:
        """Run schedule, a list of "arrive" and "release" steps, on lock.

        The main thread holds the lock first. Each arrival is a new
        thread that acquires, notes its grant and holds the lock until
        its release step. After each step, wait until the lock settles
        and note (locked, grants so far).
        """
        grants: list[int] = []
        turns: list[threading.Event] = []
        threads: list[threading.Thread] = []
        holder: list[int] = [-1]  # -1 is the main thread
        trace = []

        def arrive(idx: int):
            lock.acquire()
            holder[0] = idx
            grants.append(idx)
            turns[idx].wait(TIMEOUT)
            lock.release()

        lock.acquire()
        for step in schedule:
            if step == "arrive":
                idx = len(threads)
                waiting, granted = queued(lock), len(grants)
                turns.append(threading.Event())
                threads.append(threading.Thread(target=arrive, args=(idx,), daemon=True))
                threads[idx].start()
                _until(
                    lambda: queued(lock) > waiting or len(grants) > granted,
                    f"thread {idx} queues or is granted",
                )
            else:
                if not lock.locked():
                    continue
                granted, ahead = len(grants), queued(lock)
                if holder[0] == -1:
                    lock.release()
                else:
                    turns[holder[0]].set()
                _until(
                    lambda: len(grants) > granted if ahead else not lock.locked(),
                    "the release settles",
                )
            trace.append((lock.locked(), tuple(grants)))
        for turn in turns:
            turn.set()
        if holder[0] == -1 and lock.locked():
            lock.release()
        for t in threads:
            _join(t)
        assert not lock.locked()
        return trace

    @pytest.mark.parametrize("seed", range(6))
    def test_random_schedules(self, seed):
        rng = random.Random(f"locks/{seed}")
        schedule = [rng.choice(("arrive", "release")) for _ in range(10)]
        fair = self._trace(FairLock(), _queued, schedule)
        ticket = self._trace(support.TicketLock(), support.TicketLock.queued, schedule)
        assert fair == ticket
        # and both serve in arrival order
        assert list(fair[-1][1]) == sorted(fair[-1][1])


class TestLockOrderMonitor:
    def test_ascending_is_clean(self):
        mon = LockOrderMonitor()
        for rank in (1, 3, 7):
            mon.on_acquired(rank)
        assert mon.acquisitions == 3
        assert mon.violations == []

    def test_descending_is_flagged(self):
        mon = LockOrderMonitor()
        mon.on_acquired(5)
        mon.on_acquired(2)
        assert len(mon.violations) == 1
        ident, held, rank = mon.violations[0]
        assert ident == threading.get_ident()
        assert held == (5,)
        assert rank == 2

    def test_equal_rank_is_flagged(self):
        mon = LockOrderMonitor()
        mon.on_acquired(4)
        mon.on_acquired(4)
        assert len(mon.violations) == 1

    def test_release_unblocks_rank(self):
        mon = LockOrderMonitor()
        mon.on_acquired(5)
        mon.on_released(5)
        mon.on_acquired(2)
        assert mon.violations == []

    def test_threads_tracked_independently(self):
        # Two threads may hold the same rank; order applies per thread.
        mon = LockOrderMonitor()
        mon.on_acquired(5)
        seen: list[tuple] = []

        def other():
            mon.on_acquired(5)
            mon.on_acquired(6)
            seen.append(tuple(mon.violations))
            mon.on_released(6)
            mon.on_released(5)

        t = threading.Thread(target=other, daemon=True)
        t.start()
        _join(t)
        assert seen == [()]
        assert mon.violations == []
        assert mon.acquisitions == 3
