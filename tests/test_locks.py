import threading
import time

import pytest

from mvtostm.locks import FairLock, LockOrderMonitor


class TestFairLock:
    def test_acquire_release(self):
        lock = FairLock()
        assert not lock.locked()
        lock.acquire()
        assert lock.locked()
        lock.release()
        assert not lock.locked()

    def test_context_manager(self):
        lock = FairLock()
        with lock:
            assert lock.locked()
        assert not lock.locked()

    def test_mutual_exclusion(self):
        lock = FairLock()
        total = 0

        def bump():
            nonlocal total
            for _ in range(2000):
                with lock:
                    total += 1

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert total == 8000

    def test_fifo_service_order(self):
        # Stagger the arrival of three waiters behind a held lock; the
        # grants must come back in arrival order, every time.
        lock = FairLock()
        grants: list[int] = []
        lock.acquire()

        def waiter(idx: int):
            lock.acquire()
            grants.append(idx)
            lock.release()

        threads = []
        for idx in range(3):
            t = threading.Thread(target=waiter, args=(idx,))
            t.start()
            time.sleep(0.05)  # let the waiter reach its ticket draw
            threads.append(t)
        lock.release()
        for t in threads:
            t.join()
        assert grants == [0, 1, 2]

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
        t.join(2.0)
        assert acquired.is_set(), "acquire did not return after a stray release"


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

        t = threading.Thread(target=other)
        t.start()
        t.join()
        assert seen == [()]
        assert mon.violations == []
        assert mon.acquisitions == 3
