"""Tests for the virtual-time worker pool (admission, queueing,
shedding, and the determinism the benchmark's gates depend on)."""

import random

import pytest

from repro.serve.pool import Admission, Rejection, WorkerPool


class TestAdmission:
    def test_idle_pool_starts_immediately(self):
        pool = WorkerPool(workers=2, queue_limit=4)
        schedule = pool.admit(cost=10, now=100)
        assert isinstance(schedule, Admission)
        assert schedule.start == 100
        assert schedule.finish == 110
        assert schedule.latency(100) == 10
        assert schedule.waited(100) == 0

    def test_busy_pool_queues_fifo(self):
        pool = WorkerPool(workers=1, queue_limit=4)
        first = pool.admit(cost=10, now=0)
        second = pool.admit(cost=10, now=0)
        third = pool.admit(cost=10, now=0)
        assert first.start == 0
        assert second.start == first.finish
        assert third.start == second.finish
        assert third.waited(0) == 20

    def test_workers_run_in_parallel(self):
        pool = WorkerPool(workers=3, queue_limit=0)
        finishes = [pool.admit(cost=10, now=0).finish for _ in range(3)]
        assert finishes == [10, 10, 10]

    def test_ties_break_to_lowest_worker(self):
        pool = WorkerPool(workers=3, queue_limit=0)
        assert pool.admit(cost=5, now=0).worker == 0
        assert pool.admit(cost=5, now=0).worker == 1
        assert pool.admit(cost=5, now=0).worker == 2


class TestShedding:
    def test_full_queue_rejects_with_retry_after(self):
        pool = WorkerPool(workers=1, queue_limit=1)
        pool.admit(cost=10, now=0)     # running until 10
        pool.admit(cost=10, now=0)     # queued (starts at 10)
        rejection = pool.admit(cost=10, now=0)
        assert isinstance(rejection, Rejection)
        # The advertised wait is when the queue slot opens: the queued
        # request starts at t=10.
        assert rejection.retry_after == 10
        assert pool.rejected == 1

    def test_zero_queue_limit_is_serve_or_shed(self):
        pool = WorkerPool(workers=1, queue_limit=0)
        assert isinstance(pool.admit(cost=5, now=0), Admission)
        assert isinstance(pool.admit(cost=5, now=0), Rejection)
        # Once the worker frees, admission resumes.
        assert isinstance(pool.admit(cost=5, now=5), Admission)

    def test_retry_after_is_at_least_one(self):
        pool = WorkerPool(workers=1, queue_limit=0)
        pool.admit(cost=0, now=0)
        pool.admit(cost=1, now=0)
        rejection = pool.admit(cost=1, now=0)
        assert isinstance(rejection, Rejection)
        assert rejection.retry_after >= 1

    def test_queue_drains_as_time_passes(self):
        pool = WorkerPool(workers=1, queue_limit=1)
        pool.admit(cost=10, now=0)
        pool.admit(cost=10, now=0)
        assert isinstance(pool.admit(cost=10, now=0), Rejection)
        # At t=15 the queued request has started; the slot is free.
        schedule = pool.admit(cost=10, now=15)
        assert isinstance(schedule, Admission)
        assert schedule.start == 20  # behind the in-flight work


class TestAccounting:
    def test_depth_and_busy_reflect_virtual_time(self):
        pool = WorkerPool(workers=2, queue_limit=8)
        pool.admit(cost=10, now=0)
        pool.admit(cost=20, now=0)
        pool.admit(cost=10, now=0)  # queued behind worker 0
        assert pool.busy_workers(0) == 2
        assert pool.queue_depth(0) == 1
        # At t=15 the queued item has started on worker 0, so both
        # workers are busy but nothing waits.
        assert pool.busy_workers(15) == 2
        assert pool.queue_depth(15) == 0
        assert pool.busy_workers(20) == 0

    def test_stats(self):
        pool = WorkerPool(workers=1, queue_limit=1)
        pool.admit(cost=10, now=0)
        pool.admit(cost=10, now=0)
        pool.admit(cost=10, now=0)
        assert pool.stats() == {
            "workers": 1, "queue_limit": 1, "admitted": 2, "rejected": 1,
            "queued": 1, "busy_seconds": 20,
        }

    def test_determinism(self):
        def run():
            pool = WorkerPool(workers=3, queue_limit=2)
            out = []
            for i in range(50):
                out.append(pool.admit(cost=(i * 7) % 13, now=i // 2))
            return out
        assert run() == run()


class _ListScanPool:
    """The pool's earlier list-scan algorithm, kept as the reference
    model: free times in a plain list scanned with ``min``, and queued
    starts rebuilt by a filter on every admission."""

    def __init__(self, workers, queue_limit):
        self.workers = workers
        self.queue_limit = queue_limit
        self._free_at = [0] * workers
        self._queued_starts = []

    def _prune(self, now):
        self._queued_starts = [s for s in self._queued_starts if s > now]

    def queue_depth(self, now):
        self._prune(now)
        return len(self._queued_starts)

    def next_slot_time(self):
        candidates = [min(self._free_at)]
        if self._queued_starts:
            candidates.append(min(self._queued_starts))
        return min(candidates)

    def admit(self, cost, now):
        self._prune(now)
        worker = min(range(self.workers), key=lambda i: self._free_at[i])
        start = max(now, self._free_at[worker])
        if start > now and len(self._queued_starts) >= self.queue_limit:
            return Rejection(retry_after=max(1, self.next_slot_time() - now))
        self._free_at[worker] = start + cost
        if start > now:
            self._queued_starts.append(start)
        return Admission(worker=worker, start=start, finish=start + cost)


class TestMatchesListScanModel:
    """The heap-based pool makes exactly the decisions of the list-scan
    model it replaced, over long seeded admission sequences."""

    @pytest.mark.parametrize("workers,queue_limit,seed", [
        (1, 0, 1), (1, 3, 2), (3, 0, 3), (4, 8, 4), (8, 64, 5),
    ])
    def test_same_decisions(self, workers, queue_limit, seed):
        rng = random.Random(seed)
        pool = WorkerPool(workers, queue_limit)
        model = _ListScanPool(workers, queue_limit)
        now = 0
        for _ in range(12_000):
            # Bursts at one instant, then gaps: queues fill and drain.
            if rng.random() < 0.3:
                now += rng.choice((1, 1, 2, 5, 20))
            cost = rng.choice((0, 1, 2, 5, 10, 30, 60))
            assert pool.admit(cost, now) == model.admit(cost, now)
            assert pool.next_slot_time() == model.next_slot_time()
            assert pool.queue_depth(now) == model.queue_depth(now)
        assert pool.admitted + pool.rejected == 12_000
        assert pool.rejected and (queue_limit == 0 or pool.queued)


class TestValidation:
    def test_bad_args(self):
        with pytest.raises(ValueError):
            WorkerPool(workers=0, queue_limit=1)
        with pytest.raises(ValueError):
            WorkerPool(workers=1, queue_limit=-1)
        with pytest.raises(ValueError):
            WorkerPool(workers=1, queue_limit=1).admit(cost=-1, now=0)
