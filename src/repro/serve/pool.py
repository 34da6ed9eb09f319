"""Bounded worker pool with an admission queue, in virtual time.

The paper's snapshot was one CGI process per request: under load, httpd
forked without bound and the machine thrashed.  The diff server replaces
that with the shape every modern service uses (and the ROADMAP names):
**N workers + a bounded queue + load shedding**.

The pool is a *deterministic queueing model* on the shared
:class:`~repro.simclock.SimClock`: each worker is a ``free_at``
timestamp, an arriving request is assigned to the earliest-free worker
(FIFO; ties break toward the lowest index), and a request that would
have to wait behind more than ``queue_limit`` others is **rejected**
instead — the caller turns that into 503 + ``Retry-After``.  Because
admission is pure arithmetic over arrival order and sim time, two runs
of the same request sequence make identical decisions, which is what
lets the closed-loop benchmark assert byte-identity while simulating
10k+ concurrent users without 10k threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush, heapreplace
from typing import Dict, List, Tuple, Union

from ..obs import NOOP as NOOP_OBS, NOOP_GAUGE

__all__ = ["Admission", "Rejection", "WorkerPool"]


@dataclass(frozen=True)
class Admission:
    """One admitted request's schedule: which worker runs it, when it
    starts (>= arrival when queued), and when it finishes."""

    worker: int
    start: int
    finish: int

    def latency(self, arrival: int) -> int:
        return self.finish - arrival

    def waited(self, arrival: int) -> int:
        return self.start - arrival


@dataclass(frozen=True)
class Rejection:
    """Queue-full: come back in ``retry_after`` simulated seconds (the
    earliest instant a queue slot opens — a queued request starts, or
    a worker goes fully idle)."""

    retry_after: int


class WorkerPool:
    """``workers`` parallel servers behind a queue of at most
    ``queue_limit`` waiting requests.

    ``queue_limit=0`` means no waiting at all — a request is served
    immediately or shed.  The queue depth at an instant is the number
    of admitted requests whose start time is still in the future.
    """

    def __init__(
        self,
        workers: int,
        queue_limit: int,
        obs=None,
        name: str = "serve.pool",
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if queue_limit < 0:
            raise ValueError("queue_limit must be >= 0")
        self.workers = workers
        self.queue_limit = queue_limit
        #: Min-heap of ``(free_at, worker)``: the top is the
        #: earliest-free worker, ties broken toward the lowest index.
        self._free: List[Tuple[int, int]] = [(0, i) for i in range(workers)]
        #: Min-heap of the start times of admitted-but-not-started
        #: requests (popped lazily up to the current instant).
        self._queued_starts: List[int] = []
        self.admitted = 0
        self.rejected = 0
        self.queued = 0
        self.busy_seconds = 0
        self.obs = obs if obs is not None else NOOP_OBS
        self._g_depth = self.obs.gauge(f"{name}.queue_depth")
        self._g_busy = self.obs.gauge(f"{name}.busy_workers")
        self._c_admitted = self.obs.counter(f"{name}.admitted")
        self._c_rejected = self.obs.counter(f"{name}.rejected")
        self._h_wait = self.obs.histogram(f"{name}.wait_seconds")

    # ------------------------------------------------------------------
    def _prune(self, now: int) -> None:
        queued = self._queued_starts
        while queued and queued[0] <= now:
            heappop(queued)

    def queue_depth(self, now: int) -> int:
        self._prune(now)
        return len(self._queued_starts)

    def busy_workers(self, now: int) -> int:
        return sum(1 for free, _ in self._free if free > now)

    def next_slot_time(self) -> int:
        """The earliest instant a rejected request could be admitted:
        when a queued request starts (freeing its queue slot) or when a
        worker drains entirely, whichever comes first."""
        earliest = self._free[0][0]
        if self._queued_starts:
            return min(earliest, self._queued_starts[0])
        return earliest

    # ------------------------------------------------------------------
    def admit(self, cost: int, now: int) -> Union[Admission, Rejection]:
        """Schedule one request of ``cost`` simulated seconds arriving
        at ``now``; either an :class:`Admission` or a :class:`Rejection`.
        """
        if cost < 0:
            raise ValueError("cost must be >= 0")
        self._prune(now)
        free_at, worker = self._free[0]
        start = max(now, free_at)
        if start > now and len(self._queued_starts) >= self.queue_limit:
            self.rejected += 1
            self._c_rejected.inc()
            retry_after = max(1, self.next_slot_time() - now)
            self._update_gauges(now)
            return Rejection(retry_after=retry_after)
        finish = start + cost
        heapreplace(self._free, (finish, worker))
        self.admitted += 1
        self.busy_seconds += cost
        self._c_admitted.inc()
        if start > now:
            self.queued += 1
            heappush(self._queued_starts, start)
        self._h_wait.observe(start - now)
        self._update_gauges(now)
        return Admission(worker=worker, start=start, finish=finish)

    def _update_gauges(self, now: int) -> None:
        # With obs off nobody can read the busy-worker recount.
        if self._g_busy is NOOP_GAUGE:
            return
        self._g_depth.set(len(self._queued_starts))
        self._g_busy.set(self.busy_workers(now))

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        return {
            "workers": self.workers,
            "queue_limit": self.queue_limit,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "queued": self.queued,
            "busy_seconds": self.busy_seconds,
        }
