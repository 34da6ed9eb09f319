"""Deterministic concurrent crawl execution.

Every w3newer run drains its check set here: with one worker, one URL
at a time in order (the paper's walk); with more, as cooperative
generator workers in one thread, interleaved by the seeded pick of the
snapshot facility's :class:`~repro.core.snapshot.sched.SimScheduler`.
Per-host politeness is enforced by a virtual-time **governor**:

* :class:`HostGovernor` — the politeness and throughput model.  The
  sim clock is frozen during a run (the simulated network does not
  advance it), so "wall-clock" is modeled the same way
  ``repro.serve.pool.WorkerPool`` models admission: workers are
  ``free_at`` timestamps, and every fetch is *placed* into the
  earliest virtual slot that respects (a) its worker being free,
  (b) at most ``max_per_host`` overlapping fetches per host, and
  (c) at least ``host_delay`` seconds between successive request
  starts to one host.  The resulting makespan is the run's virtual
  duration — the number the throughput bench gates on — and the slot
  trace is the determinism witness.
* :class:`CrawlExecutor` — runs ``workers`` generator workers sharing
  one task queue.  A worker yields only after claiming a task and
  before placing a fetch; which worker goes next is drawn from the
  seed, so a seeded run is byte-reproducible.  Checks themselves run
  without internal yields, so every verdict is computed exactly as the
  serial checker would.  No thread is started.

An aborted or paused run leaves its unclaimed tasks with the caller
(the runner parks them in a checkpoint); the politeness invariants
hold by construction under *every* interleaving.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ...web.url import parse_url
from ..snapshot.sched import pick
from .checker import UrlChecker
from .errors import CheckOutcome, RunAborted
from .scheduler import ScheduledCheck, SchedulePolicy

__all__ = [
    "CrawlOptions",
    "FetchSlot",
    "HostGovernor",
    "CrawlResult",
    "CrawlExecutor",
]


@dataclass
class CrawlOptions:
    """Knobs for the concurrent crawl pipeline."""

    #: Cooperative worker tasks (1 = serial).
    workers: int = 4
    #: Per-run fetch budget (None = unbounded, the paper's behavior).
    budget: Optional[int] = None
    #: How fetch candidates compete for the budget.
    policy: SchedulePolicy = SchedulePolicy.STATIC
    #: Max overlapping fetches to one host.
    max_per_host: int = 2
    #: Min seconds between successive request starts to one host.
    host_delay: int = 1
    #: Virtual seconds one HTTP request occupies a worker.
    request_cost: int = 1
    #: Interleaving seed for the workers' seeded pick.
    seed: int = 0
    #: Stop (checkpoint) after this many claimed checks; None = run to
    #: completion.  The deterministic mid-run abort used by tests.
    max_checks: Optional[int] = None
    #: Keep per-URL PolicyDecisions (a dict entry per URL; turn off at
    #: 100k scale unless ``--explain`` is needed).
    record_decisions: bool = True
    #: Keep the per-fetch slot trace (the determinism witness).
    record_trace: bool = True
    #: Advance the sim clock by the run's virtual makespan afterwards.
    advance_clock: bool = False


@dataclass(frozen=True)
class FetchSlot:
    """One placed fetch: where and when it virtually ran."""

    host: str
    worker: int
    start: int
    finish: int
    url: str = ""


@dataclass
class _HostState:
    """Per-host politeness bookkeeping."""

    #: Min-heap of finish times of fetches still in flight.
    active: List[int] = field(default_factory=list)
    #: Earliest allowed start of the next request (delay gate).
    next_allowed: int = 0
    placed: int = 0
    #: Max overlapping fetches ever observed (gauge surface).
    peak: int = 0


class HostGovernor:
    """Virtual-time fetch placement under per-host politeness limits.

    Placement is greedy and deterministic: argmin-``free_at`` worker
    (lowest index wins ties), then the start time is pushed forward
    until both host constraints hold.  Per-host starts are therefore
    monotonically nondecreasing, which makes the inter-request-delay
    check O(1) and the in-flight check one heap peek.
    """

    def __init__(
        self,
        workers: int,
        max_per_host: int = 2,
        host_delay: int = 1,
        request_cost: int = 1,
        start: int = 0,
        record_trace: bool = True,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if max_per_host < 1:
            raise ValueError("max_per_host must be at least 1")
        self.workers = workers
        self.max_per_host = max_per_host
        self.host_delay = host_delay
        self.request_cost = request_cost
        self.start = start
        self.record_trace = record_trace
        self._free = [start] * workers
        self._hosts: Dict[str, _HostState] = {}
        self._end = start
        self.fetches = 0
        self.requests = 0
        self.trace: List[FetchSlot] = []

    # ------------------------------------------------------------------
    def place(self, host: str, requests: int, url: str = "") -> FetchSlot:
        """Place one check's ``requests`` HTTP requests on the timeline.

        The whole check occupies one worker for ``requests *
        request_cost`` virtual seconds (its requests run back to back
        on one connection); politeness constraints apply to the slot's
        start.
        """
        if requests < 1:
            raise ValueError("place() is for checks that spent HTTP")
        state = self._hosts.get(host)
        if state is None:
            state = _HostState(next_allowed=self.start)
            self._hosts[host] = state
        worker = min(range(self.workers), key=self._free.__getitem__)
        t = max(self._free[worker], state.next_allowed)
        while True:
            while state.active and state.active[0] <= t:
                heapq.heappop(state.active)
            if len(state.active) < self.max_per_host:
                break
            t = max(t, state.active[0])
        cost = requests * self.request_cost
        finish = t + cost
        heapq.heappush(state.active, finish)
        state.peak = max(state.peak, len(state.active))
        state.next_allowed = t + self.host_delay
        state.placed += 1
        self._free[worker] = finish
        self._end = max(self._end, finish)
        self.fetches += 1
        self.requests += requests
        slot = FetchSlot(host=host, worker=worker, start=t, finish=finish,
                         url=url)
        if self.record_trace:
            self.trace.append(slot)
        return slot

    # ------------------------------------------------------------------
    @property
    def makespan(self) -> int:
        """Virtual seconds from run start to the last fetch's finish."""
        return self._end - self.start

    @property
    def max_inflight(self) -> int:
        """The highest per-host overlap any host ever reached."""
        return max((s.peak for s in self._hosts.values()), default=0)

    def host_counts(self) -> Dict[str, int]:
        """Fetch checks placed per host."""
        return {host: state.placed for host, state in self._hosts.items()}

    def stats(self) -> Dict[str, object]:
        """Aggregate counters for the observability surface."""
        return {
            "workers": self.workers,
            "fetches": self.fetches,
            "http_requests": self.requests,
            "hosts": len(self._hosts),
            "makespan": self.makespan,
            "max_inflight": self.max_inflight,
        }

    # ------------------------------------------------------------------
    # Checkpoint support: plain-data snapshot / restore.
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Plain-data state for a CrawlCheckpoint."""
        return {
            "free": list(self._free),
            "end": self._end,
            "start": self.start,
            "fetches": self.fetches,
            "requests": self.requests,
            "hosts": {
                host: {
                    "active": sorted(state.active),
                    "next_allowed": state.next_allowed,
                    "placed": state.placed,
                    "peak": state.peak,
                }
                for host, state in self._hosts.items()
            },
        }

    def restore(self, state: Dict[str, object]) -> None:
        """Resume from a :meth:`snapshot` (same construction params)."""
        self._free = list(state["free"])
        self._end = state["end"]
        self.start = state["start"]
        self.fetches = state["fetches"]
        self.requests = state["requests"]
        self._hosts = {}
        for host, data in state["hosts"].items():
            host_state = _HostState(
                next_allowed=data["next_allowed"],
                placed=data["placed"],
                peak=data["peak"],
            )
            host_state.active = list(data["active"])
            heapq.heapify(host_state.active)
            self._hosts[host] = host_state


@dataclass
class CrawlResult:
    """What one executor drain produced."""

    #: (task, outcome) pairs, in completion order.
    completed: List[Tuple[ScheduledCheck, CheckOutcome]] = field(
        default_factory=list)
    #: Tasks never claimed (non-empty only when aborted/paused).
    pending: List[ScheduledCheck] = field(default_factory=list)
    #: Systemic-failure abort reason ("" = none).
    aborted: str = ""
    #: True when the ``max_checks`` quota stopped the run.
    paused: bool = False
    claims: int = 0


class CrawlExecutor:
    """Drains a scheduled check set with bounded cooperative workers."""

    def __init__(
        self,
        checker: UrlChecker,
        governor: HostGovernor,
        options: CrawlOptions,
        obs=None,
    ) -> None:
        from ...obs import NOOP as NOOP_OBS
        self.checker = checker
        self.governor = governor
        self.options = options
        self.obs = obs if obs is not None else NOOP_OBS
        self._queue: deque = deque()
        self._completed: List[Tuple[ScheduledCheck, CheckOutcome]] = []
        self._stop_reason = ""
        self._paused = False
        self._claims = 0

    # ------------------------------------------------------------------
    def run(self, checks: Sequence[ScheduledCheck]) -> CrawlResult:
        """Run every scheduled check; stop early on abort or quota.

        The workers are generators driven in this thread: at each step
        :func:`~repro.core.snapshot.sched.pick` chooses among the live
        workers (spawn order) from the seed, exactly as a seeded
        :class:`~repro.core.snapshot.sched.SimScheduler` would.  Checks
        have no internal yield points, so each verdict is computed
        atomically — concurrency changes *when* checks run, never what
        they conclude.  A check that raises anything but
        :class:`RunAborted` propagates at once.
        """
        self._queue = deque(checks)
        self._completed = []
        self._stop_reason = ""
        self._paused = False
        self._claims = 0
        workers = max(1, min(self.options.workers, len(self._queue)))
        live = [self._drain() for _ in range(workers)]
        step = 0
        while live:
            step += 1
            worker = pick(self.options.seed, step, live) \
                if len(live) > 1 else live[0]
            if next(worker, None) is None:
                live.remove(worker)
        return CrawlResult(
            completed=self._completed,
            pending=list(self._queue),
            aborted=self._stop_reason,
            paused=self._paused,
            claims=self._claims,
        )

    # ------------------------------------------------------------------
    def _drain(self) -> Iterator[str]:
        """One worker's loop: claim, check, place, repeat.  Yields the
        name of each point where another worker may run."""
        options = self.options
        while True:
            if self._stop_reason or self._paused:
                return
            if options.max_checks is not None \
                    and self._claims >= options.max_checks:
                self._paused = True
                return
            if not self._queue:
                return
            task = self._queue.popleft()
            self._claims += 1
            yield "crawl.claim"
            try:
                # One span per check: the state/source pair names the
                # ladder rung that decided it (threshold skip, proxy/
                # status-cache verdict, HEAD, checksum fallback,
                # degraded STALE).
                with self.obs.span("w3newer.check", url=task.url) as span:
                    outcome = self.checker.check(task.url, force=task.force)
                    span.set(
                        state=outcome.state.name.lower(),
                        source=outcome.source.value,
                        http_requests=outcome.http_requests,
                    )
            except RunAborted as exc:
                # The aborting URL's outcome was never recorded: it
                # goes back on the queue and is retried first on resume.
                self._queue.appendleft(task)
                self._stop_reason = str(exc)
                return
            if outcome.http_requests > 0:
                yield "crawl.fetched"
                host = parse_url(task.url).host or "-"
                self.governor.place(host, outcome.http_requests, url=task.url)
            self._completed.append((task, outcome))
