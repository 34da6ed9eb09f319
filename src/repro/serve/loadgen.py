"""Closed-loop load generation for the diff server, in virtual time.

The service benchmark needs three things no wall clock can give it:

* **scale** — 10k+ concurrent simulated users without 10k threads;
* **determinism** — the same seed must produce the same request
  stream, the same admission decisions, and the same bytes, so the
  benchmark can gate on byte-identity against the reference service;
* **closed-loop behaviour** — each user waits for its response (or the
  ``Retry-After`` it was told) before issuing the next request, so
  throughput is capacity-bound, not arrival-script-bound.

The driver keeps one event heap keyed by virtual time.  Each event is
"user U issues (or retries) request K"; dispatching it through
:meth:`DiffServer.dispatch` yields either an admission (completion time
= the pool's finish time; the user thinks, then issues K+1) or a
rejection (the user honors ``Retry-After`` exactly, like
:class:`~repro.web.resilience.ResilientAgent` does, and retries the
same request).  All arithmetic is on integers drawn from seeded
sha256, so two runs are event-for-event identical.

The generated stream is **read-only** (pinned views, pinned diffs,
history pages, date views): mutations happen in the seeding phase,
shared verbatim between the system under test and the single-store
reference, which is what makes every load response byte-comparable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from ..simclock import SimClock
from ..web.cgi import encode_query_string
from ..web.client import UserAgent
from ..web.http import Request, Response
from ..web.network import Network
from .pool import Admission, Rejection

__all__ = ["World", "build_world", "seed_world", "ClosedLoopLoad",
           "LoadReport"]

ORIGIN_HOST = "tracked.example.com"


def _draw(seed: int, salt: str, bound: int) -> int:
    """Deterministic pseudo-random integer in ``[0, bound)``."""
    if bound <= 0:
        return 0
    digest = hashlib.sha256(f"{seed}|{salt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % bound


def _page_html(seed: int, index: int, round_no: int,
               link_pages: int = 0) -> str:
    """Deterministic page content that changes every seeding round (so
    every round checks in a new revision) with some lines kept stable
    (so diffs have common context, like real edits).  With
    ``link_pages`` set, each page carries three relative links into the
    same world — the web a datetime-pinned browsing session walks."""
    lines = []
    for line in range(12):
        if _draw(seed, f"p{index}.l{line}.stable", 3) == 0:
            stamp = round_no
        else:
            stamp = _draw(seed, f"p{index}.l{line}.word", 9999)
        lines.append(f"<P>page {index} line {line} token {stamp}</P>")
    if link_pages > 1:
        targets = sorted({
            (index + 1) % link_pages,
            _draw(seed, f"p{index}.link.a", link_pages),
            _draw(seed, f"p{index}.link.b", link_pages),
        } - {index})
        lines.append("<P>See also: " + " ".join(
            f'<A HREF="page{t:03d}.html">page {t}</A>' for t in targets
        ) + "</P>")
    return (
        f"<HTML><HEAD><TITLE>Page {index}</TITLE></HEAD><BODY>"
        f"<H1>Tracked page {index} (round {round_no})</H1>"
        + "".join(lines) + "</BODY></HTML>"
    )


@dataclass
class World:
    """One simulated internet: a clock, a network, an origin site with
    the tracked pages, and an agent the snapshot store fetches with."""

    clock: SimClock
    network: Network
    origin: object
    agent: UserAgent
    urls: List[str]
    #: Pages carry in-world links (datetime-pinned browsing walks them).
    linked: bool = False


def build_world(seed: int = 0, pages: int = 64,
                linked: bool = False) -> World:
    """A fresh world with ``pages`` deterministic origin pages.

    Build one world per service under comparison — each gets its own
    clock — and seed both with the same seed; everything downstream is
    then byte-for-byte reproducible.  ``linked`` adds three relative
    links per page, for browsing sessions that follow them.
    """
    clock = SimClock()
    network = Network(clock)
    origin = network.create_server(ORIGIN_HOST)
    urls = []
    link_pages = pages if linked else 0
    for index in range(pages):
        path = f"/page{index:03d}.html"
        origin.set_page(path, _page_html(seed, index, 0, link_pages))
        urls.append(f"http://{ORIGIN_HOST}{path}")
    agent = UserAgent(network, clock)
    return World(clock=clock, network=network, origin=origin, agent=agent,
                 urls=urls, linked=linked)


def _curator(index: int) -> str:
    return f"curator{index}@example.com"


def seed_world(
    service,
    world: World,
    seed: int = 0,
    rounds: int = 3,
    curators: int = 4,
    round_gap: int = 3600,
    spacing: int = 30,
) -> Dict[str, List[str]]:
    """Check ``rounds`` revisions of every page into the service.

    ``service`` is any CGI callable ``(request, now) -> Response`` — the
    sharded diff server and the single-store reference are seeded
    through the identical request sequence.  The clock advances by
    ``spacing`` after every remember — enough for a default-cost fetch
    to drain from even a one-worker pool, and (because the advance is
    unconditional) the two worlds' clocks stay in lockstep, so every
    check-in carries the same timestamp in both.  Returns ``url ->
    [revision numbers]`` (trunk numbering is ``1.N`` in check-in
    order), which the load generator draws pinned requests from.
    """
    revisions: Dict[str, List[str]] = {url: [] for url in world.urls}
    for round_no in range(rounds):
        if round_no:
            link_pages = len(world.urls) if world.linked else 0
            for index, url in enumerate(world.urls):
                path = f"/page{index:03d}.html"
                world.origin.set_page(
                    path, _page_html(seed, index, round_no, link_pages))
        for index, url in enumerate(world.urls):
            user = _curator(index % curators)
            query = encode_query_string(
                {"action": "remember", "url": url, "user": user}
            )
            request = Request("GET", f"http://aide.example.com"
                                     f"/cgi-bin/snapshot?{query}")
            response = service(request, world.clock.now)
            if response.status != 200:
                raise RuntimeError(
                    f"seeding failed: {response.status} for {url} "
                    f"round {round_no} (is spacing shorter than the "
                    f"fetch cost with a saturated pool?)"
                )
            revisions[url].append(f"1.{round_no + 1}")
            world.clock.advance(spacing)
        world.clock.advance(round_gap)
    return revisions


# ----------------------------------------------------------------------
@dataclass
class LoadReport:
    """What one closed-loop run measured (all times simulated seconds)."""

    users: int
    requests: int
    completed: int
    shed: int
    retries: int
    makespan: int
    throughput: float
    latency_p50: int
    latency_p99: int
    latency_max: int
    dispatches: int
    #: (user, step) -> final served response, for byte-identity checks.
    responses: Dict[Tuple[int, int], Response] = field(repr=False,
                                                       default_factory=dict)
    #: (user, step) -> the request issued, replayable against a
    #: reference service.
    requests_log: Dict[Tuple[int, int], Request] = field(repr=False,
                                                          default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "users": self.users,
            "requests": self.requests,
            "completed": self.completed,
            "shed": self.shed,
            "retries": self.retries,
            "makespan": self.makespan,
            "throughput": round(self.throughput, 4),
            "latency_p50": self.latency_p50,
            "latency_p99": self.latency_p99,
            "latency_max": self.latency_max,
            "dispatches": self.dispatches,
        }


def _percentile(sorted_values: List[int], fraction: float) -> int:
    if not sorted_values:
        return 0
    index = min(len(sorted_values) - 1,
                int(fraction * (len(sorted_values) - 1) + 0.5))
    return sorted_values[index]


class ClosedLoopLoad:
    """``users`` simulated people, each issuing ``requests_per_user``
    read-only requests in a closed loop against a diff server.

    The request mix (drawn per (user, step) from the seed): pinned
    views, pinned-pair diffs, history pages, and date-resolved views —
    every action the response cache and diff cache can help with, none
    that mutates the archive.
    """

    def __init__(
        self,
        seed: int,
        urls: List[str],
        revisions: Dict[str, List[str]],
        users: int = 10000,
        requests_per_user: int = 2,
        think_time: int = 60,
        arrival_window: int = 600,
        curators: int = 4,
        retry_jitter_cap: int = 256,
        max_dispatches: Optional[int] = None,
        mutation_rate: float = 0.0,
    ) -> None:
        self.seed = seed
        self.urls = urls
        self.revisions = revisions
        self.users = users
        self.requests_per_user = requests_per_user
        self.think_time = think_time
        self.arrival_window = arrival_window
        self.curators = curators
        #: ``Retry-After`` is a *minimum* (exactly how
        #: :class:`~repro.web.resilience.RetryPolicy` treats it); each
        #: user adds its own seeded exponential jitter on top, capped
        #: here, so ten thousand rejected users do not all come back in
        #: the same instant a single queue slot opens.
        self.retry_jitter_cap = retry_jitter_cap
        #: Runaway guard: a livelocked retry storm fails loudly instead
        #: of spinning forever.  Default scales with the request count.
        self.max_dispatches = (
            max_dispatches if max_dispatches is not None
            else 400 * users * requests_per_user
        )
        if not 0.0 <= mutation_rate <= 1.0:
            raise ValueError(
                f"mutation_rate must be in [0, 1], got {mutation_rate}"
            )
        #: Fraction of requests that are ``remember`` re-saves (the
        #: chaos benches use this to drive writes through failover and
        #: hinted handoff).  The draw uses its own salt, so 0.0 — the
        #: default — leaves the read-only stream byte-identical to the
        #: pre-replication generator.
        self.mutation_rate = mutation_rate

    # ------------------------------------------------------------------
    def _request(self, user: int, step: int) -> Request:
        salt = f"u{user}.s{step}"
        url = self.urls[_draw(self.seed, f"{salt}.url", len(self.urls))]
        revs = self.revisions[url]
        if self.mutation_rate > 0.0 and (
                _draw(self.seed, f"{salt}.mut", 10_000)
                < int(self.mutation_rate * 10_000)):
            params = {
                "action": "remember", "url": url,
                "user": _curator(_draw(self.seed, f"{salt}.cu",
                                       self.curators)),
            }
            query = encode_query_string(params)
            return Request(
                "GET", f"http://aide.example.com/cgi-bin/snapshot?{query}")
        kind = _draw(self.seed, f"{salt}.kind", 100)
        if len(revs) < 2 and 40 <= kind < 70:
            kind = 0  # a single-revision archive has no diffable pair
        if kind < 40:  # pinned view
            rev = revs[_draw(self.seed, f"{salt}.rev", len(revs))]
            params = {"action": "view", "url": url, "rev": rev}
        elif kind < 70:  # pinned diff between two distinct revisions
            first = _draw(self.seed, f"{salt}.r1", len(revs) - 1)
            second = first + 1 + _draw(
                self.seed, f"{salt}.r2", len(revs) - first - 1
            )
            params = {
                "action": "diff", "url": url,
                "user": _curator(_draw(self.seed, f"{salt}.cu",
                                       self.curators)),
                "r1": revs[first], "r2": revs[second],
            }
        elif kind < 90:  # history page
            params = {
                "action": "history", "url": url,
                "user": _curator(_draw(self.seed, f"{salt}.cu",
                                       self.curators)),
            }
        else:  # date-resolved view (volatile cache path)
            params = {
                "action": "view", "url": url,
                "date": str(_draw(self.seed, f"{salt}.date", 3 * 3600)),
            }
        query = encode_query_string(params)
        return Request("GET",
                       f"http://aide.example.com/cgi-bin/snapshot?{query}")

    # ------------------------------------------------------------------
    def run(self, server, start: int = 0) -> LoadReport:
        """Drive the closed loop against ``server`` (anything with
        ``dispatch(request, now) -> (response, admission)``)."""
        heap: List[Tuple[int, int, int, int]] = []
        sequence = 0
        for user in range(self.users):
            arrival = start + _draw(self.seed, f"u{user}.arrive",
                                    self.arrival_window + 1)
            heappush(heap, (arrival, sequence, user, 0))
            sequence += 1

        issue_time: Dict[Tuple[int, int], int] = {}
        attempts: Dict[Tuple[int, int], int] = {}
        latencies: List[int] = []
        responses: Dict[Tuple[int, int], Response] = {}
        requests_log: Dict[Tuple[int, int], Request] = {}
        shed = 0
        retries = 0
        dispatches = 0
        last_finish = start

        while heap:
            now, _, user, step = heappop(heap)
            key = (user, step)
            request = requests_log.get(key)
            if request is None:
                request = self._request(user, step)
                requests_log[key] = request
                issue_time[key] = now
            dispatches += 1
            if dispatches > self.max_dispatches:
                raise RuntimeError(
                    f"load livelocked: {dispatches} dispatches for "
                    f"{self.users * self.requests_per_user} requests"
                )
            response, schedule = server.dispatch(request, now)
            if isinstance(schedule, Rejection):
                shed += 1
                retries += 1
                attempt = attempts.get(key, 0) + 1
                attempts[key] = attempt
                jitter = _draw(
                    self.seed, f"u{user}.s{step}.retry{attempt}",
                    min(1 << attempt, self.retry_jitter_cap) + 1,
                )
                heappush(heap, (now + schedule.retry_after + jitter,
                                sequence, user, step))
                sequence += 1
                continue
            finish = schedule.finish if isinstance(schedule, Admission) else now
            responses[key] = response
            latencies.append(finish - issue_time[key])
            last_finish = max(last_finish, finish)
            if step + 1 < self.requests_per_user:
                think = _draw(self.seed, f"u{user}.s{step}.think",
                              self.think_time + 1)
                heappush(heap, (finish + think, sequence, user, step + 1))
                sequence += 1

        latencies.sort()
        completed = len(responses)
        makespan = max(1, last_finish - start)
        return LoadReport(
            users=self.users,
            requests=self.users * self.requests_per_user,
            completed=completed,
            shed=shed,
            retries=retries,
            makespan=makespan,
            throughput=completed / makespan,
            latency_p50=_percentile(latencies, 0.50),
            latency_p99=_percentile(latencies, 0.99),
            latency_max=latencies[-1] if latencies else 0,
            dispatches=dispatches,
            responses=responses,
            requests_log=requests_log,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def replay(report: LoadReport, service,
               now: int = 0) -> Dict[Tuple[int, int], Response]:
        """Replay a run's logged requests against a plain CGI callable
        (the single-store reference) and return its responses keyed the
        same way, for byte-identity comparison."""
        out: Dict[Tuple[int, int], Response] = {}
        for key in sorted(report.requests_log):
            out[key] = service(report.requests_log[key], now)
        return out
