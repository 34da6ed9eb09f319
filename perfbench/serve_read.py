"""``serve-read``: the S18 read-only closed loop against a warm DiffServer.

A 4-shard :class:`~repro.serve.server.DiffServer` (8 workers per
shard, queue 256) holds 128 small pages x 3 revisions.  Set-up seeds
the archive through ``remember`` and warms it by requesting every
pinned view, pinned diff and history page once, so the timed phase
measures a long-running server.  The timed phase runs closed-loop
chunks of :class:`~repro.serve.loadgen.ClosedLoopLoad` (40% pinned
views, 30% pinned diffs, 20% history pages, 10% date views); each
chunk arrives at the S18 rate, overloads the pools and sheds requests,
which the simulated users retry after ``Retry-After``.

One op is one logical request; its wall time is the sum of the wall
times of every dispatch it took, shed retries included.
"""

from __future__ import annotations

import hashlib
import statistics
from time import perf_counter
from typing import Dict, List

from repro.core.snapshot.service import SnapshotService
from repro.core.snapshot.store import SnapshotStore
from repro.serve import ClosedLoopLoad, DiffServer, build_world, seed_world
from repro.serve.pool import Rejection
from repro.web.http import Request

from perfbench.common import (
    digest,
    server_counters,
    server_layer_stats,
    snapshot_request,
)
from perfbench.hostspeed import idle

PAGES = 128
ROUNDS = 3
SHARDS = 4
WORKERS_PER_SHARD = 8
QUEUE_LIMIT = 256
CURATORS = 4
#: Every page's first revision is checked in at virtual time 0, so each
#: date view the load generator draws (0 to 3 h) resolves to a revision.
#: One chunk: S18's arrival rate (10,000 users over 120 s) for 3,000
#: users, two requests each.
CHUNK_USERS = 3000
CHUNK_WINDOW = 36
THINK_TIME = 30
#: Virtual seconds between chunks, so each starts on idle pools.
CHUNK_GAP = 3600


class _TimedServer:
    """Forwards dispatches to the server and adds each one's wall time
    to its logical request (the load generator reuses one Request
    object across a request's retries).  ``between_ops`` runs before
    each dispatch, outside its time."""

    def __init__(self, server: DiffServer, between_ops) -> None:
        self.server = server
        self.between_ops = between_ops
        self.started: Dict[int, float] = {}
        self.elapsed: Dict[int, float] = {}

    def dispatch(self, request, now):
        self.between_ops()
        started = perf_counter()
        result = self.server.dispatch(request, now)
        key = id(request)
        self.started.setdefault(key, started)
        self.elapsed[key] = self.elapsed.get(key, 0.0) + (
            perf_counter() - started)
        return result


class ServeRead:
    name = "serve-read"
    #: op_tail_ms percentile.  A 10 s run serves ~42k requests, so each
    #: of the three parts has 12k-18k and 120-180 beyond p99.  p99.9 sits on
    #: the jump from retried requests (~1 ms) to rare 2-100 ms ones.
    tail = 0.99

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.world = None
        self.server = None
        self.revisions = None
        self.chunks = 0
        self.next_start = 0
        #: query string -> response digest, over every served response.
        self.served: Dict[str, bytes] = {}
        self.mismatched_repeats = 0
        self.completed = 0
        self.virtual_p99: List[int] = []
        self.virtual_makespan: List[int] = []

    # ------------------------------------------------------------------
    def setup(self, between_ops=idle) -> None:
        self.world = build_world(self.seed, pages=PAGES)
        self.server = DiffServer(
            self.world.clock, self.world.agent, shards=SHARDS,
            workers_per_shard=WORKERS_PER_SHARD, queue_limit=QUEUE_LIMIT,
        )
        self.revisions = seed_world(self.server, self.world, seed=self.seed,
                                    rounds=ROUNDS, curators=CURATORS,
                                    spacing=0)
        now = self.world.clock.now
        for request in self._warm_requests():
            between_ops()
            while True:
                response, schedule = self.server.dispatch(request, now)
                if not isinstance(schedule, Rejection):
                    break
                now += schedule.retry_after
            if response.status != 200:
                raise RuntimeError(f"warm-up got {response.status}")
            now += 1
        self.next_start = now + CHUNK_GAP
        self.chunks = self.completed = 0
        self.served = {}
        self.mismatched_repeats = 0
        self.virtual_p99, self.virtual_makespan = [], []
        self.base = server_counters(self.server)

    def teardown(self) -> None:
        self.world = self.server = self.revisions = None

    def _warm_requests(self) -> List[Request]:
        out = []
        for url, revs in self.revisions.items():
            out.extend(snapshot_request({"action": "view", "url": url,
                                         "rev": rev})
                       for rev in revs)
            for curator in range(CURATORS):
                user = f"curator{curator}@example.com"
                out.extend(
                    snapshot_request({"action": "diff", "url": url,
                                      "user": user, "r1": revs[i],
                                      "r2": revs[j]})
                    for i in range(len(revs)) for j in range(i + 1, len(revs))
                )
                out.append(snapshot_request({"action": "history",
                                             "url": url, "user": user}))
        return out

    def prepare_block(self) -> None:
        pass

    def run_block(self, between_ops=idle):
        """One closed-loop chunk; returns (ops, failed, latencies), a
        latency being (first dispatch's start, summed seconds)."""
        load = ClosedLoopLoad(
            self.seed * 100_003 + self.chunks, self.world.urls,
            self.revisions, users=CHUNK_USERS, requests_per_user=2,
            think_time=THINK_TIME, arrival_window=CHUNK_WINDOW,
            curators=CURATORS,
        )
        timed = _TimedServer(self.server, between_ops)
        report = load.run(timed, start=self.next_start)
        self._report = report
        latencies = [(timed.started[id(request)], timed.elapsed[id(request)])
                     for request in report.requests_log.values()]
        failed = report.requests - report.completed + sum(
            1 for response in report.responses.values()
            if response.status != 200)
        return report.completed, failed, latencies

    def finish_block(self) -> None:
        """Bookkeeping after a timed chunk (not timed)."""
        report = self._report
        self.chunks += 1
        self.next_start += report.makespan + CHUNK_GAP
        self.completed += report.completed
        self.virtual_p99.append(report.latency_p99)
        self.virtual_makespan.append(report.makespan)
        for key, request in report.requests_log.items():
            served = digest(report.responses[key])
            if self.served.setdefault(request.url.query, served) != served:
                self.mismatched_repeats += 1
        self._report = None

    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, object]:
        counters = server_counters(self.server)
        return {
            "chunks": self.chunks,
            "requests": self.completed,
            "dispatches": counters["dispatches"],
            "shed": counters["shed"],
            "cache_hits": counters["cache_hits"],
            "htmldiff_invocations": counters["htmldiff_invocations"],
            "stored_bytes": counters["stored_bytes"],
            "responses": hashlib.sha256(b"".join(
                q.encode() + d for q, d in sorted(self.served.items())
            )).hexdigest(),
        }

    def layer_stats(self) -> Dict[str, float]:
        out = server_layer_stats(self.server, self.base, self.completed)
        out["serve.virtual_p99_s"] = statistics.median(self.virtual_p99)
        out["serve.virtual_makespan_s"] = statistics.median(
            self.virtual_makespan)
        return out

    # ------------------------------------------------------------------
    def check(self) -> List[str]:
        """Every distinct request's responses must be identical to each
        other and to a single-store SnapshotService replay (S18)."""
        problems = []
        if self.mismatched_repeats:
            problems.append(f"{self.mismatched_repeats} repeated requests "
                            "got different responses")
        world = build_world(self.seed, pages=PAGES)
        reference = SnapshotService(SnapshotStore(world.clock, world.agent))
        seed_world(reference, world, seed=self.seed, rounds=ROUNDS,
                   curators=CURATORS, spacing=0)
        bad = 0
        for query, expected in self.served.items():
            request = Request(
                "GET", f"http://aide.example.com/cgi-bin/snapshot?{query}")
            if digest(reference(request, world.clock.now)) != expected:
                bad += 1
        if bad:
            problems.append(f"{bad}/{len(self.served)} distinct requests "
                            "differ from the single-store reference")
        return problems

