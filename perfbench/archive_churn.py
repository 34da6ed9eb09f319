"""``archive-churn``: the paper's Diff-then-Remember visit, cold every time.

Thirty-two large pages (20 to 120 paragraphs, spread evenly) live on
one origin server; each is tracked by its own user.  Before every
round each page is changed by one operator drawn from
``MutationMix.typical``'s mix less its ``rewrite`` (see ``MIX``).
One op is one visit: the user follows the report's unpinned Diff link
(fetch, RCS check-in, two checkouts, a cold HtmlDiff) and then clicks
Remember.

The server is the same 4-shard :class:`~repro.serve.server.DiffServer`
as ``serve-read``, with an on-disk repository: every ``SYNC_INTERVAL``
mutating requests it appends the new revisions to each shard's journal
(``append_sharded``; each journal append is flushed and fsynced).
Every diff is of a pair never diffed before, so no cache can help.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
from time import perf_counter
from typing import Dict, List

from repro.core.htmldiff import HtmlDiffOptions, html_diff
from repro.core.snapshot.service import SnapshotService
from repro.core.snapshot.store import SnapshotStore
from repro.serve import DiffServer
from repro.serve.pool import Rejection
from repro.simclock import SimClock
from repro.web.client import UserAgent
from repro.web.network import Network
from repro.workloads.mutate import MUTATORS
from repro.workloads.pagegen import PageGenerator

from perfbench.common import (
    digest,
    server_counters,
    server_layer_stats,
    snapshot_request,
)
from perfbench.hostspeed import idle

PAGES = 32
MIN_PARAGRAPHS = 20
MAX_PARAGRAPHS = 120
SHARDS = 4
WORKERS_PER_SHARD = 8
QUEUE_LIMIT = 256
#: Mutating requests between journal appends.
SYNC_INTERVAL = 8
#: Revisions checked in per page by set-up, before the warm-up visit.
SEED_REVISIONS = 3
VISIT_GAP = 120
ROUND_GAP = 3600
#: Visits whose diff is re-run with ``HtmlDiffOptions.reference()``.
REFERENCE_SAMPLE = 4
ORIGIN = "churn.example.com"
#: ``MutationMix.typical`` without its 5% ``rewrite``, same weights.
#: ``rewrite`` swaps in a new six-paragraph page: within 15 rounds half
#: the pages would be small, so later rounds would be cheaper than early
#: ones and a faster program would face an easier workload.  A rewrite
#: that keeps the page's size is no fix: HtmlDiff of two unrelated
#: pages takes 0.23 s at 20 paragraphs, 1.6 s at 60 and 17.8 s at 120,
#: so one such visit would outweigh a whole run.  That cost is not
#: measured by any workload yet.
MIX = {"append_paragraph": 0.30, "edit_sentence": 0.30, "add_link": 0.20,
       "delete_paragraph": 0.10, "restructure": 0.05}
MIX_NAMES = sorted(MIX)
MIX_WEIGHTS = [MIX[name] for name in MIX_NAMES]


def _url(index: int) -> str:
    return f"http://{ORIGIN}/page{index:02d}.html"


def _user(index: int) -> str:
    return f"reader{index:02d}@example.com"


class _World:
    """A clock, a network and the origin server holding the pages."""

    def __init__(self) -> None:
        self.clock = SimClock()
        self.network = Network(self.clock)
        self.origin = self.network.create_server(ORIGIN)
        self.agent = UserAgent(self.network, self.clock)

    def publish(self, index: int, body: str) -> None:
        self.origin.set_page(f"/page{index:02d}.html", body)


class ArchiveChurn:
    name = "archive-churn"
    #: op_tail_ms percentile.  A 10 s run makes ~380 visits, so each
    #: of the three parts has ~128 and ~19 beyond p85.  The 2-6% of
    #: visits that absorb a full cyclic-GC pass over the growing
    #: DiffCache heap form a second population (one run: p95 62 ms, p97
    #: 68 ms, p98 285 ms); a whole-run p95 sat on its edge in some runs
    #: (spread over ten seeds 0.49).
    tail = 0.85

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.rngs = [random.Random(seed * 1009 + i) for i in range(PAGES)]
        self.sizes = [
            MIN_PARAGRAPHS + round(
                (MAX_PARAGRAPHS - MIN_PARAGRAPHS) * i / (PAGES - 1))
            for i in range(PAGES)
        ]
        #: versions[round][page]: every page body ever published.
        self.versions: List[List[str]] = [[
            PageGenerator(self.rngs[i].randrange(1 << 32)).page(
                paragraphs=self.sizes[i], links=15)
            for i in range(PAGES)
        ]]
        for _ in range(SEED_REVISIONS):
            self._next_round()
        self.world = None
        self.server = None
        self.repo_dir = ""
        self.builds = 0
        self.rounds_done = 0
        #: One entry per visit: (round, page, diff digest, remember digest).
        self.visits: List[tuple] = []
        self.http_requests = 0

    def _next_round(self) -> None:
        """Change every page by one operator drawn from ``MIX``."""
        bodies = []
        for index, body in enumerate(self.versions[-1]):
            rng = self.rngs[index]
            name = rng.choices(MIX_NAMES, weights=MIX_WEIGHTS, k=1)[0]
            bodies.append(MUTATORS[name](body, rng))
        self.versions.append(bodies)

    # ------------------------------------------------------------------
    def setup(self, between_ops=idle) -> None:
        self.builds += 1
        self.repo_dir = os.path.join(self.workdir, f"churn-{self.builds}")
        shutil.rmtree(self.repo_dir, ignore_errors=True)
        self.world = _World()
        self.server = DiffServer(
            self.world.clock, self.world.agent, shards=SHARDS,
            workers_per_shard=WORKERS_PER_SHARD, queue_limit=QUEUE_LIMIT,
            repository_dir=self.repo_dir, sync_interval=SYNC_INTERVAL,
        )
        self.visits = []
        self.http_requests = 0
        # Seed SEED_REVISIONS revisions per page through remember, then
        # warm up with one full round of visits.
        for round_no in range(SEED_REVISIONS):
            for index in range(PAGES):
                self.world.publish(index, self.versions[round_no][index])
                between_ops()
                self._dispatch({"action": "remember", "url": _url(index),
                                "user": _user(index)})
                self.world.clock.advance(VISIT_GAP)
            self.world.clock.advance(ROUND_GAP)
        self.rounds_done = SEED_REVISIONS
        self.prepare_block()
        self.run_block(between_ops)
        self.finish_block()
        self.base = server_counters(self.server)
        self.base_visits = len(self.visits)
        self.base_bytes = _tree_bytes(self.repo_dir)

    def teardown(self) -> None:
        self.world = self.server = None
        shutil.rmtree(self.repo_dir, ignore_errors=True)

    def _dispatch(self, params: Dict[str, str]):
        response, schedule = self.server.dispatch(
            snapshot_request(params), self.world.clock.now)
        if isinstance(schedule, Rejection) or response.status != 200:
            raise RuntimeError(f"{params['action']} {params['url']} got "
                               f"{response.status}")
        return response

    def prepare_block(self) -> None:
        """Publish the next round of page changes (not timed)."""
        round_no = self.rounds_done
        if round_no >= len(self.versions):
            self._next_round()
        for index in range(PAGES):
            self.world.publish(index, self.versions[round_no][index])
        self._requests = [
            tuple(snapshot_request({"action": action, "url": _url(i),
                                    "user": _user(i)})
                  for action in ("diff", "remember"))
            for i in range(PAGES)
        ]

    def run_block(self, between_ops=idle):
        """One round: a Diff-then-Remember visit to every page; returns
        (ops, failed, latencies), a latency being (start, seconds)."""
        latencies = []
        failed = 0
        results = []
        clock = self.world.clock
        dispatch = self.server.dispatch
        for diff_request, remember_request in self._requests:
            between_ops()
            started = perf_counter()
            diff, d_sched = dispatch(diff_request, clock.now)
            remember, r_sched = dispatch(remember_request, clock.now)
            latencies.append((started, perf_counter() - started))
            if (diff.status != 200 or remember.status != 200
                    or isinstance(d_sched, Rejection)
                    or isinstance(r_sched, Rejection)):
                failed += 1
            results.append((diff, remember))
            clock.advance(VISIT_GAP)
        self._results = results
        return PAGES, failed, latencies

    def finish_block(self) -> None:
        round_no = self.rounds_done
        for index, (diff, remember) in enumerate(self._results):
            self.visits.append((round_no, index, digest(diff),
                                digest(remember)))
        self._results = None
        self.rounds_done += 1
        self.world.clock.advance(ROUND_GAP)
        self.http_requests += len(self.world.network.log)
        self.world.network.reset_log()

    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, object]:
        counters = server_counters(self.server)
        return {
            "rounds": self.rounds_done,
            "dispatches": counters["dispatches"],
            "shed": counters["shed"],
            "cache_hits": counters["cache_hits"],
            "htmldiff_invocations": counters["htmldiff_invocations"],
            "http_requests": self.http_requests,
            "stored_bytes": counters["stored_bytes"],
            "responses": hashlib.sha256(b"".join(
                d + r for _, _, d, r in self.visits)).hexdigest(),
        }

    def layer_stats(self) -> Dict[str, float]:
        ops = len(self.visits) - self.base_visits
        out = server_layer_stats(self.server, self.base, ops)
        out["core.snapshot.persistence.append.bytes"] = (
            _tree_bytes(self.repo_dir) - self.base_bytes) / max(1, ops)
        return out

    # ------------------------------------------------------------------
    def check(self) -> List[str]:
        """Replay every visit against a single-store SnapshotService and
        re-run a seeded sample of diffs with the reference options."""
        problems = []
        world = _World()
        store = SnapshotStore(world.clock, world.agent)
        service = SnapshotService(store)

        def call(params):
            return service(snapshot_request(params), world.clock.now)

        for round_no in range(SEED_REVISIONS):
            for index in range(PAGES):
                world.publish(index, self.versions[round_no][index])
                call({"action": "remember", "url": _url(index),
                      "user": _user(index)})
                world.clock.advance(VISIT_GAP)
            world.clock.advance(ROUND_GAP)
        sample = {
            int.from_bytes(hashlib.sha256(
                f"{self.seed}|sample|{k}".encode()).digest()[:8], "big")
            % len(self.visits)
            for k in range(REFERENCE_SAMPLE)
        }
        bad = 0
        current_round = None
        for position, (round_no, index, diff_digest, remember_digest) \
                in enumerate(self.visits):
            if round_no != current_round:
                if current_round is not None:
                    world.clock.advance(ROUND_GAP)
                current_round = round_no
                for page in range(PAGES):
                    world.publish(page, self.versions[round_no][page])
            url, user = _url(index), _user(index)
            old_rev = store.users.last_seen_version(
                user, store.archive_for(url).name).revision
            diff = call({"action": "diff", "url": url, "user": user})
            remember = call({"action": "remember", "url": url, "user": user})
            if (digest(diff) != diff_digest
                    or digest(remember) != remember_digest):
                bad += 1
            if position in sample:
                problems.extend(self._reference_diff(store, url, old_rev,
                                                     diff.body))
            world.clock.advance(VISIT_GAP)
        if bad:
            problems.append(f"{bad}/{len(self.visits)} visits differ from "
                            "the single-store reference")
        return problems

    @staticmethod
    def _reference_diff(store, url, old_rev, served_body) -> List[str]:
        archive = store.archive_for(url)
        new_rev = archive.head_revision
        old_text = archive.checkout(old_rev)
        new_text = archive.checkout(new_rev)
        fast = html_diff(old_text, new_text)
        slow = html_diff(old_text, new_text,
                         options=HtmlDiffOptions().reference())
        problems = []
        if fast.html != slow.html:
            problems.append(f"{url} {old_rev}->{new_rev}: fast and "
                            "reference HtmlDiff differ")
        if not served_body.endswith(slow.html):
            problems.append(f"{url} {old_rev}->{new_rev}: served diff is "
                            "not the reference HtmlDiff")
        if fast.degraded or slow.degraded:
            problems.append(f"{url} {old_rev}->{new_rev}: degraded diff")
        return problems


def _tree_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total
