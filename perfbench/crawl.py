"""``crawl``: nightly adaptive w3newer runs over a 20k-URL, 200-host web.

The world is :func:`~repro.workloads.crawlworld.build_crawl_world`
with 20,000 one-line pages on 200 hosts.  Twenty-four users each keep
a hotlist of 500 URLs drawn from it (hotlists overlap) and run
``W3Newer.run`` every night with the budgeted adaptive pipeline
(``CrawlOptions(workers=2)``: two ``SimScheduler`` threads, one running
at a time) and a rendered Figure-1 report.  Each user's change-rate
estimator is seeded from the world's revision history of that user's
hotlist.  Set-up builds the world and the trackers and runs one
night, so the timed phase sees warm status caches.

One op is one hotlist URL screened; the latency unit is one user's
nightly run, report included.  No HtmlDiff and no snapshot server run.
"""

from __future__ import annotations

import hashlib
import random
from time import perf_counter
from typing import Dict, List

from repro.core.w3newer import (
    BrowserHistory,
    ChangeRateEstimator,
    CrawlOptions,
    ReportOptions,
    SchedulePolicy,
    UrlState,
)
from repro.core.w3newer.hotlist import Hotlist
from repro.core.w3newer.runner import W3Newer
from repro.simclock import DAY, WEEK, SimClock
from repro.web.client import UserAgent
from repro.web.network import Network
from repro.web.politeness import PolitenessLog
from repro.workloads import apply_changes, build_crawl_world
from repro.workloads.crawlworld import revision_history

from perfbench.hostspeed import idle

URLS = 20_000
HOSTS = 200
USERS = 24
HOTLIST = 500
BUDGET = 60
WORKERS = 2
LOOKBACK = 8 * WEEK
#: Outcome states that count as a failed screening.
_FAILED = (UrlState.ERROR, UrlState.STALE)


class Crawl:
    name = "crawl"
    #: op_tail_ms percentile.  A 10 s run makes 9-12 nights of 24 runs,
    #: so each of the three parts has 72-96 runs and 10-14 beyond p85.
    #: Runs vary little (p50 ~38 ms, p85 ~41 ms), so higher percentiles
    #: mostly measure stalls of the shared host: a whole-run p90 had a
    #: spread of 0.55 over ten seeds.
    tail = 0.85

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(seed)
        #: Hotlists as indices into the world's URL list.
        self.hotlists = [sorted(rng.sample(range(URLS), HOTLIST))
                         for _ in range(USERS)]
        self.clock = None
        self.world = None
        self.trackers: List[W3Newer] = []
        self.nights = 0
        self.runs = 0
        self.outcomes = 0
        self.detections = 0
        self.http_requests = 0
        self.report_bytes = 0
        self.problems: List[str] = []
        self.report_digest = hashlib.sha256()

    # ------------------------------------------------------------------
    def setup(self, between_ops=idle) -> None:
        self.clock = SimClock()
        self.clock.advance(100 * DAY)
        network = Network(self.clock)
        self.world = build_crawl_world(urls=URLS, hosts=HOSTS,
                                       seed=self.seed, clock=self.clock,
                                       network=network)
        self.trackers = []
        now = self.clock.now
        for user, indices in enumerate(self.hotlists):
            between_ops()
            hotlist = Hotlist()
            history = BrowserHistory()
            estimator = ChangeRateEstimator()
            for index in indices:
                url = self.world.urls[index]
                hotlist.add(url, title=url)
                history.visit(url, now)
                estimator.seed_from_history(url, revision_history(
                    self.world, url, start=now - LOOKBACK, until=now))
            agent = UserAgent(network, self.clock,
                              politeness=PolitenessLog())
            self.trackers.append(W3Newer(
                self.clock, agent, hotlist, history=history,
                crawl=CrawlOptions(
                    workers=WORKERS, budget=BUDGET,
                    policy=SchedulePolicy.ADAPTIVE,
                    seed=self.seed * 31 + user, record_decisions=False,
                ),
                estimator=estimator,
                report_options=ReportOptions(render=True),
            ))
        self.nights = self.runs = self.outcomes = 0
        self.detections = self.http_requests = self.report_bytes = 0
        self.problems = []
        self.report_digest = hashlib.sha256()
        self.prepare_block()
        self.run_block(between_ops)
        self.finish_block()
        self.base = (self.detections, self.http_requests)

    def teardown(self) -> None:
        self.world = self.clock = None
        self.trackers = []

    def prepare_block(self) -> None:
        """Advance to the next night and churn the web (not timed)."""
        self.clock.advance(DAY)
        apply_changes(self.world)
        self.world.network.reset_log()

    def run_block(self, between_ops=idle):
        """Every user's nightly run; returns (ops, failed, latencies), a
        latency being (start, seconds)."""
        latencies = []
        results = []
        for tracker in self.trackers:
            between_ops()
            started = perf_counter()
            result = tracker.run()
            latencies.append((started, perf_counter() - started))
            results.append(result)
        self._results = results
        ops = sum(len(result.outcomes) for result in results)
        failed = sum(
            sum(1 for o in result.outcomes if o.state in _FAILED)
            + (len(result.outcomes) if result.aborted else 0)
            for result in results
        )
        return ops, failed, latencies

    def finish_block(self) -> None:
        """Check and account each run, then let each user read the
        pages reported changed (not timed)."""
        for user, (tracker, result) in enumerate(
                zip(self.trackers, self._results)):
            expected = [self.world.urls[i] for i in self.hotlists[user]]
            urls = sorted(outcome.url for outcome in result.outcomes)
            if urls != sorted(expected):
                self.problems.append(
                    f"night {self.nights} user {user}: "
                    f"{len(result.outcomes)} outcomes for {len(expected)} "
                    "hotlist URLs")
            if not result.report_html:
                self.problems.append(
                    f"night {self.nights} user {user}: no report")
            changed = [o for o in result.outcomes
                       if o.state is UrlState.CHANGED]
            for outcome in changed:
                tracker.mark_page_viewed(outcome.url)
            self.runs += 1
            self.outcomes += len(result.outcomes)
            self.detections += len(changed)
            self.http_requests += result.http_requests
            self.report_bytes += len(result.report_html)
            self.report_digest.update(result.report_html.encode())
            tracker.runs.clear()
        self._results = None
        self.nights += 1

    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, object]:
        return {
            "nights": self.nights,
            "runs": self.runs,
            "outcomes": self.outcomes,
            "detections": self.detections,
            "http_requests": self.http_requests,
            "report_bytes": self.report_bytes,
            "reports": self.report_digest.hexdigest(),
        }

    def layer_stats(self) -> Dict[str, float]:
        detections = self.detections - self.base[0]
        requests = self.http_requests - self.base[1]
        return {
            "core.w3newer.detections_per_request":
                detections / max(1, requests),
        }

    def check(self) -> List[str]:
        return list(self.problems)
