"""Degraded-mode w3newer: STALE verdicts, checkpointed aborts, and the
differential guarantee (resilience off == resilience never existed)."""

import pytest

from repro.core.w3newer.errors import UrlState
from repro.core.w3newer.hotlist import Hotlist, HotlistEntry
from repro.core.w3newer.runner import CrawlCheckpoint, W3Newer
from repro.core.w3newer.thresholds import parse_threshold_config
from repro.simclock import DAY, SimClock
from repro.web.client import UserAgent
from repro.web.http import TimeoutError_
from repro.web.network import FaultPlan, Network
from repro.web.resilience import ResilientAgent, RetryPolicy

CONFIG = parse_threshold_config("Default 0\n")


def build_world(plan=None, hosts=1, resilient=False, **agent_kwargs):
    clock = SimClock()
    network = Network(clock, fault_plan=plan)
    for h in range(hosts):
        server = network.create_server(f"site{h}.com")
        server.set_page("/page.html", f"<P>content of host {h}</P>")
    agent = UserAgent(network, clock)
    if resilient:
        agent = ResilientAgent(agent, **agent_kwargs)
    return clock, network, agent


class PageOutageAgent(UserAgent):
    """Serves robots.txt but times out every page HEAD while
    ``pages_down`` is set."""

    pages_down = True

    def head(self, url, *args, **kwargs):
        if self.pages_down:
            raise TimeoutError_(f"{url} did not respond")
        return super().head(url, *args, **kwargs)


def make_tracker(clock, agent, hosts=1, **kwargs):
    hotlist = Hotlist.from_lines(
        "\n".join(f"http://site{h}.com/page.html" for h in range(hosts))
    )
    return W3Newer(clock, agent, hotlist, config=CONFIG, **kwargs)


class TestStaleFallback:
    def test_stale_verdict_from_status_cache(self):
        plan = FaultPlan()
        clock, network, agent = build_world(
            plan, resilient=True,
            policy=RetryPolicy(max_attempts=2, jitter=0))
        tracker = make_tracker(clock, agent)
        first = tracker.run()
        assert first.outcomes[0].state is UrlState.NEVER_SEEN
        # Visiting the page forces later runs to re-check over HTTP (a
        # zero threshold never trusts a cached unmodified verdict).
        tracker.mark_page_viewed("http://site0.com/page.html")
        # The host goes dark; the next run serves the cached verdict.
        plan.outage("site0.com", kind="timeout")
        clock.advance(DAY)
        second = tracker.run()
        outcome = second.outcomes[0]
        assert outcome.state is UrlState.STALE
        assert "degraded" in outcome.error
        assert not second.aborted
        assert agent.stats()["fallbacks"] >= 1
        assert "1 stale" in second.report_html
        assert "stale (last known state)" in second.report_html

    def test_no_cached_verdict_means_error_not_stale(self):
        plan = FaultPlan()
        plan.outage("site0.com", kind="timeout")
        clock, network, agent = build_world(
            plan, resilient=True,
            policy=RetryPolicy(max_attempts=2, jitter=0))
        tracker = make_tracker(clock, agent)
        result = tracker.run()
        assert result.outcomes[0].state is UrlState.ERROR

    def test_short_circuited_host_costs_no_wire_traffic(self):
        plan = FaultPlan()
        clock, network, agent = build_world(
            plan, resilient=True,
            policy=RetryPolicy(max_attempts=1, jitter=0),
            breaker_threshold=1, breaker_reset=10 * DAY)
        tracker = make_tracker(clock, agent)
        tracker.run()  # populates the status cache
        tracker.mark_page_viewed("http://site0.com/page.html")
        plan.outage("site0.com", kind="timeout")
        clock.advance(DAY)
        tracker.run()  # trips the breaker
        wire_before = len(network.log)
        clock.advance(DAY)
        third = tracker.run()
        assert third.outcomes[0].state is UrlState.STALE
        assert third.outcomes[0].http_requests == 0
        assert len(network.log) == wire_before

    def test_stale_rows_do_not_trip_the_abort_detector(self):
        plan = FaultPlan()
        clock, network, agent = build_world(
            plan, hosts=10, resilient=True,
            policy=RetryPolicy(max_attempts=1, jitter=0))
        tracker = make_tracker(clock, agent, hosts=10,
                               abort_after_failures=3)
        tracker.run()
        for h in range(10):
            tracker.mark_page_viewed(f"http://site{h}.com/page.html")
        plan.outage("*", kind="timeout")
        clock.advance(DAY)
        result = tracker.run()
        assert not result.aborted
        assert len(result.stale) == 10


class TestCheckpointResume:
    def build_aborting_world(self, outage_end):
        # Every host dark until ``outage_end``: a plain agent's failures
        # span distinct hosts, so the detector aborts mid-list.
        plan = FaultPlan()
        plan.outage("*", kind="timeout", end=outage_end)
        clock, network, agent = build_world(plan, hosts=10)
        tracker = make_tracker(clock, agent, hosts=10,
                               abort_after_failures=3)
        return clock, tracker

    def test_abort_parks_a_checkpoint(self):
        clock, tracker = self.build_aborting_world(outage_end=2 * DAY)
        result = tracker.run()
        assert result.aborted
        checkpoint = tracker.checkpoint
        assert isinstance(checkpoint, CrawlCheckpoint)
        # Every URL is either decided or still pending, never both; the
        # aborting URL (its outcome never recorded) is retried first.
        pending = [check.index for check in checkpoint.pending]
        assert sorted(checkpoint.outcomes) == list(range(len(result.outcomes)))
        assert pending == list(range(len(result.outcomes), 10))

    def test_resume_covers_the_rest_of_the_hotlist(self):
        clock, tracker = self.build_aborting_world(outage_end=2 * DAY)
        first = tracker.run()
        done_first = len(first.outcomes)
        clock.advance(3 * DAY)  # past the outage
        second = tracker.run()
        assert second.resumed_from == done_first
        assert not second.aborted
        assert tracker.checkpoint is None
        # The resumed run's report covers the whole hotlist: carried
        # outcomes plus the remainder checked now.
        assert len(second.outcomes) == 10
        states = {o.state for o in second.outcomes[done_first:]}
        assert states == {UrlState.NEVER_SEEN}

    def test_resume_fetches_no_robots_txt_twice(self):
        # robots.txt answers, but every page times out: hosts fail in
        # turn until the streak spans two hosts and the run aborts.
        clock, network, _ = build_world(hosts=3)
        agent = PageOutageAgent(network, clock)
        hotlist = Hotlist.from_lines("\n".join(
            f"http://site{h}.com/page{p}.html"
            for p in range(3) for h in range(3)
        ))
        tracker = W3Newer(clock, agent, hotlist, config=CONFIG,
                          abort_after_failures=2)
        assert tracker.run().aborted
        agent.pages_down = False
        assert not tracker.run().aborted
        robots = [record.host for record in network.log
                  if record.path == "/robots.txt"]
        assert sorted(robots) == ["site0.com", "site1.com", "site2.com"]

    def test_edited_hotlist_invalidates_the_checkpoint(self):
        clock, tracker = self.build_aborting_world(outage_end=2 * DAY)
        tracker.run()
        tracker.hotlist.add("http://site0.com/extra.html")
        clock.advance(3 * DAY)
        result = tracker.run()
        assert result.resumed_from is None
        assert len(result.outcomes) == 11

    def test_same_size_edit_invalidates_the_checkpoint(self):
        # Swapping one bookmark for another keeps the hotlist's size;
        # the parked outcomes belong to the old list all the same.
        clock, tracker = self.build_aborting_world(outage_end=2 * DAY)
        tracker.run()
        swapped = "http://site0.com/swapped.html"
        tracker.hotlist.entries[0] = HotlistEntry(url=swapped)
        clock.advance(3 * DAY)
        result = tracker.run()
        assert result.resumed_from is None
        assert [o.url for o in result.outcomes] == tracker.hotlist.urls()

    def test_fresh_run_has_no_checkpoint(self):
        clock, network, agent = build_world()
        tracker = make_tracker(clock, agent)
        result = tracker.run()
        assert result.resumed_from is None
        assert tracker.checkpoint is None


class TestDifferentialGuarantee:
    """Zero-fault plan + default policy == the wrapper never existed."""

    def run_scenario(self, resilient):
        plan = FaultPlan()  # trivial: guaranteed inert
        clock, network, agent = build_world(plan, hosts=5,
                                            resilient=resilient)
        tracker = make_tracker(clock, agent, hosts=5)
        for _ in range(3):
            clock.advance(DAY)
            tracker.run()
        return network, tracker

    def test_reports_and_traffic_are_byte_identical(self):
        plain_net, plain = self.run_scenario(resilient=False)
        wrapped_net, wrapped = self.run_scenario(resilient=True)
        for mine, theirs in zip(plain.runs, wrapped.runs):
            assert mine.report_html == theirs.report_html
        assert plain_net.log == wrapped_net.log

    def test_wrapper_counters_stay_zero(self):
        _net, tracker = self.run_scenario(resilient=True)
        stats = tracker.agent.stats()
        assert stats["retries"] == 0
        assert stats["breaker_opens"] == 0
        assert stats["short_circuits"] == 0
        assert stats["fallbacks"] == 0


class TestSnapshotStoreComposition:
    def test_archives_identical_with_and_without_wrapper(self):
        from repro.core.snapshot.store import SnapshotStore
        from repro.rcs.rcsfile import serialize_rcsfile

        def archive_bytes(resilient):
            clock, network, agent = build_world(resilient=resilient)
            store = SnapshotStore(clock, agent)
            store.remember("alice", "http://site0.com/page.html")
            (archive,) = store.archives.values()
            return serialize_rcsfile(archive)

        assert archive_bytes(False) == archive_bytes(True)

    def test_store_stats_expose_resilience_counters(self):
        from repro.core.snapshot.store import SnapshotStore

        clock, network, agent = build_world(resilient=True)
        store = SnapshotStore(clock, agent)
        store.remember("alice", "http://site0.com/page.html")
        assert store.stats()["resilience"]["retries"] == 0

    def test_remember_retries_transient_fetch_failures(self):
        from repro.core.snapshot.store import SnapshotStore

        plan = FaultPlan()
        plan.flaky_until("site0.com", recover_at=5, probability=1.0)
        clock, network, agent = build_world(
            plan, resilient=True,
            policy=RetryPolicy(base_delay=10, jitter=0))
        store = SnapshotStore(clock, agent)
        result = store.remember("alice", "http://site0.com/page.html")
        assert result.changed
        assert store.stats()["resilience"]["retries"] == 1
