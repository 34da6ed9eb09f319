"""Tests for poison-document quarantine in the change tracker."""

from repro.core.quarantine import QuarantineJournal
from repro.core.w3newer.checker import CheckerFlags, UrlChecker
from repro.core.w3newer.errors import UrlState, quarantine_backoff
from repro.core.w3newer.history import BrowserHistory
from repro.core.w3newer.hotlist import Hotlist
from repro.core.w3newer.localfs import LocalFiles
from repro.core.w3newer.report import ReportOptions, render_report
from repro.core.w3newer.runner import W3Newer
from repro.core.w3newer.statuscache import StatusCache, UrlRecord
from repro.core.w3newer.thresholds import parse_threshold_config
from repro.simclock import DAY, HOUR, SimClock
from repro.web.client import UserAgent
from repro.web.guards import ContentGuard, GuardLimits
from repro.web.network import Network

CONFIG = parse_threshold_config("Default 0\n")

BOMB = "<DIV>" * 200 + "boom"
CLEAN = "<P>perfectly ordinary page</P>"


class World:
    def __init__(self):
        self.clock = SimClock()
        self.network = Network(self.clock)
        self.server = self.network.create_server("site.com")
        # No Last-Modified: forces the GET-and-checksum path, the one
        # that runs bodies through the content guard.
        self.server.set_page("/bomb", BOMB, send_last_modified=False)
        self.server.set_page("/clean", CLEAN, send_last_modified=False)
        self.agent = UserAgent(self.network, self.clock)
        self.cache = StatusCache()
        self.journal = QuarantineJournal()
        self.guard = ContentGuard(GuardLimits(max_nesting_depth=64))

    def checker(self, flags=None):
        return UrlChecker(
            clock=self.clock,
            agent=self.agent,
            config=CONFIG,
            history=BrowserHistory(),
            cache=self.cache,
            local_files=LocalFiles(),
            flags=flags,
            guard=self.guard,
            quarantine=self.journal,
        )


class TestCheckerQuarantine:
    def test_guard_trip_quarantines(self):
        world = World()
        outcome = world.checker().check("http://site.com/bomb")
        assert outcome.state is UrlState.QUARANTINED
        assert "nesting-depth" in outcome.error
        record = world.cache.record_for("http://site.com/bomb")
        assert record.quarantine_count == 1
        assert record.quarantined_at == world.clock.now

    def test_evidence_journaled(self):
        world = World()
        world.checker().check("http://site.com/bomb")
        entry = world.journal.get("http://site.com/bomb")
        assert entry is not None
        assert entry.guard == "nesting-depth"
        assert entry.body == BOMB

    def test_clean_page_unaffected(self):
        world = World()
        outcome = world.checker().check("http://site.com/clean")
        assert outcome.state is not UrlState.QUARANTINED
        assert outcome.http_requests > 0

    def test_backoff_window_skips_http(self):
        world = World()
        world.checker().check("http://site.com/bomb")
        world.clock.advance(6 * HOUR)  # inside the one-day window
        outcome = world.checker().check("http://site.com/bomb")
        assert outcome.state is UrlState.QUARANTINED
        assert outcome.http_requests == 0

    def test_force_does_not_bypass_backoff(self):
        # Forcing buys a fetch, not permission: hostile content stays
        # in backoff even for an explicit re-check request.
        world = World()
        world.checker().check("http://site.com/bomb")
        world.clock.advance(HOUR)
        outcome = world.checker().check("http://site.com/bomb", force=True)
        assert outcome.state is UrlState.QUARANTINED
        assert outcome.http_requests == 0

    def test_repeated_trips_back_off_exponentially(self):
        world = World()
        world.checker().check("http://site.com/bomb")
        world.clock.advance(DAY)  # window expired: retries, trips again
        outcome = world.checker().check("http://site.com/bomb")
        assert outcome.state is UrlState.QUARANTINED
        assert outcome.http_requests > 0
        record = world.cache.record_for("http://site.com/bomb")
        assert record.quarantine_count == 2
        # Two trips: the window is now 2 days, so after one more day
        # the URL is still left alone.
        world.clock.advance(DAY)
        outcome = world.checker().check("http://site.com/bomb")
        assert outcome.http_requests == 0

    def test_clean_fetch_clears_quarantine(self):
        world = World()
        world.checker().check("http://site.com/bomb")
        world.server.set_page("/bomb", CLEAN, send_last_modified=False)
        world.clock.advance(2 * DAY)  # past the backoff window
        outcome = world.checker().check("http://site.com/bomb")
        assert outcome.state is not UrlState.QUARANTINED
        record = world.cache.record_for("http://site.com/bomb")
        assert record.quarantine_count == 0
        assert record.quarantined_at is None

    def test_backoff_function(self):
        assert quarantine_backoff(0, DAY) == 0
        assert quarantine_backoff(1, DAY) == DAY
        assert quarantine_backoff(2, DAY) == 2 * DAY
        assert quarantine_backoff(3, DAY) == 4 * DAY
        assert quarantine_backoff(99, DAY) == 16 * DAY  # capped


class TestRecordPersistence:
    def test_quarantine_fields_round_trip(self):
        cache = StatusCache()
        record = cache.record_for("http://site.com/x")
        record.record_quarantine("nesting-depth: too deep", at=1234)
        record.record_quarantine("nesting-depth: too deep", at=5678)
        restored = StatusCache.deserialize(cache.serialize())
        copy = restored.record_for("http://site.com/x")
        assert copy.quarantine_count == 2
        assert copy.quarantined_at == 5678

    def test_old_cache_lines_are_skipped(self):
        cache = StatusCache()
        record = cache.record_for("http://site.com/x")
        record.record_quarantine("boom", at=9)
        line = cache.serialize().strip().splitlines()[-1]
        # Drop the quarantine fields: the retired ten- and nine-field
        # line forms no writer makes any more.
        for fields in (10, 9):
            legacy = "|".join(line.split("|")[:fields])
            assert len(StatusCache.deserialize(legacy + "\n")) == 0

    def test_checker_written_cache_round_trips_byte_identical(self):
        world = World()
        checker = world.checker()
        for url in ("http://site.com/bomb", "http://site.com/clean"):
            checker.check(url)
        world.clock.advance(DAY)
        world.server.set_page("/clean", CLEAN + "<P>more</P>",
                              send_last_modified=False)
        checker.check("http://site.com/clean")
        text = world.cache.serialize()
        assert StatusCache.deserialize(text).serialize() == text

    def test_quarantine_does_not_bump_error_count(self):
        record = UrlRecord(url="http://site.com/x")
        record.record_quarantine("boom", at=1)
        assert record.error_count == 0


class TestReportRendering:
    def test_quarantined_row_and_header(self):
        world = World()
        hotlist = Hotlist.from_lines(
            "http://site.com/bomb The bomb\nhttp://site.com/clean Fine"
        )
        tracker = W3Newer(
            world.clock, world.agent, hotlist, config=CONFIG,
            cache=world.cache, guard=world.guard,
            quarantine=world.journal,
            report_options=ReportOptions(),
        )
        run = tracker.run()
        assert len(run.quarantined) == 1
        assert "quarantined (hostile content)" in run.report_html
        assert "1 quarantined" in run.report_html
        assert "nesting-depth" in run.report_html
        assert "in backoff" in run.report_html

    def test_quarantined_groups_with_stale(self):
        outcome_rows = render_report(
            [], [], options=ReportOptions(), now=0
        )
        assert "<UL>" in outcome_rows  # renders without outcomes too
