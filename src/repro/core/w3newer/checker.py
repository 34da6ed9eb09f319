"""The w3newer decision ladder: is this page new to the user?

Section 3's logic, per URL:

1. Look up the Table 1 threshold.  ``never`` ⇒ skip forever; if the
   user *visited* the page within the threshold ⇒ skip this run.
2. ``file:`` URLs cost one local ``stat`` — no HTTP.
3. Consult the known-modification-date sources in order of cheapness:
   the status cache from previous runs, then the proxy-caching server.
   If either says the page changed after the user last saw it, report
   CHANGED without any HTTP.  If it says the page has NOT changed,
   trust that only while the information is fresh ("HTTP is used only
   if the time the modification information was obtained was long
   enough ago to be considered 'stale' (currently... one week)").
4. A direct HEAD is also rate-limited by the threshold ("a threshold
   associated with each page to determine the maximum frequency of
   direct HEAD requests").
5. Honor robots.txt (verdicts cached; ``ignore_robots`` overrides).
6. HEAD the page.  No ``Last-Modified`` in the reply ⇒ GET it and
   compare checksums (the w3new inheritance; also how CGI output is
   tracked).  Redirects surface as MOVED; HTTP and transport errors as
   ERROR, feeding the systemic-failure detector.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional

from ...obs import NOOP as NOOP_OBS
from ...simclock import DAY, NEVER, WEEK, SimClock
from ...web.client import RobotsUnavailable, UserAgent
from ...web.guards import ContentGuardError
from ...web.http import NetworkError, NetworkUnreachable
from ...web.proxy import ProxyCache
from ...web.resilience import CircuitOpen, RetriesExhausted
from ...web.robots import RobotsFile
from ...web.url import Url, parse_url
from .errors import (
    CheckOutcome,
    CheckSource,
    SystemicFailureDetector,
    UrlState,
    quarantine_backoff,
)
from .history import BrowserHistory
from .localfs import LocalFiles
from .statuscache import StatusCache
from .thresholds import ThresholdConfig

__all__ = ["CheckerFlags", "UrlChecker", "content_checksum"]


def content_checksum(body: str) -> str:
    """The page-content checksum used when Last-Modified is absent."""
    return hashlib.md5(body.encode("utf-8", "replace")).hexdigest()


def _wire_cost(exc: NetworkError) -> int:
    """HTTP requests a failed call actually put on the wire."""
    if isinstance(exc, CircuitOpen):
        return 0
    if isinstance(exc, RetriesExhausted):
        return exc.attempts
    return 1


@dataclass
class CheckerFlags:
    """w3newer's command-line flags, as the paper describes them."""

    #: "a special flag... set when the script is invoked" to retry
    #: URLs previously found robot-forbidden.
    ignore_robots: bool = False
    #: "Another flag can tell w3newer to treat error conditions as a
    #: successful check as far as the URL's timestamp goes."
    treat_errors_as_success: bool = False
    #: When cached modification info stops being trusted (the paper's
    #: "currently, the threshold is one week").
    stale_after: int = WEEK
    #: Robot name matched against robots.txt records.
    robot_name: str = "w3newer"
    #: Section 3.1's proposed improvement: "skip subsequent URLs for a
    #: host if a host or network error (such as 'timeout' or 'network
    #: unreachable') has already occurred."
    skip_failing_hosts: bool = False
    #: Base window for the quarantine backoff: a URL whose content
    #: tripped a guard is left alone for ``base * 2^(trips-1)``
    #: (capped at 16x) before the next attempt.
    quarantine_backoff_base: int = DAY


class UrlChecker:
    """Stateful per-run checker (robots verdicts cached per host)."""

    def __init__(
        self,
        clock: SimClock,
        agent: UserAgent,
        config: ThresholdConfig,
        history: BrowserHistory,
        cache: StatusCache,
        proxy: Optional[ProxyCache] = None,
        local_files: Optional[LocalFiles] = None,
        flags: Optional[CheckerFlags] = None,
        failure_detector: Optional[SystemicFailureDetector] = None,
        obs=None,
        guard=None,
        quarantine=None,
    ) -> None:
        self.clock = clock
        self.agent = agent
        self.config = config
        self.history = history
        self.cache = cache
        self.proxy = proxy
        self.local_files = local_files or LocalFiles()
        self.flags = flags or CheckerFlags()
        self.failures = failure_detector or SystemicFailureDetector()
        self._robots_by_host: Dict[str, RobotsFile] = {}
        #: Hosts whose robots.txt answered an HTTP error this run; the
        #: verdict (the error message) is cached so the host is asked
        #: once, and every one of its URLs reports the same error.
        self._robots_errors: Dict[str, str] = {}
        #: Hosts that produced a transport failure during THIS run; with
        #: ``skip_failing_hosts`` their remaining URLs are not attempted.
        self._failed_hosts: set = set()
        #: Optional :class:`~repro.web.guards.ContentGuard` applied to
        #: every fetched body (and HEAD headers); trips quarantine the
        #: URL instead of checksumming hostile bytes.
        self.guard = guard
        #: Optional :class:`~repro.core.quarantine.QuarantineJournal`
        #: receiving the offending bytes + verdict on every trip.
        self.quarantine = quarantine
        self.obs = obs if obs is not None else NOOP_OBS
        self._c_head = self.obs.counter("w3newer.fetch.head_requests")
        self._c_get = self.obs.counter("w3newer.fetch.get_requests")
        self._c_bytes = self.obs.counter("w3newer.fetch.bytes")
        self._c_robots = self.obs.counter("w3newer.fetch.robots_requests")
        self._c_degraded = self.obs.counter("w3newer.degraded_stale")
        self._c_quarantined = self.obs.counter("w3newer.quarantined")

    # ------------------------------------------------------------------
    def check(self, url: str, force: bool = False) -> CheckOutcome:
        """Run the full ladder for one URL.

        ``force`` is the adaptive scheduler's voice: it already decided
        to spend HTTP on this URL, so the threshold rate limits (steps
        1 and 4) and the trust window on cached *unmodified* verdicts
        are skipped.  ``never`` thresholds, robots.txt, and cached
        changed-since-seen verdicts still win — forcing buys a fetch,
        not permission.
        """
        now = self.clock.now
        threshold = self.config.threshold_for(url)
        if threshold == NEVER:
            return CheckOutcome(url=url, state=UrlState.NEVER_CHECK)

        parsed = parse_url(url)
        last_seen = self.history.last_seen(url)
        record = self.cache.record_for(url)

        if parsed.scheme == "file":
            return self._check_local_file(url, parsed.path, last_seen, record)

        if self.flags.skip_failing_hosts and parsed.host in self._failed_hosts:
            return CheckOutcome(
                url=url, state=UrlState.ERROR,
                error=f"{parsed.host} already failed this run; skipped",
                error_count=record.error_count, last_seen=last_seen,
            )

        # 1. Recently visited by the user ⇒ not due.
        if (
            not force
            and threshold > 0
            and last_seen is not None
            and now - last_seen < threshold
        ):
            return CheckOutcome(
                url=url, state=UrlState.NOT_CHECKED, last_seen=last_seen
            )

        # 2. Cached robot exclusion.
        if record.robot_forbidden and not self.flags.ignore_robots:
            return CheckOutcome(url=url, state=UrlState.ROBOT_FORBIDDEN,
                                last_seen=last_seen)

        # 2b. Quarantine backoff.  A URL whose content tripped a guard
        # is left alone for an exponentially growing window; like
        # robots, this survives ``force`` — the scheduler's budget is
        # better spent on pages that serve sane bytes.
        if record.quarantine_count > 0 and record.quarantined_at is not None:
            window = quarantine_backoff(
                record.quarantine_count, self.flags.quarantine_backoff_base
            )
            if now - record.quarantined_at < window:
                return CheckOutcome(
                    url=url, state=UrlState.QUARANTINED,
                    error=record.last_error,
                    error_count=record.quarantine_count,
                    last_seen=last_seen,
                )

        # 3. Cheap modification-date sources, freshest first.  A
        #    "modified since seen" verdict is actionable at any age; an
        #    "unmodified" verdict is only trusted while fresh — status-
        #    cache info for the paper's one-week staleness horizon,
        #    proxy info only while "current with respect to the
        #    threshold" (Section 3).
        for mod_date, obtained_at, source in self._known_modification(
                parsed, record):
            if last_seen is None or mod_date > last_seen:
                state = (UrlState.NEVER_SEEN if last_seen is None
                         else UrlState.CHANGED)
                return CheckOutcome(
                    url=url, state=state, source=source,
                    modification_date=mod_date, last_seen=last_seen,
                )
            if force:
                # The scheduler decided to spend HTTP; a cached
                # unmodified verdict must not suppress the fetch.
                continue
            if threshold == 0:
                # Table 1's "checked upon every execution": a zero
                # threshold never trusts a cached unmodified verdict.
                continue
            if source is CheckSource.PROXY_CACHE:
                trust_window = min(threshold, self.flags.stale_after)
            else:
                trust_window = self.flags.stale_after
            if now - obtained_at < trust_window:
                return CheckOutcome(
                    url=url, state=UrlState.SEEN, source=source,
                    modification_date=mod_date, last_seen=last_seen,
                )

        # 4. Direct-request rate limiting.
        if (
            not force
            and threshold > 0
            and record.last_http_check is not None
            and now - record.last_http_check < threshold
        ):
            return CheckOutcome(
                url=url, state=UrlState.NOT_CHECKED, last_seen=last_seen
            )

        # 5. The robot exclusion protocol.
        requests_spent = 0
        if not self.flags.ignore_robots:
            allowed, robots_cost, robots_error = self._robots_allow(
                parsed.host, parsed.path
            )
            requests_spent += robots_cost
            if robots_error:
                # robots.txt answered an HTTP error (500 from an
                # overloaded host, say): we do NOT know the host's
                # policy, so crawling it anyway is not an option — the
                # URL surfaces as an error the user can see counted.
                record.record_error(robots_error)
                return CheckOutcome(
                    url=url, state=UrlState.ERROR, error=robots_error,
                    error_count=record.error_count, last_seen=last_seen,
                    http_requests=requests_spent, host=parsed.host,
                )
            if not allowed:
                record.robot_forbidden = True
                return CheckOutcome(
                    url=url, state=UrlState.ROBOT_FORBIDDEN,
                    last_seen=last_seen, http_requests=requests_spent,
                    host=parsed.host,
                )

        # 6. Spend real HTTP.
        outcome = self._check_via_http(url, last_seen, record, requests_spent)
        outcome.host = parsed.host
        return outcome

    # ------------------------------------------------------------------
    def _check_local_file(
        self, url: str, path: str, last_seen: Optional[int], record
    ) -> CheckOutcome:
        stat = self.local_files.stat(path)
        if stat is None:
            record.record_error("file not found")
            return CheckOutcome(
                url=url, state=UrlState.ERROR, source=CheckSource.LOCAL_STAT,
                error="file not found", error_count=record.error_count,
                last_seen=last_seen,
            )
        record.record_success()
        if (
            record.modification_date is not None
            and stat.mtime > record.modification_date
        ):
            record.note_change(stat.mtime)
        record.modification_date = stat.mtime
        record.date_obtained_at = self.clock.now
        if last_seen is None:
            state = UrlState.NEVER_SEEN
        elif stat.mtime > last_seen:
            state = UrlState.CHANGED
        else:
            state = UrlState.SEEN
        return CheckOutcome(
            url=url, state=state, source=CheckSource.LOCAL_STAT,
            modification_date=stat.mtime, last_seen=last_seen,
        )

    def _known_modification(self, parsed: Url, record):
        """(date, obtained_at, source) candidates, freshest first."""
        candidates = []
        if record.modification_date is not None and record.date_obtained_at is not None:
            candidates.append(
                (record.modification_date, record.date_obtained_at,
                 CheckSource.STATUS_CACHE)
            )
        if self.proxy is not None:
            info = self.proxy.cached_last_modified(parsed)
            if info is not None:
                candidates.append((info[0], info[1], CheckSource.PROXY_CACHE))
        candidates.sort(key=lambda c: -c[1])
        return candidates

    def _robots_allow(self, host: str, path: str):
        """(allowed, http_cost, error) with per-run per-host caching.

        ``error`` is non-empty when robots.txt answered an HTTP error —
        the caller reports the URL as ERROR rather than crawling a host
        whose policy is unknown.  Transport failures still mean
        "proceed": the page fetch itself will surface the problem with
        better context.
        """
        cached_error = self._robots_errors.get(host)
        if cached_error is not None:
            return False, 0, cached_error
        robots = self._robots_by_host.get(host)
        cost = 0
        if robots is None:
            try:
                robots = self.agent.fetch_robots(host)
                cost = 1
                self._c_robots.inc()
                self.failures.record_success()
            except RobotsUnavailable as exc:
                self._robots_errors[host] = str(exc)
                return False, 1, str(exc)
            except CircuitOpen:
                # Short-circuited before any wire traffic; the page
                # fetch below will hit the same breaker.
                robots = RobotsFile()
                cost = 0
            except RetriesExhausted as exc:
                robots = RobotsFile()
                cost = exc.attempts
            except NetworkError:
                robots = RobotsFile()
                cost = 1
            self._robots_by_host[host] = robots
        return robots.allows(self.flags.robot_name, path or "/"), cost, ""

    def _check_via_http(
        self, url: str, last_seen: Optional[int], record, requests_spent: int
    ) -> CheckOutcome:
        now = self.clock.now
        try:
            result = self.agent.head(url)
        except NetworkError as exc:
            return self._transport_error(url, record, last_seen, exc,
                                         requests_spent + _wire_cost(exc))
        self._c_head.inc()
        requests_spent += 1 + len(result.redirects)
        self.failures.record_success()
        response = result.response

        if result.moved:
            record.moved_to = str(result.url)

        if not response.ok and response.status != 304:
            record.record_error(f"HTTP {response.status} {response.reason}")
            if self.flags.treat_errors_as_success:
                record.last_http_check = now
            return CheckOutcome(
                url=url, state=UrlState.ERROR, source=CheckSource.HEAD,
                error=f"HTTP {response.status} {response.reason}",
                error_count=record.error_count, last_seen=last_seen,
                moved_to=record.moved_to, http_requests=requests_spent,
            )

        if self.guard is not None:
            try:
                # Header bombs arrive on HEAD responses too.
                self.guard.check_headers(url, response.headers)
            except ContentGuardError as exc:
                return self._quarantine(
                    url, record, last_seen, exc, requests_spent, body=""
                )

        record.record_success()

        mod_date = response.last_modified
        if mod_date is not None:
            previous_date = record.modification_date
            record.last_http_check = now
            record.modification_date = mod_date
            record.date_obtained_at = now
            if previous_date is not None and mod_date > previous_date:
                # The Last-Modified moved between looks: a genuine
                # change instant the rate estimator can learn from.
                record.note_change(mod_date)
            state = self._state_from_date(mod_date, last_seen)
            if record.moved_to and state is UrlState.SEEN:
                # Unchanged content at a new address: the move itself is
                # the news ("so the user can take action" — update the
                # hotlist).  A content change outranks it.
                state = UrlState.MOVED
            return CheckOutcome(
                url=url, state=state, source=CheckSource.HEAD,
                modification_date=mod_date, last_seen=last_seen,
                moved_to=record.moved_to, http_requests=requests_spent,
            )

        # No Last-Modified: "otherwise, it retrieves and checksums the
        # whole page" (w3new's strategy, inherited).
        return self._check_via_checksum(url, last_seen, record, requests_spent)

    def _check_via_checksum(
        self, url: str, last_seen: Optional[int], record, requests_spent: int
    ) -> CheckOutcome:
        now = self.clock.now
        try:
            result = self.agent.get(url)
        except NetworkError as exc:
            return self._transport_error(url, record, last_seen, exc,
                                         requests_spent + _wire_cost(exc))
        self._c_get.inc()
        self._c_bytes.inc(len(result.response.body))
        requests_spent += 1 + len(result.redirects)
        self.failures.record_success()
        response = result.response
        if not response.ok:
            record.record_error(f"HTTP {response.status} {response.reason}")
            if self.flags.treat_errors_as_success:
                # Same contract as the HEAD path: with -e the error
                # still counts as "checked now", so the URL is not
                # re-polled before its interval elapses.
                record.last_http_check = now
            return CheckOutcome(
                url=url, state=UrlState.ERROR, source=CheckSource.CHECKSUM,
                error=f"HTTP {response.status} {response.reason}",
                error_count=record.error_count, last_seen=last_seen,
                http_requests=requests_spent,
            )
        if self.guard is not None:
            try:
                body = self.guard.admit(url, response)
            except ContentGuardError as exc:
                return self._quarantine(
                    url, record, last_seen, exc, requests_spent,
                    body=response.body, content_type=response.content_type,
                )
            if record.quarantine_count:
                # The page serves sane bytes again; lift the backoff.
                record.clear_quarantine()
        else:
            body = response.body
        checksum = content_checksum(body)
        previous = record.checksum
        record.checksum = checksum
        record.checksum_obtained_at = now
        record.last_http_check = now
        record.record_success()
        if previous is None:
            # First sighting: no basis for "changed"; the checksum is
            # the baseline for the next run.
            state = UrlState.NEVER_SEEN if last_seen is None else UrlState.SEEN
        elif checksum != previous:
            state = UrlState.NEVER_SEEN if last_seen is None else UrlState.CHANGED
            record.modification_date = now  # best effort: "changed by now"
            record.date_obtained_at = now
            record.note_change(now)
        else:
            state = UrlState.SEEN if last_seen is not None else UrlState.NEVER_SEEN
        return CheckOutcome(
            url=url, state=state, source=CheckSource.CHECKSUM,
            modification_date=record.modification_date, last_seen=last_seen,
            moved_to=record.moved_to, http_requests=requests_spent,
        )

    def _quarantine(
        self, url: str, record, last_seen: Optional[int],
        exc: ContentGuardError, requests_spent: int, body: str,
        content_type: str = "text/html",
    ) -> CheckOutcome:
        """Record a guard trip: backoff state, journal, verdict."""
        now = self.clock.now
        record.record_quarantine(str(exc), now)
        record.last_http_check = now  # real HTTP was spent
        self._c_quarantined.inc()
        self.obs.event("w3newer.quarantine", url=url, guard=exc.guard)
        if self.quarantine is not None:
            self.quarantine.record(
                url=url, guard=exc.guard, detail=str(exc), body=body,
                at=now, content_type=content_type,
            )
        return CheckOutcome(
            url=url, state=UrlState.QUARANTINED, source=CheckSource.CHECKSUM,
            error=str(exc), error_count=record.quarantine_count,
            last_seen=last_seen, moved_to=record.moved_to,
            http_requests=requests_spent,
        )

    def _transport_error(
        self, url: str, record, last_seen: Optional[int], exc: Exception,
        requests_spent: int,
    ) -> CheckOutcome:
        host = parse_url(url).host
        self._failed_hosts.add(host)
        record.record_error(str(exc))
        if self.flags.treat_errors_as_success:
            record.last_http_check = self.clock.now
        # Degraded mode: when the resilience layer has already done its
        # best (retries exhausted) or refuses to try (open circuit), and
        # previous runs left a verdict in the status cache, serve that
        # verdict stale rather than failing the URL outright.  A STALE
        # row degrades gracefully; it does not feed the abort detector.
        degraded = isinstance(exc, (CircuitOpen, RetriesExhausted))
        has_cached_verdict = (
            record.modification_date is not None
            or record.checksum is not None
        )
        if degraded and has_cached_verdict:
            self._c_degraded.inc()
            self.obs.event("w3newer.degraded_stale", url=url,
                           reason=type(exc).__name__)
            record_fallback = getattr(self.agent, "record_fallback", None)
            if callable(record_fallback):
                record_fallback()
            return CheckOutcome(
                url=url, state=UrlState.STALE,
                source=CheckSource.STATUS_CACHE,
                modification_date=record.modification_date,
                error=f"degraded: {exc}", error_count=record.error_count,
                last_seen=last_seen, moved_to=record.moved_to,
                http_requests=requests_spent,
            )
        outcome = CheckOutcome(
            url=url, state=UrlState.ERROR, error=str(exc),
            error_count=record.error_count, last_seen=last_seen,
            http_requests=requests_spent,
        )
        # May raise RunAborted — the runner catches it.  Failures of a
        # single host cannot abort the run (the detector wants host
        # diversity); a dead network can.
        systemic = isinstance(exc, NetworkUnreachable) or (
            isinstance(exc, RetriesExhausted)
            and isinstance(exc.cause, NetworkUnreachable)
        )
        self.failures.record_transport_failure(host=host, systemic=systemic)
        return outcome

    @staticmethod
    def _state_from_date(mod_date: int, last_seen: Optional[int]) -> UrlState:
        if last_seen is None:
            return UrlState.NEVER_SEEN
        if mod_date > last_seen:
            return UrlState.CHANGED
        return UrlState.SEEN
