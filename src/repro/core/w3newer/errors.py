"""Check outcomes and the systemic-failure abort policy.

Section 3.1 ("Error Conditions") distinguishes local/systemic problems
(network down, proxy overloaded — every request fails; w3newer "should
be able to detect cases when it should abort and try again later") from
per-URL errors (moved, gone, robot-forbidden, timeout).  The outcome
vocabulary here feeds the Figure 1 report; the
:class:`SystemicFailureDetector` implements the abort heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

__all__ = ["UrlState", "CheckSource", "CheckOutcome", "SystemicFailureDetector",
           "RunAborted", "quarantine_backoff"]


class UrlState(Enum):
    """What a run concluded about one hotlist entry."""

    #: Modified since the user last saw it.
    CHANGED = "changed"
    #: Checked; not modified since the user saw it.
    SEEN = "seen"
    #: Checked; modified, but the user never visited it (no history).
    NEVER_SEEN = "never-seen"
    #: Skipped: threshold says the check is not due yet.
    NOT_CHECKED = "not checked"
    #: Skipped forever (threshold ``never``).
    NEVER_CHECK = "never checked"
    #: Skipped this run: the fetch budget ran out before this URL's
    #: turn (the budgeted scheduler's over-budget verdict).
    DEFERRED = "deferred"
    #: robots.txt forbids automated retrieval (cached verdict).
    ROBOT_FORBIDDEN = "robots"
    #: The URL moved (301); the report shows the forwarding pointer.
    MOVED = "moved"
    #: Some per-URL error (404/410, timeout, DNS, refused...).
    ERROR = "error"
    #: Degraded mode: the host is open-circuited or out of retries, so
    #: the verdict is the status cache's last word, served stale.
    STALE = "stale"
    #: The content tripped an ingest guard (markup bomb, binary blob,
    #: undecodable charset...) — the document is in quarantine and the
    #: URL backs off exponentially until it serves sane bytes again.
    QUARANTINED = "quarantined"


class CheckSource(Enum):
    """Where the verdict's modification information came from."""

    NONE = "none"
    STATUS_CACHE = "status-cache"
    PROXY_CACHE = "proxy-cache"
    HEAD = "head"
    CHECKSUM = "checksum"
    LOCAL_STAT = "stat"


@dataclass
class CheckOutcome:
    """The result of checking one URL."""

    url: str
    state: UrlState
    source: CheckSource = CheckSource.NONE
    modification_date: Optional[int] = None
    last_seen: Optional[int] = None
    error: str = ""
    error_count: int = 0
    moved_to: str = ""
    #: Number of HTTP requests this check cost (the scalability metric).
    http_requests: int = 0
    #: The URL's host when the check spent HTTP on it: the crawl's
    #: per-host governor meters by it.  Not part of equality or repr.
    host: Optional[str] = field(default=None, compare=False, repr=False)

    @property
    def is_new_to_user(self) -> bool:
        return self.state in (UrlState.CHANGED, UrlState.NEVER_SEEN)


def quarantine_backoff(trip_count: int, base: int) -> int:
    """Seconds to leave a quarantined URL alone: exponential in the
    number of guard trips, capped at 16x the base window.

    A page that served one binary blob gets rechecked after ``base``;
    one that trips the guard every time it is fetched converges to a
    16x-base cadence instead of burning a request per run forever.
    """
    if trip_count <= 0:
        return 0
    return base * min(2 ** (trip_count - 1), 16)


class RunAborted(Exception):
    """Raised when systemic failure makes continuing pointless."""


class SystemicFailureDetector:
    """Abort after too many *consecutive* transport failures.

    Transport failures (not HTTP error statuses) from distinct hosts in
    a row point at the local network or proxy, not at the URLs; w3newer
    should "abort and try again later (preferably in time for the user
    to see an updated report)".

    "Distinct hosts" is load-bearing: a streak of failures from one
    host means *that host* is dead, which is a per-URL problem, not a
    reason to abandon the rest of the hotlist.  The streak escalates to
    :class:`RunAborted` only once it spans at least two hosts — or when
    a failure is inherently systemic (``NetworkUnreachable``, or a
    caller that cannot name the host), which no amount of host
    diversity is needed to confirm.
    """

    def __init__(self, abort_after: int = 5) -> None:
        if abort_after < 1:
            raise ValueError("abort_after must be at least 1")
        self.abort_after = abort_after
        self.consecutive_failures = 0
        self.total_failures = 0
        self._streak_hosts: set = set()
        self._streak_systemic = False

    def record_transport_failure(self, host: Optional[str] = None,
                                 systemic: bool = False) -> None:
        self.consecutive_failures += 1
        self.total_failures += 1
        if systemic or host is None:
            self._streak_systemic = True
        else:
            self._streak_hosts.add(host.lower())
        if self.consecutive_failures >= self.abort_after and (
            self._streak_systemic or len(self._streak_hosts) >= 2
        ):
            raise RunAborted(
                f"{self.consecutive_failures} consecutive transport failures "
                f"across {max(len(self._streak_hosts), 1)} host(s); "
                "local network or proxy trouble — aborting this run"
            )

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self._streak_hosts.clear()
        self._streak_systemic = False
