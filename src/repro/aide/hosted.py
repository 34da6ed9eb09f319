"""Hosted w3newer: tracking as a service (paper Section 7).

"Adoption by others has been harder, and the reason we hear back from
prospective users is nearly always the same: it is too time-consuming
to install w3newer on one's own machine.  This reluctance is the
primary motivation for moving the functionality of w3newer into the
AIDE server."

:class:`HostedTrackerService` is that server-side w3newer: users upload
their hotlist (and optionally a threshold configuration) through a CGI
form; the service runs one shared checking pass per cycle — each URL
checked once however many users list it (the §8.3 economics) — and
serves every user a personal report on demand.

The decoupling caveat of §8.3 is inherited: the server cannot see the
user's browser history, so "seen" means "the user acknowledged the page
through the service" (the report's ``[Mark seen]`` link), not "the user
browsed it".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..core.w3newer.checker import content_checksum
from ..core.w3newer.hotlist import Hotlist
from ..core.w3newer.thresholds import ThresholdConfig
from ..html.entities import encode_entities
from ..simclock import NEVER, CronScheduler, SimClock, format_timestamp
from ..web.cgi import encode_query_string, request_params
from ..web.client import UserAgent
from ..web.http import NetworkError, Request, Response, make_response

__all__ = ["HostedTrackerService", "HostedReportRow"]


@dataclass
class _PageState:
    checksum: Optional[str] = None
    last_modified: Optional[int] = None
    last_changed: Optional[int] = None
    last_checked: Optional[int] = None
    error: str = ""


@dataclass
class HostedReportRow:
    url: str
    title: str
    changed_since_ack: bool
    last_changed: Optional[int]
    error: str = ""


class HostedTrackerService:
    """Server-side w3newer with per-user hotlists and shared checking."""

    def __init__(
        self,
        clock: SimClock,
        agent: UserAgent,
        config: Optional[ThresholdConfig] = None,
        script_path: str = "/cgi-bin/w3newer",
    ) -> None:
        self.clock = clock
        self.agent = agent
        self.config = config or ThresholdConfig.default_config()
        self.script_path = script_path
        self._hotlists: Dict[str, Hotlist] = {}
        self._acks: Dict[str, Dict[str, int]] = {}  # user -> url -> ack time
        self._pages: Dict[str, _PageState] = {}
        self.check_cycles = 0

    # ------------------------------------------------------------------
    # Registration and checking
    # ------------------------------------------------------------------
    def upload_hotlist(self, user: str, hotlist_text: str,
                       fmt: str = "lines") -> int:
        """Store a user's hotlist (Netscape, Mosaic, or plain lines).

        Returns the number of entries accepted.
        """
        if fmt == "netscape":
            hotlist = Hotlist.from_netscape_html(hotlist_text)
        elif fmt == "mosaic":
            hotlist = Hotlist.from_mosaic(hotlist_text)
        elif fmt == "lines":
            hotlist = Hotlist.from_lines(hotlist_text)
        else:
            raise ValueError(f"unknown hotlist format: {fmt}")
        self._hotlists[user] = hotlist
        return len(hotlist)

    def tracked_urls(self) -> Set[str]:
        urls: Set[str] = set()
        for hotlist in self._hotlists.values():
            urls.update(hotlist.urls())
        return urls

    def check_cycle(self) -> int:
        """One shared pass: every distinct URL checked at most once.

        Thresholds apply server-side: a URL is skipped while its most
        recent check is younger than its threshold (first matching rule,
        as in the client configuration).  Returns the number of URLs
        actually fetched.
        """
        self.check_cycles += 1
        now = self.clock.now
        fetched = 0
        for url in sorted(self.tracked_urls()):
            threshold = self.config.threshold_for(url)
            if threshold == NEVER:
                continue
            state = self._pages.setdefault(url, _PageState())
            if (
                threshold > 0
                and state.last_checked is not None
                and now - state.last_checked < threshold
            ):
                continue
            fetched += 1
            self._check_one(url, state)
        return fetched

    def _check_one(self, url: str, state: _PageState) -> None:
        now = self.clock.now
        try:
            result = self.agent.get(url)
        except NetworkError as exc:
            state.error = str(exc)
            return
        if not result.response.ok:
            state.error = f"HTTP {result.response.status}"
            return
        state.error = ""
        state.last_checked = now
        state.last_modified = result.response.last_modified
        checksum = content_checksum(result.response.body)
        if state.checksum is not None and checksum != state.checksum:
            state.last_changed = now
        state.checksum = checksum

    def schedule(self, cron: CronScheduler, period: int):
        return cron.schedule(period, lambda now: self.check_cycle(),
                             name="hosted-w3newer")

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def acknowledge(self, user: str, url: str) -> None:
        """The user caught up on a page (the [Mark seen] link)."""
        self._acks.setdefault(user, {})[url] = self.clock.now

    def report_rows(self, user: str) -> List[HostedReportRow]:
        hotlist = self._hotlists.get(user)
        if hotlist is None:
            return []
        acks = self._acks.get(user, {})
        rows = []
        for entry in hotlist:
            state = self._pages.get(entry.url, _PageState())
            ack = acks.get(entry.url)
            if state.last_changed is None:
                changed = ack is None and state.checksum is not None
            else:
                changed = ack is None or state.last_changed > ack
            rows.append(HostedReportRow(
                url=entry.url,
                title=entry.display_title(),
                changed_since_ack=changed,
                last_changed=state.last_changed,
                error=state.error,
            ))
        rows.sort(key=lambda row: (not row.changed_since_ack,
                                   -(row.last_changed or 0), row.url))
        return rows

    def report_html(self, user: str) -> str:
        rows = self.report_rows(user)
        items = []
        for row in rows:
            flag = "<B>[changed]</B> " if row.changed_since_ack else ""
            detail = ""
            if row.last_changed is not None:
                detail = f" &#183; changed {format_timestamp(row.last_changed)}"
            if row.error:
                detail = f" &#183; {encode_entities(row.error)}"
            ack_query = encode_query_string(
                {"action": "ack", "user": user, "url": row.url}
            )
            items.append(
                f'<LI>{flag}<A HREF="{encode_entities(row.url, quote=True)}">'
                f"{encode_entities(row.title)}</A>{detail} "
                f'<A HREF="{self.script_path}?{ack_query}">[Mark seen]</A>'
            )
        changed = sum(1 for row in rows if row.changed_since_ack)
        return (
            "<HTML><HEAD><TITLE>AIDE hosted tracking</TITLE></HEAD><BODY>"
            f"<H1>What's new for {encode_entities(user)}</H1>"
            f"<P>{len(rows)} URLs tracked, {changed} changed.</P>"
            f"<UL>{''.join(items)}</UL></BODY></HTML>"
        )

    # ------------------------------------------------------------------
    # CGI face
    # ------------------------------------------------------------------
    def __call__(self, request: Request, now: int) -> Response:
        params = request_params(request)
        action = params.get("action", "report")
        user = params.get("user", "")
        if not user:
            return make_response(400, "<P>user is required</P>")
        if action == "upload":
            hotlist_text = params.get("hotlist", "")
            fmt = params.get("format", "lines")
            try:
                count = self.upload_hotlist(user, hotlist_text, fmt=fmt)
            except ValueError as exc:
                return make_response(400, f"<P>{encode_entities(str(exc))}</P>")
            report_query = encode_query_string(
                {"action": "report", "user": user})
            return make_response(
                200, f"<P>Hotlist stored: {count} entries. Reports at "
                     f'<A HREF="{self.script_path}?{report_query}">'
                     "your report page</A>.</P>"
            )
        if action == "ack":
            url = params.get("url", "")
            if not url:
                return make_response(400, "<P>url is required</P>")
            self.acknowledge(user, url)
            return make_response(200, "<P>Marked as seen.</P>")
        if action == "report":
            return make_response(200, self.report_html(user))
        return make_response(
            400, f"<P>unknown action {encode_entities(repr(action))}</P>")
