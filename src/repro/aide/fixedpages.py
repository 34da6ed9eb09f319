"""Fixed pages: community "What's New" service (paper Section 8.2).

"AIDE can provide a community of users with specialized 'What's New'
pages that report when any of a fixed set of URLs has been changed.
Rather than having users specify when to archive a new version, each
page is automatically archived as soon as a change is detected."

The collection polls its URL set (one conditional check per URL
regardless of audience size), auto-checks changed pages into the
snapshot store under a service identity, and renders the community
report with Diff/History links.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.snapshot.store import SnapshotError, SnapshotStore
from ..core.w3newer.checker import content_checksum
from ..html.entities import encode_entities
from ..simclock import CronScheduler, SimClock, format_timestamp
from ..web.cgi import encode_query_string
from ..web.http import NetworkError

__all__ = ["FixedPageCollection", "PollResult"]

ARCHIVE_IDENTITY = "aide-archive"


@dataclass
class PollResult:
    """One polling sweep over the collection."""

    when: int
    checked: int = 0
    changed: List[str] = field(default_factory=list)
    errors: Dict[str, str] = field(default_factory=dict)


class FixedPageCollection:
    """A fixed URL set, auto-archived on every detected change."""

    def __init__(
        self,
        store: SnapshotStore,
        clock: SimClock,
        title: str = "What's New",
        snapshot_base: str = "/cgi-bin/snapshot",
    ) -> None:
        self.store = store
        self.clock = clock
        self.title = title
        self.snapshot_base = snapshot_base
        self.urls: List[str] = []
        self._checksums: Dict[str, str] = {}
        self._last_changed: Dict[str, int] = {}
        self.polls: List[PollResult] = []

    def add_url(self, url: str) -> None:
        if url not in self.urls:
            self.urls.append(url)

    # ------------------------------------------------------------------
    def poll(self) -> PollResult:
        """Fetch every URL; archive the ones whose content changed.

        Change detection is checksum-based so pages without
        Last-Modified (CGI output) participate too.
        """
        result = PollResult(when=self.clock.now)
        for url in self.urls:
            result.checked += 1
            try:
                fetch = self.store.agent.get(url)
            except NetworkError as exc:
                result.errors[url] = str(exc)
                continue
            if not fetch.response.ok:
                result.errors[url] = f"HTTP {fetch.response.status}"
                continue
            checksum = content_checksum(fetch.response.body)
            if self._checksums.get(url) == checksum:
                continue
            self._checksums[url] = checksum
            try:
                remembered = self.store.checkin_content(
                    ARCHIVE_IDENTITY, url, fetch.response.body
                )
            except SnapshotError as exc:
                result.errors[url] = str(exc)
                continue
            if remembered.changed or remembered.revision == "1.1":
                result.changed.append(url)
                self._last_changed[url] = self.clock.now
        self.polls.append(result)
        return result

    def schedule(self, cron: CronScheduler, period: int):
        return cron.schedule(period, lambda now: self.poll(),
                             name=f"fixed-pages:{self.title}")

    # ------------------------------------------------------------------
    def whats_new_page(self, since: Optional[int] = None) -> str:
        """The community report: recently changed pages, newest first,
        with Diff and History links into the snapshot service."""
        rows = []
        items = sorted(
            self._last_changed.items(), key=lambda kv: -kv[1]
        )
        for url, changed_at in items:
            if since is not None and changed_at < since:
                continue
            diff_q = encode_query_string(
                {"action": "diff", "url": url, "user": ARCHIVE_IDENTITY}
            )
            hist_q = encode_query_string(
                {"action": "history", "url": url, "user": ARCHIVE_IDENTITY}
            )
            rows.append(
                f'<LI><A HREF="{encode_entities(url, quote=True)}">'
                f"{encode_entities(url)}</A> &#183; "
                f"changed {format_timestamp(changed_at)} "
                f'<A HREF="{self.snapshot_base}?{diff_q}">[Diff]</A> '
                f'<A HREF="{self.snapshot_base}?{hist_q}">[History]</A>'
            )
        body = "".join(rows) or "<LI>(nothing has changed yet)"
        return (
            f"<HTML><HEAD><TITLE>{encode_entities(self.title)}</TITLE></HEAD>"
            f"<BODY><H1>{encode_entities(self.title)}</H1>"
            f"<P>{len(self.urls)} pages tracked.</P><UL>{body}</UL>"
            "</BODY></HTML>"
        )

    # ------------------------------------------------------------------
    def archive_bytes(self) -> int:
        """Disk cost of the auto-archive (the Section 8.2 concern:
        wholesale-replacement pages balloon the archive)."""
        return sum(
            self.store.archive_for(url).size_bytes() for url in self.urls
        )
