"""Server-side URL tracking (paper Section 8.3).

"w3newer could be run on the set of pages that have been saved by the
snapshot daemon.  Regardless of how many users have registered an
interest in a page, it need only be checked once; if changed, the new
version could be saved automatically.  Then a user could request a list
of all pages that have been saved away, and get an indication of which
pages have changed since they were saved by the user."

Also the crawler extension: "it could be further extended to be
integrated with a 'web crawler' and track modifications to pages
pointed to by pages specified by the user" — virtual-library pages and
collections of related pages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..core.snapshot.store import SnapshotError, SnapshotStore
from ..core.w3newer.checker import content_checksum
from ..html.lexer import Tag, tokenize_html
from ..simclock import CronScheduler, SimClock
from ..web.http import NetworkError
from ..web.url import canonical_url, join_url, parse_url

__all__ = ["CentralTracker", "TrackerReportRow", "extract_links"]


def extract_links(html: str, base_url: str) -> List[str]:
    """Absolute HTTP link targets of a page, in document order."""
    base = parse_url(base_url).normalized()
    seen: Set[str] = set()
    links: List[str] = []
    for node in tokenize_html(html):
        if isinstance(node, Tag) and node.name == "A" and not node.closing:
            href = node.attr("HREF")
            if not href:
                continue
            resolved = join_url(base, href).normalized()
            if resolved.scheme != "http":
                continue
            text = str(resolved)
            if text not in seen:
                seen.add(text)
                links.append(text)
    return links


@dataclass
class TrackerReportRow:
    """One row of a user's centralized report."""

    url: str
    changed_since_seen: bool
    head_revision: Optional[str]
    last_changed: Optional[int]
    via: str = "subscribed"  # or "crawled from <root>"


class CentralTracker:
    """Polls each page once for all subscribers; auto-archives changes."""

    def __init__(self, store: SnapshotStore, clock: SimClock) -> None:
        self.store = store
        self.clock = clock
        #: user → the URLs they subscribed to directly.
        self.subscriptions: Dict[str, Set[str]] = {}
        #: root URL → (depth, same host only) crawl configuration.
        self.crawl_roots: Dict[str, tuple] = {}
        #: URL → root it was discovered under.
        self._crawl_origin: Dict[str, str] = {}
        self._checksums: Dict[str, str] = {}
        self._last_changed: Dict[str, int] = {}
        self.poll_count = 0

    # ------------------------------------------------------------------
    def subscribe(self, user: str, url: str) -> None:
        key = canonical_url(url)
        self.subscriptions.setdefault(user, set()).add(key)

    def add_crawl_root(self, user: str, url: str, depth: int = 1,
                       same_host_only: bool = True) -> None:
        """Track a page AND the pages it links to (hierarchically).

        "a single entry in one's hotlist could result in notification
        whenever any of those pages is modified."
        """
        key = canonical_url(url)
        self.subscribe(user, key)
        self.crawl_roots[key] = (depth, same_host_only)

    def tracked_urls(self) -> Set[str]:
        urls: Set[str] = set()
        for subscribed in self.subscriptions.values():
            urls.update(subscribed)
        urls.update(self._crawl_origin.keys())
        return urls

    # ------------------------------------------------------------------
    def poll(self) -> Dict[str, bool]:
        """One sweep: fetch every tracked URL once, expand crawl roots,
        archive changes.  Returns url → changed-this-sweep."""
        self.poll_count += 1
        changed: Dict[str, bool] = {}
        # Crawl expansion happens against the current head contents.
        for root, (depth, same_host) in list(self.crawl_roots.items()):
            self._expand_root(root, depth, same_host)
        for url in sorted(self.tracked_urls()):
            changed[url] = self._poll_one(url)
        return changed

    def _expand_root(self, root: str, depth: int, same_host: bool) -> None:
        frontier = [(root, 0)]
        visited = {root}
        root_host = parse_url(root).host
        while frontier:
            url, level = frontier.pop(0)
            if level >= depth:
                continue
            body = self._fetch_quiet(url)
            if body is None:
                continue
            for link in extract_links(body, url):
                if same_host and parse_url(link).host != root_host:
                    continue
                if link in visited:
                    continue
                visited.add(link)
                self._crawl_origin.setdefault(link, root)
                frontier.append((link, level + 1))

    def _fetch_quiet(self, url: str) -> Optional[str]:
        try:
            result = self.store.agent.get(url)
        except NetworkError:
            return None
        if not result.response.ok:
            return None
        return result.response.body

    def _poll_one(self, url: str) -> bool:
        body = self._fetch_quiet(url)
        if body is None:
            return False
        checksum = content_checksum(body)
        if self._checksums.get(url) == checksum:
            return False
        first_sighting = url not in self._checksums
        self._checksums[url] = checksum
        try:
            self.store.checkin_content("aide-tracker", url, body)
        except SnapshotError:
            return False
        if not first_sighting:
            self._last_changed[url] = self.clock.now
            return True
        return False

    def schedule(self, cron: CronScheduler, period: int):
        return cron.schedule(period, lambda now: self.poll(),
                             name="central-tracker")

    # ------------------------------------------------------------------
    def report_for(self, user: str) -> List[TrackerReportRow]:
        """Which tracked pages changed since this user last saw them?

        The decoupling caveat (Section 8.3) applies: the tracker cannot
        see the user's browser history, so "seen" means "remembered via
        the service", and direct browsing does not count.
        """
        rows: List[TrackerReportRow] = []
        direct = self.subscriptions.get(user, set())
        for url in sorted(direct | {
            u for u, root in self._crawl_origin.items() if root in direct
        }):
            archive = self.store.archives.get(url)
            head = archive.head_revision if archive else None
            seen = self.store.users.last_seen_version(user, url)
            last_changed = self._last_changed.get(url)
            if head is None:
                changed = False
            elif seen is None:
                changed = True  # never seen by this user
            else:
                changed = seen.revision != head
            via = "subscribed" if url in direct else (
                f"crawled from {self._crawl_origin.get(url, '?')}"
            )
            rows.append(
                TrackerReportRow(
                    url=url, changed_since_seen=changed,
                    head_revision=head, last_changed=last_changed, via=via,
                )
            )
        return rows

    def mark_seen(self, user: str, url: str) -> None:
        """The user caught up on a page via the service."""
        key = canonical_url(url)
        archive = self.store.archives.get(key)
        if archive is None or archive.head_revision is None:
            return
        self.store.users.record(user, key, archive.head_revision, self.clock.now)
