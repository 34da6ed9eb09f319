"""Smart Bookmarks / Netscape SmartMarks (First Floor Software, 1995).

Section 2.1: bookmarks are "automatically polled to determine if they
have been modified.  In addition, content providers can optionally
embed bulletins in their pages, which allow short messages about a page
to be displayed in a page that refers to it."

The bulletin extension is modelled as a ``<META NAME="bulletin">`` tag
the poller extracts along with the HEAD information.  The two failure
modes the paper calls out are reproduced measurably:

* timeliness — the bulletin reflects what the *maintainer* considers
  new, not what this user has or hasn't seen;
* opacity — "a bulletin that announces that '10 new links have been
  added' will not point the user to the specific locations".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.w3newer.history import BrowserHistory
from ..core.w3newer.hotlist import Hotlist
from ..html.entities import decode_entities, encode_entities
from ..html.lexer import Tag, tokenize_html
from ..simclock import SimClock
from ..web.client import UserAgent
from ..web.http import NetworkError

__all__ = ["SmartMarks", "SmartMarkRow", "extract_bulletin"]


def extract_bulletin(html: str) -> Optional[str]:
    """The page's embedded bulletin, if the provider supplied one."""
    for node in tokenize_html(html):
        if (
            isinstance(node, Tag)
            and node.name == "META"
            and (node.attr("NAME") or "").lower() == "bulletin"
        ):
            content = node.attr("CONTENT")
            return None if content is None else decode_entities(content)
    return None


@dataclass
class SmartMarkRow:
    """One bookmark's polled status."""

    url: str
    title: str
    changed: bool
    modification_date: Optional[int]
    bulletin: Optional[str] = None
    error: str = ""


class SmartMarks:
    """Bookmark-integrated poller with bulletin display."""

    def __init__(
        self,
        clock: SimClock,
        agent: UserAgent,
        hotlist: Hotlist,
        history: Optional[BrowserHistory] = None,
    ) -> None:
        self.clock = clock
        self.agent = agent
        self.hotlist = hotlist
        # Explicit None check: an empty BrowserHistory is falsy.
        self.history = history if history is not None else BrowserHistory()

    def poll(self) -> List[SmartMarkRow]:
        """Check every bookmark (no thresholds — same frequency for all)."""
        rows = []
        for entry in self.hotlist:
            rows.append(self._poll_one(entry.url, entry.display_title()))
        return rows

    def _poll_one(self, url: str, title: str) -> SmartMarkRow:
        last_seen = self.history.last_seen(url)
        try:
            head = self.agent.head(url)
        except NetworkError as exc:
            return SmartMarkRow(url=url, title=title, changed=False,
                                modification_date=None, error=str(exc))
        if not head.response.ok:
            return SmartMarkRow(
                url=url, title=title, changed=False, modification_date=None,
                error=f"HTTP {head.response.status}",
            )
        mod = head.response.last_modified
        changed = mod is not None and (last_seen is None or mod > last_seen)
        bulletin = None
        if changed:
            # Fetch the page to pick up the provider's bulletin, if any.
            try:
                got = self.agent.get(url)
                if got.response.ok:
                    bulletin = extract_bulletin(got.response.body)
            except NetworkError:
                pass
        return SmartMarkRow(url=url, title=title, changed=changed,
                            modification_date=mod, bulletin=bulletin)

    def render(self, rows: List[SmartMarkRow]) -> str:
        """The bookmark list with change flags and bulletins — what the
        user sees; note there is no pointer to *where* pages changed."""
        items = []
        for row in rows:
            # URL, title, error and bulletin all come from outside
            # (bookmarks, servers, pages): escaped before they are markup.
            flag = "<B>[changed]</B> " if row.changed else ""
            bulletin = (f"<BR><I>{encode_entities(row.bulletin)}</I>"
                        if row.bulletin else "")
            error = f" ({encode_entities(row.error)})" if row.error else ""
            items.append(
                f'<LI>{flag}<A HREF="{encode_entities(row.url, quote=True)}">'
                f"{encode_entities(row.title)}</A>{error}{bulletin}"
            )
        return "<UL>" + "\n".join(items) + "</UL>"
