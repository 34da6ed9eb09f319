"""URL-minder: the centralized checksum-and-email service (1995).

Section 2.1: "URL-minder... runs as a service on the W3 itself and
sends email when a page changes.  Unlike the tools that run on the
user's host... URL-minder acts on URLs provided explicitly by a user
via an HTML form.  Centralizing the update checks on a W3 server has
the advantage of polling hosts only once regardless of the number of
users interested...  URL-minder uses a checksum of the content of a
page... [and] checks pages with an arbitrary frequency that is
guaranteed to be at least as often as some threshold, such as a week."

The deficiency AIDE fixes is also faithful: the email says *that* the
page changed, never *how*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from ..core.w3newer.checker import content_checksum
from ..simclock import WEEK, CronScheduler, SimClock, format_timestamp
from ..web.client import UserAgent
from ..web.http import NetworkError

__all__ = ["UrlMinder", "Email"]


@dataclass(frozen=True)
class Email:
    """A change notification.  Note what is absent: any description of
    the modification — the deficiency motivating HtmlDiff."""

    to: str
    url: str
    sent_at: int

    @property
    def body(self) -> str:
        return (
            f"The URL-minder has detected a change in the Web page\n"
            f"   {self.url}\n"
            f"as of {format_timestamp(self.sent_at)}.\n"
            "Visit the page to see what is different.\n"
        )


class UrlMinder:
    """Centralized checksum poller with email notifications."""

    def __init__(self, clock: SimClock, agent: UserAgent,
                 poll_period: int = WEEK) -> None:
        self.clock = clock
        self.agent = agent
        self.poll_period = poll_period
        self._subscribers: Dict[str, Set[str]] = {}  # url -> users
        self._checksums: Dict[str, str] = {}
        self.outbox: List[Email] = []
        self.polls = 0

    # ------------------------------------------------------------------
    def register(self, user_email: str, url: str) -> None:
        """The HTML-form registration ("cumbersome", but here we are)."""
        self._subscribers.setdefault(url, set()).add(user_email)

    # ------------------------------------------------------------------
    def poll(self) -> int:
        """One sweep: each URL fetched once regardless of subscribers.

        Returns the number of change emails sent.
        """
        self.polls += 1
        sent = 0
        for url, users in sorted(self._subscribers.items()):
            try:
                result = self.agent.get(url)
            except NetworkError:
                continue
            if not result.response.ok:
                continue
            checksum = content_checksum(result.response.body)
            previous = self._checksums.get(url)
            self._checksums[url] = checksum
            if previous is not None and checksum != previous:
                for user in sorted(users):
                    self.outbox.append(
                        Email(to=user, url=url, sent_at=self.clock.now)
                    )
                    sent += 1
        return sent

    def schedule(self, cron: CronScheduler):
        return cron.schedule(self.poll_period, lambda now: self.poll(),
                             name="url-minder")
