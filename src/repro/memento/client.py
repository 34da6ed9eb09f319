"""Client side of the Memento conversation.

A :class:`MementoClient` speaks RFC 7089 *to a remote archive* over
any agent with the ``get(url, headers=...)`` surface — the plain
:class:`~repro.web.client.UserAgent` or the retrying, circuit-breaking
:class:`~repro.web.resilience.ResilientAgent` — and never touches the
remote's store objects: everything it knows arrives as link-format
bodies and ``Memento-Datetime`` headers, exactly what a 2010s Memento
client got from a real archive.

The agent's redirect-following does the heavy lifting: a TimeGate
negotiation is one ``GET`` with an ``Accept-Datetime`` header, and the
302 lands the client on the memento automatically, with the hop
recorded in the :class:`~repro.web.client.FetchResult` trail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..web.http import format_http_date, parse_http_date
from ..web.url import canonical_url, join_url, parse_url
from .core import (
    ACCEPT_DATETIME,
    MEMENTO_DATETIME,
    TimeMap,
    parse_link_header,
    parse_timemap,
    timegate_uri,
    timemap_uri,
    validate_policy,
)

__all__ = ["MementoClient", "MementoFetch", "MementoClientError"]


class MementoClientError(Exception):
    """The remote archive refused or garbled a Memento exchange."""

    def __init__(self, message: str, status: Optional[int] = None) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class MementoFetch:
    """One retrieved memento: the body plus its protocol metadata."""

    #: The original resource (URI-R) the memento is a capture of.
    original: str
    #: The URI-M the negotiation (or TimeMap walk) landed on.
    uri: str
    #: The capture instant, from the ``Memento-Datetime`` header.
    datetime: Optional[int]
    body: str
    #: Redirect hops the agent followed (the TimeGate 302, typically).
    redirects: List[str] = field(default_factory=list)
    #: Link-header relations the memento carried (first/last/prev/next).
    links: list = field(default_factory=list)

    @property
    def datetime_string(self) -> str:
        return format_http_date(self.datetime) if self.datetime is not None else ""


class MementoClient:
    """Datetime negotiation against one remote archive.

    ``endpoint`` is the archive's snapshot script as an absolute URL
    (``http://archive.example/cgi-bin/snapshot``); the relative URI-Ms
    a remote TimeMap lists are resolved against it.
    """

    def __init__(self, agent, endpoint: str, source: str = "remote",
                 timeout: Optional[int] = None) -> None:
        self.agent = agent
        self.endpoint = canonical_url(endpoint)
        #: Label stamped on every memento learned from this archive.
        self.source = source
        self.timeout = timeout

    # ------------------------------------------------------------------
    def _absolute(self, uri: str) -> str:
        """Resolve a (possibly relative) URI against the endpoint."""
        return str(join_url(parse_url(self.endpoint), uri).normalized())

    def _get(self, uri: str, headers=None):
        return self.agent.get(self._absolute(uri), timeout=self.timeout,
                              headers=headers)

    # ------------------------------------------------------------------
    def timemap(self, url: str) -> TimeMap:
        """Fetch and parse the remote's TimeMap of ``url``."""
        result = self._get(timemap_uri(self.endpoint, url))
        response = result.response
        if response.status != 200:
            raise MementoClientError(
                f"TimeMap of {url} from {self.endpoint}: HTTP "
                f"{response.status}", status=response.status,
            )
        timemap = parse_timemap(response.body, source=self.source)
        timemap.mementos = [
            # Remote URI-Ms come out relative to the remote script;
            # absolutize so a federation layer can fetch them directly.
            type(m)(datetime=m.datetime, uri=self._absolute(m.uri),
                    revision=m.revision, source=m.source)
            for m in timemap.mementos
        ]
        return timemap

    def memento_at(self, url: str, target: int,
                   policy: str = "past") -> MementoFetch:
        """Negotiate: the remote's memento of ``url`` at ``target``.

        One GET on the URI-G with ``Accept-Datetime``; the agent
        follows the 302 to the URI-M.  A 406 (nothing satisfies the
        policy) or 404 (never archived there) raises
        :class:`MementoClientError` with the status attached, so a
        federation layer can fall through to another archive.
        """
        validate_policy(policy)
        gate = timegate_uri(self.endpoint, url)
        if policy != "past":
            gate += f"&policy={policy}"
        headers = _headers_with(ACCEPT_DATETIME, format_http_date(target))
        return self._finish(url, self._get(gate, headers=headers))

    def newest(self, url: str) -> MementoFetch:
        """The remote's most recent memento (no Accept-Datetime)."""
        return self._finish(url, self._get(timegate_uri(self.endpoint, url)))

    def fetch(self, uri_m: str, original: str = "") -> MementoFetch:
        """Retrieve one URI-M learned from a TimeMap."""
        return self._finish(original, self._get(uri_m))

    # ------------------------------------------------------------------
    def _finish(self, url: str, result) -> MementoFetch:
        response = result.response
        if response.status != 200:
            raise MementoClientError(
                f"memento of {url} from {self.endpoint}: HTTP "
                f"{response.status}", status=response.status,
            )
        return MementoFetch(
            original=url,
            uri=str(result.url),
            datetime=parse_http_date(response.headers.get(MEMENTO_DATETIME)),
            body=response.body,
            redirects=list(result.redirects),
            links=parse_link_header(response.headers.get("Link", "")),
        )


def _headers_with(name: str, value: str):
    """A fresh Headers carrying one field (import kept local so this
    module stays usable by agents with duck-typed header classes)."""
    from ..web.http import Headers

    headers = Headers()
    headers.set(name, value)
    return headers
