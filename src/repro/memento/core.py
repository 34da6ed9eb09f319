"""Memento protocol core (RFC 7089): vocabulary, negotiation, links.

Everything here is pure data-in/data-out — no store, no network — so
it is shared by all four parties of a Memento conversation:

* the archive (:meth:`~repro.rcs.archive.RcsArchive.revision_at`
  delegates its boundary semantics to :func:`resolve_datetime`);
* the server endpoints (:mod:`repro.memento.endpoints`);
* the client (:mod:`repro.memento.client`) parsing what a *different*
  implementation serialized;
* the federation layer merging TimeMaps from several archives.

Datetime values on the wire are RFC 1123 HTTP dates
(:func:`repro.web.http.format_http_date`); in memory they are plain
simulation timestamps, like everywhere else in the reproduction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..web.http import format_http_date, parse_http_date

__all__ = [
    "ACCEPT_DATETIME",
    "MEMENTO_DATETIME",
    "LINK_FORMAT",
    "POLICIES",
    "NegotiationError",
    "validate_policy",
    "resolve_datetime",
    "LinkEntry",
    "format_link_header",
    "parse_link_header",
    "Memento",
    "TimeMap",
    "format_timemap",
    "parse_timemap",
    "timegate_uri",
    "timemap_uri",
    "memento_uri",
]

#: Request header carrying the desired datetime (RFC 7089 §2.1.1).
ACCEPT_DATETIME = "Accept-Datetime"
#: Response header stamping a memento's archival datetime (§2.1.1).
MEMENTO_DATETIME = "Memento-Datetime"
#: Media type of a serialized TimeMap (§5).
LINK_FORMAT = "application/link-format"

#: Negotiation policies, the centralized ``view_at`` semantics:
#:
#: * ``past``  — newest memento at or before the target; nothing that
#:   old → no match.  Exactly the paper's §2.2 time travel and the
#:   spoiler-avoidance pin (never serve anything newer than asked).
#: * ``nearest`` — minimal ``|datetime - target|``; ties and
#:   before-first-memento resolve to the *older* side (still never
#:   skipping past the pin by more than the gap demands).  RFC 7089's
#:   recommended TimeGate behaviour.
#: * ``exact`` — only a memento stamped at precisely the target.
POLICIES = ("past", "nearest", "exact")


class NegotiationError(ValueError):
    """An unusable negotiation input (unknown policy, bad datetime)."""


def validate_policy(policy: str) -> str:
    """Return ``policy`` if it is a known negotiation policy, else
    raise :class:`NegotiationError` naming the valid ones."""
    if policy not in POLICIES:
        raise NegotiationError(
            f"unknown negotiation policy {policy!r} (want one of "
            f"{', '.join(POLICIES)})"
        )
    return policy


def resolve_datetime(
    dates: Sequence[int],
    target: int,
    policy: str = "past",
    monotonic: Optional[bool] = None,
) -> Optional[int]:
    """Index into ``dates`` of the memento the policy selects, or None.

    ``dates`` is a sequence of datestamps in *revision order* (oldest
    checked in first).  When they are non-decreasing the resolution
    bisects; a history whose clock ran backwards (Section 4.1's
    non-monotonic timestamps) falls back to one linear scan with the
    same last-match-wins semantics the paper's scan had.  Pass
    ``monotonic`` when the caller already tracks it (the archive
    does); None re-derives it.

    Boundary semantics, pinned deliberately:

    * an exact-timestamp hit returns that revision under every policy
      (the *newest* one, if several share the stamp);
    * ``target`` before the first date → None under ``past``/``exact``
      and the **first** revision under ``nearest``;
    * ``nearest`` ties (equidistant neighbours) resolve to the older
      revision.
    """
    validate_policy(policy)
    if not dates:
        return None
    if monotonic is None:
        monotonic = all(a <= b for a, b in zip(dates, dates[1:]))

    if monotonic:
        from bisect import bisect_right

        pos = bisect_right(dates, target)
        past_index = pos - 1 if pos else None
    else:
        past_index = None
        for index, date in enumerate(dates):
            if date <= target:
                past_index = index

    if policy == "past":
        return past_index
    if policy == "exact":
        if monotonic:
            if past_index is not None and dates[past_index] == target:
                return past_index
            return None
        # Out-of-order stamps: an exact hit may not be the scan's
        # "past" winner; look for the stamp itself, newest-revision
        # first (same shared-stamp tie-break as the monotonic path).
        for index in range(len(dates) - 1, -1, -1):
            if dates[index] == target:
                return index
        return None
    # nearest
    if past_index is None:
        # Everything is newer than the target: the first revision is
        # the closest from the only available side.
        if monotonic:
            return 0
        return min(range(len(dates)), key=lambda i: (dates[i], i))
    if dates[past_index] == target:
        return past_index
    if monotonic:
        after_index = past_index + 1 if past_index + 1 < len(dates) else None
    else:
        after_index = None
        best_after = None
        for index, date in enumerate(dates):
            if date > target and (best_after is None or date < best_after):
                best_after = date
                after_index = index
    if after_index is None:
        return past_index
    before_gap = target - dates[past_index]
    after_gap = dates[after_index] - target
    # The tie goes to the older side: a pinned viewer would rather see
    # a slightly stale page than one from the future.
    return past_index if before_gap <= after_gap else after_index


# ----------------------------------------------------------------------
# Link headers (RFC 5988 syntax, RFC 7089 relations)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LinkEntry:
    """One link-value: ``<target>; rel="..."`` plus optional params."""

    target: str
    rel: str
    #: ``datetime="..."`` attribute (mementos only), as a sim timestamp.
    datetime: Optional[int] = None
    #: ``type="..."`` attribute (the timemap link advertises
    #: ``application/link-format``).
    type: Optional[str] = None

    def format(self) -> str:
        parts = [f"<{self.target}>", f'rel="{self.rel}"']
        if self.datetime is not None:
            parts.append(f'datetime="{format_http_date(self.datetime)}"')
        if self.type is not None:
            parts.append(f'type="{self.type}"')
        return "; ".join(parts)


def format_link_header(entries: Sequence[LinkEntry]) -> str:
    """Serialize link-values into one ``Link`` header string."""
    return ", ".join(entry.format() for entry in entries)


#: The comma-splitting happened already (quote-aware), so the params
#: portion of one link-value is simply everything after ``<target>``.
_LINK_VALUE_RE = re.compile(r"\s*<([^>]*)>\s*(.*)$", re.S)
_LINK_PARAM_RE = re.compile(r';\s*([A-Za-z][A-Za-z0-9-]*)\s*=\s*(?:"([^"]*)"|([^;,\s]+))')


def _split_link_values(text: str) -> List[str]:
    """Split a Link header (or link-format body) on the commas that
    separate link-values — not the commas inside quoted datetimes, nor
    those inside a ``<target>`` (commas are legal in URIs, RFC 3986
    sub-delims, and a ``"`` there opens no quoted string)."""
    values: List[str] = []
    in_quote = in_target = False
    current = []
    for ch in text:
        if in_target:
            in_target = ch != ">"
        elif ch == "<" and not in_quote:
            in_target = True
        elif ch == '"':
            in_quote = not in_quote
        elif ch == "," and not in_quote:
            values.append("".join(current))
            current = []
            continue
        current.append(ch)
    if current:
        values.append("".join(current))
    return [value for value in (v.strip() for v in values) if value]


def parse_link_header(text: str) -> List[LinkEntry]:
    """Parse a ``Link`` header (or TimeMap body) into entries.

    Tolerant the way a client must be: unknown parameters are ignored,
    a link-value with several ``rel`` tokens (``rel="original
    timegate"``) yields one entry per token, unparseable datetimes
    leave ``datetime=None``.
    """
    entries: List[LinkEntry] = []
    for value in _split_link_values(text or ""):
        match = _LINK_VALUE_RE.match(value)
        if not match:
            continue
        target = match.group(1).strip()
        params: Dict[str, str] = {}
        for pmatch in _LINK_PARAM_RE.finditer(match.group(2) or ""):
            name = pmatch.group(1).lower()
            params.setdefault(name, pmatch.group(2) or pmatch.group(3) or "")
        rels = params.get("rel", "").split()
        if not target or not rels:
            continue
        datetime_ts = parse_http_date(params.get("datetime"))
        for rel in rels:
            entries.append(LinkEntry(
                target=target, rel=rel, datetime=datetime_ts,
                type=params.get("type"),
            ))
    return entries


# ----------------------------------------------------------------------
# Mementos and TimeMaps
# ----------------------------------------------------------------------
@dataclass(frozen=True, order=True)
class Memento:
    """One archived state of the original resource.

    Ordering is (datetime, uri) so merged TimeMaps sort stably; the
    ``revision`` is the local archive's trunk number when known and
    ``""`` for mementos learned from a remote TimeMap.
    """

    datetime: int
    uri: str
    revision: str = ""
    #: Which archive holds it — ``"local"`` or the remote's label;
    #: federation fills this in when merging.
    source: str = field(default="local", compare=False)

    @property
    def datetime_string(self) -> str:
        return format_http_date(self.datetime)


@dataclass
class TimeMap:
    """Everything known about one original resource's mementos."""

    original: str
    timegate: str
    timemap: str
    mementos: List[Memento] = field(default_factory=list)

    @property
    def first(self) -> Optional[Memento]:
        return self.mementos[0] if self.mementos else None

    @property
    def last(self) -> Optional[Memento]:
        return self.mementos[-1] if self.mementos else None

    def sorted(self) -> "TimeMap":
        """A copy with mementos in (datetime, uri) order — the order a
        serialized TimeMap lists them in."""
        return replace(self, mementos=sorted(self.mementos))

    def at(self, target: int, policy: str = "past") -> Optional[Memento]:
        """The memento the negotiation policy selects, or None.

        The same :func:`resolve_datetime` the archive and the TimeGate
        use — a client negotiating locally over a fetched TimeMap gets
        the byte-identical answer the server would have redirected to.
        """
        ordered = sorted(self.mementos)
        index = resolve_datetime(
            [m.datetime for m in ordered], target, policy, monotonic=True
        )
        return ordered[index] if index is not None else None

    def neighbours(
        self, memento: Memento
    ) -> Tuple[Optional[Memento], Optional[Memento]]:
        """(prev, next) mementos around ``memento`` in datetime order."""
        ordered = sorted(self.mementos)
        try:
            index = ordered.index(memento)
        except ValueError:
            return None, None
        prev_m = ordered[index - 1] if index > 0 else None
        next_m = ordered[index + 1] if index + 1 < len(ordered) else None
        return prev_m, next_m


def format_timemap(timemap: TimeMap) -> str:
    """Serialize a TimeMap as an ``application/link-format`` body.

    One link-value per line (the trailing comma separates them), the
    RFC 7089 §5 shape: original, self, timegate, then every memento
    with its datetime; the oldest and newest also carry ``first`` /
    ``last`` relations.
    """
    ordered = sorted(timemap.mementos)
    entries: List[LinkEntry] = [
        LinkEntry(timemap.original, "original"),
        LinkEntry(timemap.timemap, "self", type=LINK_FORMAT),
        LinkEntry(timemap.timegate, "timegate"),
    ]
    for index, memento in enumerate(ordered):
        rels = []
        if index == 0:
            rels.append("first")
        if index == len(ordered) - 1:
            rels.append("last")
        rels.append("memento")
        entries.append(LinkEntry(memento.uri, " ".join(rels),
                                 datetime=memento.datetime))
    return ",\n".join(entry.format() for entry in entries) + "\n"


def parse_timemap(body: str, source: str = "remote") -> TimeMap:
    """Parse an ``application/link-format`` TimeMap body.

    The inverse of :func:`format_timemap`, but tolerant of any RFC 7089
    serialization: relations may come in any order, ``first``/``last``
    markers are advisory (the datetimes are authoritative), and the
    revision number is recovered from CGI-style URI-Ms when present
    (``...&rev=1.7``) so a local client round-trips losslessly.
    """
    original = timegate = timemap_uri = ""
    mementos: List[Memento] = []
    for entry in parse_link_header(body):
        if entry.rel == "original":
            original = original or entry.target
        elif entry.rel == "timegate":
            timegate = timegate or entry.target
        elif entry.rel == "self":
            timemap_uri = timemap_uri or entry.target
        elif entry.rel == "memento" and entry.datetime is not None:
            mementos.append(Memento(
                datetime=entry.datetime,
                uri=entry.target,
                revision=_revision_of_uri(entry.target),
                source=source,
            ))
    return TimeMap(
        original=original, timegate=timegate, timemap=timemap_uri,
        mementos=sorted(set(mementos)),
    )


_REV_PARAM_RE = re.compile(r"[?&]rev=([^&]+)")


def _revision_of_uri(uri: str) -> str:
    match = _REV_PARAM_RE.search(uri)
    return match.group(1) if match else ""


# ----------------------------------------------------------------------
# CGI URI templates
# ----------------------------------------------------------------------
def _query(params: Dict[str, str]) -> str:
    from ..web.cgi import encode_query_string

    return encode_query_string(params)


def timegate_uri(script: str, url: str) -> str:
    """URI-G for ``url`` on a snapshot service at ``script``."""
    return f"{script}?{_query({'action': 'timegate', 'url': url})}"


def timemap_uri(script: str, url: str) -> str:
    """URI-T for ``url`` on a snapshot service at ``script``."""
    return f"{script}?{_query({'action': 'timemap', 'url': url})}"


def memento_uri(script: str, url: str, revision: str) -> str:
    """URI-M of one archived revision of ``url``."""
    return f"{script}?{_query({'action': 'memento', 'url': url, 'rev': revision})}"
