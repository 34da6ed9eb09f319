"""w3newer's between-runs state.

The first of the checker's modification-date sources is "a cached
modification date from previous runs of w3newer"; the robot-exclusion
verdicts are likewise cached ("If a URL is inaccessible to robots, that
fact is cached so the page is not accessed again unless a special flag
is set"), and error counts accumulate so the report can tell the user a
URL "repeatedly hits errors".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from ...web.url import canonical_url

__all__ = ["UrlRecord", "StatusCache"]


@dataclass
class UrlRecord:
    """Everything w3newer remembers about one URL."""

    url: str
    #: The page's Last-Modified as last learned, and when we learned it.
    modification_date: Optional[int] = None
    date_obtained_at: Optional[int] = None
    #: When we last spent a direct HTTP request on this URL.
    last_http_check: Optional[int] = None
    #: Content checksum for pages without Last-Modified.
    checksum: Optional[str] = None
    checksum_obtained_at: Optional[int] = None
    #: robots.txt said no; sticky until --ignore-robots.
    robot_forbidden: bool = False
    #: Consecutive errors (reset on any success).
    error_count: int = 0
    last_error: str = ""
    #: A 301 told us where the page went.
    moved_to: str = ""
    #: When the page was last *observed to change* (the Last-Modified
    #: advancing, or a checksum mismatch) — the change-rate estimator's
    #: per-URL evidence, persisted with the rest of the record.
    last_change_at: Optional[int] = None
    #: Consecutive content-guard trips (drives the quarantine backoff)
    #: and when the last one happened.  Cleared only when a fetch is
    #: admitted cleanly — unlike ``error_count``, a successful HEAD does
    #: not vouch for the body.
    quarantine_count: int = 0
    quarantined_at: Optional[int] = None

    def record_success(self) -> None:
        self.error_count = 0
        self.last_error = ""

    def record_quarantine(self, message: str, at: int) -> None:
        self.quarantine_count += 1
        self.quarantined_at = at
        self.last_error = message

    def clear_quarantine(self) -> None:
        self.quarantine_count = 0
        self.quarantined_at = None

    def record_error(self, message: str) -> None:
        self.error_count += 1
        self.last_error = message

    def note_change(self, at: int) -> None:
        """Record an observed change instant (monotone latest-wins)."""
        if self.last_change_at is None or at > self.last_change_at:
            self.last_change_at = at


class StatusCache:
    """URL-keyed persistent store for :class:`UrlRecord`."""

    def __init__(self) -> None:
        self._records: Dict[str, UrlRecord] = {}

    def record_for(self, url: str) -> UrlRecord:
        key = canonical_url(url)
        record = self._records.get(key)
        if record is None:
            record = UrlRecord(url=key)
            self._records[key] = record
        return record

    def peek(self, url: str) -> Optional[UrlRecord]:
        """The record if one exists; never creates."""
        return self._records.get(canonical_url(url))

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> Iterator[UrlRecord]:
        return iter(self._records.values())

    def clear_robot_verdicts(self) -> None:
        """The 'special flag': forget cached robot exclusions."""
        for record in self._records.values():
            record.robot_forbidden = False

    # ------------------------------------------------------------------
    # Persistence (w3newer keeps this across cron runs)
    # ------------------------------------------------------------------
    def serialize(self) -> str:
        """A line-per-URL text format, ``|``-separated fields.

        The tenth field (``last_change_at``) was added for the change-
        rate estimator, and the eleventh/twelfth
        (``quarantine_count``/``quarantined_at``) for the content-guard
        quarantine; :meth:`deserialize` still accepts the legacy nine-
        and ten-field forms, so old cache files load cleanly.
        """
        lines = []
        for key in sorted(self._records):
            r = self._records[key]
            lines.append(
                "|".join(
                    [
                        r.url,
                        _opt(r.modification_date),
                        _opt(r.date_obtained_at),
                        _opt(r.last_http_check),
                        r.checksum or "-",
                        _opt(r.checksum_obtained_at),
                        "R" if r.robot_forbidden else "-",
                        str(r.error_count),
                        r.moved_to or "-",
                        _opt(r.last_change_at),
                        str(r.quarantine_count),
                        _opt(r.quarantined_at),
                    ]
                )
            )
        return "\n".join(lines)

    @classmethod
    def deserialize(cls, text: str) -> "StatusCache":
        cache = cls()
        for line in text.splitlines():
            parts = line.split("|")
            if len(parts) not in (9, 10, 12):
                continue
            record = cache.record_for(parts[0])
            record.modification_date = _parse_opt(parts[1])
            record.date_obtained_at = _parse_opt(parts[2])
            record.last_http_check = _parse_opt(parts[3])
            record.checksum = None if parts[4] == "-" else parts[4]
            record.checksum_obtained_at = _parse_opt(parts[5])
            record.robot_forbidden = parts[6] == "R"
            try:
                record.error_count = int(parts[7])
            except ValueError:
                record.error_count = 0
            record.moved_to = "" if parts[8] == "-" else parts[8]
            if len(parts) >= 10:
                record.last_change_at = _parse_opt(parts[9])
            if len(parts) == 12:
                try:
                    record.quarantine_count = int(parts[10])
                except ValueError:
                    record.quarantine_count = 0
                record.quarantined_at = _parse_opt(parts[11])
        return cache


def _opt(value: Optional[int]) -> str:
    return "-" if value is None else str(value)


def _parse_opt(text: str) -> Optional[int]:
    if text == "-":
        return None
    try:
        return int(text)
    except ValueError:
        return None
