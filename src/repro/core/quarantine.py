"""The poison-document dead-letter journal.

When a fetch trips a content guard the pipeline refuses the bytes —
the snapshot store rolls the check-in back, w3newer records a
QUARANTINED verdict — but throwing the evidence away would leave the
operator blind.  The :class:`QuarantineJournal` keeps the offending
bytes and the guard verdict per URL, so ``aide quarantine list`` can
show what tripped, ``aide quarantine retry`` can re-validate the
stored bytes against (possibly loosened) limits and release the
survivors, and ``aide quarantine purge`` can drop entries for good.

Persistence is a framed log (:mod:`repro.framedlog`, one JSON object
per frame): :meth:`record` appends one fsynced frame per trip, load
follows every AIDE log's recovery rule, and ``retry``/``purge`` compact
the file atomically.  Everything is deterministic: timestamps come from
the caller's sim clock, entries list in sorted-URL order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .. import framedlog
from ..framedlog import JournalError

__all__ = ["QuarantineEntry", "QuarantineJournal"]


@dataclass
class QuarantineEntry:
    """One quarantined document: the verdict plus the evidence."""

    url: str
    guard: str
    detail: str
    body: str
    #: Sim-clock instant of the most recent trip.
    at: int = 0
    #: How many times this URL has tripped a guard.
    attempts: int = 1
    content_type: str = "text/html"

    def to_json(self) -> str:
        return json.dumps(
            {
                "url": self.url,
                "guard": self.guard,
                "detail": self.detail,
                "body": self.body,
                "at": self.at,
                "attempts": self.attempts,
                "content_type": self.content_type,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: "str | bytes") -> "QuarantineEntry":
        data = json.loads(text)
        return cls(
            url=data["url"],
            guard=data.get("guard", "content"),
            detail=data.get("detail", ""),
            body=data.get("body", ""),
            at=int(data.get("at", 0)),
            attempts=int(data.get("attempts", 1)),
            content_type=data.get("content_type", "text/html"),
        )


def _payload(entry: QuarantineEntry) -> bytes:
    return (entry.to_json() + "\n").encode("utf-8")


class QuarantineJournal:
    """URL-keyed dead letters, optionally persisted as a framed log."""

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        self._entries: Dict[str, QuarantineEntry] = {}
        if path is not None:
            self._load(path)

    # ------------------------------------------------------------------
    def _load(self, path: str) -> None:
        if framedlog.read(path)[:1] == b"{":
            raise JournalError(
                f"{path}: a JSON-lines quarantine file from before the "
                f"framed format; convert or remove it"
            )
        scan = framedlog.recover(path, QuarantineEntry.from_json)
        for entry in scan.entries:
            self._entries[entry.url] = entry

    def _append(self, entry: QuarantineEntry) -> None:
        if self.path is not None:
            framedlog.append(self.path, [_payload(entry)])

    def _rewrite(self) -> None:
        if self.path is not None:
            framedlog.replace(self.path, b"".join(
                framedlog.frame(_payload(self._entries[url]))
                for url in sorted(self._entries)
            ))

    # ------------------------------------------------------------------
    def record(
        self,
        url: str,
        guard: str,
        detail: str,
        body: str,
        at: int = 0,
        content_type: str = "text/html",
    ) -> QuarantineEntry:
        """Note one guard trip; repeated trips accumulate ``attempts``."""
        existing = self._entries.get(url)
        if existing is not None:
            entry = QuarantineEntry(
                url=url, guard=guard, detail=detail, body=body, at=at,
                attempts=existing.attempts + 1, content_type=content_type,
            )
        else:
            entry = QuarantineEntry(
                url=url, guard=guard, detail=detail, body=body, at=at,
                content_type=content_type,
            )
        self._entries[url] = entry
        self._append(entry)
        return entry

    def get(self, url: str) -> Optional[QuarantineEntry]:
        return self._entries.get(url)

    def entries(self) -> List[QuarantineEntry]:
        return [self._entries[url] for url in sorted(self._entries)]

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, url: str) -> bool:
        return url in self._entries

    # ------------------------------------------------------------------
    def purge(self, url: Optional[str] = None) -> int:
        """Drop one entry (or all of them); returns how many went."""
        if url is None:
            dropped = len(self._entries)
            self._entries.clear()
        else:
            dropped = 1 if self._entries.pop(url, None) is not None else 0
        if dropped:
            self._rewrite()
        return dropped

    def retry(
        self, url: Optional[str] = None, limits=None
    ) -> Tuple[List[QuarantineEntry], List[Tuple[QuarantineEntry, str]]]:
        """Re-validate stored bytes; release entries that now pass.

        ``limits`` (a ``GuardLimits``) lets the operator loosen caps
        before retrying.  Returns ``(released, still_bad)`` where each
        still-bad item carries the fresh verdict text.  Released URLs
        leave the journal — their next crawl proceeds normally (the
        checker clears the backoff once a fetch is admitted).
        """
        from ..web.guards import ContentGuard, ContentGuardError, GuardLimits

        guard = ContentGuard(limits or GuardLimits())
        candidates = (
            self.entries() if url is None
            else [e for e in (self.get(url),) if e is not None]
        )
        released: List[QuarantineEntry] = []
        still_bad: List[Tuple[QuarantineEntry, str]] = []
        for entry in candidates:
            try:
                guard.admit_body(entry.url, entry.body, entry.content_type)
            except ContentGuardError as exc:
                still_bad.append((entry, str(exc)))
            else:
                released.append(entry)
                self._entries.pop(entry.url, None)
        if released:
            self._rewrite()
        return released, still_bad

    def stats(self) -> Dict[str, object]:
        by_guard: Dict[str, int] = {}
        for entry in self._entries.values():
            by_guard[entry.guard] = by_guard.get(entry.guard, 0) + 1
        return {
            "entries": len(self._entries),
            "by_guard": dict(sorted(by_guard.items())),
            "attempts": sum(e.attempts for e in self._entries.values()),
        }
