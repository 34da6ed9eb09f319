"""Per-user control files: which versions has each user seen?

Paper Section 2.2/4.1: "we wish to track the times at which each user
checked in a page, even if the page hasn't changed between check-ins of
that page by different users.  This is accomplished outside of RCS by
maintaining a per-user control file"; and "in the next version of the
system, a set of version numbers is retained for each <user,URL>
combination.  This removes any confusion that could arise if the
timestamps provided for a page do not increase monotonically."

This module implements the "next version": explicit version-number sets
per <user, URL>, with check-in times, serializable like the on-disk
control files.

Between compactions a sync journals only the stamps recorded since the
last one (:attr:`UserControl.pending`).

Each <user, URL> history is an insertion-ordered ``dict`` keyed by
revision, so a stamp costs O(1) however long the history grows: a
re-stamp updates its entry in place (keeping its position), undoing a
fresh stamp pops the last entry, and the last value is the last seen
version.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = ["UserControl", "SeenVersion"]


@dataclass(frozen=True)
class SeenVersion:
    """One check-in by one user: the revision they saved, and when."""

    revision: str
    when: int


class UserControl:
    """All users' control files (user → URL → revision → seen version,
    in check-in order)."""

    def __init__(self) -> None:
        self._seen: Dict[str, Dict[str, Dict[str, SeenVersion]]] = {}
        #: ``(user, url, revision) -> when`` for every stamp recorded
        #: since the last sync, in first-recorded order; ``None`` once a
        #: stamp was forgotten, because a journal can only add stamps
        #: and the next sync must rewrite the control file whole.
        self.pending: Optional[Dict[Tuple[str, str, str], int]] = {}

    # ------------------------------------------------------------------
    def record(
        self, user: str, url: str, revision: str, when: int
    ) -> Optional[SeenVersion]:
        """Note that ``user`` checked in / saw ``revision`` of ``url``.

        Recording the same revision again updates the time only — the
        paper's point is that a re-save of an unchanged page still
        refreshes the user's "I have seen this" marker.

        Returns the entry this call displaced (the same revision with
        its old timestamp), or ``None`` when the revision is new for
        this <user, URL> — exactly what :meth:`undo_record` needs to
        roll the stamp back.
        """
        if self.pending is not None:
            self.pending[(user, url, revision)] = when
        per_user = self._seen.get(user)
        if per_user is None:
            per_user = self._seen[user] = {}
        versions = per_user.get(url)
        if versions is None:
            versions = per_user[url] = {}
        prior = versions.get(revision)
        versions[revision] = SeenVersion(revision=revision, when=when)
        return prior

    def undo_record(
        self,
        user: str,
        url: str,
        revision: str,
        prior: Optional[SeenVersion],
    ) -> None:
        """Reverse one :meth:`record` call (transaction rollback).

        ``prior`` is :meth:`record`'s return value: ``None`` removes
        the freshly appended entry, a displaced entry restores its old
        timestamp.  A stamp someone else has since rewritten is left
        alone — rollback must never clobber a later transaction.
        """
        versions = self._seen.get(user, {}).get(url)
        if not versions:
            return
        if prior is None:
            if next(reversed(versions)) == revision:
                versions.popitem()
            if not versions:
                self.forget(user, url)
            return
        if revision in versions:
            versions[revision] = prior
            if self.pending is not None:
                self.pending[(user, url, revision)] = prior.when

    def forget(self, user: str, url: str, revision: Optional[str] = None) -> None:
        """Drop seen-version state (fsck repair surface).

        With ``revision`` given, removes that one entry; otherwise the
        whole <user, URL> history.  Empty maps are pruned so a repaired
        control file serializes without ghost lines.
        """
        per_user = self._seen.get(user)
        if per_user is None:
            return
        versions = per_user.get(url)
        if versions is None:
            return
        if versions if revision is None else revision in versions:
            self.pending = None
        if revision is None:
            del per_user[url]
        else:
            versions.pop(revision, None)
            if not versions:
                del per_user[url]
        if not per_user:
            del self._seen[user]

    def versions_seen(self, user: str, url: str) -> List[SeenVersion]:
        """All versions this user has seen of this URL (check-in order)."""
        return list(self._seen.get(user, {}).get(url, {}).values())

    def last_seen_version(self, user: str, url: str) -> Optional[SeenVersion]:
        versions = self._seen.get(user, {}).get(url)
        return next(reversed(versions.values())) if versions else None

    def users_tracking(self, url: str) -> List[str]:
        """Who has registered an interest in this page.

        The privacy surface Section 4.2 worries about: "Browsing the
        repository can... indicate which user has an interest in which
        page" — reproduced faithfully, including the weakness.
        """
        return sorted(
            user for user, pages in self._seen.items() if url in pages
        )

    def urls_for(self, user: str) -> List[str]:
        return sorted(self._seen.get(user, {}).keys())

    def all_stamps(self):
        """Every (user, url, SeenVersion) triple, sorted — the full
        cross-file surface a repository check must validate."""
        for user in sorted(self._seen):
            for url in sorted(self._seen[user]):
                for seen in self._seen[user][url].values():
                    yield user, url, seen

    # ------------------------------------------------------------------
    def serialize(self) -> str:
        """``user|url|rev@when,rev@when,...`` lines."""
        lines = []
        for user in sorted(self._seen):
            for url in sorted(self._seen[user]):
                versions = ",".join(
                    f"{seen.revision}@{seen.when}"
                    for seen in self._seen[user][url].values()
                )
                lines.append(f"{user}|{url}|{versions}")
        return "\n".join(lines)

    @classmethod
    def deserialize(cls, text: str) -> "UserControl":
        control = cls()
        for line in text.splitlines():
            parts = line.split("|")
            if len(parts) != 3:
                continue
            user, url, versions = parts
            for chunk in versions.split(","):
                if "@" not in chunk:
                    continue
                revision, _, when_text = chunk.partition("@")
                try:
                    control.record(user, url, revision, int(when_text))
                except ValueError:
                    continue
        return control
