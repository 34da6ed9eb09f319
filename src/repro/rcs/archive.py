"""An RCS archive: reverse-delta version storage (Tichy 1985).

The snapshot facility "uses RCS to store versions... subsequent requests
to remember the state of the page result in an RCS 'check-in' operation
that saves only the differences between the page and its previously
checked-in version" (Section 4.1).  The properties AIDE leans on, all
reproduced here:

* the head revision is stored in full; every older revision is a
  *reverse* edit script from its successor, so checking out the newest
  text (the common case) costs nothing;
* checking in text identical to the head creates **no** new revision —
  "the RCS ci command ensures that it is not saved if it is unchanged";
* each revision carries a datestamp, and a revision can be requested
  "as it existed at a particular time";
* revision numbers are 1.1, 1.2, 1.3, ... on the trunk (AIDE never
  branches).

Section 7 measures the other side of the reverse-delta bargain: storage
is cheap but "requesting a page as it existed at a particular time"
pays one delta application per revision between the head and the
target.  Two acceleration layers cap that cost without changing any
observable text:

* **keyframe checkpoints** — with ``keyframe_interval=K > 0``, every
  K-th revision keeps its full line list in memory when it stops being
  the head, so a checkout walks at most K-1 deltas from the nearest
  checkpoint instead of the whole chain.  Keyframes are derived data
  (reconstructible from the deltas); they are *not* counted in
  :meth:`size_bytes` and are rebuilt, not stored, when a ``,v`` file is
  parsed.
* **revision index** — revision-number lookup is a dict (O(1) instead
  of a scan), and :meth:`revision_at` bisects over the datestamps while
  they remain monotone, falling back to the paper-faithful linear scan
  the moment a clock runs backwards (Section 4.1's non-monotonic
  timestamps).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..diffcore.textdiff import (
    EditCommand,
    EditScript,
    apply_edit_script,
    invert_edit_script,
    make_edit_script,
    script_size,
)
from ..simclock import format_timestamp

__all__ = ["RcsArchive", "RevisionInfo", "UnknownRevision"]


class UnknownRevision(KeyError):
    """Requested revision number does not exist in the archive."""


@dataclass
class RevisionInfo:
    """Metadata of one revision (the rlog view)."""

    number: str
    date: int
    author: str
    log: str
    #: Serialized size of this revision's contribution to the archive:
    #: full text for the head, delta size otherwise.  Section 7's disk
    #: accounting sums these.
    stored_bytes: int = 0

    @property
    def date_string(self) -> str:
        return format_timestamp(self.date)


@dataclass
class _StoredRevision:
    info: RevisionInfo
    #: Reverse delta reconstructing THIS revision from its successor.
    #: None for the head (its text is stored whole).
    reverse_delta: Optional[EditScript] = None
    #: Full line list kept as a checkout checkpoint (keyframe); None for
    #: ordinary revisions.  Derived data — never serialized.
    keyframe_lines: Optional[List[str]] = field(default=None, repr=False)


class RcsArchive:
    """One RCS file (`,v` in real RCS), for one URL's page history.

    ``keyframe_interval=0`` (the default) is the paper's exact cost
    model; any positive K bounds checkout chains at K-1 deltas.
    """

    def __init__(self, name: str = "", keyframe_interval: int = 0) -> None:
        if keyframe_interval < 0:
            raise ValueError(
                f"keyframe_interval must be >= 0, got {keyframe_interval}"
            )
        self.name = name
        self.keyframe_interval = keyframe_interval
        self._head_lines: List[str] = []
        self._revisions: List[_StoredRevision] = []  # oldest first
        self._number_index: Dict[str, int] = {}
        #: Datestamps in revision order, valid for bisect only while
        #: they are non-decreasing.
        self._dates: List[int] = []
        self._dates_monotonic = True
        # Instrumentation (surfaced through SnapshotStore.stats()).
        self.checkouts = 0
        self.delta_applications = 0
        self.keyframe_starts = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def head_revision(self) -> Optional[str]:
        if not self._revisions:
            return None
        return self._revisions[-1].info.number

    @property
    def revision_count(self) -> int:
        return len(self._revisions)

    def revisions(self) -> List[RevisionInfo]:
        """All revision metadata, oldest first."""
        return [stored.info for stored in self._revisions]

    def info(self, number: str) -> RevisionInfo:
        return self._stored(number).info

    def size_bytes(self) -> int:
        """Approximate on-disk size: head text + all reverse deltas +
        a small per-revision metadata overhead (RCS headers).

        Keyframes are excluded — they are reconstructible acceleration
        state, not archive storage (see :meth:`keyframe_bytes`)."""
        stored = sum(rev.info.stored_bytes for rev in self._revisions)
        return stored + 64 * len(self._revisions)

    def keyframe_bytes(self) -> int:
        """Memory held by keyframe checkpoints (0 when disabled)."""
        total = 0
        for stored in self._revisions:
            if stored.keyframe_lines is not None:
                total += sum(len(line) + 1 for line in stored.keyframe_lines)
        return total

    def keyframe_count(self) -> int:
        return sum(
            1 for stored in self._revisions
            if stored.keyframe_lines is not None
        )

    # ------------------------------------------------------------------
    # ci / co
    # ------------------------------------------------------------------
    def checkin(
        self,
        text: str,
        date: int,
        author: str = "aide",
        log: str = "",
    ) -> Tuple[str, bool]:
        """Check in new content; returns (revision number, changed).

        Identical content returns the existing head number with
        ``changed=False`` and stores nothing.
        """
        new_lines = text.split("\n")
        if self._revisions and new_lines == self._head_lines:
            return self._revisions[-1].info.number, False
        number = f"1.{len(self._revisions) + 1}"
        if self._revisions:
            # The old head becomes delta-reconstructible from the new.
            reverse = make_edit_script(new_lines, self._head_lines)
            old_head = self._revisions[-1]
            old_head.reverse_delta = reverse
            old_head.info.stored_bytes = script_size(reverse)
            if (
                self.keyframe_interval
                and (len(self._revisions) - 1) % self.keyframe_interval == 0
            ):
                # checkin never mutates a committed line list, so the
                # keyframe can share it instead of copying.
                old_head.keyframe_lines = self._head_lines
        info = RevisionInfo(
            number=number,
            date=date,
            author=author,
            log=log,
            stored_bytes=len(text) + 1,
        )
        if self._dates and date < self._dates[-1]:
            self._dates_monotonic = False
        self._dates.append(date)
        self._number_index[number] = len(self._revisions)
        self._revisions.append(_StoredRevision(info=info, reverse_delta=None))
        self._head_lines = new_lines
        return number, True

    def forward_deltas(
        self, done: int
    ) -> List[Tuple[RevisionInfo, EditScript, List[str], List[str]]]:
        """``(info, script, cut, lines)`` for each revision after the
        oldest ``done``, oldest first: ``script`` turns the previous
        revision's lines (none, for 1.1) into ``lines``, deleting the
        lines ``cut`` of it.

        Each script is the inverse of the reverse delta stored for the
        previous revision (whose appends are the lines cut), so for the
        newest revision it costs what changed; each older one also pays
        one delta application to rebuild its text.
        """
        out = []
        lines = self._head_lines
        for pos in range(len(self._revisions) - 1, done - 1, -1):
            if pos:
                reverse = self._revisions[pos - 1].reverse_delta
                script = invert_edit_script(reverse, lines)
                cut = [line for cmd in reverse if cmd.kind == "a"
                       for line in cmd.lines]
            else:
                script = [EditCommand("a", 0, len(lines), tuple(lines))]
                cut = []
            out.append((self._revisions[pos].info, script, cut, lines))
            if pos > done:
                lines = apply_edit_script(lines, reverse)
        out.reverse()
        return out

    def drop_head(self, number: str) -> None:
        """Undo the most recent :meth:`checkin` (transaction rollback).

        Only the head can be dropped — the write-ahead log never needs
        to unwind anything older, and interior drops would invalidate
        the whole delta chain.  The previous revision is rebuilt from
        its reverse delta and becomes the head again, exactly as if the
        dropped check-in had never happened.
        """
        if not self._revisions:
            raise KeyError(f"no revisions to drop in {self.name or ',v'}")
        head = self._revisions[-1]
        if head.info.number != number:
            raise KeyError(
                f"cannot drop {number}: head is {head.info.number}"
            )
        self._revisions.pop()
        self._dates.pop()
        del self._number_index[number]
        if self._revisions:
            new_head = self._revisions[-1]
            if new_head.reverse_delta is not None:
                self._head_lines = apply_edit_script(
                    self._head_lines, new_head.reverse_delta
                )
                self.delta_applications += 1
            # Promote: the head stores its full text, no delta, and its
            # keyframe (derived acceleration state) is redundant.
            new_head.reverse_delta = None
            new_head.keyframe_lines = None
            new_head.info.stored_bytes = sum(
                len(line) + 1 for line in self._head_lines
            )
        else:
            self._head_lines = []
        self._dates_monotonic = all(
            self._dates[i] <= self._dates[i + 1]
            for i in range(len(self._dates) - 1)
        )

    def checkout(self, number: Optional[str] = None) -> str:
        """Reconstruct a revision's text (head by default).

        Walks reverse deltas back from the nearest full text — the head,
        or a keyframe checkpoint when ``keyframe_interval`` is set.
        """
        if not self._revisions:
            raise UnknownRevision("archive is empty")
        self.checkouts += 1
        if number is None:
            return "\n".join(self._head_lines)
        index = self._index_of(number)
        start, lines = self._nearest_full_text(index)
        # Walk backward: revision k is rebuilt by applying revision k's
        # reverse delta to revision k+1's text.
        for pos in range(start - 1, index - 1, -1):
            delta = self._revisions[pos].reverse_delta
            assert delta is not None  # only the head lacks one
            lines = apply_edit_script(lines, delta)
            self.delta_applications += 1
        return "\n".join(lines)

    def _nearest_full_text(self, index: int) -> Tuple[int, List[str]]:
        """(start index, full line list) to begin a backward walk from:
        the closest keyframe at or after ``index``, else the head."""
        last = len(self._revisions) - 1
        if self.keyframe_interval and index < last:
            k = self.keyframe_interval
            candidate = index + (-index % k)  # smallest multiple of k >= index
            if candidate < last:
                keyframe = self._revisions[candidate].keyframe_lines
                if keyframe is not None:
                    self.keyframe_starts += 1
                    return candidate, keyframe
        return last, self._head_lines

    def chain_length(self, number: str) -> int:
        """Delta applications a checkout of ``number`` costs right now
        (the §7 reconstruction-cost axis, without doing the work)."""
        index = self._index_of(number)
        start, _ = self._nearest_full_text(index)
        return start - index

    def checkout_at(self, date: int) -> Optional[str]:
        """Text of the newest revision dated at or before ``date``.

        None when the archive has nothing that old — "requesting a page
        as it existed at a particular time" (Section 4.1).
        """
        info = self.revision_at(date)
        if info is None:
            return None
        return self.checkout(info.number)

    def revision_at(
        self, date: int, policy: str = "past"
    ) -> Optional[RevisionInfo]:
        """The revision the datetime-negotiation ``policy`` selects.

        The semantics live in :func:`repro.memento.core.resolve_datetime`
        — one resolver shared with the TimeGate, the TimeMap client,
        and the federation layer, so "the page at time T" means the
        same revision at every layer.  Policies:

        * ``"past"`` (default, the paper's §2.2 behaviour): the newest
          revision whose datestamp is **<=** ``date``.  An
          exact-timestamp hit returns that revision (the newest one,
          if several share the stamp); a ``date`` before the first
          revision returns **None** — nothing that old is archived.
        * ``"nearest"``: minimal ``|datestamp - date|``; ties resolve
          to the older revision, and a ``date`` before the first
          revision returns the **first** revision.
        * ``"exact"``: only a revision stamped at precisely ``date``.

        Resolution is an O(log n) bisect while datestamps are monotone.
        The moment a clock runs backwards (Section 4.1's non-monotonic
        timestamps — ``checkin`` flips ``_dates_monotonic`` when a new
        revision's stamp precedes its predecessor's), every policy
        falls back to a linear scan with last-match-wins semantics, the
        paper-faithful behaviour: for ``"past"`` the scan keeps the
        *last revision in check-in order* whose stamp qualifies, which
        can differ from "globally newest stamp" precisely when the
        history is disordered.
        """
        from ..memento.core import resolve_datetime

        index = resolve_datetime(
            self._dates, date, policy=policy,
            monotonic=self._dates_monotonic,
        )
        if index is None:
            return None
        return self._revisions[index].info

    # ------------------------------------------------------------------
    # Keyframe maintenance
    # ------------------------------------------------------------------
    def set_keyframe_interval(self, interval: int) -> None:
        """Change the checkpoint spacing and rebuild checkpoints.

        One backward walk over the whole chain — O(revisions) delta
        applications — materializes every K-th revision.  ``0`` drops
        all keyframes (back to the paper's cost model).
        """
        if interval < 0:
            raise ValueError(f"keyframe_interval must be >= 0, got {interval}")
        if interval == self.keyframe_interval:
            return
        self.keyframe_interval = interval
        for stored in self._revisions:
            stored.keyframe_lines = None
        if not interval or len(self._revisions) < 2:
            return
        lines = self._head_lines
        for pos in range(len(self._revisions) - 2, -1, -1):
            delta = self._revisions[pos].reverse_delta
            assert delta is not None
            lines = apply_edit_script(lines, delta)
            if pos % interval == 0:
                self._revisions[pos].keyframe_lines = lines
        # The walk reused each reconstruction as the next step's input;
        # keyframes must not alias a list a later apply could observe —
        # apply_edit_script builds fresh lists, so sharing is safe.

    # ------------------------------------------------------------------
    # Bulk reconstruction
    # ------------------------------------------------------------------
    def iter_texts(self) -> Iterator[Tuple[RevisionInfo, str]]:
        """Yield (info, text) for every revision, oldest first.

        A single backward walk reconstructs all n revisions in O(n)
        delta applications — against n separate checkouts' O(n²) (or
        O(nK) with keyframes).  Used by full-copy accounting and the
        journal writer.
        """
        if not self._revisions:
            return
        texts: List[str] = ["\n".join(self._head_lines)]
        lines = self._head_lines
        for pos in range(len(self._revisions) - 2, -1, -1):
            delta = self._revisions[pos].reverse_delta
            assert delta is not None
            lines = apply_edit_script(lines, delta)
            texts.append("\n".join(lines))
        texts.reverse()
        for stored, text in zip(self._revisions, texts):
            yield stored.info, text

    # ------------------------------------------------------------------
    def _index_of(self, number: str) -> int:
        index = self._number_index.get(number)
        if index is None:
            raise UnknownRevision(number)
        return index

    def _stored(self, number: str) -> _StoredRevision:
        return self._revisions[self._index_of(number)]

    def _rebuild_lookup_state(self) -> None:
        """Recompute index/date structures after direct ``_revisions``
        surgery (the ,v parser builds archives that way)."""
        self._number_index = {
            stored.info.number: index
            for index, stored in enumerate(self._revisions)
        }
        self._dates = [stored.info.date for stored in self._revisions]
        self._dates_monotonic = all(
            earlier <= later
            for earlier, later in zip(self._dates, self._dates[1:])
        )
