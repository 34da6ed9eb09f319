"""From token matching to common/old/new classification.

Paper Section 5.2: "The comparison algorithm outlined above yields a
mapping from the tokens of the old document to the tokens of the new
document.  Tokens that have a mapping are termed 'common'; tokens that
are in the old (new) document but have no counterpart in the new (old)
are 'old' ('new')."
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from .matcher import TokenMatcher, match_tokens
from .options import HtmlDiffOptions
from .tokens import SentenceToken, Token

__all__ = ["EntryClass", "DiffEntry", "ClassifiedDiff", "classify_documents"]


class EntryClass(Enum):
    """The paper's three token fates: common, old-only, new-only."""

    COMMON = "common"
    OLD = "old"
    NEW = "new"


@dataclass
class DiffEntry:
    """One step of the interleaved walk over both documents.

    COMMON entries carry both tokens (they may differ in detail when the
    sentence match was fuzzy); OLD carries only ``old_token``; NEW only
    ``new_token``.
    """

    cls: EntryClass
    old_token: Optional[Token] = None
    new_token: Optional[Token] = None
    weight: float = 0.0

    @property
    def is_fuzzy_common(self) -> bool:
        """A matched sentence pair whose contents are not identical —
        the case where intra-sentence refinement highlights the edits."""
        if self.cls is not EntryClass.COMMON:
            return False
        if not isinstance(self.old_token, SentenceToken):
            return False
        return self.old_token.key != self.new_token.key


@dataclass
class ClassifiedDiff:
    """The complete classification plus summary statistics.

    The statistics are counted in one walk over ``entries``, the first
    time any of them is read, and kept: the entries never change once
    classified.
    """

    entries: List[DiffEntry]
    old_count: int
    new_count: int

    @cached_property
    def _counts(self) -> Tuple[int, int, int, int]:
        """(old entries, new entries, fuzzy commons, changed regions)."""
        old = new = fuzzy = regions = 0
        in_change = False
        for entry in self.entries:
            cls = entry.cls
            if cls is EntryClass.OLD:
                old += 1
            elif cls is EntryClass.NEW:
                new += 1
            elif entry.is_fuzzy_common:
                fuzzy += 1
            else:
                in_change = False
                continue
            if not in_change:
                regions += 1
                in_change = True
        return old, new, fuzzy, regions

    @property
    def common_entries(self) -> int:
        return len(self.entries) - self.changed_entries

    @property
    def old_entries(self) -> int:
        return self._counts[0]

    @property
    def new_entries(self) -> int:
        return self._counts[1]

    @property
    def changed_entries(self) -> int:
        return self.old_entries + self.new_entries

    @property
    def identical(self) -> bool:
        """No old/new tokens and no fuzzy matches: nothing changed."""
        return self._counts[3] == 0

    @property
    def change_density(self) -> float:
        """Fraction of entries carrying a change — old, new, or fuzzily
        matched (Section 5.3's "changes too numerous to display"
        metric)."""
        total = len(self.entries)
        if total == 0:
            return 0.0
        old, new, fuzzy, _regions = self._counts
        return (old + new + fuzzy) / total

    @property
    def difference_count(self) -> int:
        """Number of contiguous changed regions (arrow count)."""
        return self._counts[3]


def classify_documents(
    old_tokens: Sequence[Token],
    new_tokens: Sequence[Token],
    options: HtmlDiffOptions = None,
    matcher: TokenMatcher = None,
) -> ClassifiedDiff:
    """Match the token streams and interleave them into diff entries."""
    matches = match_tokens(old_tokens, new_tokens, options=options, matcher=matcher)
    entries: List[DiffEntry] = []
    old_pos = new_pos = 0
    for i, j, weight in matches:
        while old_pos < i:
            entries.append(DiffEntry(EntryClass.OLD, old_token=old_tokens[old_pos]))
            old_pos += 1
        while new_pos < j:
            entries.append(DiffEntry(EntryClass.NEW, new_token=new_tokens[new_pos]))
            new_pos += 1
        entries.append(
            DiffEntry(
                EntryClass.COMMON,
                old_token=old_tokens[i],
                new_token=new_tokens[j],
                weight=weight,
            )
        )
        old_pos, new_pos = i + 1, j + 1
    while old_pos < len(old_tokens):
        entries.append(DiffEntry(EntryClass.OLD, old_token=old_tokens[old_pos]))
        old_pos += 1
    while new_pos < len(new_tokens):
        entries.append(DiffEntry(EntryClass.NEW, new_token=new_tokens[new_pos]))
        new_pos += 1
    return ClassifiedDiff(
        entries=entries,
        old_count=len(old_tokens),
        new_count=len(new_tokens),
    )
