"""From token matching to common/old/new classification.

Paper Section 5.2: "The comparison algorithm outlined above yields a
mapping from the tokens of the old document to the tokens of the new
document.  Tokens that have a mapping are termed 'common'; tokens that
are in the old (new) document but have no counterpart in the new (old)
are 'old' ('new')."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from .matcher import TokenMatcher, exact_weight
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
    #: A matched sentence pair whose contents are not identical — the
    #: case where intra-sentence refinement highlights the edits.  Set
    #: at construction: the counts and every renderer read it.
    is_fuzzy_common: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.is_fuzzy_common = (
            self.cls is EntryClass.COMMON
            and isinstance(self.old_token, SentenceToken)
            and self.old_token.key != self.new_token.key
        )


@dataclass
class ClassifiedDiff:
    """The complete classification plus summary statistics.

    Held as runs: the first ``prefix`` tokens of both documents are
    common, pairwise and in order, and so are the last ``suffix``;
    ``window`` holds the entries for everything between.  Those runs
    are plain common matches (equal keys), so every statistic is
    counted in one walk over the window, the first time one is read.
    ``entries``, the whole walk, is built only when it is read.
    """

    window: List[DiffEntry]
    old_count: int
    new_count: int
    prefix: int = 0
    suffix: int = 0
    #: The documents' token streams; the runs are read from them.
    old_tokens: Sequence[Token] = ()
    new_tokens: Sequence[Token] = ()

    @property
    def common_prefix(self) -> Sequence[Token]:
        """The new document's tokens in the leading common run."""
        return self.new_tokens[:self.prefix]

    @property
    def common_suffix(self) -> Sequence[Token]:
        """The new document's tokens in the trailing common run."""
        return self.new_tokens[len(self.new_tokens) - self.suffix:]

    @cached_property
    def entries(self) -> List[DiffEntry]:
        """Every entry of the walk, the runs included."""
        old, new = self.old_tokens, self.new_tokens

        def run(i: int, j: int, length: int) -> List[DiffEntry]:
            return [DiffEntry(EntryClass.COMMON, old[i + k], new[j + k],
                              exact_weight(new[j + k]))
                    for k in range(length)]

        return (run(0, 0, self.prefix) + self.window
                + run(len(old) - self.suffix, len(new) - self.suffix,
                      self.suffix))

    @cached_property
    def _counts(self) -> Tuple[int, int, int, int]:
        """(old entries, new entries, fuzzy commons, changed regions)."""
        old = new = fuzzy = regions = 0
        in_change = False
        for entry in self.window:
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
    def total_entries(self) -> int:
        return self.prefix + len(self.window) + self.suffix

    @property
    def common_entries(self) -> int:
        return self.total_entries - self.changed_entries

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
        total = self.total_entries
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
    """Match the token streams and interleave them into diff entries.

    Entries are made only for the window between the common runs the
    matcher reports (:meth:`TokenMatcher.match_runs`).
    """
    if matcher is None:
        matcher = TokenMatcher(options)
    prefix, matches, suffix = matcher.match_runs(old_tokens, new_tokens)
    old_end = len(old_tokens) - suffix
    new_end = len(new_tokens) - suffix
    window: List[DiffEntry] = []
    old_pos = new_pos = prefix
    for i, j, weight in matches:
        while old_pos < i:
            window.append(DiffEntry(EntryClass.OLD, old_token=old_tokens[old_pos]))
            old_pos += 1
        while new_pos < j:
            window.append(DiffEntry(EntryClass.NEW, new_token=new_tokens[new_pos]))
            new_pos += 1
        window.append(
            DiffEntry(
                EntryClass.COMMON,
                old_token=old_tokens[i],
                new_token=new_tokens[j],
                weight=weight,
            )
        )
        old_pos, new_pos = i + 1, j + 1
    while old_pos < old_end:
        window.append(DiffEntry(EntryClass.OLD, old_token=old_tokens[old_pos]))
        old_pos += 1
    while new_pos < new_end:
        window.append(DiffEntry(EntryClass.NEW, new_token=new_tokens[new_pos]))
        new_pos += 1
    return ClassifiedDiff(
        window=window,
        old_count=len(old_tokens),
        new_count=len(new_tokens),
        prefix=prefix,
        suffix=suffix,
        old_tokens=old_tokens,
        new_tokens=new_tokens,
    )
