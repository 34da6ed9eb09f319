"""Merged-page rendering: Section 5.2's presentation machinery.

The merged page summarizes common, old, and new material in one
document:

* a banner at the top links to the first difference;
* each contiguous changed region gets a small arrow image that is an
  internal hypertext reference to the *next* difference, so the user
  can traverse the chain; the last arrow returns to the banner;
* old text appears struck out (``<STRIKE>``), new text in
  ``<STRONG><I>``;
* **old markups are eliminated** — "we currently deal with the
  syntactic/semantic problem of merging by eliminating all old markups
  from the merged page", so deleted hypertext references and images do
  not appear (their anchor text still does, struck out);
* fuzzily matched sentences are refined word-by-word, but changes to
  non-content-defining markups are *not* highlighted (the changed-URL
  example: the arrow points at the anchor, the text keeps its font).
"""

from __future__ import annotations

import re
from typing import List, Optional, Sequence

from ...html.entities import encode_entities
from .classify import ClassifiedDiff, DiffEntry, EntryClass
from .options import HtmlDiffOptions
from .tokens import (BreakToken, SentenceItem, SentenceToken, render_items,
                     render_sentence_source)

__all__ = ["MergedPageRenderer", "render_sentence_source"]

#: The opening of a BODY tag, in any ASCII case.  Searched in the page
#: itself: an index into ``page.lower()`` can point elsewhere, because
#: lowering some characters (``İ``) changes the length.
_BODY_RE = re.compile(r"<body", re.IGNORECASE | re.ASCII)


class MergedPageRenderer:
    """Renders a classified diff in one of the merged-page flavours."""

    def __init__(self, options: Optional[HtmlDiffOptions] = None) -> None:
        self.options = options or HtmlDiffOptions()

    # ------------------------------------------------------------------
    # Region grouping
    # ------------------------------------------------------------------
    @staticmethod
    def _is_changed(entry: DiffEntry) -> bool:
        return entry.cls is not EntryClass.COMMON or entry.is_fuzzy_common

    # ------------------------------------------------------------------
    # Arrows / banner
    # ------------------------------------------------------------------
    def _anchor(self, index: int) -> str:
        return f"{self.options.anchor_prefix}{index}"

    def _arrow(self, index: int, total: int, old_side: bool) -> str:
        """One arrow anchor: names this difference, links to the next.

        ``index`` is 1-based; the arrow after the last difference links
        back to the banner (anchor 0).
        """
        next_anchor = self._anchor(index + 1 if index < total else 0)
        src = self.options.old_arrow_src if old_side else self.options.new_arrow_src
        alt = "[old]" if old_side else "[new]"
        return (
            f'<A NAME="{self._anchor(index)}"></A>'
            f'<A HREF="#{next_anchor}">'
            f'<IMG SRC="{src}" ALT="{alt}" BORDER=0></A>'
        )

    def _banner(self, diff: ClassifiedDiff, note: str = "") -> str:
        total = diff.difference_count
        if total == 0:
            summary = "The two versions are identical under comparison."
            link = ""
        else:
            noun = "difference" if total == 1 else "differences"
            summary = f"HtmlDiff found {total} {noun}."
            link = f' <A HREF="#{self._anchor(1)}">[First difference]</A>'
        note_html = f" {note}" if note else ""
        return (
            f'<A NAME="{self._anchor(0)}"></A>'
            "<P><B>AT&amp;T Internet Difference Engine</B> &#183; "
            f"{summary}{link}{note_html}</P><HR>\n"
        )

    # ------------------------------------------------------------------
    # Sentence rendering per class
    # ------------------------------------------------------------------
    def _struck(self, items: Sequence[SentenceItem], joiner: str) -> str:
        """Old words struck out, every markup stripped; markup-only old
        material vanishes entirely."""
        text = encode_entities(
            joiner.join(item for item in items if type(item) is str))
        if not text:
            return ""
        return f"{self.options.old_open}{text}{self.options.old_close}"

    def _emphasized(self, items: Sequence[SentenceItem], joiner: str) -> str:
        # New markups stay live; new words are emphasized.  Emphasis
        # wraps maximal word runs so markup nesting stays legal.
        return render_items(items, joiner, self.options.new_open,
                            self.options.new_close)

    def _render_old_sentence(self, sentence: SentenceToken) -> str:
        return self._struck(sentence.items, sentence.joiner)

    def _render_new_sentence(self, sentence: SentenceToken) -> str:
        return self._emphasized(sentence.items, sentence.joiner)

    def _render_common_sentence(self, entry: DiffEntry) -> str:
        if not entry.is_fuzzy_common or not self.options.refine_matched_sentences:
            return entry.new_token.html
        refined = self._render_refined(entry.old_token, entry.new_token)
        limit = self.options.max_interleave
        if limit and self._alternations(refined) > limit:
            # Too muddled to intersperse (Section 5.3): show the whole
            # old sentence struck, then the whole new one, unrefined.
            old_part = self._render_old_sentence(entry.old_token)
            new_part = self._render_new_sentence(entry.new_token)
            return f"{old_part} {new_part}".strip()
        return refined

    def _alternations(self, rendered: str) -> int:
        """How many times the rendering switches between old-style and
        new-style runs — the interspersion degree of Section 5.3."""
        events = []
        pos = 0
        while True:
            old_at = rendered.find(self.options.old_open, pos)
            new_at = rendered.find(self.options.new_open, pos)
            if old_at == -1 and new_at == -1:
                break
            if new_at == -1 or (old_at != -1 and old_at < new_at):
                events.append("old")
                pos = old_at + len(self.options.old_open)
            else:
                events.append("new")
                pos = new_at + len(self.options.new_open)
        switches = sum(1 for a, b in zip(events, events[1:]) if a != b)
        return len(events) + switches

    def _render_refined(
        self, old: SentenceToken, new: SentenceToken
    ) -> str:
        """Word-level refinement of a fuzzily matched sentence pair.

        Common items render from the new side; new-only words are
        emphasized; old-only words are struck; old-only markups are
        eliminated; new-only markups render raw (content-defining ones
        are what the pointing arrow is about; <B>-class changes are
        deliberately not highlighted).
        """
        from ...diffcore.lcs import weighted_lcs_pairs
        from .matcher import _item_weight

        # Same weighting as the matcher, so the rendered alignment is
        # the one the match weight was computed from.
        matches = weighted_lcs_pairs(old.items, new.items, _item_weight)
        joiner = new.joiner
        pieces: List[str] = []
        old_pos = new_pos = 0
        # The end of both sentences closes the last unmatched stretch.
        for i, j in [(i, j) for i, j, _w in matches] + [
                (len(old.items), len(new.items))]:
            pieces.append(self._struck(old.items[old_pos:i], joiner))
            pieces.append(self._emphasized(new.items[new_pos:j], joiner))
            if j < len(new.items):
                pieces.append(render_items(new.items[j:j + 1], joiner))
            old_pos, new_pos = i + 1, j + 1
        return joiner.join(piece for piece in pieces if piece)

    # ------------------------------------------------------------------
    # Whole-page rendering
    # ------------------------------------------------------------------
    def render_merged(self, diff: ClassifiedDiff, note: str = "") -> str:
        """The default merged page (Figure 2's format)."""
        total = diff.difference_count
        out = [token.html for token in diff.common_prefix]
        region_index = 0
        in_change = False
        arrow_pending_side: Optional[bool] = None

        for entry in diff.window:
            changed = self._is_changed(entry)
            if changed and not in_change:
                region_index += 1
                arrow_pending_side = entry.cls is EntryClass.OLD
            if not changed and arrow_pending_side is not None:
                # The whole region rendered to nothing (e.g. only old
                # markups); emit a bare arrow so the chain stays intact.
                out.append(self._arrow(region_index, total, arrow_pending_side))
                arrow_pending_side = None
            in_change = changed

            rendered = self._render_entry(entry)
            if rendered is None:
                continue
            if changed and arrow_pending_side is not None:
                arrow = self._arrow(
                    region_index, total, old_side=arrow_pending_side
                )
                rendered = f"{arrow} {rendered}" if rendered else arrow
                arrow_pending_side = None
            out.append(rendered)
        if arrow_pending_side is not None:
            out.append(self._arrow(region_index, total, arrow_pending_side))
        out.extend(token.html for token in diff.common_suffix)

        body = self._join(out)
        if self.options.banner:
            body = self._insert_banner(body, self._banner(diff, note))
        return body

    def render_new_only(self, diff: ClassifiedDiff, note: str = "") -> str:
        """The Draconian option: the new page plus pointers to new
        material; no old content at all, hence no syntactic risk."""
        regions = 0
        in_new = False
        for entry in diff.window:
            is_new = entry.cls is EntryClass.NEW
            if is_new and not in_new:
                regions += 1
            in_new = is_new

        out = [token.html for token in diff.common_prefix]
        index = 0
        in_new = False
        for entry in diff.window:
            if entry.cls is EntryClass.OLD:
                in_new = False
                continue
            is_new = entry.cls is EntryClass.NEW
            rendered = entry.new_token.html
            if is_new and not in_new:
                index += 1
                arrow = self._arrow(index, regions, old_side=False)
                rendered = f"{arrow} {rendered}"
            in_new = is_new
            out.append(rendered)
        out.extend(token.html for token in diff.common_suffix)
        body = self._join(out)
        if self.options.banner:
            banner = self._banner_for_count(regions, note)
            body = self._insert_banner(body, banner)
        return body

    def render_only_differences(self, diff: ClassifiedDiff, note: str = "") -> str:
        """Differences without the common context (the UNIX-diff style).

        "especially useful for very large documents but can be
        confusing because of the loss of surrounding common context."
        Only the window is walked: the common runs around it show
        nothing.
        """
        total = diff.difference_count
        out: List[str] = []
        region_index = 0
        in_change = False
        arrow_side: Optional[bool] = None
        for entry in diff.window:
            changed = self._is_changed(entry)
            if not changed:
                if arrow_side is not None:
                    # The region rendered to nothing (e.g. only old
                    # markups): still emit its anchor so the chain holds.
                    out.append(self._arrow(region_index, total, arrow_side))
                    arrow_side = None
                in_change = False
                continue
            if not in_change:
                region_index += 1
                arrow_side = entry.cls is EntryClass.OLD
                out.append("<HR>")
            in_change = True
            rendered = self._render_entry(entry)
            if rendered is None:
                continue
            if arrow_side is not None:
                arrow = self._arrow(region_index, total, old_side=arrow_side)
                rendered = f"{arrow} {rendered}" if rendered else arrow
                arrow_side = None
            out.append(rendered)
        if arrow_side is not None:
            out.append(self._arrow(region_index, total, arrow_side))
        body = self._join(out)
        banner = self._banner(diff, note)
        return (
            "<HTML><HEAD><TITLE>HtmlDiff: differences only</TITLE></HEAD>"
            f"<BODY>{banner}{body}</BODY></HTML>"
        )

    # ------------------------------------------------------------------
    def _render_entry(self, entry: DiffEntry) -> Optional[str]:
        if entry.cls is EntryClass.OLD:
            if isinstance(entry.old_token, BreakToken):
                return None  # old markups are eliminated
            rendered = self._render_old_sentence(entry.old_token)
            return rendered or None
        if isinstance(entry.new_token, BreakToken):
            return entry.new_token.html
        if entry.cls is EntryClass.NEW:
            return self._render_new_sentence(entry.new_token)
        return self._render_common_sentence(entry)

    @staticmethod
    def _join(pieces: List[str]) -> str:
        return "\n".join(piece for piece in pieces if piece)

    def _banner_for_count(self, total: int, note: str = "") -> str:
        if total == 0:
            summary = "No new material."
            link = ""
        else:
            noun = "addition" if total == 1 else "additions"
            summary = f"HtmlDiff found {total} {noun}."
            link = f' <A HREF="#{self._anchor(1)}">[First]</A>'
        note_html = f" {note}" if note else ""
        return (
            f'<A NAME="{self._anchor(0)}"></A>'
            "<P><B>AT&amp;T Internet Difference Engine</B> &#183; "
            f"{summary}{link}{note_html}</P><HR>\n"
        )

    @staticmethod
    def _insert_banner(body: str, banner: str) -> str:
        """Splice the banner right after <BODY> when there is one."""
        found = _BODY_RE.search(body)
        if found is not None:
            end = body.find(">", found.start())
            if end != -1:
                return body[: end + 1] + "\n" + banner + body[end + 1:]
        return banner + body
