"""Tunable knobs of HtmlDiff.

The paper leaves two thresholds symbolic ("sufficiently close" sentence
lengths, a "sufficiently large" ``2W/L`` percentage) and describes
several presentation variants; all of that is parameterized here so the
ablation benchmarks can sweep them.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, replace
from enum import Enum

__all__ = ["PresentationMode", "HtmlDiffOptions"]


class PresentationMode(Enum):
    """The Section 5.2 presentation alternatives.

    Side-by-side is absent by design: "there is no good mechanism in
    place with current HTML and browser technology that allows such
    synchronization."
    """

    #: Default: one page with common, old (struck out) and new
    #: (emphasized) material, arrows chained through the differences.
    MERGED = "merged"
    #: "Show only differences (old and new) and eliminate the common
    #: part (as done in UNIX diff)."
    ONLY_DIFFERENCES = "only-differences"
    #: "By reversing the sense of 'old' and 'new' one can create a
    #: merged page with the old markups intact and the new deleted."
    MERGED_REVERSED = "merged-reversed"
    #: "A more Draconian option would be to leave out all old material
    #: ... the merged page is simply the most recent page plus some
    #: markups to point to the new material."
    NEW_ONLY = "new-only"


@dataclass
class HtmlDiffOptions:
    """Comparison and presentation parameters."""

    # ---- comparison (Section 5.1) ------------------------------------
    #: Step 1 of sentence matching: lengths are "sufficiently close"
    #: when min(l1, l2) >= length_ratio * max(l1, l2).
    length_ratio: float = 0.5
    #: Step 2: sentences match when 2W / L >= match_threshold.
    match_threshold: float = 0.5
    #: Disable the length pre-filter (ablation S4: it is purely a speed
    #: optimization and must not change who matches... except at the
    #: margin, which the bench quantifies).
    use_length_prefilter: bool = True

    # ---- fast path (the "several speed optimizations") ---------------
    #: Anchor decomposition: commit to sentence tokens unique in both
    #: streams and run the quadratic core only between anchors.
    use_anchors: bool = True
    #: Bag-of-items upper bound: reject a sentence pair when even the
    #: multiset intersection of its content items cannot clear
    #: ``match_threshold``, skipping the inner word-level LCS.
    use_upper_bound_prefilter: bool = True
    #: Intern tokens to small ids before the LCS so the per-DP-cell
    #: weight callback is an integer compare plus an int-pair memo
    #: (break tokens never pay the sentence-matching machinery).
    use_exact_fast_lane: bool = True

    # ---- presentation (Section 5.2) ----------------------------------
    mode: PresentationMode = PresentationMode.MERGED
    #: Highlight markup for additions; the paper settles on
    #: <STRONG><I> for lack of color support.
    new_open: str = "<STRONG><I>"
    new_close: str = "</I></STRONG>"
    #: Deletions in struck-out font, "rarely used in HTML found on the W3".
    old_open: str = "<STRIKE>"
    old_close: str = "</STRIKE>"
    #: Arrow images chained through the differences.
    old_arrow_src: str = "/aide-icons/old-arrow.gif"
    new_arrow_src: str = "/aide-icons/new-arrow.gif"
    #: Anchor-name prefix for the difference chain.
    anchor_prefix: str = "aidediff"
    #: Insert the banner with the link to the first difference.
    banner: bool = True

    # ---- density (Section 5.3) ---------------------------------------
    #: When the fraction of changed tokens exceeds this, the merged page
    #: would be unreadable ("if every other line were changed...").
    density_threshold: float = 0.75
    #: What to do above the threshold: "banner-only" (emit the new page
    #: with a banner saying changes were too pervasive) or "merge"
    #: (merge anyway).
    density_fallback: str = "banner-only"

    # ---- intra-sentence refinement -----------------------------------
    #: For fuzzily matched sentences, additionally highlight the words
    #: that changed within the sentence (word-level diff).  Changes to
    #: non-content-defining markups stay unhighlighted, per the paper.
    refine_matched_sentences: bool = True
    #: Section 5.3: "methods for varying the degree to which old and
    #: new text can be interspersed" — when word-level refinement would
    #: alternate between struck and emphasized runs more than this many
    #: times within one sentence, fall back to whole-sentence
    #: old-then-new rendering ("the mixture of unrelated struck-out and
    #: emphasized text would be muddled").  0 disables the limit.
    max_interleave: int = 6

    def validate(self) -> None:
        if not 0.0 <= self.length_ratio <= 1.0:
            raise ValueError("length_ratio must be within [0, 1]")
        if not 0.0 <= self.match_threshold <= 1.0:
            raise ValueError("match_threshold must be within [0, 1]")
        if not 0.0 <= self.density_threshold <= 1.0:
            raise ValueError("density_threshold must be within [0, 1]")
        if self.density_fallback not in ("banner-only", "merge"):
            raise ValueError("density_fallback must be banner-only or merge")

    def reference(self) -> "HtmlDiffOptions":
        """A copy with every fast-path layer disabled — the unoptimized
        comparison the differential tests and benchmarks measure
        against."""
        return replace(
            self,
            use_anchors=False,
            use_upper_bound_prefilter=False,
            use_exact_fast_lane=False,
        )

    def cache_key(self) -> tuple:
        """Hashable identity for output caching: two option sets with
        equal keys produce byte-identical HtmlDiff output for the same
        inputs (fast-path toggles are included deliberately — they are
        *supposed* to be output-neutral, but a cache must not bake that
        assumption in)."""
        return astuple(self)
