"""The public HtmlDiff entry point.

>>> from repro.core.htmldiff import html_diff
>>> result = html_diff("<P>old text.</P>", "<P>new text.</P>")
>>> result.identical
False
>>> "<STRIKE>" in result.html and "<STRONG><I>" in result.html
True
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ...obs import NOOP as NOOP_OBS
from .classify import ClassifiedDiff, DiffEntry, EntryClass, classify_documents
from .markup import MergedPageRenderer
from .matcher import TokenMatcher
from .options import HtmlDiffOptions, PresentationMode
from .tokenizer import tokenize_document
from .tokens import Token

__all__ = ["HtmlDiffResult", "html_diff"]


@dataclass
class HtmlDiffResult:
    """Everything HtmlDiff produces for one comparison."""

    #: The marked-up page in the requested presentation mode.
    html: str
    #: The classification (entries + statistics) behind the page.
    diff: ClassifiedDiff
    #: True when the density fallback suppressed the merge (Section
    #: 5.3: "changes... so pervasive as to make the resulting merged
    #: HTML unreadable").
    density_suppressed: bool = False
    #: Matcher instrumentation at the time this result was produced:
    #: weight-memo size, prefilter and upper-bound rejections, inner
    #: LCS runs, exact-lane hits.
    matcher_stats: Dict[str, int] = field(default_factory=dict)
    #: True when a hardening work budget forced the coarse line-diff
    #: path instead of the quadratic sentence comparator.
    degraded: bool = False
    #: Human-readable reason for the degrade (empty when not degraded).
    degrade_reason: str = ""

    @property
    def identical(self) -> bool:
        return self.diff.identical

    @property
    def difference_count(self) -> int:
        return self.diff.difference_count

    @property
    def change_density(self) -> float:
        return self.diff.change_density


def html_diff(
    old_html: str,
    new_html: str,
    options: Optional[HtmlDiffOptions] = None,
    matcher: Optional[TokenMatcher] = None,
    obs=None,
    budget=None,
    old_tokens: Optional[List[Token]] = None,
    new_tokens: Optional[List[Token]] = None,
) -> HtmlDiffResult:
    """Compare two HTML documents and produce a marked-up page.

    ``options`` selects the presentation mode and the comparison
    thresholds; ``matcher`` may be supplied to read its counters
    afterwards (its weight memo lives for one call).  ``obs`` (an
    :class:`repro.obs.Observability`) gets one span per phase —
    tokenize, classify, render — plus invocation/token counters.

    ``budget`` (an ``HtmlBudget`` from ``repro.web.guards``) threads
    the hardening caps through tokenization — markup bombs raise their
    ``ContentGuardError`` — and bounds the comparator's work: when
    ``len(old) * len(new)`` tokens exceed the work cap, the quadratic
    sentence matcher is skipped in favor of a linear coarse line diff
    (``degraded=True`` on the result) instead of hanging.

    ``old_tokens`` / ``new_tokens``, when given, are the documents'
    token streams as :func:`tokenize_document` made them (under a fork
    of the same ``budget``, if any); that document is then not
    tokenized again.  The snapshot store passes a revision's stream
    kept from an earlier diff this way.  They follow their documents:
    in ``MERGED_REVERSED`` they swap with ``old_html`` and ``new_html``.
    The streams are only read, never changed.
    """
    options = options or HtmlDiffOptions()
    options.validate()
    if matcher is None:
        matcher = TokenMatcher(options)
    if obs is None:
        obs = NOOP_OBS

    if options.mode is PresentationMode.MERGED_REVERSED:
        # "By reversing the sense of 'old' and 'new' one can create a
        # merged page with the old markups intact and the new deleted."
        old_html, new_html = new_html, old_html
        old_tokens, new_tokens = new_tokens, old_tokens

    obs.counter("htmldiff.invocations").inc()
    with obs.span("htmldiff.tokenize") as span:
        # Each document gets a fresh meter: the caps are per document,
        # not per comparison.
        if old_tokens is None:
            old_tokens = tokenize_document(
                old_html, budget=budget.fork() if budget is not None else None)
        if new_tokens is None:
            new_tokens = tokenize_document(
                new_html, budget=budget.fork() if budget is not None else None)
        span.set(old_tokens=len(old_tokens), new_tokens=len(new_tokens))
    obs.counter("htmldiff.tokens").inc(len(old_tokens) + len(new_tokens))

    if budget is not None and budget.over_work(len(old_tokens), len(new_tokens)):
        obs.counter("htmldiff.degraded").inc()
        reason = (
            f"diff work {len(old_tokens)}x{len(new_tokens)} tokens "
            f"exceeds the {budget.max_work}-unit budget"
        )
        return _coarse_line_diff(old_html, new_html, options, matcher, reason)
    with obs.span("htmldiff.classify") as span:
        diff = classify_documents(old_tokens, new_tokens, matcher=matcher)
        span.set(differences=diff.difference_count,
                 identical=diff.identical)
    renderer = MergedPageRenderer(options)

    density_suppressed = False
    note = ""
    if (
        not diff.identical
        and diff.change_density > options.density_threshold
        and options.density_fallback == "banner-only"
        and options.mode in (PresentationMode.MERGED, PresentationMode.MERGED_REVERSED)
    ):
        # Too pervasive to interleave meaningfully: show the new page
        # with a banner explaining why there are no inline markups.
        density_suppressed = True
        percent = int(round(diff.change_density * 100))
        note = (
            f"Changes are too pervasive to display inline "
            f"({percent}% of the page changed); showing the newer "
            "version unmarked."
        )
        from ...html.repair import repair_nodes
        from ...html.serializer import serialize_nodes
        from ...html.lexer import tokenize_html as _lex

        repaired_new = serialize_nodes(repair_nodes(_lex(new_html)))
        body = renderer._insert_banner(repaired_new, renderer._banner(diff, note))
        obs.counter("htmldiff.density_suppressed").inc()
        return HtmlDiffResult(html=body, diff=diff, density_suppressed=True,
                              matcher_stats=matcher.stats())

    with obs.span("htmldiff.render", mode=options.mode.value) as span:
        if options.mode in (PresentationMode.MERGED, PresentationMode.MERGED_REVERSED):
            html = renderer.render_merged(diff, note)
        elif options.mode is PresentationMode.ONLY_DIFFERENCES:
            html = renderer.render_only_differences(diff, note)
        elif options.mode is PresentationMode.NEW_ONLY:
            html = renderer.render_new_only(diff, note)
        else:  # pragma: no cover - exhaustive over the enum
            raise ValueError(f"unknown presentation mode: {options.mode}")
        span.set(bytes=len(html))
    return HtmlDiffResult(html=html, diff=diff,
                          density_suppressed=density_suppressed,
                          matcher_stats=matcher.stats())


def _coarse_line_diff(
    old_html: str,
    new_html: str,
    options: HtmlDiffOptions,
    matcher: TokenMatcher,
    reason: str,
) -> HtmlDiffResult:
    """Linear fallback when the sentence comparator would bust its
    work budget.

    A multiset comparison of source lines: each new-document line is
    either matched against an unconsumed identical old line (common) or
    shown as added; old lines never matched are shown as removed.  O(n)
    time and memory, deterministic, and honest about what changed — at
    line granularity rather than sentence granularity.
    """
    from ...html.entities import encode_entities

    old_lines = old_html.split("\n")
    new_lines = new_html.split("\n")

    from collections import Counter

    available = Counter(old_lines)
    consumed: Counter = Counter()
    entries: List[DiffEntry] = []
    shown: List[str] = []
    for line in new_lines:
        if consumed[line] < available[line]:
            consumed[line] += 1
            entries.append(DiffEntry(EntryClass.COMMON))
            shown.append("  " + encode_entities(line))
        else:
            entries.append(DiffEntry(EntryClass.NEW))
            shown.append("+ " + encode_entities(line))
    removed: List[str] = []
    seen: Counter = Counter()
    for line in old_lines:
        if seen[line] < consumed[line]:
            seen[line] += 1
        else:
            removed.append(line)
    for line in removed:
        entries.append(DiffEntry(EntryClass.OLD))

    diff = ClassifiedDiff(
        entries=entries, old_count=len(old_lines), new_count=len(new_lines)
    )
    renderer = MergedPageRenderer(options)
    note = f"Showing a coarse line diff: {reason}."
    parts = ["<PRE>", "\n".join(shown), "</PRE>"]
    if removed:
        parts.append("<P><STRIKE>Removed lines:</STRIKE></P>")
        parts.append("<PRE><STRIKE>")
        parts.append("\n".join("- " + encode_entities(line) for line in removed))
        parts.append("</STRIKE></PRE>")
    body = renderer._insert_banner(
        "\n".join(parts), renderer._banner(diff, note)
    )
    return HtmlDiffResult(
        html=body,
        diff=diff,
        matcher_stats=matcher.stats(),
        degraded=True,
        degrade_reason=reason,
    )
