"""Markup rectification.

Paper Section 5.3: "HtmlDiff can parse an HTML document and rectify
certain syntactic problems, such as mismatched or missing markups".
Hand-written 1995 HTML routinely omitted ``</P>`` and ``</LI>``, closed
elements in the wrong order, or closed elements never opened.  The
merged-page renderer needs balanced markup to splice highlight tags in
safely, so documents pass through this normalizer first.

The repair is purely stack-based (no grammar): implicit closes from
:data:`repro.html.model.AUTO_CLOSE`, out-of-order end tags close the
intervening elements, stray end tags are dropped, and everything still
open at end-of-document is closed.
"""

from __future__ import annotations

from typing import Iterable, List

from .lexer import Node, Tag
from .model import AUTO_CLOSE, EMPTY_TAGS

__all__ = ["repair_nodes", "repair_tag", "close_open", "RepairStats"]


class RepairStats:
    """Counts of the fixes applied, for diagnostics and tests."""

    def __init__(self) -> None:
        self.implicit_closes = 0
        self.stray_end_tags_dropped = 0
        self.unclosed_at_eof = 0
        self.out_of_order_closes = 0

    @property
    def total(self) -> int:
        return (
            self.implicit_closes
            + self.stray_end_tags_dropped
            + self.unclosed_at_eof
            + self.out_of_order_closes
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RepairStats(implicit={self.implicit_closes}, "
            f"stray={self.stray_end_tags_dropped}, "
            f"eof={self.unclosed_at_eof}, "
            f"reorder={self.out_of_order_closes})"
        )


def _synthetic_close(name: str) -> Tag:
    return Tag(name, (), True, f"</{name}>")


def repair_tag(tag: Tag, stack: List[str], stats: RepairStats = None,
               budget=None) -> List[Tag]:
    """The tags to emit for ``tag``, given the open elements ``stack``.

    ``stack`` holds the open element names, innermost last; it is
    updated in place, so a caller that keeps it can carry on from any
    point of a document.  A start tag comes after the implicit closes
    it causes; an end tag after the closes of the elements opened
    inside it; a stray end tag emits nothing.

    An optional hardening ``budget`` (``HtmlBudget`` from
    ``repro.web.guards``) caps the stack depth: a tag bomb raises the
    nesting-depth guard error instead of building a million-entry
    stack.
    """
    name = tag.name
    out: List[Tag] = []
    if not tag.closing:
        implicit = AUTO_CLOSE.get(name)
        while implicit and stack and stack[-1] in implicit:
            out.append(_synthetic_close(stack.pop()))
            if stats is not None:
                stats.implicit_closes += 1
        out.append(tag)
        if name not in EMPTY_TAGS:
            stack.append(name)
            if budget is not None:
                budget.check_depth(len(stack))
        return out
    if name in EMPTY_TAGS or name not in stack:
        if stats is not None:
            stats.stray_end_tags_dropped += 1
        return out
    while stack[-1] != name:
        out.append(_synthetic_close(stack.pop()))
        if stats is not None:
            stats.out_of_order_closes += 1
    stack.pop()
    out.append(tag)
    return out


def close_open(stack: List[str], stats: RepairStats = None) -> List[Tag]:
    """Closes for everything still open at end of document, innermost
    first; ``stack`` is left empty."""
    out = [_synthetic_close(name) for name in reversed(stack)]
    if stats is not None:
        stats.unclosed_at_eof += len(out)
    stack.clear()
    return out


def repair_nodes(nodes: Iterable[Node], stats: RepairStats = None,
                 budget=None) -> List[Node]:
    """Return a balanced copy of ``nodes``.

    Every start tag of a non-empty element ends up with exactly one
    matching end tag, properly nested.  Text, comments and declarations
    pass through untouched.  Each tag goes through :func:`repair_tag`
    (``budget`` caps the depth there), and :func:`close_open` ends the
    document.
    """
    out: List[Node] = []
    stack: List[str] = []
    for node in nodes:
        if isinstance(node, Tag):
            out.extend(repair_tag(node, stack, stats, budget))
        else:
            out.append(node)
    out.extend(close_open(stack, stats))
    return out
