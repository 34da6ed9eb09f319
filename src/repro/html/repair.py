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

from typing import List, Sequence

from .lexer import Node, Tag
from .model import AUTO_CLOSE, EMPTY_TAGS

__all__ = ["repair_nodes", "RepairStats"]


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


def repair_nodes(nodes: Sequence[Node], stats: RepairStats = None,
                 budget=None) -> List[Node]:
    """Return a balanced copy of ``nodes``.

    Every start tag of a non-empty element ends up with exactly one
    matching end tag, properly nested.  Text, comments and declarations
    pass through untouched.

    An optional hardening ``budget`` (``HtmlBudget`` from
    ``repro.web.guards``) caps the open-element stack depth: a tag bomb
    raises the nesting-depth guard error instead of building a
    million-entry stack and a doubled output list.
    """
    if stats is None:
        stats = RepairStats()
    out: List[Node] = []
    stack: List[str] = []  # open element names, innermost last

    for node in nodes:
        if not isinstance(node, Tag):
            out.append(node)
            continue
        name = node.name
        if not node.closing:
            implicit = AUTO_CLOSE.get(name)
            if implicit:
                while stack and stack[-1] in implicit:
                    out.append(_synthetic_close(stack[-1]))
                    stack.pop()
                    stats.implicit_closes += 1
            out.append(node)
            if name not in EMPTY_TAGS:
                stack.append(name)
                if budget is not None:
                    budget.check_depth(len(stack))
            continue
        # End tag.
        if name in EMPTY_TAGS or name not in stack:
            stats.stray_end_tags_dropped += 1
            continue
        while stack[-1] != name:
            out.append(_synthetic_close(stack[-1]))
            stack.pop()
            stats.out_of_order_closes += 1
        stack.pop()
        out.append(node)

    while stack:
        out.append(_synthetic_close(stack[-1]))
        stack.pop()
        stats.unclosed_at_eof += 1
    return out
