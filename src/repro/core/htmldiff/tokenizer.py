"""HTML document → HtmlDiff token sequence.

The lexical pass of Section 5.1: the node stream from
:mod:`repro.html.lexer` is regrouped into sentences and
sentence-breaking markups.  Comments and declarations carry no content
and are dropped from the token stream (they reappear only via the
new document's rendering of unchanged regions).

Inside ``<PRE>`` each line becomes one single-word sentence so that
layout edits in preformatted blocks are detected (whitespace is content
there).
"""

from __future__ import annotations

import re
from typing import List

from ...html.entities import decode_entities
from ...html.lexer import Node, Tag, Text, tokenize_html
from ...html.model import (
    PRESERVED_WHITESPACE_TAGS,
    is_content_defining,
    is_sentence_breaking,
)
from ...html.repair import repair_nodes
from .tokens import BreakToken, InlineMarkup, SentenceItem, SentenceToken

__all__ = ["tokenize_document", "tokens_from_nodes"]

# Sentence-final punctuation followed by whitespace ends a sentence.
_SENTENCE_END_RE = re.compile(r"((?<=[.!?])[\"')\]]*)(\s+)")


class _Builder:
    """Accumulates sentence items and flushes completed tokens."""

    def __init__(self) -> None:
        self.tokens: List = []
        self._items: List[SentenceItem] = []
        self._preformatted = False

    def flush(self) -> None:
        if self._items:
            self.tokens.append(
                SentenceToken(items=tuple(self._items),
                              preformatted=self._preformatted)
            )
            self._items = []

    def add_markup(self, tag: Tag) -> None:
        self._items.append(
            InlineMarkup(
                normalized=tag.normalized,
                raw=tag.raw or tag.normalized,
                content_defining=is_content_defining(tag),
            )
        )

    def add_break(self, tag: Tag) -> None:
        self.flush()
        self.tokens.append(BreakToken(tag=tag, normalized=tag.normalized))

    def enter_preformatted(self) -> None:
        self.flush()
        self._preformatted = True

    def leave_preformatted(self) -> None:
        self.flush()
        self._preformatted = False

    def add_text(self, data: str) -> None:
        if self._preformatted:
            self._add_preformatted_text(data)
        else:
            self._add_flowing_text(data)

    def _add_preformatted_text(self, data: str) -> None:
        lines = decode_entities(data).split("\n")
        for index, line in enumerate(lines):
            if index > 0:
                self.flush()  # each PRE line is its own sentence
            if line.strip():
                self._items.append(line)

    def _add_flowing_text(self, data: str) -> None:
        decoded = decode_entities(data)
        # Split while keeping track of which gaps end a sentence.
        pos = 0
        for match in _SENTENCE_END_RE.finditer(decoded):
            # str.split() splits on exactly what ``\s`` matches.
            self._items.extend(decoded[pos:match.end(1)].split())
            self.flush()
            pos = match.end()
        self._items.extend(decoded[pos:].split())


def tokens_from_nodes(nodes: List[Node]) -> List:
    """Token sequence from an (already repaired) node stream."""
    builder = _Builder()
    pre_depth = 0
    for node in nodes:
        if isinstance(node, Tag):
            if node.name in PRESERVED_WHITESPACE_TAGS:
                if node.closing:
                    pre_depth = max(0, pre_depth - 1)
                    builder.add_break(node)
                    if pre_depth == 0:
                        builder.leave_preformatted()
                    continue
                builder.add_break(node)
                pre_depth += 1
                builder.enter_preformatted()
                continue
            if is_sentence_breaking(node):
                builder.add_break(node)
            else:
                builder.add_markup(node)
        elif isinstance(node, Text):
            builder.add_text(node.data)
        # Comments and declarations are invisible to comparison.
    builder.flush()
    return builder.tokens


def tokenize_document(source: str, budget=None) -> List:
    """Lex, repair, and tokenize an HTML document.

    ``budget`` (an ``HtmlBudget`` from ``repro.web.guards``) threads
    the hardening caps through the lex and repair passes; ``None``
    keeps the legacy unbounded behavior.
    """
    return tokens_from_nodes(
        repair_nodes(tokenize_html(source, budget=budget), budget=budget)
    )
