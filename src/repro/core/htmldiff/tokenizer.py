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
from sys import intern
from typing import List

from ...html.entities import decode_entities
from ...html.lexer import Node, Tag, Text, tokenize_html
from ...html.model import (
    PRESERVED_WHITESPACE_TAGS,
    SENTENCE_BREAKING_TAGS,
    is_content_defining,
)
from ...html.repair import repair_nodes
from .tokens import BreakToken, InlineMarkup, SentenceToken

__all__ = ["tokenize_document", "tokens_from_nodes"]

# Sentence-final punctuation, then any closing quotes or brackets, then
# whitespace, ends a sentence: the words before ``end(1)`` close it and
# the next sentence starts at ``end()``.  The pattern starts with a
# literal class (not a lookbehind) so the regex engine can skip ahead
# to candidate positions.
_SENTENCE_END_RE = re.compile(r"[.!?]([\"')\]]*)(\s+)")


def tokens_from_nodes(nodes: List[Node]) -> List:
    """Token sequence from an (already repaired) node stream.

    Comments and declarations are invisible to comparison.  Inside
    ``<PRE>`` (and the other whitespace-preserving tags) each line is
    its own sentence.  Words (and ``<PRE>`` lines) are interned: a page
    repeats a small vocabulary many times over, and the snapshot store
    keeps streams from one diff to the next, so each distinct word is
    held once.  CPython frees an interned string with its last
    reference, so the table does not grow without bound.
    """
    tokens: List = []
    append = tokens.append
    items: List = []  # the open sentence's words and inline markups
    preformatted = False
    pre_depth = 0
    for node in nodes:
        cls = node.__class__
        if cls is Tag:
            name = node.name
            preserving = name in PRESERVED_WHITESPACE_TAGS
            if preserving or name in SENTENCE_BREAKING_TAGS:
                if items:
                    append(SentenceToken(tuple(items), preformatted))
                    items = []
                append(BreakToken(node, node.normalized))
                if not preserving:
                    continue
                if not node.closing:
                    pre_depth += 1
                    preformatted = True
                elif pre_depth <= 1:
                    pre_depth = 0
                    preformatted = False
                else:
                    pre_depth -= 1
            else:
                normalized = node.normalized
                items.append(InlineMarkup(normalized, node.raw or normalized,
                                          is_content_defining(node)))
        elif cls is Text:
            data = node.data
            if "&" in data:
                data = decode_entities(data)
            if preformatted:
                for index, line in enumerate(data.split("\n")):
                    if index and items:  # each PRE line is its own sentence
                        append(SentenceToken(tuple(items), True))
                        items = []
                    if line.strip():
                        items.append(intern(line))
                continue
            pos = 0
            for match in _SENTENCE_END_RE.finditer(data):
                # str.split() splits on exactly what ``\s`` matches.
                items.extend(map(intern, data[pos:match.end(1)].split()))
                if items:
                    append(SentenceToken(tuple(items), False))
                    items = []
                pos = match.end()
            items.extend(map(intern, data[pos:].split()))
    if items:
        append(SentenceToken(tuple(items), preformatted))
    return tokens


def tokenize_document(source: str, budget=None) -> List:
    """Lex, repair, and tokenize an HTML document.

    ``budget`` (an ``HtmlBudget`` from ``repro.web.guards``) threads
    the hardening caps through the lex and repair passes; ``None``
    keeps the legacy unbounded behavior.
    """
    return tokens_from_nodes(
        repair_nodes(tokenize_html(source, budget=budget), budget=budget)
    )
