"""HTML document → HtmlDiff token sequence.

The lexical pass of Section 5.1: the node stream from
:mod:`repro.html.lexer` is repaired and regrouped into sentences and
sentence-breaking markups.  Comments and declarations carry no content
and are dropped from the token stream (they reappear only via the
new document's rendering of unchanged regions).

Inside ``<PRE>`` each line becomes one single-word sentence so that
layout edits in preformatted blocks are detected (whitespace is content
there).

A document's next version usually differs from it in one place, so
:func:`tokenize_document` can take the stream of another version and
tokenize only the stretch that differs (see :class:`TokenStream`).
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from itertools import chain
from operator import itemgetter
from sys import intern, maxsize
from typing import Iterable, Iterator, List, Optional

from ...html.entities import decode_entities
from ...html.lexer import Node, Tag, Text, iter_nodes
from ...html.model import (
    PRESERVED_WHITESPACE_TAGS,
    SENTENCE_BREAKING_TAGS,
    is_content_defining,
)
from ...html.repair import close_open, repair_tag
from ...web.guards import ContentGuardError, MarkupDepthExceeded
from .tokens import BreakToken, InlineMarkup, SentenceToken

__all__ = ["TokenStream", "tokenize_document", "tokens_from_nodes"]

# Sentence-final punctuation, then any closing quotes or brackets, then
# whitespace, ends a sentence: the words before ``end(1)`` close it and
# the next sentence starts at ``end()``.  The pattern starts with a
# literal class (not a lookbehind) so the regex engine can skip ahead
# to candidate positions.
_SENTENCE_END_RE = re.compile(r"[.!?]([\"')\]]*)(\s+)")

#: Ends the node stream: the repairer closes what is still open.
_END = (None,)

_OFFSET = itemgetter(0)


class TokenStream:
    """A document's tokens, with what a later splice needs.

    ``tokens`` is the plain token list, ``source`` the text it was made
    from and ``nodes`` the number of nodes lexed from that.  ``marks``
    are its checkpoints, one after each tag of the source that emitted
    a break token (not after a close the repairer made up):
    ``(offset just past the tag's ">", tokens so far, nodes so far,
    pre_depth, *open element names)``.  At a checkpoint no sentence is
    open, and the rest of the stream depends only on the source from
    the offset on and on the state: the ``<PRE>`` depth and the open
    elements.  (``tokens`` is a plain list, not this class's base:
    CPython specializes indexing for exact lists only, and the matcher
    and renderer index token lists heavily.)
    """

    __slots__ = ("tokens", "source", "marks", "nodes")

    def __init__(self) -> None:
        self.tokens: List = []
        self.source = ""
        self.marks: List[tuple] = []
        self.nodes = 0


def _run(nodes: Iterator, tokens: List, marks: Optional[List[tuple]],
         pos: int, count: int, pre_depth: int, stack: List[str], budget,
         kept: Optional[TokenStream] = None, delta: int = 0,
         suffix_from: int = maxsize) -> int:
    """Repair and tokenize ``nodes`` onto ``tokens``; the node count.

    The loop resumes from a checkpoint: ``pos`` and ``count`` are the
    source offset and node count so far, ``pre_depth`` and ``stack``
    the state there.  It records the checkpoints it passes in
    ``marks``, unless that is ``None``.  From offset ``suffix_from`` on
    the source is ``kept``'s source shifted by ``delta``: at the first
    checkpoint there whose state equals ``kept``'s checkpoint at the
    same text, ``kept``'s tokens finish the stream.

    Comments and declarations are invisible to comparison.  Inside
    ``<PRE>`` (and the other whitespace-preserving tags) each line is
    its own sentence.  Words (and ``<PRE>`` lines) are interned: a page
    repeats a small vocabulary many times over, and the snapshot store
    keeps streams from one diff to the next, so each distinct word is
    held once.  CPython frees an interned string with its last
    reference, so the table does not grow without bound.
    """
    append = tokens.append
    kept_marks = kept.marks if kept is not None else ()
    at = 0  # where the search for a kept checkpoint starts
    items: List = []  # the open sentence's words and inline markups
    for node in nodes:
        cls = node.__class__
        if cls is Text:
            count += 1
            data = node.data
            pos += len(data)
            if "&" in data:
                data = decode_entities(data)
            if pre_depth:
                for index, line in enumerate(data.split("\n")):
                    if index and items:  # each PRE line is its own sentence
                        append(SentenceToken(tuple(items), True))
                        items = []
                    if line.strip():
                        items.append(intern(line))
                continue
            start = 0
            for match in _SENTENCE_END_RE.finditer(data):
                # str.split() splits on exactly what ``\s`` matches.
                items.extend(map(intern, data[start:match.end(1)].split()))
                if items:
                    append(SentenceToken(tuple(items), False))
                    items = []
                start = match.end()
            items.extend(map(intern, data[start:].split()))
            continue
        if cls is Tag:
            count += 1
            pos += len(node.raw)
            try:
                tags = repair_tag(node, stack, None, budget)
            except MarkupDepthExceeded:
                # Lexing the whole document before repairing it ranks
                # a lexing error anywhere above a nesting error.
                for _ in nodes:
                    pass
                raise
        elif node is None:
            tags = close_open(stack)
        else:  # comment or declaration
            count += 1
            pos += len(node.raw)
            continue
        for tag in tags:
            name = tag.name
            preserving = name in PRESERVED_WHITESPACE_TAGS
            if preserving or name in SENTENCE_BREAKING_TAGS:
                if items:
                    append(SentenceToken(tuple(items), pre_depth > 0))
                    items = []
                append(BreakToken(tag, tag.normalized))
                if preserving:
                    if not tag.closing:
                        pre_depth += 1
                    elif pre_depth:
                        pre_depth -= 1
            else:
                normalized = tag.normalized
                items.append(InlineMarkup(normalized, tag.raw or normalized,
                                          is_content_defining(tag)))
        if node is None or items or not tags:
            continue
        # ``node`` emitted a break token: a checkpoint.
        if pos >= suffix_from:
            at = bisect_left(kept_marks, pos - delta, at, key=_OFFSET)
            if at < len(kept_marks):
                mark = kept_marks[at]
                if (mark[0] == pos - delta
                        and mark[3:] == (pre_depth, *stack)):
                    return _finish(tokens, marks, kept, at, pos, count,
                                   delta, budget)
        if marks is not None:
            marks.append((pos, len(tokens), count, pre_depth, *stack))
    if items:
        append(SentenceToken(tuple(items), pre_depth > 0))
    return count


def _finish(tokens: List, marks: Optional[List[tuple]], kept: TokenStream,
            at: int, pos: int, count: int, delta: int, budget) -> int:
    """End ``tokens`` with ``kept``'s tokens from its checkpoint ``at``,
    which has the state the stream has at offset ``pos``; the node
    count."""
    _, reused, nodes, *state = kept.marks[at]
    rest = kept.nodes - nodes
    if budget is not None:
        budget.charge_token(rest)
    if marks is not None:
        shift_tokens = len(tokens) - reused
        shift_nodes = count - nodes
        marks.append((pos, len(tokens), count, *state))
        marks.extend(
            (mark[0] + delta, mark[1] + shift_tokens, mark[2] + shift_nodes)
            + mark[3:] for mark in kept.marks[at + 1:])
    tokens.extend(kept.tokens[reused:])
    return count + rest


def tokens_from_nodes(nodes: Iterable[Node]) -> List:
    """Token sequence from a lexed node stream, repaired on the way (a
    stream :func:`repro.html.repair.repair_nodes` made passes through
    the repairer unchanged)."""
    tokens: List = []
    _run(chain(nodes, _END), tokens, None, 0, 0, 0, [], None)
    return tokens


def _common_prefix(a: str, b: str) -> int:
    """Length of the longest common prefix, by binary search over
    slice comparisons (each runs at C speed)."""
    low, high = 0, min(len(a), len(b))
    while low < high:
        mid = (low + high + 1) >> 1
        if a.startswith(b[low:mid], low):
            low = mid
        else:
            high = mid - 1
    return low


def _common_suffix(a: str, b: str, limit: int) -> int:
    """Length of the longest common suffix, at most ``limit``."""
    end_a, end_b = len(a), len(b)
    low, high = 0, limit
    while low < high:
        mid = (low + high + 1) >> 1
        if a.endswith(b[end_b - mid:end_b - low], 0, end_a - low):
            low = mid
        else:
            high = mid - 1
    return low


def _metered(source: str, budget, start: int) -> Iterator[Node]:
    """:func:`iter_nodes` under ``budget``.  A whole-document lex comes
    before any repair, so a lexing error leaves the meter's peak depth
    where it started."""
    peak = budget.peak_depth
    try:
        yield from iter_nodes(source, budget, start)
    except ContentGuardError:
        budget.peak_depth = peak
        raise


def tokenize_document(source: str, budget=None,
                      kept: Optional[TokenStream] = None,
                      stream: Optional[TokenStream] = None) -> List:
    """Lex, repair, and tokenize an HTML document.

    ``budget`` (an ``HtmlBudget`` from ``repro.web.guards``) threads
    the hardening caps through the lex and repair passes; ``None``
    keeps the legacy unbounded behavior.  The errors are those of
    lexing the whole document and then repairing it: a lexing error
    anywhere outranks a nesting error.

    ``stream``, when given, is a fresh :class:`TokenStream` that
    receives the document, its tokens (the list returned) and its
    checkpoints.  Passed as ``kept`` to the tokenization of another
    version of the document under the same caps, it lets that one
    tokenize only the stretch where the two texts differ: it resumes
    from ``kept``'s last checkpoint inside the common prefix, and ends
    with ``kept``'s own tokens from the first checkpoint inside the
    common suffix whose state matches.  The tokens, and any guard
    error, are the same as without ``kept``; the reused stretches are
    charged to ``budget`` in bulk (they passed the same caps when
    ``kept`` was made), and its peak depth covers only the tokenized
    stretch.
    """
    tokens: List = []
    marks: Optional[List[tuple]] = [] if stream is not None else None
    pos = count = pre_depth = delta = 0
    stack: List[str] = []
    suffix_from = maxsize
    if kept is not None:
        old = kept.source
        prefix = _common_prefix(old, source)
        suffix = _common_suffix(old, source,
                                min(len(old), len(source)) - prefix)
        resume = bisect_right(kept.marks, prefix, key=_OFFSET)
        if resume:
            pos, reused, count, pre_depth, *stack = kept.marks[resume - 1]
            tokens.extend(kept.tokens[:reused])
            if marks is not None:
                marks.extend(kept.marks[:resume])
            if budget is not None:
                budget.charge_token(count)
        delta = len(source) - len(old)
        suffix_from = len(source) - suffix
    if budget is None:
        nodes = iter_nodes(source, None, pos)
    else:
        nodes = _metered(source, budget, pos)
    count = _run(chain(nodes, _END), tokens, marks, pos, count, pre_depth,
                 stack, budget, kept, delta, suffix_from)
    if stream is not None:
        stream.tokens = tokens
        stream.source = source
        stream.marks = marks
        stream.nodes = count
    return tokens
