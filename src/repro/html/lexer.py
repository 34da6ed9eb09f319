"""A lexical analyzer for 1995-era HTML.

Paper Section 5.1: "A simple lexical analysis of an HTML document
creates the token sequence and converts the case of the markup name and
associated (variable,value) pairs to uppercase; parsing is not
required."  This module supplies that lexical pass: it splits a document
into tags, text runs, comments, and declarations without building a
tree.  Downstream, :mod:`repro.core.htmldiff.tokenizer` groups these
nodes into sentences and sentence-breaking markups.

Each node keeps its raw source slice so serialization can reproduce the
original byte-for-byte; a tag's normalized form (used for comparison) is
computed once, when the tag is built.
"""

from __future__ import annotations

import re
from typing import Iterator, List, Optional, Tuple, Union

__all__ = ["Tag", "Text", "Comment", "Declaration", "Node", "tokenize_html",
           "iter_nodes"]

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9._\-]*")
_WS_RE = re.compile(r"\s+")


class Record:
    """A plain slotted record, immutable by convention.

    Equality (same type only), hash and repr cover ``_fields`` in
    order, as a frozen dataclass's would; a slot left out of
    ``_fields`` (a value derived at construction) takes no part.
    Nothing may assign to a record after construction.
    """

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Tag(Record):
    """A start or end tag, with parsed attributes.

    ``attrs`` preserves source order and case; ``name`` is stored
    uppercase (the lexer's canonical case, per the paper).  ``raw`` is
    the exact source text including angle brackets.  ``normalized`` is
    the comparison key, built once: case-folded, whitespace-collapsed,
    attributes sorted -- per the paper, markups "must be identical
    (modulo whitespace, case, and reordering of (variable,value)
    pairs)".
    """

    __slots__ = ("name", "attrs", "closing", "raw", "normalized")
    _fields = __slots__[:4]

    def __init__(self, name: str,
                 attrs: Tuple[Tuple[str, Optional[str]], ...] = (),
                 closing: bool = False, raw: str = "") -> None:
        self.name = name
        self.attrs = attrs
        self.closing = closing
        self.raw = raw
        if not attrs:
            self.normalized = ("</" if closing else "<") + name + ">"
            return
        parts = [("/" if closing else "") + name]
        for key, has_value, value in sorted(
                (key.upper(), value is not None, (value or "").upper())
                for key, value in attrs):
            parts.append(f"{key}={value}" if has_value else key)
        self.normalized = "<" + " ".join(parts) + ">"

    def attr(self, name: str) -> Optional[str]:
        """First value of an attribute, case-insensitively (None if absent
        or valueless)."""
        wanted = name.upper()
        for key, value in self.attrs:
            if key.upper() == wanted:
                return value
        return None

    def has_attr(self, name: str) -> bool:
        wanted = name.upper()
        return any(key.upper() == wanted for key, value in self.attrs)

    def __str__(self) -> str:
        return self.raw or self.normalized


class Text(Record):
    """A run of character data between tags (entities not yet decoded)."""

    __slots__ = _fields = ("data",)

    def __init__(self, data: str) -> None:
        self.data = data

    def __str__(self) -> str:
        return self.data


class Comment(Record):
    """``<!-- ... -->`` — ignored by comparison, preserved by output."""

    __slots__ = _fields = ("data", "raw")

    def __init__(self, data: str, raw: str = "") -> None:
        self.data = data
        self.raw = raw

    def __str__(self) -> str:
        return self.raw or f"<!--{self.data}-->"


class Declaration(Record):
    """``<!DOCTYPE ...>`` and friends."""

    __slots__ = _fields = ("raw",)

    def __init__(self, raw: str) -> None:
        self.raw = raw

    def __str__(self) -> str:
        return self.raw


Node = Union[Tag, Text, Comment, Declaration]


def _parse_attrs(body: str, budget=None) -> Tuple[Tuple[str, Optional[str]], ...]:
    """Parse the attribute region of a start tag.

    Handles ``name``, ``name=value``, ``name="value"``, ``name='value'``
    in any mix, tolerating sloppy whitespace — 1995 HTML was hand-typed.
    An optional hardening ``budget`` caps attributes per tag (the
    attr-bomb guard); it is charged as the list grows so a pathological
    tag aborts early instead of being materialized first.
    """
    attrs: List[Tuple[str, Optional[str]]] = []
    pos = 0
    length = len(body)
    while pos < length:
        ws = _WS_RE.match(body, pos)
        if ws:
            pos = ws.end()
        if pos >= length:
            break
        name_match = _NAME_RE.match(body, pos)
        if not name_match:
            pos += 1  # skip stray characters rather than failing
            continue
        name = name_match.group(0)
        pos = name_match.end()
        ws = _WS_RE.match(body, pos)
        if ws:
            pos = ws.end()
        if pos < length and body[pos] == "=":
            pos += 1
            ws = _WS_RE.match(body, pos)
            if ws:
                pos = ws.end()
            if pos < length and body[pos] in ("'", '"'):
                quote = body[pos]
                end = body.find(quote, pos + 1)
                if end == -1:
                    value = body[pos + 1:]
                    pos = length
                else:
                    value = body[pos + 1:end]
                    pos = end + 1
            else:
                end = pos
                while end < length and not body[end].isspace():
                    end += 1
                value = body[pos:end]
                pos = end
            attrs.append((name, value))
        else:
            attrs.append((name, None))
        if budget is not None:
            budget.check_attrs(len(attrs))
    return tuple(attrs)


def tokenize_html(source: str, budget=None) -> List[Node]:
    """Lex an HTML document into a flat node list.

    Never raises on malformed input: unterminated tags become text, junk
    inside tags is skipped.  Robustness matters more than strictness —
    w3newer and snapshot feed this whatever the wire delivered.

    The one exception is an explicit hardening ``budget`` (an
    ``HtmlBudget`` from ``repro.web.guards``): token-count and
    attribute caps raise its guard errors, turning markup bombs into
    quarantine verdicts instead of memory floods.  Without a budget
    (the default) behavior is exactly the legacy never-raises contract.
    """
    return list(iter_nodes(source, budget=budget))


def iter_nodes(source: str, budget=None, start: int = 0) -> Iterator[Node]:
    """Streaming form of :func:`tokenize_html`, from offset ``start``.

    The lexer keeps no state but its offset, and its nodes cover the
    source contiguously: lexing from the end of any node yields what
    lexing the whole document yields from there on.  Nothing up to the
    end of a tag is found by reading past that end, so two texts that
    agree up to there lex alike up to there.
    """
    find = source.find
    startswith = source.startswith
    pos = start
    length = len(source)
    while pos < length:
        lt = find("<", pos)
        if lt == -1:
            node = Text(source[pos:])
            pos = length
        elif lt > pos:
            node = Text(source[pos:lt])
            pos = lt
        elif startswith("<!--", lt):
            end = find("-->", lt + 4)
            if end == -1:
                node = Comment(source[lt + 4:], source[lt:])
                pos = length
            else:
                node = Comment(source[lt + 4:end], source[lt:end + 3])
                pos = end + 3
        else:
            end = find(">", lt)
            if end == -1:
                # Unterminated tag or declaration: literal text, as
                # browsers did.
                node = Text(source[lt:])
                pos = length
            elif startswith("<!", lt):
                node = Declaration(source[lt:end + 1])
                pos = end + 1
            else:
                closing = startswith("/", lt + 1)
                body = source[lt + 1 + closing:end].strip()
                name_match = _NAME_RE.match(body)
                if name_match is None:
                    # "<>" or "< 3" -- not markup; literal text.
                    node = Text(source[lt:end + 1])
                else:
                    name_end = name_match.end()
                    if closing or name_end == len(body):
                        attrs = ()
                    else:
                        attrs = _parse_attrs(body[name_end:], budget=budget)
                    node = Tag(body[:name_end].upper(), attrs, closing,
                               source[lt:end + 1])
                pos = end + 1
        if budget is not None:
            budget.charge_token()
        yield node
