"""HtmlDiff's token model.

Paper Section 5.1: "In HtmlDiff, a token is either a sentence-breaking
markup or a sentence, which consists of a sequence of words and
non-sentence-breaking markups."  Sentences are *not* recursive; their
elements are words (compared exactly) and inline markups (compared by
normalized form).  Sentence *length* counts only words and
content-defining markups — ``<B>`` and ``<I>`` are invisible to the
length metric and to the match weight.

A word is a plain ``str`` (raw text, entities decoded, whitespace
delimited): strings, and tuples holding only strings, are invisible to
the cyclic garbage collector, and a page's worth of diffs holds
hundreds of thousands of words.  A sentence's ``key`` and ``length``
are fixed when it is built, because the matcher and the renderer read
them for every pair they look at.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple, Union

from ...html.lexer import Tag

__all__ = ["InlineMarkup", "SentenceItem", "SentenceToken", "BreakToken",
           "Token"]


@dataclass(frozen=True)
class InlineMarkup:
    """A non-sentence-breaking markup inside a sentence.

    ``normalized`` is the comparison key (case/order/whitespace
    canonical); ``raw`` is what rendering emits; ``content_defining``
    decides whether it counts toward sentence length and whether a
    change to it is highlighted.
    """

    normalized: str
    raw: str
    content_defining: bool

    def __eq__(self, other: object) -> bool:
        if isinstance(other, InlineMarkup):
            return self.normalized == other.normalized
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.normalized)

    def __str__(self) -> str:
        return self.raw


#: A word (``str``) or an inline markup.
SentenceItem = Union[str, InlineMarkup]


@dataclass(frozen=True)
class SentenceToken:
    """A sentence: the fuzzy-matchable unit of comparison."""

    items: Tuple[SentenceItem, ...]
    #: True when the sentence came from inside <PRE>: whitespace is
    #: content there and rendering must not re-flow it.
    preformatted: bool = False
    #: Hashable identity used for weight memoization: each word, and
    #: each markup's normalized form.  A sentence of words only is its
    #: own key.
    key: Tuple[str, ...] = field(init=False, compare=False, repr=False)
    #: Paper: "the number of words and 'content-defining' markups such
    #: as <IMG> or <A> in a sentence.  Markups such as <B> or <I> are
    #: not counted."
    length: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        items = self.items
        key = items
        length = 0
        for item in items:
            if type(item) is str:
                length += 1
            else:
                key = None
                length += item.content_defining
        if key is None:
            key = tuple(item if type(item) is str else item.normalized
                        for item in items)
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "length", length)

    @property
    def words(self) -> Tuple[str, ...]:
        return tuple(item for item in self.items if type(item) is str)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return " ".join(str(item) for item in self.items)


@dataclass(frozen=True)
class BreakToken:
    """A sentence-breaking markup: matches only identical break markups
    (modulo whitespace, case, and attribute reordering), weight 1."""

    tag: Tag = field(compare=False)
    normalized: str = ""

    @property
    def key(self) -> Tuple:
        return (self.normalized,)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.normalized


Token = Union[SentenceToken, BreakToken]
