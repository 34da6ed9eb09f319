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

Every token also has ``html``, what the merged page shows for it when it
is common: a break's source tag, a sentence's items re-emitted
(:func:`render_sentence_source`).  A sentence derives it on first read
and keeps it in a slot, so it lives and dies with the token: the
snapshot store hands the same token objects from one Diff to the next,
and a token that stays common renders once across all of them.

Tokens are plain slotted records (:class:`repro.html.lexer.Record`),
immutable by convention: a page builds hundreds of them per visit, and
a frozen dataclass's ``__init__`` costs several times a plain one's.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

from ...html.entities import encode_entities
from ...html.lexer import Record, Tag

__all__ = ["InlineMarkup", "SentenceItem", "SentenceToken", "BreakToken",
           "Token", "render_items", "render_sentence_source"]


class InlineMarkup(Record):
    """A non-sentence-breaking markup inside a sentence.

    ``normalized`` is the comparison key (case/order/whitespace
    canonical); ``raw`` is what rendering emits; ``content_defining``
    decides whether it counts toward sentence length and whether a
    change to it is highlighted.
    """

    __slots__ = _fields = ("normalized", "raw", "content_defining")

    def __init__(self, normalized: str, raw: str,
                 content_defining: bool) -> None:
        self.normalized = normalized
        self.raw = raw
        self.content_defining = content_defining

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


def render_items(items: Sequence[SentenceItem], joiner: str,
                 open_: str = "", close: str = "") -> str:
    """Items re-emitted as HTML: markups raw, each maximal run of words
    re-escaped and wrapped in ``open_``/``close``.  Escaping is per
    character, so a run escapes in one call."""
    pieces: List[str] = []
    run: List[str] = []
    for item in items:
        if type(item) is str:
            run.append(item)
            continue
        if run:
            pieces.append(f"{open_}{encode_entities(joiner.join(run))}{close}")
            run = []
        pieces.append(item.raw)
    if run:
        pieces.append(f"{open_}{encode_entities(joiner.join(run))}{close}")
    return joiner.join(pieces)


def render_sentence_source(sentence: "SentenceToken") -> str:
    """A sentence re-emitted as HTML: markups raw, words re-escaped."""
    return render_items(sentence.items, sentence.joiner)


class SentenceToken(Record):
    """A sentence: the fuzzy-matchable unit of comparison.

    ``preformatted`` is True when the sentence came from inside <PRE>:
    whitespace is content there and rendering must not re-flow it.
    ``key`` and ``length`` are derived once, at construction, and
    ``html`` on first read; none takes part in equality or repr.
    """

    __slots__ = ("items", "preformatted", "key", "length", "html")
    _fields = __slots__[:2]

    def __init__(self, items: Tuple[SentenceItem, ...],
                 preformatted: bool = False) -> None:
        self.items = items
        self.preformatted = preformatted
        # ``key``: hashable identity used for weight memoization -- each
        # word, and each markup's normalized form.  A sentence of words
        # only is its own key.  ``length``, per the paper: "the number
        # of words and 'content-defining' markups such as <IMG> or <A>
        # in a sentence.  Markups such as <B> or <I> are not counted."
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
        self.key = key
        self.length = length

    def __getattr__(self, name: str) -> str:
        # Runs only while the ``html`` slot is unset: the first read
        # fills it, and later reads are plain slot reads.  Derived on
        # demand because most tokens of a fully tokenized page are
        # never rendered as common (an old page's, for one).
        if name != "html":
            raise AttributeError(name)
        self.html = html = render_sentence_source(self)
        return html

    @property
    def joiner(self) -> str:
        """What separates rendered items: a newline inside <PRE>."""
        return "\n" if self.preformatted else " "

    @property
    def words(self) -> Tuple[str, ...]:
        return tuple(item for item in self.items if type(item) is str)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return " ".join(str(item) for item in self.items)


class BreakToken(Record):
    """A sentence-breaking markup: matches only identical break markups
    (modulo whitespace, case, and attribute reordering), weight 1."""

    __slots__ = _fields = ("tag", "normalized")

    def __init__(self, tag: Tag, normalized: str = "") -> None:
        self.tag = tag
        self.normalized = normalized

    def __eq__(self, other: object) -> bool:
        if other.__class__ is BreakToken:
            return self.normalized == other.normalized
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.normalized,))

    @property
    def key(self) -> Tuple:
        return (self.normalized,)

    @property
    def html(self) -> str:
        return self.tag.raw or self.normalized

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.normalized


Token = Union[SentenceToken, BreakToken]
