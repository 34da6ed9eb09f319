"""Differential test: the tokenizer against a frozen-dataclass reference.

The reference model below is the earlier pipeline: frozen-dataclass
nodes and tokens, a lexer that charges the budget through an ``emit``
closure, a repairer that goes through ``is_empty_tag``, an accumulator
class, and a sentence-end regex that starts with a lookbehind.  The
production pipeline uses plain slotted records, an inline budget
charge and one tokenizer loop; it must produce the same token streams,
the same node and token equality, hash and repr, and the same guard
errors.

The reference shares the tag tables, ``_NAME_RE``, ``_parse_attrs``
and ``decode_entities`` with production.  The two intended behaviour
changes are pinned separately: ``&Eacute;`` and its kin now decode to
capitals (``tests/html/test_entities_oracle.py``), and ``normalized``
now sorts duplicate attributes by the case-folded value it prints
(:meth:`TestIntendedDifferences.test_normalized_sorts_case_folded`).
No input below carries an uppercase-only entity or a duplicate
attribute whose values differ only in case.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import pytest

from repro.core.htmldiff.tokenizer import (
    _SENTENCE_END_RE,
    tokenize_document,
    tokens_from_nodes,
)
from repro.core.htmldiff.tokens import BreakToken, InlineMarkup, SentenceToken
from repro.html.entities import decode_entities
from repro.html.lexer import _NAME_RE, _parse_attrs, tokenize_html
from repro.html.model import (
    AUTO_CLOSE,
    PRESERVED_WHITESPACE_TAGS,
    is_content_defining,
    is_empty_tag,
    is_sentence_breaking,
)
from repro.html.repair import repair_nodes
from repro.web.guards import (
    AttributeBomb,
    HtmlBudget,
    MarkupDepthExceeded,
    TokenBomb,
)
from repro.workloads.mutate import MUTATORS
from repro.workloads.pagegen import PageGenerator


# ----------------------------------------------------------------------
# Reference model: frozen dataclasses, closure-charged lexer, _Accumulator
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Tag:
    name: str
    attrs: Tuple[Tuple[str, Optional[str]], ...] = ()
    closing: bool = False
    raw: str = ""

    @property
    def normalized(self) -> str:
        parts = [("/" if self.closing else "") + self.name]
        for key, value in sorted(self.attrs,
                                 key=lambda kv: (kv[0].upper(), kv[1] or "")):
            if value is None:
                parts.append(key.upper())
            else:
                parts.append(f"{key.upper()}={value.upper()}")
        return "<" + " ".join(parts) + ">"


@dataclass(frozen=True)
class Text:
    data: str


@dataclass(frozen=True)
class Comment:
    data: str
    raw: str = ""


@dataclass(frozen=True)
class Declaration:
    raw: str


@dataclass(frozen=True)
class RefInlineMarkup:
    normalized: str
    raw: str
    content_defining: bool

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RefInlineMarkup):
            return self.normalized == other.normalized
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.normalized)


@dataclass(frozen=True)
class RefSentenceToken:
    items: tuple
    preformatted: bool = False
    key: tuple = field(init=False, compare=False, repr=False)
    length: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        key = self.items
        length = 0
        for item in self.items:
            if type(item) is str:
                length += 1
            else:
                key = None
                length += item.content_defining
        if key is None:
            key = tuple(item if type(item) is str else item.normalized
                        for item in self.items)
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "length", length)


@dataclass(frozen=True)
class RefBreakToken:
    tag: Tag = field(compare=False)
    normalized: str = ""

    @property
    def key(self) -> tuple:
        return (self.normalized,)


def ref_iter_nodes(source, budget=None):
    def emit(node):
        if budget is not None:
            budget.charge_token()
        return node

    pos = 0
    length = len(source)
    while pos < length:
        lt = source.find("<", pos)
        if lt == -1:
            yield emit(Text(source[pos:]))
            return
        if lt > pos:
            yield emit(Text(source[pos:lt]))
        if source.startswith("<!--", lt):
            end = source.find("-->", lt + 4)
            if end == -1:
                yield emit(Comment(source[lt + 4:], raw=source[lt:]))
                return
            yield emit(Comment(source[lt + 4:end], raw=source[lt:end + 3]))
            pos = end + 3
            continue
        if source.startswith("<!", lt):
            end = source.find(">", lt)
            if end == -1:
                yield emit(Text(source[lt:]))
                return
            yield emit(Declaration(source[lt:end + 1]))
            pos = end + 1
            continue
        end = source.find(">", lt)
        if end == -1:
            yield emit(Text(source[lt:]))
            return
        inner = source[lt + 1:end]
        closing = inner.startswith("/")
        if closing:
            inner = inner[1:]
        name_match = _NAME_RE.match(inner.strip())
        if not name_match:
            yield emit(Text(source[lt:end + 1]))
            pos = end + 1
            continue
        name = name_match.group(0).upper()
        attr_body = inner.strip()[name_match.end():]
        attrs = _parse_attrs(attr_body, budget=budget) if not closing else ()
        yield emit(Tag(name=name, attrs=attrs, closing=closing,
                       raw=source[lt:end + 1]))
        pos = end + 1


def ref_repair(nodes, budget=None):
    out: List = []
    stack: List[str] = []
    for node in nodes:
        if not isinstance(node, Tag):
            out.append(node)
            continue
        name = node.name
        if not node.closing:
            implicit = AUTO_CLOSE.get(name)
            if implicit:
                while stack and stack[-1] in implicit:
                    closed = stack.pop()
                    out.append(Tag(name=closed, closing=True,
                                   raw=f"</{closed}>"))
            out.append(node)
            if not is_empty_tag(name):
                stack.append(name)
                if budget is not None:
                    budget.check_depth(len(stack))
            continue
        if is_empty_tag(name) or name not in stack:
            continue
        while stack[-1] != name:
            closed = stack.pop()
            out.append(Tag(name=closed, closing=True, raw=f"</{closed}>"))
        stack.pop()
        out.append(node)
    while stack:
        closed = stack.pop()
        out.append(Tag(name=closed, closing=True, raw=f"</{closed}>"))
    return out


REF_SENTENCE_END_RE = re.compile(r"((?<=[.!?])[\"')\]]*)(\s+)")


class _Accumulator:
    def __init__(self) -> None:
        self.tokens: List = []
        self._items: List = []
        self._preformatted = False

    def flush(self) -> None:
        if self._items:
            self.tokens.append(RefSentenceToken(
                items=tuple(self._items), preformatted=self._preformatted))
            self._items = []

    def add_markup(self, tag) -> None:
        self._items.append(RefInlineMarkup(
            normalized=tag.normalized,
            raw=tag.raw or tag.normalized,
            content_defining=is_content_defining(tag),
        ))

    def add_break(self, tag) -> None:
        self.flush()
        self.tokens.append(RefBreakToken(tag=tag, normalized=tag.normalized))

    def enter_preformatted(self) -> None:
        self.flush()
        self._preformatted = True

    def leave_preformatted(self) -> None:
        self.flush()
        self._preformatted = False

    def add_text(self, data: str) -> None:
        if self._preformatted:
            for index, line in enumerate(decode_entities(data).split("\n")):
                if index > 0:
                    self.flush()
                if line.strip():
                    self._items.append(line)
            return
        decoded = decode_entities(data)
        pos = 0
        for match in REF_SENTENCE_END_RE.finditer(decoded):
            self._items.extend(decoded[pos:match.end(1)].split())
            self.flush()
            pos = match.end()
        self._items.extend(decoded[pos:].split())


def ref_tokens_from_nodes(nodes) -> List:
    acc = _Accumulator()
    pre_depth = 0
    for node in nodes:
        if isinstance(node, Tag):
            if node.name in PRESERVED_WHITESPACE_TAGS:
                if node.closing:
                    pre_depth = max(0, pre_depth - 1)
                    acc.add_break(node)
                    if pre_depth == 0:
                        acc.leave_preformatted()
                    continue
                acc.add_break(node)
                pre_depth += 1
                acc.enter_preformatted()
                continue
            if is_sentence_breaking(node):
                acc.add_break(node)
            else:
                acc.add_markup(node)
        elif isinstance(node, Text):
            acc.add_text(node.data)
    acc.flush()
    return acc.tokens


def ref_tokenize_document(source: str, budget=None) -> List:
    return ref_tokens_from_nodes(
        ref_repair(list(ref_iter_nodes(source, budget=budget)), budget=budget))


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
EDGE_CASES = [
    "",
    "   \n\t ",
    "plain text, no markup at all",
    "One two. Three four! Five six? Seven",
    'He said "stop." Then left.) And (so.) on.]  Next',
    "pi is 3.14 exactly; visit www.att.com today.",
    "ends with a period.",
    "trailing space after period. ",
    "...  ?!  \"'  )] .\n.\t!",
    "<PRE>line one\n  line two\n\n\nline four</PRE>after",
    "<PRE>outer<PRE>inner\nx</PRE>still pre\ny</PRE>flow. again",
    "<PRE>never closed\nline",
    "</PRE>stray close<PRE>a\nb",
    "<XMP>one\ntwo</XMP><LISTING>three\nfour</LISTING>",
    "<TEXTAREA>t\nu</TEXTAREA> v. w",
    "<P>unterminated <B tag",
    "<P>unterminated comment <!-- never closed",
    "<!DOCTYPE never closed",
    "a<>b < 3 and 5 > 2 <  > </> <!> x",
    "< P>spaced</ P> < /P>",
    "AT&amp;T &lt;tag&gt; &copy; &#65; &#x42; &bogus; &amp caf&eacute;.",
    "<P>caf&eacute; AT&amp;T &lt;3</P>",
    "&AMP; &Copy; &#99999999999; &#xZZ; & amp;",
    "Closer after stop.\" Next. ' Then!) more?] end.",
    "<B>bold.</B> next <I>it</I>. <A HREF=x>link.</A> <IMG SRC=y.gif> z",
    "</B></I></A> attribute-less closers </P></UL>",
    "<UL><LI>one<LI>two<LI>three</UL><DL><DT>t<DD>d<DT>t2</DL>",
    "<b><i>both</b></i> <table><tr><td>a<td>b<tr><td>c</table>",
    '<A  href =  "x"   name=y >sloppy</A> <img src=pic.gif align=left alt>',
    "<a href='x' HREF=\"y\">dup</a> <IMG alt ALT=x>",
    "<HR><BR><BR></BR><IMG></IMG><HR noshade>",
    "<P>text<!-- hidden --> more</P><!-- a -- b -->",
    '<FORM><INPUT TYPE=text NAME=q><SELECT><OPTION>a<OPTION>b</SELECT></FORM>',
    "x" * 50 + ". " + "y" * 50,
]


def generated_pages():
    """Seeded generator pages (plain, <PRE>, inline-markup-rich) under
    every mutation operator."""
    for seed in (11, 12, 13):
        gen = PageGenerator(seed=seed)
        plain = gen.page(paragraphs=10, links=6)
        pre = gen.page(paragraphs=10, links=4, with_pre=True)
        inline = plain.replace(" the ", ' <B>the</B> <IMG SRC="x.gif"> ', 4)
        for base in (plain, pre, inline):
            yield base
            for name in sorted(MUTATORS):
                yield MUTATORS[name](base, random.Random(seed))


def all_inputs():
    return EDGE_CASES + list(generated_pages())


# ----------------------------------------------------------------------
# Comparison helpers
# ----------------------------------------------------------------------
def item_view(item):
    if type(item) is str:
        return item
    return ("markup", item.normalized, item.raw, item.content_defining)


def token_view(token):
    if isinstance(token, (SentenceToken, RefSentenceToken)):
        return ("S", tuple(item_view(i) for i in token.items),
                token.preformatted, token.key, token.length)
    return ("B", token.normalized, token.tag.raw, token.key)


def ref_repr(obj):
    """The reference object's repr under the production class names."""
    text = repr(obj)
    for name in ("InlineMarkup", "SentenceToken", "BreakToken"):
        text = text.replace(f"Ref{name}(", f"{name}(")
    return text


def node_view(node):
    return (type(node).__name__, repr(node), hash(node))


class TestTokenStreams:
    def test_same_token_streams(self):
        checked = 0
        for source in all_inputs():
            new = tokenize_document(source)
            ref = ref_tokenize_document(source)
            assert [token_view(t) for t in new] == \
                [token_view(t) for t in ref], source[:200]
            for a, b in zip(new, ref):
                kind = {SentenceToken: RefSentenceToken,
                        BreakToken: RefBreakToken}[type(a)]
                assert type(b) is kind
            checked += len(new)
        assert checked > 5000

    def test_same_nodes_repr_hash_and_equality(self):
        for source in all_inputs():
            new = tokenize_html(source)
            ref = list(ref_iter_nodes(source))
            assert [node_view(n) for n in new] == [node_view(n) for n in ref]
            rep_new = repair_nodes(new)
            rep_ref = ref_repair(ref)
            assert [node_view(n) for n in rep_new] == \
                [node_view(n) for n in rep_ref]
            assert [getattr(n, "normalized", None) for n in rep_new] == \
                [getattr(n, "normalized", None) for n in rep_ref]
            # Equality among nodes: same pairs equal, same pairs not.
            sample = rep_new[:40]
            ref_sample = rep_ref[:40]
            for i, a in enumerate(sample):
                for j, b in enumerate(sample):
                    assert (a == b) == (ref_sample[i] == ref_sample[j])
                    assert (a != b) == (ref_sample[i] != ref_sample[j])

    def test_same_token_repr_hash_and_equality(self):
        for source in EDGE_CASES + list(generated_pages())[:12]:
            new = tokenize_document(source)
            ref = ref_tokenize_document(source)
            for a, b in zip(new, ref):
                assert repr(a) == ref_repr(b)
                assert hash(a) == hash(b)
            for i, a in enumerate(new[:30]):
                for j, b in enumerate(new[:30]):
                    assert (a == b) == (ref[i] == ref[j])
            markups = [i for t in new if isinstance(t, SentenceToken)
                       for i in t.items if isinstance(i, InlineMarkup)]
            ref_markups = [i for t in ref if isinstance(t, RefSentenceToken)
                           for i in t.items if isinstance(i, RefInlineMarkup)]
            for a, b in zip(markups, ref_markups):
                assert repr(a) == ref_repr(b)
                assert hash(a) == hash(b)

    def test_equality_with_foreign_types(self):
        tag = tokenize_html("<P>")[0]
        ref = Tag(name="P", raw="<P>")
        assert tag != ref and ref != tag
        assert tag != "<P>" and tokenize_html("x")[0] != "x"
        sentence, = tokenize_document("one two")
        assert sentence != ("one", "two")
        assert tokens_from_nodes(tokenize_html("<HR>"))[0] != "<HR>"


class TestSentenceEndRegex:
    def test_same_match_ends_on_seeded_strings(self):
        rng = random.Random(20261)
        alphabet = ".!?\"')] ]\n\t\x0bab3,;(  "
        for _ in range(20000):
            text = "".join(rng.choice(alphabet)
                           for _ in range(rng.randint(0, 24)))
            new = [(m.end(1), m.end()) for m in _SENTENCE_END_RE.finditer(text)]
            old = [(m.end(1), m.end())
                   for m in REF_SENTENCE_END_RE.finditer(text)]
            assert new == old, repr(text)


class TestGuardErrors:
    CASES = [
        ("<P>" + "word <B>b</B> " * 60, dict(max_tokens=50)),
        ("x" * 10 + "<IMG " + "a=1 " * 9 + ">", dict(max_attrs_per_tag=8)),
        ("<IMG a b c>" * 3 + "<A x y z w>", dict(max_attrs_per_tag=3)),
        ("<DIV>" * 30 + "deep", dict(max_depth=20)),
        ("<UL>" + "<LI><B><I>x" * 12, dict(max_depth=9)),
        ("<DIV>" * 30 + "<IMG " + "a " * 9 + ">",
         dict(max_depth=20, max_attrs_per_tag=5)),
        ("<DIV>" * 30, dict(max_depth=20, max_tokens=25)),
    ]

    @pytest.mark.parametrize("source,caps", CASES)
    def test_same_guard_error(self, source, caps):
        new_budget, ref_budget = HtmlBudget(**caps), HtmlBudget(**caps)
        with pytest.raises((AttributeBomb, MarkupDepthExceeded,
                            TokenBomb)) as new:
            tokenize_document(source, budget=new_budget)
        with pytest.raises((AttributeBomb, MarkupDepthExceeded,
                            TokenBomb)) as ref:
            ref_tokenize_document(source, budget=ref_budget)
        assert type(new.value) is type(ref.value)
        assert str(new.value) == str(ref.value)
        assert (new_budget.tokens, new_budget.peak_depth) == \
            (ref_budget.tokens, ref_budget.peak_depth)

    def test_within_budget_same_meter(self):
        for source in EDGE_CASES:
            new_budget, ref_budget = HtmlBudget(), HtmlBudget()
            tokenize_document(source, budget=new_budget)
            ref_tokenize_document(source, budget=ref_budget)
            assert (new_budget.tokens, new_budget.peak_depth) == \
                (ref_budget.tokens, ref_budget.peak_depth)


class TestIntendedDifferences:
    def test_normalized_sorts_case_folded(self):
        a = tokenize_html("<img alt=x alt=Y>")[0]
        b = tokenize_html("<IMG ALT=X ALT=y>")[0]
        assert a.normalized == b.normalized == "<IMG ALT=X ALT=Y>"
        ref_a = next(ref_iter_nodes("<img alt=x alt=Y>"))
        ref_b = next(ref_iter_nodes("<IMG ALT=X ALT=y>"))
        assert ref_a.normalized != ref_b.normalized
