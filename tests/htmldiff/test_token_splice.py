"""Differential test: a spliced tokenization equals a full one.

``tokenize_document(new, kept=stream)`` tokenizes only the stretch
where ``new`` differs from the text ``stream`` was made from, and
reuses ``stream``'s tokens around it.  Over seeded chains of every
mutation operator and of junk edits aimed at the tokenizer's state
(``<PRE>``/``<XMP>``, comments, a bare ``<``, entities, auto-closing
tags, stray end tags), the spliced stream must equal a full
tokenization and the frozen reference model, token by token and by
repr, and carry the same checkpoints.  Under guard caps it must raise
what a full tokenization raises, or return the same stream.
"""

import random

import pytest

from repro.core.htmldiff.tokenizer import TokenStream, tokenize_document
from repro.html.lexer import tokenize_html
from repro.web.guards import (
    AttributeBomb,
    HtmlBudget,
    MarkupDepthExceeded,
    TokenBomb,
)
from repro.workloads.mutate import MUTATORS
from repro.workloads.pagegen import PageGenerator

from .test_tokenizer_reference import (
    ref_repr,
    ref_tokenize_document,
    token_view,
)

GUARD_ERRORS = (AttributeBomb, MarkupDepthExceeded, TokenBomb)

#: Snippets a junk edit inserts: each changes the lexer's, the
#: repairer's or the sentence grouper's state from where it lands.
JUNK = [
    "<PRE>", "</PRE>", "<XMP>", "</XMP>", "<PRE>line\n  two\n",
    "<!--", "-->", "<!-- note -->", "<!-- open <P> comment ",
    "<", "< 3 ", "<B", "&amp;", "&", "amp;", "&eacute;", "AT&amp;T ",
    "<P>", "<LI>", "<TD>", "<UL><LI>", "<TABLE><TR><TD>", "<DL><DT>",
    "</B>", "</UL>", "</P>", "</TD>", "</LI>", "</DIV>", "</HTML>",
    "<B><I>", "</B></I>", "End. Next", ".  ", "\n", " ",
    '<A HREF="x">', "<HR>", "<BR>", "<!DOCTYPE x>", "<DIV><DIV>",
]


def junk_edit(text, rng):
    """Insert, delete or replace at a random offset (0 and the end
    included), often cutting a tag, a comment or an entity in two."""
    at = rng.choice([0, len(text), rng.randint(0, len(text))])
    kind = rng.randrange(3)
    if kind == 0:
        return text[:at] + rng.choice(JUNK) + text[at:]
    end = min(len(text), at + rng.randint(1, 24))
    if kind == 1:
        return text[:at] + text[end:]
    return text[:at] + rng.choice(JUNK) + text[end:]


def stream_of(text, kept=None, budget=None):
    stream = TokenStream()
    tokenize_document(text, budget=budget, kept=kept, stream=stream)
    return stream


def assert_same_as_full(old, new, kept=None):
    """Splice ``new`` onto ``old``'s stream; check it against a full
    tokenization and the reference model.  Returns the spliced stream."""
    if kept is None:
        kept = stream_of(old)
    spliced = stream_of(new, kept)
    full = stream_of(new)
    view = [token_view(t) for t in spliced.tokens]
    assert view == [token_view(t) for t in full.tokens], (old, new)
    assert view == [token_view(t) for t in ref_tokenize_document(new)]
    assert [repr(t) for t in spliced.tokens] == \
        [repr(t) for t in full.tokens]
    assert [repr(t) for t in spliced.tokens] == \
        [ref_repr(t) for t in ref_tokenize_document(new)]
    assert spliced.marks == full.marks
    assert spliced.nodes == full.nodes == len(tokenize_html(new))
    assert spliced.source is new
    return spliced


def pages():
    for seed in (3, 4, 5):
        gen = PageGenerator(seed=seed)
        yield gen.page(paragraphs=8, links=5)
        yield gen.page(paragraphs=8, links=4, with_pre=True)


class TestSpliceMatchesFull:
    @pytest.mark.parametrize("name", sorted(MUTATORS))
    def test_mutator_chains(self, name):
        rng = random.Random(name)
        for old in pages():
            kept = stream_of(old)
            for _ in range(4):
                new = MUTATORS[name](old, rng)
                # Chain through the spliced stream: its checkpoints
                # must serve the next splice as well as a full run's.
                kept = assert_same_as_full(old, new, kept)
                old = new

    def test_junk_edit_chains(self):
        rng = random.Random(20261019)
        operators = sorted(MUTATORS)
        for old in pages():
            kept = stream_of(old)
            for step in range(30):
                if step % 5 == 4:
                    new = MUTATORS[rng.choice(operators)](old, rng)
                else:
                    new = junk_edit(old, rng)
                kept = assert_same_as_full(old, new, kept)
                old = new

    @pytest.mark.parametrize("old,new", [
        ("", "<P>brand new. page</P>"),
        ("<P>gone. page</P>", ""),
        ("", ""),
        ("<P>same. text</P><HR>", "<P>same. text</P><HR>"),
        ("<P>a.</P><HR><P>b.</P>", "<H1>top</H1><P>a.</P><HR><P>b.</P>"),
        ("<P>a.</P><HR><P>b.</P>", "<P>a.</P><HR><P>b.</P><HR><P>c.</P>"),
        ("<P>a.</P><HR><P>b.</P>", "<P>a.</P><HR><P>b.</P><"),
        ("<P>a.</P><HR><P>b.</P>", "<P>a.</P><HR><P>b.</P><!-- open"),
        ("<P>AT&amp;T here.</P><HR><P>x</P>",
         "<P>AT&ampT here.</P><HR><P>x</P>"),
        ("<P>one<HR><P>two<HR>", "<P>one<LI>in<HR><P>two<HR>"),
        ("<UL><LI>a<LI>b</UL><HR>", "<UL><LI>a</UL></UL><LI>b</UL><HR>"),
        ("<TABLE><TR><TD>a<TD>b</TABLE><HR>",
         "<TABLE><TR><TD>a<TR><TD>b</TABLE><HR>"),
        ("<XMP>x\ny</XMP><P>z.</P><HR>", "<XMP>x\ny<P>z.</P><HR>"),
    ])
    def test_edge_cases(self, old, new):
        assert_same_as_full(old, new)


class TestStateGuardsTheSuffix:
    #: No closing ``</BODY>``: a ``<PRE>`` opened before the last
    #: paragraphs stays open to the end of the document.
    OLD = ("<HTML><BODY><H1>Title</H1><P>One sentence here.</P>"
           + "".join(f"<P>Paragraph {i} says hello. Again.</P><HR>"
                     for i in range(12)))

    def test_opened_pre_is_not_reused(self):
        at = self.OLD.index("<P>Paragraph 0")
        new = self.OLD[:at] + "<PRE>" + self.OLD[at:]
        kept = stream_of(self.OLD)
        spliced = assert_same_as_full(self.OLD, new, kept)
        # The unchanged text after the edit is preformatted now: none
        # of the kept stream's tokens after the edit may be reused.
        reused = {id(token) for token in kept.tokens}
        after = next(i for i, t in enumerate(spliced.tokens)
                     if getattr(t, "normalized", "") == "<PRE>")
        assert not any(id(t) in reused for t in spliced.tokens[after:])

    def test_plain_edit_reuses_both_sides(self):
        at = self.OLD.index("Paragraph 5")
        new = self.OLD[:at] + "Changed words. " + self.OLD[at:]
        kept = stream_of(self.OLD)
        spliced = assert_same_as_full(self.OLD, new, kept)
        assert spliced.tokens[0] is kept.tokens[0]
        assert spliced.tokens[-1] is kept.tokens[-1]


def bomb_pairs():
    """(old, new) pairs whose edit grows the document."""
    base = PageGenerator(seed=9).page(paragraphs=10, links=5)
    rng = random.Random(9)
    yield base, MUTATORS["append_paragraph"](base, rng)
    at = base.index("<P>", len(base) // 2)
    yield base, base[:at] + "<DIV>" * 12 + "deep" + base[at:]
    yield base, base[:at] + "<IMG " + "a=1 " * 12 + ">" + base[at:]
    yield base, (base[:at] + "<DIV>" * 12 + "<IMG " + "b " * 12 + ">"
                 + base[at:])


def outcome(text, caps, kept=None):
    """The guard error (class and message) ``text`` raises under
    ``caps``, else its stream, checkpoints and metered node count."""
    budget = HtmlBudget(**caps)
    try:
        stream = stream_of(text, kept, budget)
    except GUARD_ERRORS as exc:
        return type(exc), str(exc)
    return [token_view(t) for t in stream.tokens], stream.marks, \
        budget.tokens


def ref_outcome(text, caps):
    """:func:`outcome` by the reference model, less the checkpoints."""
    budget = HtmlBudget(**caps)
    try:
        tokens = ref_tokenize_document(text, budget=budget)
    except GUARD_ERRORS as exc:
        return type(exc), str(exc)
    return [token_view(t) for t in tokens], budget.tokens


class TestUnderBudget:
    @pytest.mark.parametrize("pair", range(4))
    def test_same_error_or_same_stream(self, pair):
        old, new = list(bomb_pairs())[pair]
        old_nodes = len(tokenize_html(old))
        new_nodes = len(tokenize_html(new))
        caps_list = [dict(max_tokens=n) for n in
                     (new_nodes - 1, new_nodes, new_nodes + 1)]
        caps_list += [dict(max_depth=d) for d in (8, 12, 40)]
        caps_list += [dict(max_attrs_per_tag=a) for a in (6, 12, 40)]
        caps_list += [dict(max_depth=8, max_tokens=new_nodes - 1),
                      dict(max_depth=8, max_attrs_per_tag=6),
                      dict(max_attrs_per_tag=6, max_tokens=new_nodes - 1)]
        tried = 0
        for caps in caps_list:
            try:
                kept = stream_of(old, budget=HtmlBudget(**caps))
            except GUARD_ERRORS:
                continue  # a kept stream passed its caps
            assert old_nodes <= caps.get("max_tokens", old_nodes)
            tried += 1
            spliced = outcome(new, caps, kept)
            assert spliced == outcome(new, caps), caps
            reference = ref_outcome(new, caps)
            if len(spliced) == 2:
                assert spliced == reference, caps
            else:
                assert (spliced[0], spliced[2]) == reference, caps
        assert tried >= 6

    def test_caps_around_the_node_count(self):
        old, new = next(bomb_pairs())
        new_nodes = len(tokenize_html(new))
        below = dict(max_tokens=new_nodes - 1)
        kept = stream_of(old, budget=HtmlBudget(**below))
        assert outcome(new, below, kept)[0] is TokenBomb
        at = dict(max_tokens=new_nodes)
        kept = stream_of(old, budget=HtmlBudget(**at))
        spliced = outcome(new, at, kept)
        assert spliced == outcome(new, at)
        assert spliced[2] == new_nodes
