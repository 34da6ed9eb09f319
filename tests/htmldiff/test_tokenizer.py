"""Tests for the HtmlDiff tokenizer."""

import gc
import random

from repro.core.htmldiff.api import html_diff
from repro.core.htmldiff.classify import EntryClass
from repro.core.htmldiff.tokenizer import tokenize_document
from repro.core.htmldiff.tokens import BreakToken, InlineMarkup, SentenceToken
from repro.web.guards import HtmlBudget
from repro.workloads.mutate import MUTATORS
from repro.workloads.pagegen import PageGenerator


def kinds(tokens):
    return ["B" if isinstance(t, BreakToken) else "S" for t in tokens]


class TestTokenization:
    def test_simple_paragraph(self):
        tokens = tokenize_document("<P>Hello world.</P>")
        assert kinds(tokens) == ["B", "S", "B"]
        assert tokens[1].words == ("Hello", "world.")

    def test_sentences_split_within_text(self):
        tokens = tokenize_document("One two. Three four.")
        sentences = [t for t in tokens if isinstance(t, SentenceToken)]
        assert len(sentences) == 2
        assert sentences[0].words == ("One", "two.")
        assert sentences[1].words == ("Three", "four.")

    def test_inline_markup_stays_in_sentence(self):
        tokens = tokenize_document("some <B>bold</B> words")
        sentences = [t for t in tokens if isinstance(t, SentenceToken)]
        assert len(sentences) == 1
        items = sentences[0].items
        assert items[0] == "some"
        assert isinstance(items[1], InlineMarkup)
        assert items[1].normalized == "<B>"

    def test_break_tags_flush_sentence(self):
        tokens = tokenize_document("before<HR>after")
        assert kinds(tokens) == ["S", "B", "S"]

    def test_anchor_is_inline_and_content_defining(self):
        tokens = tokenize_document('see <A HREF="x">the link</A> now')
        sentence = next(t for t in tokens if isinstance(t, SentenceToken))
        anchors = [
            i for i in sentence.items
            if isinstance(i, InlineMarkup) and i.normalized.startswith("<A ")
        ]
        assert anchors and anchors[0].content_defining

    def test_entities_decoded_in_words(self):
        tokens = tokenize_document("<P>AT&amp;T rocks</P>")
        sentence = next(t for t in tokens if isinstance(t, SentenceToken))
        assert sentence.words[0] == "AT&T"

    def test_comments_invisible(self):
        with_comment = tokenize_document("<P>text<!-- hidden --></P>")
        without = tokenize_document("<P>text</P>")
        assert [t.key for t in with_comment] == [t.key for t in without]

    def test_repair_applied(self):
        # Unclosed <B> gets a synthetic close, which lands in the
        # sentence as an inline markup.
        tokens = tokenize_document("<B>dangling")
        sentence = next(t for t in tokens if isinstance(t, SentenceToken))
        normals = [
            i.normalized for i in sentence.items if isinstance(i, InlineMarkup)
        ]
        assert "</B>" in normals

    def test_empty_document(self):
        assert tokenize_document("") == []

    def test_whitespace_only(self):
        assert tokenize_document("   \n\t  ") == []


class TestSentenceLength:
    def test_words_count(self):
        tokens = tokenize_document("one two three")
        assert tokens[0].length == 3

    def test_presentational_markup_not_counted(self):
        # Paper: "Markups such as <B> or <I> are not counted."
        tokens = tokenize_document("one <B>two</B> three")
        sentence = next(t for t in tokens if isinstance(t, SentenceToken))
        assert sentence.length == 3

    def test_content_defining_markup_counted(self):
        tokens = tokenize_document('word <IMG SRC="x.gif"> word2')
        sentence = next(t for t in tokens if isinstance(t, SentenceToken))
        assert sentence.length == 3  # 2 words + IMG

    def test_anchor_counted(self):
        tokens = tokenize_document('<A HREF="x">click</A>')
        sentence = next(t for t in tokens if isinstance(t, SentenceToken))
        # <A ...>, the word, </A>: opening anchor is content-defining,
        # the closing anchor is too (both carry the A name).
        assert sentence.length >= 2


class TestPreformatted:
    def test_each_line_is_a_sentence(self):
        tokens = tokenize_document("<PRE>line one\nline two</PRE>")
        sentences = [t for t in tokens if isinstance(t, SentenceToken)]
        assert len(sentences) == 2
        assert sentences[0].preformatted
        assert sentences[0].items[0] == "line one"

    def test_indentation_is_content(self):
        a = tokenize_document("<PRE>  x</PRE>")
        b = tokenize_document("<PRE>    x</PRE>")
        sa = next(t for t in a if isinstance(t, SentenceToken))
        sb = next(t for t in b if isinstance(t, SentenceToken))
        assert sa.key != sb.key

    def test_normal_flow_resumes_after_pre(self):
        tokens = tokenize_document("<PRE>code</PRE>normal   words here")
        last = tokens[-1]
        assert isinstance(last, SentenceToken)
        assert not last.preformatted
        assert last.words == ("normal", "words", "here")

    def test_blank_pre_lines_ignored(self):
        tokens = tokenize_document("<PRE>a\n\n\nb</PRE>")
        sentences = [t for t in tokens if isinstance(t, SentenceToken)]
        assert len(sentences) == 2


class TestParagraphToListExample:
    """The paper's worked example: a paragraph of four sentences turned
    into a <UL> of four items shows no *content* change — the sentences
    all still match — only formatting (break tokens) changes."""

    PARA = (
        "<P>First sentence here. Second sentence here. "
        "Third sentence here. Fourth sentence here.</P>"
    )
    LIST = (
        "<UL><LI>First sentence here. <LI>Second sentence here. "
        "<LI>Third sentence here. <LI>Fourth sentence here.</UL>"
    )

    def test_same_sentences_either_way(self):
        para_sentences = [
            t.key for t in tokenize_document(self.PARA)
            if isinstance(t, SentenceToken)
        ]
        list_sentences = [
            t.key for t in tokenize_document(self.LIST)
            if isinstance(t, SentenceToken)
        ]
        assert para_sentences == list_sentences

    def test_breaks_differ(self):
        para_breaks = [
            t.normalized for t in tokenize_document(self.PARA)
            if isinstance(t, BreakToken)
        ]
        list_breaks = [
            t.normalized for t in tokenize_document(self.LIST)
            if isinstance(t, BreakToken)
        ]
        assert para_breaks != list_breaks


# ----------------------------------------------------------------------
# Invariants of the token model over seeded generated pages
# ----------------------------------------------------------------------
def _generated_pairs():
    """(old, new) pairs: plain, <PRE> and markup-rich pages under every
    mutation operator, three seeds each."""
    for seed in (5, 6, 7):
        gen = PageGenerator(seed=seed)
        old = gen.page(paragraphs=12, links=6, with_pre=True)
        old = old.replace(" the ", ' <B>the</B> <IMG SRC="x.gif"> ', 3)
        for name in sorted(MUTATORS):
            new = MUTATORS[name](old, random.Random(seed))
            yield old, new


def _recount(sentence):
    key = tuple(i if type(i) is str else i.normalized for i in sentence.items)
    length = sum(1 for i in sentence.items
                 if type(i) is str or i.content_defining)
    return key, length


class TestTokenModelInvariants:
    def test_key_and_length_equal_a_recount_of_items(self):
        seen_markup = seen_words_only = 0
        for old, _new in _generated_pairs():
            for token in tokenize_document(old):
                if isinstance(token, BreakToken):
                    assert token.key == (token.normalized,)
                    continue
                key, length = _recount(token)
                assert token.key == key
                assert token.length == length
                assert token.words == tuple(
                    i for i in token.items if type(i) is str)
                if all(type(i) is str for i in token.items):
                    seen_words_only += 1
                    assert token.key is token.items
                else:
                    seen_markup += 1
        assert seen_markup and seen_words_only

    def test_key_and_length_stay_out_of_equality(self):
        a, b = tokenize_document("one two"), tokenize_document("one two")
        assert a == b and hash(a[0]) == hash(b[0])
        assert "key" not in repr(a[0]) and "length" not in repr(a[0])

    def test_diff_statistics_equal_a_recount_of_entries(self):
        def changed(entry):
            return entry.cls is not EntryClass.COMMON or (
                isinstance(entry.old_token, SentenceToken)
                and _recount(entry.old_token)[0] != _recount(entry.new_token)[0]
            )

        degraded = 0
        for old, new in _generated_pairs():
            for budget in (None, HtmlBudget(max_work=50)):
                result = html_diff(old, new, budget=budget)
                diff = result.diff
                degraded += result.degraded
                entries = diff.entries
                flags = [changed(e) for e in entries]
                regions = sum(1 for k, flag in enumerate(flags)
                              if flag and (k == 0 or not flags[k - 1]))
                by_cls = {cls: sum(1 for e in entries if e.cls is cls)
                          for cls in EntryClass}
                assert diff.common_entries == by_cls[EntryClass.COMMON]
                assert diff.old_entries == by_cls[EntryClass.OLD]
                assert diff.new_entries == by_cls[EntryClass.NEW]
                assert diff.changed_entries == (by_cls[EntryClass.OLD]
                                                + by_cls[EntryClass.NEW])
                assert diff.difference_count == regions
                assert diff.identical == (not any(flags))
                expected = sum(flags) / len(entries) if entries else 0.0
                assert diff.change_density == expected
                assert result.difference_count == regions
        assert degraded  # the coarse line-diff path was covered too

    def test_words_and_words_only_keys_are_not_gc_tracked(self):
        tokens = [t for old, new in _generated_pairs()
                  for t in tokenize_document(old) + tokenize_document(new)]
        gc.collect()
        sentences = [t for t in tokens if isinstance(t, SentenceToken)]
        words = [i for t in sentences for i in t.items if type(i) is str]
        assert words and not any(gc.is_tracked(w) for w in words)
        plain = [t for t in sentences if not any(
            isinstance(i, InlineMarkup) for i in t.items)]
        assert plain and not any(gc.is_tracked(t.key) for t in plain)
