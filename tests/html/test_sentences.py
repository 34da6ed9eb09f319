"""Sentence segmentation of HTML text runs.

There is one sentence splitter: HtmlDiff's tokenizer.  These cases
drive it through ``tokenize_document`` and look at each sentence's
items: words split on whitespace with entities decoded, sentences
split after ``.``, ``!`` or ``?`` (and any closing quote or bracket)
followed by whitespace, and ``<PRE>`` text split into one-line
sentences with the spacing kept.
"""

from repro.core.htmldiff.tokenizer import tokenize_document
from repro.core.htmldiff.tokens import SentenceToken


def sentences(source):
    return [list(token.items) for token in tokenize_document(source)
            if isinstance(token, SentenceToken)]


def words(source):
    found = sentences(source)
    assert len(found) <= 1
    return found[0] if found else []


def preformatted(text):
    return sentences(f"<PRE>{text}</PRE>")


class TestSplitWords:
    def test_simple(self):
        assert words("one two three") == ["one", "two", "three"]

    def test_collapses_whitespace(self):
        assert words("  a \n\t b  ") == ["a", "b"]

    def test_entities_decoded(self):
        assert words("AT&amp;T Bell") == ["AT&T", "Bell"]

    def test_empty(self):
        assert words("   ") == []


class TestSplitSentences:
    def test_single_sentence(self):
        assert sentences("Hello world") == [["Hello", "world"]]

    def test_period_splits(self):
        assert sentences("One two. Three four.") == [
            ["One", "two."],
            ["Three", "four."],
        ]
        assert sentences("One two. Three!") == [["One", "two."], ["Three!"]]

    def test_question_and_exclamation(self):
        assert sentences("Really? Yes! Good.") == [
            ["Really?"], ["Yes!"], ["Good."]]

    def test_quote_after_period(self):
        assert sentences('He said "stop." Then (left.) Done.') == [
            ["He", "said", '"stop."'], ["Then", "(left.)"], ["Done."]]

    def test_no_split_without_trailing_space(self):
        # "3.14" or "www.att.com" must not be torn apart.
        assert sentences("pi is 3.14 exactly") == [["pi", "is", "3.14", "exactly"]]
        assert sentences("visit www.att.com today") == [
            ["visit", "www.att.com", "today"]
        ]

    def test_blank_input(self):
        assert sentences("  \n ") == []


class TestSplitPreformatted:
    def test_lines_become_sentences(self):
        out = preformatted("def f():\n    return 1\n")
        assert out == [["def f():"], ["    return 1"]]

    def test_indentation_preserved(self):
        a = preformatted("  x")
        b = preformatted("    x")
        assert a != b

    def test_blank_lines_skipped(self):
        assert preformatted("a\n\n\nb") == [["a"], ["b"]]
