"""Tests for the HTML lexer."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.html.lexer import Comment, Declaration, Tag, Text, tokenize_html
from repro.html.serializer import serialize_nodes


class TestBasicLexing:
    def test_plain_text(self):
        nodes = tokenize_html("hello world")
        assert nodes == [Text("hello world")]

    def test_simple_tag(self):
        nodes = tokenize_html("<p>hi</p>")
        assert isinstance(nodes[0], Tag)
        assert nodes[0].name == "P"
        assert not nodes[0].closing
        assert nodes[1] == Text("hi")
        assert nodes[2].name == "P"
        assert nodes[2].closing

    def test_tag_name_case_folded(self):
        assert tokenize_html("<Img>")[0].name == "IMG"

    def test_raw_source_preserved(self):
        src = '<A HREF="http://x.com/">link</a>'
        nodes = tokenize_html(src)
        assert nodes[0].raw == '<A HREF="http://x.com/">'
        assert nodes[2].raw == "</a>"

    def test_comment(self):
        nodes = tokenize_html("a<!-- note -->b")
        assert nodes == [Text("a"), Comment(" note ", raw="<!-- note -->"), Text("b")]

    def test_declaration(self):
        nodes = tokenize_html('<!DOCTYPE HTML PUBLIC "-//IETF//DTD HTML 2.0//EN">')
        assert isinstance(nodes[0], Declaration)

    def test_empty_document(self):
        assert tokenize_html("") == []


class TestAttributes:
    def test_double_quoted(self):
        tag = tokenize_html('<a href="http://www.usenix.org/">')[0]
        assert tag.attr("href") == "http://www.usenix.org/"

    def test_single_quoted(self):
        tag = tokenize_html("<a href='x'>")[0]
        assert tag.attr("HREF") == "x"

    def test_unquoted(self):
        tag = tokenize_html("<img src=pic.gif align=left>")[0]
        assert tag.attr("src") == "pic.gif"
        assert tag.attr("align") == "left"

    def test_valueless(self):
        tag = tokenize_html("<dl compact>")[0]
        assert tag.has_attr("compact")
        assert tag.attr("compact") is None

    def test_messy_whitespace(self):
        tag = tokenize_html('<a  href =  "x"   name=y >')[0]
        assert tag.attr("href") == "x"
        assert tag.attr("name") == "y"

    def test_missing_attr(self):
        tag = tokenize_html("<p>")[0]
        assert tag.attr("align") is None
        assert not tag.has_attr("align")

    def test_unterminated_quote(self):
        tag = tokenize_html('<a href="oops>')  # the > is inside the quote
        # The tag never terminates, so it lexes as literal text.
        assert isinstance(tag[0], Text) or isinstance(tag[0], Tag)


class TestNormalization:
    def test_case_and_order_insensitive(self):
        a = tokenize_html('<IMG src="X.GIF" alt=logo>')[0]
        b = tokenize_html("<img ALT=LOGO SRC='x.gif'>")[0]
        assert a.normalized == b.normalized

    def test_different_attrs_differ(self):
        a = tokenize_html('<a href="one">')[0]
        b = tokenize_html('<a href="two">')[0]
        assert a.normalized != b.normalized

    def test_closing_marker_in_normal_form(self):
        assert tokenize_html("</p>")[0].normalized == "</P>"

    def test_repeated_attribute_sorted_case_insensitively(self):
        # Sorting by the raw value put "Y" before "x" but "X" before "y".
        a = tokenize_html("<img alt=x alt=Y>")[0]
        b = tokenize_html("<IMG ALT=X ALT=y>")[0]
        assert a.normalized == b.normalized == "<IMG ALT=X ALT=Y>"

    def test_valueless_and_empty_attribute_order_insensitive(self):
        a = tokenize_html('<dl compact compact="">')[0]
        b = tokenize_html('<DL COMPACT="" COMPACT>')[0]
        assert a.normalized == b.normalized == "<DL COMPACT COMPACT=>"


class TestRobustness:
    def test_unterminated_tag_is_text(self):
        nodes = tokenize_html("before <a href=")
        assert nodes[0] == Text("before ")
        assert isinstance(nodes[1], Text)

    def test_bare_lt_is_text(self):
        nodes = tokenize_html("3 < 4 and 5 > 2")
        assert any(isinstance(n, Text) for n in nodes)

    def test_empty_angle_brackets(self):
        nodes = tokenize_html("a<>b")
        assert serialize_nodes(nodes) == "a<>b"

    def test_unterminated_comment(self):
        nodes = tokenize_html("x<!-- never closed")
        assert isinstance(nodes[-1], Comment)

    @given(st.text(max_size=200))
    @settings(max_examples=200)
    def test_never_raises_and_roundtrips(self, source):
        nodes = tokenize_html(source)
        assert serialize_nodes(nodes) == source


class TestSerialization:
    def test_roundtrip_realistic_page(self):
        src = (
            '<HTML><HEAD><TITLE>USENIX</TITLE></HEAD>\n'
            '<BODY><H1 ALIGN="center">Welcome</H1>\n'
            '<!-- maintained by hand -->\n'
            '<P>The <B>1996</B> conference &amp; exhibition.</P>\n'
            '<UL><LI><A HREF="/events/">Events</A>\n'
            '<LI><IMG SRC=new.gif> What\'s new</UL>\n'
            "</BODY></HTML>"
        )
        assert serialize_nodes(tokenize_html(src)) == src
