"""Tests for merged-page rendering (Figure 2's format)."""

import re

from repro.core.htmldiff.api import html_diff
from repro.core.htmldiff.markup import MergedPageRenderer
from repro.core.htmldiff.options import HtmlDiffOptions, PresentationMode
from repro.html.lexer import Tag, tokenize_html
from repro.html.model import is_empty_tag


def anchors_named(html):
    return re.findall(r'<A NAME="(aidediff\d+)">', html)


def hrefs(html):
    return re.findall(r'<A HREF="#(aidediff\d+)">', html)


class TestMergedPage:
    OLD = "<P>Keep one. Remove this sentence. Keep two.</P>"
    NEW = "<P>Keep one. Added sentence here. Keep two.</P>"

    def test_old_text_struck(self):
        result = html_diff(self.OLD, self.NEW)
        assert "<STRIKE>Remove this sentence.</STRIKE>" in result.html

    def test_new_text_emphasized(self):
        result = html_diff(self.OLD, self.NEW)
        assert "<STRONG><I>Added sentence here.</I></STRONG>" in result.html

    def test_common_text_plain(self):
        result = html_diff(self.OLD, self.NEW)
        assert "Keep one." in result.html
        assert "<STRIKE>Keep one." not in result.html

    def test_banner_present_with_count(self):
        result = html_diff(self.OLD, self.NEW)
        assert "AT&amp;T Internet Difference Engine" in result.html
        assert "[First difference]" in result.html

    def test_identical_documents(self):
        result = html_diff(self.OLD, self.OLD)
        assert result.identical
        assert result.difference_count == 0
        assert "identical" in result.html

    def test_arrow_chain_is_linked(self):
        old = "<P>One here.</P><P>Two here.</P><P>Three here.</P>"
        new = "<P>One changed entirely different.</P><P>Two here.</P><P>Three also changed a lot.</P>"
        result = html_diff(old, new)
        names = anchors_named(result.html)
        links = hrefs(result.html)
        # Banner is anchor 0; each difference i links to i+1; the last
        # links back to 0.
        assert "aidediff0" in names
        assert "aidediff1" in names
        for i in range(1, len(names) - 1):
            assert f"aidediff{i}" in names
        # Every link target exists.
        for target in links:
            assert target in names

    def test_old_markups_eliminated(self):
        # A deleted region containing a link: the link markup must not
        # survive into the merged page, but its text does (struck).
        old = '<P>Intro.</P><P>See <A HREF="http://gone/">the dead link</A> now.</P>'
        new = "<P>Intro.</P>"
        result = html_diff(old, new)
        assert "http://gone/" not in result.html
        assert "the dead link" in result.html

    def test_new_markups_survive(self):
        old = "<P>Intro.</P>"
        new = '<P>Intro.</P><P>See <A HREF="http://fresh/">the new link</A> now.</P>'
        result = html_diff(old, new)
        assert 'HREF="http://fresh/"' in result.html

    def test_changed_href_arrow_without_restyle(self):
        # Paper: "an arrow will point to the text of the anchor, but the
        # text itself will be in its original font."
        old = '<P>Go to <A HREF="http://old/">the page</A> please.</P>'
        new = '<P>Go to <A HREF="http://new/">the page</A> please.</P>'
        result = html_diff(old, new)
        assert result.difference_count == 1
        assert "<STRIKE>" not in result.html  # no word changed
        assert "<STRONG><I>" not in result.html
        assert 'HREF="http://new/"' in result.html
        assert "http://old/" not in result.html

    def test_word_level_refinement_in_fuzzy_match(self):
        old = "<P>The quick brown fox jumps over the dog.</P>"
        new = "<P>The quick red fox jumps over the dog.</P>"
        result = html_diff(old, new)
        assert "<STRIKE>brown</STRIKE>" in result.html
        assert "<STRONG><I>red</I></STRONG>" in result.html
        assert "<STRIKE>quick" not in result.html

    def test_refinement_can_be_disabled(self):
        options = HtmlDiffOptions(refine_matched_sentences=False)
        old = "<P>The quick brown fox jumps over the dog.</P>"
        new = "<P>The quick red fox jumps over the dog.</P>"
        result = html_diff(old, new, options)
        assert "<STRIKE>" not in result.html
        assert "red fox" in result.html  # new side rendered plain


class TestBannerPlacement:
    # "İ".lower() is two characters, so an index into the lowered page
    # lands past the real <BODY>.
    def test_banner_follows_body_when_lowering_changes_length(self):
        body = "İ" * 8 + "<BODY>rest>more"
        assert MergedPageRenderer._insert_banner(body, "B") == \
            "İ" * 8 + "<BODY>\nBrest>more"

    def test_banner_follows_body_after_a_dotted_capital_title(self):
        head = "<HTML><HEAD><TITLE>" + "İ" * 8 + "</TITLE></HEAD>"
        old = head + "<BODY><P>Old words here.</P></BODY></HTML>"
        new = head + "<BODY><P>New words there.</P></BODY></HTML>"
        for mode in (PresentationMode.MERGED, PresentationMode.NEW_ONLY):
            html = html_diff(old, new, HtmlDiffOptions(mode=mode)).html
            at = html.index("<BODY>") + len("<BODY>")
            assert html[at:].startswith('\n<A NAME="aidediff0">'), html

    def test_body_tag_in_any_case(self):
        assert MergedPageRenderer._insert_banner("<p><bOdY class=x>t", "B") \
            == "<p><bOdY class=x>\nBt"
        assert MergedPageRenderer._insert_banner("<P>no body", "B") == \
            "B<P>no body"


class TestDensityFallback:
    def test_pervasive_change_suppresses_merge(self):
        old = "<P>" + " ".join(f"alpha{i} beta{i}." for i in range(20)) + "</P>"
        new = "<P>" + " ".join(f"gamma{i} delta{i}." for i in range(20)) + "</P>"
        result = html_diff(old, new)
        assert result.density_suppressed
        assert "too pervasive" in result.html
        assert "<STRIKE>" not in result.html

    def test_merge_fallback_mode(self):
        options = HtmlDiffOptions(density_fallback="merge")
        old = "<P>" + " ".join(f"alpha{i} beta{i}." for i in range(20)) + "</P>"
        new = "<P>" + " ".join(f"gamma{i} delta{i}." for i in range(20)) + "</P>"
        result = html_diff(old, new, options)
        assert not result.density_suppressed
        assert "<STRIKE>" in result.html

    def test_small_change_not_suppressed(self):
        old = "<P>" + " ".join(f"word{i} stays." for i in range(20)) + "</P>"
        new = old.replace("word3 stays.", "word3 changed.")
        result = html_diff(old, new)
        assert not result.density_suppressed


class TestOtherModes:
    # The changed sentences share no words, so they classify as a
    # disjoint OLD + NEW pair rather than a fuzzy match.
    OLD = "<P>Common text here.</P><P>Deleted material about gophers.</P>"
    NEW = "<P>Common text here.</P><P>Fresh paragraph concerning llamas.</P>"

    def test_only_differences_drops_common(self):
        options = HtmlDiffOptions(mode=PresentationMode.ONLY_DIFFERENCES)
        result = html_diff(self.OLD, self.NEW, options)
        assert "Common text here." not in result.html
        assert "Deleted material about gophers." in result.html
        assert "Fresh paragraph concerning llamas." in result.html

    def test_new_only_has_no_old_material(self):
        options = HtmlDiffOptions(mode=PresentationMode.NEW_ONLY)
        result = html_diff(self.OLD, self.NEW, options)
        assert "gophers" not in result.html
        assert "Fresh paragraph concerning llamas." in result.html
        assert "<STRIKE>" not in result.html

    def test_reversed_swaps_roles(self):
        options = HtmlDiffOptions(mode=PresentationMode.MERGED_REVERSED)
        result = html_diff(self.OLD, self.NEW, options)
        # Reversed: the NEW text is the one struck out.
        assert "<STRIKE>Fresh paragraph concerning llamas.</STRIKE>" in result.html

    def test_fuzzy_pair_refined_across_modes(self):
        # One word differs: the pair fuzzy-matches and both modes show
        # word-level refinement instead of whole-sentence replacement.
        old = "<P>Common text here.</P><P>Shared sentence with gophers.</P>"
        new = "<P>Common text here.</P><P>Shared sentence with llamas.</P>"
        result = html_diff(old, new)
        assert "<STRIKE>gophers.</STRIKE>" in result.html
        assert "<STRONG><I>llamas.</I></STRONG>" in result.html


class TestMergedPageWellFormedness:
    def test_balanced_output_on_restructuring_edit(self):
        # Paragraph becomes a list — the merge must stay balanced.
        old = "<P>First thing here. Second thing here.</P>"
        new = "<UL><LI>First thing here. <LI>Second thing here.</UL>"
        result = html_diff(old, new)
        stack = []
        for node in tokenize_html(result.html):
            if not isinstance(node, Tag):
                continue
            if not node.closing:
                if not is_empty_tag(node.name):
                    stack.append(node.name)
            else:
                assert stack and stack[-1] == node.name, result.html
                stack.pop()
        assert stack == []
