"""Tests for entity decoding/encoding."""

import html

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.html.entities import decode_entities, encode_entities


class TestDecode:
    def test_named(self):
        assert decode_entities("Tom &amp; Jerry") == "Tom & Jerry"
        assert decode_entities("&lt;tag&gt;") == "<tag>"
        assert decode_entities("&quot;hi&quot;") == '"hi"'

    def test_numeric_decimal(self):
        assert decode_entities("&#65;") == "A"

    def test_numeric_hex(self):
        assert decode_entities("&#x41;") == "A"

    def test_missing_semicolon_tolerated(self):
        # 1995 HTML frequently omitted the semicolon.
        assert decode_entities("AT&amp T") == "AT& T"

    def test_unknown_entity_left_verbatim(self):
        assert decode_entities("&bogus;") == "&bogus;"

    def test_overflow_numeric_left_verbatim(self):
        assert decode_entities("&#99999999999;") == "&#99999999999;"

    def test_latin1_accents(self):
        assert decode_entities("caf&eacute;") == "café"

    def test_case_insensitive_names(self):
        assert decode_entities("&AMP;") == "&"

    def test_capital_accents_keep_their_case(self):
        # An É -> é edit must be visible to the comparison.
        for name in ("Agrave", "Aacute", "Eacute", "Egrave", "Iacute",
                     "Oacute", "Uacute", "Ntilde", "Ouml", "Uuml", "Auml",
                     "Ccedil"):
            upper, lower = f"&{name};", f"&{name.lower()};"
            assert decode_entities(upper) == html.unescape(upper)
            assert decode_entities(upper) != decode_entities(lower)
        assert decode_entities("caf&Eacute;") == "cafÉ"

    def test_ambiguous_case_variant_left_verbatim(self):
        # &EACUTE; could mean either twin; HTML5 has no such name either.
        assert decode_entities("&EACUTE;") == "&EACUTE;"


class TestEncode:
    def test_structural_characters(self):
        assert encode_entities("a < b & c > d") == "a &lt; b &amp; c &gt; d"

    def test_quote_mode(self):
        assert encode_entities('say "hi"', quote=True) == "say &quot;hi&quot;"
        assert encode_entities('say "hi"') == 'say "hi"'

    @given(st.text(alphabet="abc<>&\"'", max_size=50))
    @settings(max_examples=100)
    def test_roundtrip(self, text):
        assert decode_entities(encode_entities(text, quote=True)) == text
