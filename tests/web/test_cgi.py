"""Tests for CGI query-string handling and the stock scripts."""

import random
from urllib.parse import quote_plus, unquote_plus

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simclock import SimClock
from repro.web.cgi import (
    ClockScript,
    CounterScript,
    FormEchoScript,
    StaticCgiScript,
    encode_query_string,
    parse_query_string,
    request_params,
)
from repro.web.http import Request


class TestParseQueryString:
    def test_simple(self):
        assert parse_query_string("a=1&b=two") == {"a": "1", "b": "two"}

    def test_plus_is_space(self):
        assert parse_query_string("q=mobile+computing") == {
            "q": "mobile computing"
        }

    def test_percent_escapes(self):
        assert parse_query_string("email=x%40y.com") == {"email": "x@y.com"}

    def test_valueless_key(self):
        assert parse_query_string("flag&a=1") == {"flag": "", "a": "1"}

    def test_none_and_empty(self):
        assert parse_query_string(None) == {}
        assert parse_query_string("") == {}

    def test_duplicate_keys_last_wins(self):
        assert parse_query_string("a=1&a=2") == {"a": "2"}

    def test_malformed_percent_left_alone(self):
        assert parse_query_string("a=100%") == {"a": "100%"}
        assert parse_query_string("a=%zz") == {"a": "%zz"}

    def test_overlong_utf8_not_folded(self):
        # %C0%80 is the classic overlong encoding of NUL; a lenient
        # decoder that folds it to "\x00" (or to U+FFFD, colliding with
        # every other bad sequence) opens a smuggling channel.  The
        # invalid bytes must survive as their literal escapes.
        assert parse_query_string("a=%C0%80") == {"a": "%C0%80"}
        assert parse_query_string("a=%C0%AF") == {"a": "%C0%AF"}

    def test_distinct_malformed_sequences_stay_distinct(self):
        decoded = {
            parse_query_string(f"a={esc}")["a"]
            for esc in ("%C0%80", "%C0%AF", "%FF", "%FE%FF", "%ED%A0%80")
        }
        assert len(decoded) == 5

    def test_invalid_bytes_beside_valid_utf8(self):
        # A valid multi-byte rune next to a stray continuation byte:
        # the rune decodes, the stray byte stays a literal escape.
        assert parse_query_string("a=caf%C3%A9%80") == {"a": "café%80"}

    def test_url_values_pass_through(self):
        params = parse_query_string(
            "action=diff&url=http%3A//site.com/page%3Fq%3D1"
        )
        assert params["url"] == "http://site.com/page?q=1"

    def test_escape_needs_two_ascii_hex_digits(self):
        # int(..., 16) accepts whitespace, signs and non-ASCII digits;
        # an escape does not.  ("+" is a space before escapes decode.)
        assert parse_query_string("a=% b") == {"a": "% b"}
        assert parse_query_string("a=%+0") == {"a": "% 0"}
        assert parse_query_string("a=%\u0663\u0663") == {"a": "%\u0663\u0663"}

    def test_values_match_stdlib_unquote_plus(self):
        """Seeded differential against the stdlib decoder with the same
        error handler."""
        rng = random.Random(1996)
        alphabet = list("%%%++ 09afAFgz=\t") + ["\u0663", "\u00e9", "%C3",
                                                 "%A9", "%C0", "%80", "%FF"]
        for _ in range(20_000):
            value = "".join(rng.choice(alphabet)
                            for _ in range(rng.randint(0, 10)))
            assert parse_query_string("v=" + value)["v"] == unquote_plus(
                value, errors="aide-percent"), repr(value)


class TestEncodeQueryString:
    def test_matches_stdlib_quote_plus(self):
        """Seeded differential against the stdlib encoder and against a
        byte-by-byte reference escaper, pure-ASCII and mixed strings."""
        safe = set(b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
                   b"0123456789-_.~/")

        def per_byte(text):
            return "".join(
                chr(byte) if byte in safe else "+" if byte == 0x20
                else f"%{byte:02X}" for byte in text.encode("utf-8"))

        rng = random.Random(1997)
        ascii_chars = list(" %+/~=&?#aZ09-_.\t\x00\x1f\x7f\"'<")
        other = ["\u00e9", "\u0663", "\u20ac", "\uffff", "\U0001f600",
                 "\U00010000", "\U0010fffd"]
        non_ascii = 0
        for i in range(20_000):
            alphabet = ascii_chars + (other if i % 2 else [])
            value = "".join(rng.choice(alphabet)
                            for _ in range(rng.randint(0, 12)))
            non_ascii += not value.isascii()
            expected = "v=" + quote_plus(value, safe="/")
            assert encode_query_string({"v": value}) == expected, repr(value)
            assert expected == "v=" + per_byte(value), repr(value)
        assert 5_000 < non_ascii < 10_000

    def test_roundtrip_simple(self):
        params = {"a": "1", "q": "two words", "email": "x@y.com"}
        assert parse_query_string(encode_query_string(params)) == params

    @given(
        st.dictionaries(
            st.text(alphabet="abcXYZ09", min_size=1, max_size=8),
            st.text(max_size=20),
            max_size=5,
        )
    )
    @settings(max_examples=100)
    def test_roundtrip_property(self, params):
        assert parse_query_string(encode_query_string(params)) == params


class TestStockScripts:
    def request(self, url="http://h/cgi-bin/x", method="GET", body=""):
        return Request(method, url, body=body)

    def test_counter_monotone(self):
        script = CounterScript()
        bodies = [script(self.request(), 0).body for _ in range(3)]
        assert len(set(bodies)) == 3

    def test_clock_tracks_time(self):
        script = ClockScript()
        assert script(self.request(), 0).body != script(self.request(), 60).body
        assert script(self.request(), 60).body == script(self.request(), 60).body

    def test_static_is_stable(self):
        script = StaticCgiScript("<P>fixed</P>")
        assert script(self.request(), 0).body == script(self.request(), 999).body

    def test_form_echo_get_and_post_agree(self):
        script = FormEchoScript()
        via_get = script(self.request("http://h/cgi?a=1&b=2"), 0).body
        via_post = script(self.request(method="POST", body="a=1&b=2"), 0).body
        assert via_get == via_post

    def test_request_params_post_reads_only_the_body(self):
        post = self.request("http://h/cgi?a=query", method="POST",
                            body="a=body")
        assert request_params(post) == {"a": "body"}
        get = self.request("http://h/cgi?a=query", body="a=body")
        assert request_params(get) == {"a": "query"}

    def test_form_echo_generation_changes_output(self):
        script = FormEchoScript()
        before = script(self.request("http://h/cgi?a=1"), 0).body
        script.generation += 1
        after = script(self.request("http://h/cgi?a=1"), 0).body
        assert before != after
