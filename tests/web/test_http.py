"""Tests for HTTP message primitives."""

import pytest

from repro.web.http import Headers, Request, Response, make_response
from repro.web.url import parse_url


class TestHeaders:
    def test_case_insensitive_get(self):
        headers = Headers({"Content-Type": "text/html"})
        assert headers.get("content-type") == "text/html"
        assert headers.get("CONTENT-TYPE") == "text/html"

    def test_last_set_wins(self):
        headers = Headers()
        headers.set("X-Thing", "one")
        headers.set("x-thing", "two")
        assert headers.get("X-Thing") == "two"
        assert len(headers) == 1

    def test_default(self):
        assert Headers().get("Missing", "fallback") == "fallback"
        assert Headers().get("Missing") is None

    def test_contains_and_remove(self):
        headers = Headers({"A": "1"})
        assert "a" in headers
        headers.remove("A")
        assert "a" not in headers
        headers.remove("A")  # idempotent

    def test_copy_is_independent(self):
        original = Headers({"A": "1"})
        clone = original.copy()
        clone.set("A", "2")
        assert original.get("A") == "1"

    def test_iteration_preserves_original_names(self):
        headers = Headers()
        headers.set("Content-Type", "text/html")
        names = [name for name, _ in headers]
        assert names == ["Content-Type"]

    def test_values_coerced_to_str(self):
        headers = Headers()
        headers.set("Content-Length", 42)
        assert headers.get("Content-Length") == "42"


class TestRequest:
    def test_url_string_coerced(self):
        request = Request("GET", "http://h.com/x")
        assert request.url.host == "h.com"

    def test_method_uppercased(self):
        assert Request("get", parse_url("http://h/")).method == "GET"

    def test_unsupported_method_rejected(self):
        with pytest.raises(ValueError):
            Request("DELETE", parse_url("http://h/"))

    def test_conditional_detection(self):
        request = Request("GET", "http://h/",
                          headers=Headers({"If-Modified-Since": "x"}))
        assert request.is_conditional
        assert not Request("GET", "http://h/").is_conditional


class TestResponse:
    def test_ok_range(self):
        assert Response(200).ok
        assert Response(204).ok
        assert not Response(304).ok
        assert not Response(404).ok

    def test_reason_strings(self):
        assert Response(404).reason == "Not Found"
        assert Response(599).reason == "Unknown"

    def test_content_type_default(self):
        assert Response(200).content_type == "text/html"


class TestMakeResponse:
    def test_basic_shape(self):
        response = make_response(200, "body", last_modified=3600)
        assert response.status == 200
        assert response.body == "body"
        assert response.headers.get("Content-Length") == "4"
        assert response.headers.get("X-Sim-Last-Modified") == "3600"
        assert "GMT" in response.headers.get("Last-Modified")
        assert response.last_modified == 3600

    def test_no_last_modified(self):
        response = make_response(200, "x")
        assert response.last_modified is None
        assert "Last-Modified" not in response.headers

    def test_location_header(self):
        response = make_response(301, location="http://new/")
        assert response.headers.get("Location") == "http://new/"

    def test_content_type_override(self):
        response = make_response(200, "{}", content_type="application/json")
        assert response.content_type == "application/json"


class TestHttpDates:
    def test_format_is_rfc1123(self):
        from repro.web.http import format_http_date

        assert format_http_date(0) == "Fri, 01 Sep 1995 00:00:00 GMT"
        assert format_http_date(100) == "Fri, 01 Sep 1995 00:01:40 GMT"

    def test_parse_rfc1123_round_trip(self):
        from repro.web.http import format_http_date, parse_http_date

        for ts in (0, 100, 86400, 12345678):
            assert parse_http_date(format_http_date(ts)) == ts

    def test_parse_rfc850(self):
        from repro.web.http import parse_http_date

        # Two-digit year windows into the 1900s for 70-99...
        assert parse_http_date("Friday, 01-Sep-95 00:01:40 GMT") == 100
        # ...and the 2000s below 70.
        assert parse_http_date("Sunday, 01-Sep-02 00:00:00 GMT") is not None
        # Four-digit years are accepted too.
        assert parse_http_date("Friday, 01-Sep-1995 00:01:40 GMT") == 100

    def test_parse_asctime(self):
        from repro.web.http import parse_http_date

        assert parse_http_date("Fri Sep  1 00:01:40 1995") == 100
        assert parse_http_date("Fri Sep 15 12:00:00 1995") is not None

    def test_parse_garbage_and_pre_epoch(self):
        from repro.web.http import parse_http_date

        assert parse_http_date(None) is None
        assert parse_http_date("") is None
        assert parse_http_date("yesterday-ish") is None
        assert parse_http_date("Mon, 01 Jan 1990 00:00:00 GMT") is None

    def test_response_last_modified_falls_back_to_parsing(self):
        from repro.web.http import format_http_date

        response = Response(status=200)
        response.headers.set("Last-Modified", format_http_date(4242))
        assert response.last_modified == 4242

    def test_status_reasons_for_negotiation(self):
        from repro.web.http import STATUS_REASONS

        assert STATUS_REASONS[302] == "Moved Temporarily"
        assert STATUS_REASONS[406] == "Not Acceptable"


class TestHttpDateOracle:
    """``parse_http_date`` agrees with the stdlib's RFC 5322 date parser
    on all three HTTP date forms of seeded random instants."""

    WEEKDAYS = ["Monday", "Tuesday", "Wednesday", "Thursday", "Friday",
                "Saturday", "Sunday"]
    MONTHS = ["Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug",
              "Sep", "Oct", "Nov", "Dec"]

    def forms(self, moment):
        day = self.WEEKDAYS[moment.weekday()]
        month = self.MONTHS[moment.month - 1]
        clock = moment.strftime("%H:%M:%S")
        return [
            f"{day[:3]}, {moment.day:02d} {month} {moment.year} {clock} GMT",
            f"{day}, {moment.day:02d}-{month}-{moment.year % 100:02d} "
            f"{clock} GMT",
            f"{day[:3]} {month} {moment.day:2d} {clock} {moment.year}",
        ]

    def test_agrees_with_email_utils(self):
        import random
        from datetime import datetime, timezone
        from email.utils import parsedate_to_datetime

        from repro.web.http import parse_http_date

        epoch = datetime(1995, 9, 1, tzinfo=timezone.utc)
        low = int(datetime(1995, 1, 1, tzinfo=timezone.utc).timestamp())
        high = int(datetime(2036, 1, 1, tzinfo=timezone.utc).timestamp())
        rng = random.Random(1996)
        mismatches = []
        checked = 0
        for _ in range(20_000):
            moment = datetime.fromtimestamp(rng.randrange(low, high),
                                            timezone.utc)
            for text in self.forms(moment):
                parsed = parsedate_to_datetime(text)
                if parsed.tzinfo is None:  # asctime carries no zone
                    parsed = parsed.replace(tzinfo=timezone.utc)
                seconds = int((parsed - epoch).total_seconds())
                expected = seconds if seconds >= 0 else None
                if parse_http_date(text) != expected:
                    mismatches.append(text)
                checked += 1
        assert checked == 60_000
        assert mismatches == []
