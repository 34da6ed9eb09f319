"""Tests for HTTP-date parsing (the format_timestamp inverse)."""

import datetime
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simclock import (
    _EPOCH_LABEL,
    _MONTH_LENGTHS,
    DAY,
    HOUR,
    MINUTE,
    MONTH_NAMES,
    _civil_from_offset,
    format_timestamp,
    parse_timestamp,
    timestamp_from_civil,
)
from repro.web.http import Headers, Response


class TestParseTimestamp:
    def test_epoch(self):
        assert parse_timestamp("Fri, 01 Sep 1995 00:00:00 GMT") == 0

    def test_time_of_day(self):
        ts = parse_timestamp("Fri, 01 Sep 1995 12:34:56 GMT")
        assert ts == 12 * HOUR + 34 * MINUTE + 56

    def test_across_year_boundary(self):
        assert parse_timestamp("Mon, 01 Jan 1996 00:00:00 GMT") == 122 * DAY

    def test_leap_day(self):
        assert parse_timestamp("Thu, 29 Feb 1996 00:00:00 GMT") == 181 * DAY

    def test_weekday_name_is_ignored(self):
        # Some servers got the weekday wrong; the date fields govern.
        assert parse_timestamp("Mon, 01 Sep 1995 00:00:00 GMT") == 0

    def test_garbage_returns_none(self):
        for text in ("", "yesterday", "01/09/1995", "Fri, 99 Xxx 1995 "
                     "00:00:00 GMT", None):
            assert parse_timestamp(text) is None

    def test_pre_epoch_returns_none(self):
        assert parse_timestamp("Thu, 31 Aug 1995 23:59:59 GMT") is None

    def test_invalid_fields_rejected(self):
        assert parse_timestamp("Fri, 01 Sep 1995 25:00:00 GMT") is None
        assert parse_timestamp("Fri, 32 Sep 1995 10:00:00 GMT") is None

    @given(st.integers(0, 5 * 365 * DAY))
    @settings(max_examples=300)
    def test_roundtrip(self, ts):
        assert parse_timestamp(format_timestamp(ts)) == ts


class TestResponseFallback:
    def test_sim_header_preferred(self):
        headers = Headers({
            "X-Sim-Last-Modified": "123",
            "Last-Modified": "Fri, 01 Sep 1995 00:01:00 GMT",
        })
        assert Response(200, headers=headers).last_modified == 123

    def test_rfc1123_fallback(self):
        headers = Headers({"Last-Modified": "Sat, 02 Sep 1995 00:00:00 GMT"})
        assert Response(200, headers=headers).last_modified == DAY

    def test_unparseable_date_is_none(self):
        headers = Headers({"Last-Modified": "around lunchtime"})
        assert Response(200, headers=headers).last_modified is None

    def test_absent_is_none(self):
        assert Response(200).last_modified is None


# ----------------------------------------------------------------------
# Closed-form day arithmetic against datetime.date and the old walk
# ----------------------------------------------------------------------
EPOCH = datetime.date(*_EPOCH_LABEL)
WEEKDAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")


def walk_civil_from_offset(days):
    """The month-at-a-time walk the closed form replaced."""
    year, month, day = _EPOCH_LABEL
    while days > 0:
        month_len = _MONTH_LENGTHS[month - 1]
        if month == 2 and year % 4 == 0 and (year % 100 != 0
                                             or year % 400 == 0):
            month_len = 29
        remaining_in_month = month_len - day
        if days <= remaining_in_month:
            return year, month, day + days
        days -= remaining_in_month + 1
        day = 1
        month += 1
        if month > 12:
            month = 1
            year += 1
    return year, month, day


def oracle_timestamp(year, month, day):
    """``timestamp_from_civil`` at midnight, by ``datetime.date``."""
    try:
        days = (datetime.date(year, month, day) - EPOCH).days
    except ValueError:
        return None
    return days * DAY if days >= 0 else None


class TestClosedFormDates:
    def test_seeded_dates_match_datetime(self):
        rng = random.Random(19950901)
        last = (datetime.date(9999, 12, 31) - EPOCH).days
        for days in [0, 1, last] + [rng.randrange(last + 1)
                                    for _ in range(5000)]:
            date = EPOCH + datetime.timedelta(days=days)
            assert _civil_from_offset(days) == (date.year, date.month,
                                                date.day)
            assert timestamp_from_civil(date.year, date.month,
                                        date.day) == days * DAY
            assert format_timestamp(days * DAY + 3723) == (
                f"{WEEKDAYS[date.weekday()]}, {date.day:02d} "
                f"{MONTH_NAMES[date.month - 1]} {date.year} 01:02:03 GMT")

    @pytest.mark.parametrize("year", [1996, 2000, 2100, 2400])
    def test_leap_boundaries(self, year):
        for month, day in ((2, 28), (2, 29), (2, 30), (3, 1), (12, 31),
                           (1, 1)):
            expected = oracle_timestamp(year, month, day)
            assert timestamp_from_civil(year, month, day) == expected
            if expected is not None:
                assert _civil_from_offset(expected // DAY) == (year, month,
                                                               day)
        assert (timestamp_from_civil(year, 2, 29) is None) == (year == 2100)

    def test_impossible_dates_are_none(self):
        for year, month, day in ((1996, 2, 30), (2100, 2, 29), (1997, 4, 31),
                                 (1997, 13, 1), (1997, 0, 10), (1997, 6, 0),
                                 (1997, 6, -1), (1995, 8, 31), (1800, 1, 1),
                                 (2001, 2, 29)):
            assert timestamp_from_civil(year, month, day) is None
            assert oracle_timestamp(year, month, day) is None

    def test_beyond_year_9999_matches_the_walk(self):
        rng = random.Random(7)
        start = (datetime.date(9999, 12, 31) - EPOCH).days
        for days in [start + 1, start + 59, start + 366] + [
                start + rng.randrange(1, 400 * 366) for _ in range(40)]:
            civil = _civil_from_offset(days)
            assert civil == walk_civil_from_offset(days)
            assert timestamp_from_civil(*civil) == days * DAY

    def test_far_dates_take_no_time_per_year(self):
        # The walk took ~27 ms for 9999-12-31; the closed form is flat.
        assert timestamp_from_civil(10 ** 9, 12, 31) is not None
        assert format_timestamp(10 ** 15).endswith(" GMT")
