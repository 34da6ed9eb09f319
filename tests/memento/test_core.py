"""Tests for the Memento protocol core: negotiation, links, TimeMaps."""

import random

import pytest

from repro.memento.core import (
    LINK_FORMAT,
    LinkEntry,
    Memento,
    NegotiationError,
    TimeMap,
    format_link_header,
    format_timemap,
    memento_uri,
    parse_link_header,
    parse_timemap,
    resolve_datetime,
    timegate_uri,
    timemap_uri,
    validate_policy,
)


class TestResolveDatetime:
    DATES = [100, 200, 300]

    def test_past_policy(self):
        assert resolve_datetime(self.DATES, 250, "past") == 1
        assert resolve_datetime(self.DATES, 300, "past") == 2
        assert resolve_datetime(self.DATES, 99, "past") is None
        assert resolve_datetime(self.DATES, 10**9, "past") == 2

    def test_exact_policy(self):
        assert resolve_datetime(self.DATES, 200, "exact") == 1
        assert resolve_datetime(self.DATES, 201, "exact") is None

    def test_nearest_policy_ties_go_older(self):
        assert resolve_datetime(self.DATES, 150, "nearest") == 0
        assert resolve_datetime(self.DATES, 151, "nearest") == 1
        assert resolve_datetime(self.DATES, 50, "nearest") == 0

    def test_empty_dates(self):
        for policy in ("past", "nearest", "exact"):
            assert resolve_datetime([], 100, policy) is None

    def test_shared_stamp_returns_newest(self):
        assert resolve_datetime([100, 100, 200], 100, "past") == 1
        assert resolve_datetime([100, 100, 200], 100, "exact") == 1

    def test_non_monotonic_matches_linear_semantics(self):
        dates = [300, 100, 200]
        assert resolve_datetime(dates, 250, "past") == 2
        assert resolve_datetime(dates, 300, "exact") == 0
        assert resolve_datetime(dates, 10, "nearest") == 1

    def test_monotonic_and_scan_agree_on_sorted_input(self):
        dates = [10, 20, 30, 40]
        for target in range(0, 55, 5):
            for policy in ("past", "nearest", "exact"):
                fast = resolve_datetime(dates, target, policy,
                                        monotonic=True)
                slow = resolve_datetime(dates, target, policy,
                                        monotonic=False)
                assert fast == slow, (target, policy)

    def test_unknown_policy(self):
        with pytest.raises(NegotiationError):
            resolve_datetime(self.DATES, 100, "fuzzy")
        with pytest.raises(NegotiationError):
            validate_policy("whenever")


class TestLinkHeaders:
    def test_round_trip(self):
        entries = [
            LinkEntry("http://a/", "original"),
            LinkEntry("/tm?u=a", "timemap", type=LINK_FORMAT),
            LinkEntry("/m?rev=1.1", "memento", datetime=100),
        ]
        parsed = parse_link_header(format_link_header(entries))
        assert [e.target for e in parsed] == ["http://a/", "/tm?u=a",
                                              "/m?rev=1.1"]
        assert parsed[2].datetime == 100
        assert parsed[1].type == LINK_FORMAT

    def test_multi_token_rel_splits(self):
        parsed = parse_link_header('</m>; rel="first last memento"')
        assert [e.rel for e in parsed] == ["first", "last", "memento"]

    def test_commas_inside_quoted_datetimes(self):
        header = ('</a>; rel="memento"; '
                  'datetime="Fri, 01 Sep 1995 00:01:40 GMT", '
                  '</b>; rel="memento"; '
                  'datetime="Fri, 01 Sep 1995 00:03:20 GMT"')
        parsed = parse_link_header(header)
        assert [(e.target, e.datetime) for e in parsed] == [
            ("/a", 100), ("/b", 200)]

    def test_garbage_tolerated(self):
        assert parse_link_header("") == []
        assert parse_link_header("no angle brackets") == []
        assert parse_link_header("<target-no-rel>; type=x") == []


class TestTimeMaps:
    def _timemap(self):
        script = "/cgi-bin/snapshot"
        url = "http://site/page.html"
        return TimeMap(
            original=url,
            timegate=timegate_uri(script, url),
            timemap=timemap_uri(script, url),
            mementos=[
                Memento(datetime=200, uri=memento_uri(script, url, "1.2"),
                        revision="1.2"),
                Memento(datetime=100, uri=memento_uri(script, url, "1.1"),
                        revision="1.1"),
            ],
        )

    def test_format_parse_round_trip(self):
        original = self._timemap()
        body = format_timemap(original)
        parsed = parse_timemap(body, source="peer")
        assert parsed.original == original.original
        assert parsed.timegate == original.timegate
        assert [(m.datetime, m.revision) for m in parsed.mementos] == [
            (100, "1.1"), (200, "1.2")]
        assert all(m.source == "peer" for m in parsed.mementos)

    def test_first_last_rels_serialized(self):
        body = format_timemap(self._timemap())
        assert 'rel="first memento"' in body
        assert 'rel="last memento"' in body

    def test_single_memento_gets_both_rels(self):
        timemap = self._timemap()
        timemap.mementos = timemap.mementos[:1]
        body = format_timemap(timemap)
        assert 'rel="first last memento"' in body

    def test_at_uses_shared_resolver(self):
        timemap = self._timemap()
        assert timemap.at(150).revision == "1.1"
        assert timemap.at(150, "nearest").revision == "1.1"
        assert timemap.at(151, "nearest").revision == "1.2"
        assert timemap.at(50) is None
        assert timemap.at(50, "nearest").revision == "1.1"

    def test_neighbours(self):
        timemap = self._timemap().sorted()
        first, second = timemap.mementos
        assert timemap.neighbours(first) == (None, second)
        assert timemap.neighbours(second) == (first, None)


class TestLinkHeaderOracle:
    """Round-trip oracle: whatever AIDE serializes as a Link header or
    a TimeMap body, its own parser reads back unchanged.  Targets carry
    the URI characters that are also Link-header syntax (``,`` ``;``
    ``=`` ``?`` ``%``, and a stray ``"``); rels, datetimes and types
    cover everything the format emits."""

    #: No ``r``/``e``/``v``, so a random target never spells ``rev=``
    #: (which would make ``parse_timemap`` recover a revision from it).
    CHARS = "abcdxyz0123456789,;?=%&-._~!$'()*+:@/"
    RELS = ("original", "timegate", "timemap", "memento", "first",
            "last", "prev", "next", "self")
    TYPES = (None, LINK_FORMAT, "text/html")

    def _target(self, rng):
        body = "".join(rng.choice(self.CHARS)
                       for _ in range(rng.randint(0, 24)))
        if rng.random() < 0.05:
            body += '"'
        return f"http://h{rng.randint(0, 99)}.com/{body}"

    def _datetime(self, rng):
        return rng.randint(0, 40 * 365 * 86400)

    def test_link_header_round_trip(self):
        rng = random.Random(7089)
        mismatches = commas = 0
        for _ in range(3000):
            entries = [
                LinkEntry(
                    self._target(rng), rng.choice(self.RELS),
                    datetime=(self._datetime(rng) if rng.random() < 0.5
                              else None),
                    type=rng.choice(self.TYPES),
                )
                for _ in range(rng.randint(1, 6))
            ]
            commas += any("," in e.target for e in entries)
            mismatches += parse_link_header(format_link_header(entries)) != entries
        assert commas > 1000
        assert mismatches == 0

    def test_timemap_round_trip(self):
        rng = random.Random(1996)
        mismatches = 0
        for _ in range(500):
            original = self._target(rng)
            script = "/cgi-bin/snapshot"
            mementos = set()
            for index in range(rng.randint(0, 8)):
                if rng.random() < 0.5:
                    revision = f"1.{index + 1}"
                    uri = memento_uri(script, original, revision)
                else:
                    revision, uri = "", self._target(rng) + f"/{index}"
                mementos.add(Memento(datetime=self._datetime(rng), uri=uri,
                                     revision=revision))
            timemap = TimeMap(
                original=original,
                timegate=timegate_uri(script, original),
                timemap=timemap_uri(script, original),
                mementos=sorted(mementos),
            )
            mismatches += parse_timemap(format_timemap(timemap)) != timemap
        assert mismatches == 0

    def test_comma_in_target_keeps_the_link(self):
        entries = [LinkEntry("http://h.com/a,b.html", "original"),
                   LinkEntry("http://h.com/x", "memento", datetime=1000)]
        assert parse_link_header(format_link_header(entries)) == entries
