"""Tests for the Memento endpoints mounted on the sharded diff server:
shard routing, the cache soundness split (mementos immutable, gate and
map volatile), and out-of-band check-in invalidation."""

from repro.core.snapshot.service import SnapshotService
from repro.core.snapshot.store import SnapshotStore
from repro.memento.core import ACCEPT_DATETIME
from repro.serve import DiffServer, build_world, seed_world
from repro.serve.cache import cacheable_key
from repro.web.http import Headers, Request

SEED = 11


def make_server(world, **kwargs):
    kwargs.setdefault("shards", 4)
    kwargs.setdefault("workers_per_shard", 2)
    kwargs.setdefault("queue_limit", 8)
    return DiffServer(world.clock, world.agent, **kwargs)


def get(service, query, now=0, headers=None):
    request = Request(
        "GET", f"http://aide.example.com/cgi-bin/snapshot?{query}",
        headers=Headers(headers or {}))
    return service(request, now)


class TestMementoCacheKeys:
    URL = "http://site.com/page.html"

    def test_memento_is_cacheable_and_immutable(self):
        key = cacheable_key({"action": "memento", "url": self.URL,
                             "rev": "1.2"}, self.URL)
        assert key == ("memento", self.URL, "1.2", False)

    def test_timegate_is_cacheable_but_volatile(self):
        key = cacheable_key({"action": "timegate", "url": self.URL},
                            self.URL, accept_datetime="100")
        assert key is not None
        assert key[1] == self.URL and key[-1] is True

    def test_timegate_keys_differ_by_header_and_policy(self):
        base = {"action": "timegate", "url": self.URL}
        keys = {
            cacheable_key(base, self.URL, accept_datetime="100"),
            cacheable_key(base, self.URL, accept_datetime="200"),
            cacheable_key(dict(base, policy="nearest"), self.URL,
                          accept_datetime="100"),
            cacheable_key(base, self.URL),  # absent header: last memento
        }
        assert len(keys) == 4

    def test_timemap_is_volatile(self):
        key = cacheable_key({"action": "timemap", "url": self.URL},
                            self.URL)
        assert key is not None and key[-1] is True

    def test_memento_without_rev_is_uncacheable(self):
        assert cacheable_key({"action": "memento", "url": self.URL},
                             self.URL) is None


class TestShardedMemento:
    def test_responses_match_the_reference_service(self):
        world = build_world(SEED, pages=8)
        server = make_server(world)
        seed_world(server, world, seed=SEED, rounds=2)

        ref_world = build_world(SEED, pages=8)
        reference = SnapshotService(
            SnapshotStore(ref_world.clock, ref_world.agent))
        seed_world(reference, ref_world, seed=SEED, rounds=2)

        url = world.urls[0]
        mid = world.clock.now // 2
        for query, headers in (
            (f"action=timemap&url={url}", None),
            (f"action=timemap&url={url}&format=json", None),
            (f"action=memento&url={url}&rev=1.1", None),
            (f"action=timegate&url={url}", None),
            (f"action=timegate&url={url}", {ACCEPT_DATETIME: str(mid)}),
        ):
            mine = get(server, query, world.clock.now, headers)
            theirs = get(reference, query, ref_world.clock.now, headers)
            assert (mine.status, mine.body) == (theirs.status, theirs.body)
            assert mine.headers.get("Location") == \
                theirs.headers.get("Location")

    def test_timegate_302_is_cached_per_accept_datetime(self):
        world = build_world(SEED, pages=4)
        server = make_server(world)
        seed_world(server, world, seed=SEED, rounds=2)
        url = world.urls[0]
        mid = world.clock.now // 2
        dated = {ACCEPT_DATETIME: str(mid)}
        first = get(server, f"action=timegate&url={url}", world.clock.now,
                    dated)
        repeat = get(server, f"action=timegate&url={url}", world.clock.now,
                     dated)
        assert first.status == repeat.status == 302
        assert first.headers.get("Location") == repeat.headers.get("Location")
        assert server.cache_hits == 1
        # A different header misses: the key varies on Accept-Datetime.
        other = get(server, f"action=timegate&url={url}", world.clock.now,
                    {ACCEPT_DATETIME: str(world.clock.now)})
        assert other.status == 302
        assert server.cache_hits == 1

    def test_memento_body_cached_and_byte_identical(self):
        world = build_world(SEED, pages=4)
        server = make_server(world)
        seed_world(server, world, seed=SEED, rounds=2)
        url = world.urls[0]
        query = f"action=memento&url={url}&rev=1.1"
        first = get(server, query, world.clock.now)
        cached = get(server, query, world.clock.now)
        assert first.status == 200
        assert first.body == cached.body
        assert server.cache_hits == 1

    def test_checkin_invalidates_timegate_and_timemap(self):
        world = build_world(SEED, pages=4)
        server = make_server(world)
        seed_world(server, world, seed=SEED, rounds=1)
        url = world.urls[0]
        gate_q = f"action=timegate&url={url}"
        map_q = f"action=timemap&url={url}"
        stale_gate = get(server, gate_q, world.clock.now)
        stale_map = get(server, map_q, world.clock.now)
        assert stale_gate.status == 302 and stale_map.status == 200

        world.clock.advance(3600)
        server.checkin_content("curator0@example.com", url,
                               "<HTML><BODY><P>fresh state.</P></BODY></HTML>")

        fresh_gate = get(server, gate_q, world.clock.now)
        fresh_map = get(server, map_q, world.clock.now)
        # The absent-header gate now points at the new head revision...
        assert fresh_gate.headers.get("Location") != \
            stale_gate.headers.get("Location")
        # ...and the TimeMap lists one more memento.
        assert fresh_map.body != stale_map.body
        assert fresh_map.body.count('rel="memento"') + \
            fresh_map.body.count('rel="first memento"') + \
            fresh_map.body.count('rel="last memento"') > 0

    def test_checkin_routes_once(self):
        world = build_world(SEED, pages=4)
        server = make_server(world)
        url = world.urls[0]
        server.checkin_content("curator0@example.com", url,
                               "<HTML><BODY><P>fresh state.</P></BODY></HTML>")
        assert sum(server.store.router.routed) == 1

    def test_pinned_memento_survives_checkin(self):
        world = build_world(SEED, pages=4)
        server = make_server(world)
        seed_world(server, world, seed=SEED, rounds=1)
        url = world.urls[0]
        query = f"action=memento&url={url}&rev=1.1"
        before = get(server, query, world.clock.now)
        world.clock.advance(3600)
        server.checkin_content("curator0@example.com", url,
                               "<HTML><BODY><P>fresh state.</P></BODY></HTML>")
        after = get(server, query, world.clock.now)
        # An immutable URI-M body is unchanged by new history, and the
        # second read was a cache hit (the entry was not invalidated).
        assert before.body == after.body
        assert server.cache_hits >= 1
