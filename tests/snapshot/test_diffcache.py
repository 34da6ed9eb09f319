"""Tests for the shared HtmlDiff output cache (an LruCache keyed by
``diff_cache_key``)."""

import pytest

from repro.core.htmldiff.options import HtmlDiffOptions, PresentationMode
from repro.core.snapshot.store import SnapshotStore, diff_cache_key
from repro.lru import LruCache
from repro.simclock import DAY, HOUR, SimClock
from repro.web.client import UserAgent
from repro.web.network import Network


def result_stub(tag):
    """Cache values are opaque to the cache; any object will do."""
    return tag


class TestDiffCacheUnit:
    def test_miss_then_hit(self):
        cache = LruCache(256)
        key = diff_cache_key("http://a/", "1.1", "1.2", None)
        assert cache.get(key) is None
        cache.put(key, result_stub("r"))
        assert cache.get(key) == "r"
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hit_rate"] == 0.5

    def test_key_includes_options(self):
        plain = HtmlDiffOptions()
        reference = plain.reference()
        reversed_mode = HtmlDiffOptions(mode=PresentationMode.MERGED_REVERSED)
        keys = {
            diff_cache_key("http://a/", "1.1", "1.2", options)
            for options in (None, plain, reference, reversed_mode)
        }
        assert len(keys) == 4
        # Equal configurations share a key across instances.
        assert diff_cache_key("u", "1.1", "1.2", HtmlDiffOptions()) == \
            diff_cache_key("u", "1.1", "1.2", HtmlDiffOptions())

    def test_key_stringifies_revisions(self):
        assert diff_cache_key("u", 1.1, "1.2", None) == \
            diff_cache_key("u", "1.1", "1.2", None)

    def test_lru_eviction_order(self):
        cache = LruCache(capacity=2)
        k = [diff_cache_key("u", "1.1", f"1.{i}", None) for i in range(4)]
        cache.put(k[0], "a")
        cache.put(k[1], "b")
        assert cache.get(k[0]) == "a"  # refresh k0
        cache.put(k[2], "c")  # evicts k1, the least recently used
        assert cache.get(k[1]) is None
        assert cache.get(k[0]) == "a"
        assert cache.evictions == 1

    def test_zero_capacity_disables(self):
        cache = LruCache(capacity=0)
        key = diff_cache_key("u", "1.1", "1.2", None)
        cache.put(key, "r")
        assert cache.get(key) is None
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LruCache(capacity=-1)

    def test_invalidate_url(self):
        cache = LruCache(256)
        cache.put(diff_cache_key("u1", "1.1", "1.2", None), "a")
        cache.put(diff_cache_key("u1", "1.2", "1.3", None), "b")
        cache.put(diff_cache_key("u2", "1.1", "1.2", None), "c")
        assert cache.invalidate(lambda key: key[0] == "u1") == 2
        assert len(cache) == 1
        assert cache.get(diff_cache_key("u2", "1.1", "1.2", None)) == "c"


@pytest.fixture
def world():
    clock = SimClock()
    network = Network(clock)
    server = network.create_server("site.com")
    server.set_page("/page", "<HTML><BODY><P>version one.</P></BODY></HTML>")
    agent = UserAgent(network, clock)
    store = SnapshotStore(clock, agent)
    return clock, network, server, store


def two_revisions(clock, server, store, users=("fred@att.com", "tom@att.com")):
    for user in users:
        store.remember(user, "http://site.com/page")
    clock.advance(DAY)
    server.set_page("/page", "<HTML><BODY><P>version two.</P></BODY></HTML>")


class TestStoreIntegration:
    def test_diff_shared_across_users_and_time(self, world):
        clock, network, server, store = world
        two_revisions(clock, server, store)
        store.diff("fred@att.com", "http://site.com/page")
        assert store.htmldiff_invocations == 1
        # A different user, well past the coalescer's window.
        clock.advance(HOUR * 2)
        result = store.diff("tom@att.com", "http://site.com/page")
        assert store.htmldiff_invocations == 1  # replayed from the cache
        assert "<STRONG><I>two.</I></STRONG>" in result.html
        assert store.diff_cache.hits == 1

    def test_explicit_revision_pairs_cached_separately(self, world):
        clock, network, server, store = world
        two_revisions(clock, server, store)
        store.diff("fred@att.com", "http://site.com/page")
        clock.advance(DAY)
        server.set_page("/page", "<HTML><BODY><P>version three.</P></BODY></HTML>")
        store.remember("fred@att.com", "http://site.com/page")  # -> 1.3
        store.diff("fred@att.com", "http://site.com/page",
                   rev_old="1.2", rev_new="1.3")
        assert store.htmldiff_invocations == 2
        clock.advance(HOUR * 2)
        store.diff("fred@att.com", "http://site.com/page",
                   rev_old="1.2", rev_new="1.3")
        assert store.htmldiff_invocations == 2

    def test_cache_disabled_recomputes(self, world):
        clock, network, server, store = world
        store = SnapshotStore(store.clock, store.agent, diff_cache_size=0,
                              diff_cache_ttl=0)
        two_revisions(clock, server, store)
        store.diff("fred@att.com", "http://site.com/page")
        clock.advance(HOUR * 2)
        store.diff("tom@att.com", "http://site.com/page")
        assert store.htmldiff_invocations == 2

    def test_stats_surface(self, world):
        clock, network, server, store = world
        two_revisions(clock, server, store)
        store.diff("fred@att.com", "http://site.com/page")
        stats = store.diff_cache.stats()
        assert stats["size"] == 1
        assert stats["capacity"] == 256
        assert stats["misses"] >= 1
