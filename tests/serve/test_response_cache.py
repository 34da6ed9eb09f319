"""Tests for the response cache's soundness rules: only requests whose
bytes cannot change are cacheable, date-views are volatile, and cached
responses are never shared objects."""

from repro.core.snapshot.store import SnapshotStore
from repro.serve.cache import ResponseCache, cacheable_key
from repro.simclock import SimClock
from repro.web.http import make_response

URL = "http://site.com/page.html"


class TestCacheableKey:
    def test_pinned_view_is_cacheable(self):
        key = cacheable_key({"action": "view", "url": URL, "rev": "1.2"},
                            URL)
        assert key == ("view", URL, "1.2", False)

    def test_date_view_is_cacheable_but_volatile(self):
        key = cacheable_key({"action": "view", "url": URL, "date": "3600"},
                            URL)
        assert key == ("view_at", URL, "3600", True)

    def test_pinned_diff_is_cacheable(self):
        key = cacheable_key({"action": "diff", "url": URL,
                             "r1": "1.1", "r2": "1.3", "user": "f@x.com"},
                            URL)
        assert key == ("diff", URL, "1.1", "1.3", False)

    def test_everything_else_is_not(self):
        for params in (
            {"action": "view", "url": URL},                       # head view
            {"action": "diff", "url": URL, "r1": "1.1"},          # unpinned
            {"action": "diff", "url": URL, "user": "f@x.com"},    # since-seen
            {"action": "remember", "url": URL, "user": "f@x.com"},
            {"action": "history", "url": URL, "user": "f@x.com"},
            {"action": "stats"},
            {"action": "view", "rev": "1.1"},                     # no url
            {},
        ):
            assert cacheable_key(params, params.get("url", "")) is None, \
                params


class TestResponseCache:
    def test_hit_returns_equal_but_distinct_response(self):
        cache = ResponseCache()
        key = ("view", URL, "1.1", False)
        cache.put(key, make_response(200, "<P>body</P>"))
        first, second = cache.get(key), cache.get(key)
        assert first.body == second.body == "<P>body</P>"
        assert first is not second
        # Mutating one copy (HEAD handling blanks bodies) must not
        # poison the cache.
        first.body = ""
        assert cache.get(key).body == "<P>body</P>"

    def test_only_200s_are_cached(self):
        cache = ResponseCache()
        cache.put(("view", URL, "9.9", False), make_response(404, "no"))
        assert cache.get(("view", URL, "9.9", False)) is None

    def test_lru_eviction(self):
        cache = ResponseCache(capacity=2)
        for rev in ("1.1", "1.2", "1.3"):
            cache.put(("view", URL, rev, False), make_response(200, rev))
        assert cache.get(("view", URL, "1.1", False)) is None
        assert cache.get(("view", URL, "1.3", False)).body == "1.3"
        assert cache.evictions == 1

    def test_invalidate_drops_only_volatile_entries_for_the_url(self):
        cache = ResponseCache()
        other = "http://site.com/other.html"
        cache.put(("view", URL, "1.1", False), make_response(200, "pinned"))
        cache.put(("view_at", URL, "3600", True), make_response(200, "dated"))
        cache.put(("view_at", other, "3600", True), make_response(200, "keep"))
        assert cache.invalidate_url(URL) == 1
        assert cache.get(("view", URL, "1.1", False)) is not None
        assert cache.get(("view_at", URL, "3600", True)) is None
        assert cache.get(("view_at", other, "3600", True)) is not None
        assert cache.invalidations == 1

    def test_stats(self):
        cache = ResponseCache(capacity=4)
        key = ("view", URL, "1.1", False)
        cache.get(key)
        cache.put(key, make_response(200, "x"))
        cache.get(key)
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["size"] == 1

    def test_stats_shape_matches_the_store_caches(self):
        store = SnapshotStore(SimClock(), agent=None)
        shape = set(ResponseCache().stats())
        assert shape == {"size", "capacity", "hits", "misses", "evictions",
                         "invalidations", "hit_rate"}
        assert set(store.diff_cache.stats()) == shape
        assert set(store.checkout_cache.stats()) == shape


class TestRepairInvalidation:
    """Replication repair rewrites a replica's archive out from under
    its cache; these are the hooks that keep it from serving stale
    bytes afterwards."""

    def test_full_invalidation_drops_pinned_entries_too(self):
        cache = ResponseCache()
        other = "http://site.com/other.html"
        cache.put(("view", URL, "1.1", False), make_response(200, "pinned"))
        cache.put(("diff", URL, "1.1", "1.2", False),
                  make_response(200, "diff"))
        cache.put(("view_at", URL, "3600", True), make_response(200, "dated"))
        cache.put(("view", other, "1.1", False), make_response(200, "keep"))
        assert cache.invalidate_url(URL, volatile_only=False) == 3
        assert cache.get(("view", URL, "1.1", False)) is None
        assert cache.get(("diff", URL, "1.1", "1.2", False)) is None
        assert cache.get(("view_at", URL, "3600", True)) is None
        # Entries for other URLs are untouched.
        assert cache.get(("view", other, "1.1", False)) is not None
        assert cache.invalidations == 3

    def test_clear_empties_the_cache(self):
        cache = ResponseCache()
        cache.put(("view", URL, "1.1", False), make_response(200, "a"))
        cache.put(("view", URL, "1.2", False), make_response(200, "b"))
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache.invalidations == 2
        assert cache.get(("view", URL, "1.1", False)) is None
