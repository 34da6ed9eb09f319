"""A proxy-caching server (the AT&T-wide proxy of the paper).

w3newer consults "a modification date stored in a proxy-caching
server's cache" before ever touching the origin, and the paper warns
that "proxy-caching servers are sometimes overloaded to the point of
timing out large numbers of requests".  Both behaviours live here:

* TTL-based freshness with If-Modified-Since revalidation on expiry,
* an inspection API (:meth:`cached_last_modified`) used by the checker,
* an ``overloaded`` switch making the proxy time out every request.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from ..simclock import SimClock
from .http import Headers, Request, Response, TimeoutError_
from .network import Network
from .url import Url

__all__ = ["ProxyCache", "CacheEntry"]


@dataclass
class CacheEntry:
    """One cached entity."""

    response: Response
    fetched_at: int
    last_modified: Optional[int]


def _cache_key(url: Url) -> str:
    normal = url.normalized()
    return f"{normal.host}{normal.request_path}"


class ProxyCache:
    """TTL cache in front of the network, HTTP/1.0 style."""

    def __init__(
        self,
        network: Network,
        clock: SimClock,
        ttl: int = 3600,
        capacity_bytes: int = 0,
    ) -> None:
        self.network = network
        self.clock = clock
        self.ttl = ttl
        #: 0 means unbounded; otherwise LRU eviction keeps the cached
        #: body bytes under this limit (1995 proxies were disk-bound —
        #: the "insufficient locality" the paper observed on the
        #: AT&T-wide proxy is partly an artifact of such limits).
        self.capacity_bytes = capacity_bytes
        self.overloaded = False
        #: 0 = unlimited.  Otherwise the proxy times out requests beyond
        #: this many in a single simulated instant — the paper's
        #: "proxy-caching servers are sometimes overloaded to the point
        #: of timing out large numbers of requests, and a background
        #: task that retrieves many URLs in a short time can aggravate
        #: their condition".
        self.requests_per_instant_limit = 0
        self._instant: int = -1
        self._instant_requests = 0
        #: Least-recently-used first; a 304 revalidation does not move
        #: an entry, a hit or a store moves it to the end.
        self._cache: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self._bytes = 0  # body bytes of every cached entry
        self.hits = 0
        self.misses = 0
        self.revalidations = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # Inspection (w3newer's second modification-date source)
    # ------------------------------------------------------------------
    def cached_last_modified(self, url: Url) -> Optional[Tuple[int, int]]:
        """(last_modified, cached_at) for a cached page, else None.

        ``cached_at`` lets the caller judge staleness: the paper only
        trusts proxy data "current with respect to the threshold".
        """
        entry = self._cache.get(_cache_key(url))
        if entry is None or entry.last_modified is None:
            return None
        return entry.last_modified, entry.fetched_at

    def contains(self, url: Url) -> bool:
        return _cache_key(url) in self._cache

    def evict(self, url: Url) -> None:
        self._drop(_cache_key(url))

    @property
    def cached_bytes(self) -> int:
        return self._bytes

    # ------------------------------------------------------------------
    # Proxying
    # ------------------------------------------------------------------
    def request(self, request: Request) -> Response:
        """Serve from cache when fresh; otherwise go to the origin.

        Only GET responses with status 200 are cached.  POST and HEAD
        pass straight through (HTTP/1.0 proxies did not cache HEAD).
        """
        if self.overloaded:
            raise TimeoutError_("proxy overloaded")
        if self.requests_per_instant_limit > 0:
            if self.clock.now != self._instant:
                self._instant = self.clock.now
                self._instant_requests = 0
            self._instant_requests += 1
            if self._instant_requests > self.requests_per_instant_limit:
                raise TimeoutError_(
                    "proxy overloaded by burst traffic "
                    f"({self._instant_requests} requests this instant)"
                )
        if request.method != "GET":
            return self.network.request(request)

        key = _cache_key(request.url)
        entry = self._cache.get(key)
        now = self.clock.now

        if entry is not None and now - entry.fetched_at < self.ttl:
            self.hits += 1
            self._cache.move_to_end(key)
            return self._copy(entry.response)

        if entry is not None and entry.last_modified is not None:
            # Stale: revalidate with a conditional GET.
            self.revalidations += 1
            conditional = Request(
                method="GET",
                url=request.url,
                headers=self._conditional_headers(entry),
                timeout=request.timeout,
            )
            response = self.network.request(conditional)
            if response.status == 304:
                entry.fetched_at = now
                return self._copy(entry.response)
            if response.status == 200:
                self._store(key, response, now)
            return self._copy(response)

        self.misses += 1
        response = self.network.request(request)
        if response.status == 200:
            self._store(key, response, now)
        return self._copy(response)

    def _conditional_headers(self, entry: CacheEntry) -> Headers:
        headers = Headers()
        if entry.last_modified is not None:
            headers.set("X-Sim-If-Modified-Since", str(entry.last_modified))
            headers.set("If-Modified-Since", str(entry.last_modified))
        return headers

    def _store(self, key: str, response: Response, now: int) -> None:
        self._drop(key)
        self._cache[key] = CacheEntry(
            response=self._copy(response),
            fetched_at=now,
            last_modified=response.last_modified,
        )
        self._bytes += len(response.body)
        self._enforce_capacity()

    def _drop(self, key: str) -> None:
        entry = self._cache.pop(key, None)
        if entry is not None:
            self._bytes -= len(entry.response.body)

    def _enforce_capacity(self) -> None:
        """Evict least-recently-used entries past the byte budget.

        The just-stored entry (the last one) is never evicted, even
        when it alone exceeds the budget — a proxy that cannot cache a
        page simply holds it for the in-flight response.
        """
        if self.capacity_bytes <= 0:
            return
        while self._bytes > self.capacity_bytes and len(self._cache) > 1:
            self._drop(next(iter(self._cache)))
            self.evictions += 1

    @staticmethod
    def _copy(response: Response) -> Response:
        return Response(
            status=response.status,
            headers=response.headers.copy(),
            body=response.body,
        )
