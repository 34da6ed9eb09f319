"""Helpers shared by the workloads that drive a DiffServer."""

from __future__ import annotations

import hashlib
from typing import Dict

from repro.web.cgi import encode_query_string
from repro.web.http import Request


def snapshot_request(params: Dict[str, str]) -> Request:
    return Request("GET", "http://aide.example.com/cgi-bin/snapshot?"
                   + encode_query_string(params))


def digest(response) -> bytes:
    """Identity of a response: status, content type and body bytes."""
    return hashlib.sha256(
        f"{response.status}|{response.headers.get('Content-Type')}|".encode()
        + response.body.encode()
    ).digest()


def server_counters(server) -> Dict[str, int]:
    """The DiffServer's and its stores' cumulative counters."""
    stats = server.stats()
    store = server.store.stats()
    cache = stats["response_cache"]
    return {
        "dispatches": stats["requests"],
        "shed": stats["shed"],
        "admitted": stats["pool"]["admitted"],
        "rejected": stats["pool"]["rejected"],
        "cache_hits": cache["hits"],
        "cache_misses": cache["misses"],
        "invalidations": cache["invalidations"],
        "diffcache_hits": store["diff_cache"]["hits"],
        "diffcache_misses": store["diff_cache"]["misses"],
        "checkout_hits": store["checkout_cache"]["hits"],
        "checkout_misses": store["checkout_cache"]["misses"],
        "htmldiff_invocations": server.store.htmldiff_invocations,
        "stored_bytes": server.store.total_bytes(),
    }


def server_layer_stats(server, base: Dict[str, int],
                       ops: int) -> Dict[str, float]:
    """Per-layer counts of the timed phase: counters since ``base``
    per op, and hit rates of the timed phase's lookups."""
    now = server_counters(server)
    delta = {key: now[key] - base[key] for key in now}
    ops = max(1, ops)

    def rate(hits, misses):
        lookups = delta[hits] + delta[misses]
        return delta[hits] / lookups if lookups else 0.0

    return {
        "serve.pool.admitted": delta["admitted"] / ops,
        "serve.pool.rejected": delta["rejected"] / ops,
        "serve.cache.hit_rate": rate("cache_hits", "cache_misses"),
        "serve.cache.invalidations": delta["invalidations"] / ops,
        "serve.server.dispatches_per_op": delta["dispatches"] / ops,
        "core.snapshot.diffcache.hit_rate":
            rate("diffcache_hits", "diffcache_misses"),
        "core.snapshot.checkoutcache.hit_rate":
            rate("checkout_hits", "checkout_misses"),
        "core.snapshot.archive_bytes_ratio":
            server.store.total_bytes() / server.store.full_copy_bytes(),
    }
