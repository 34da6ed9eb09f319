"""The bounded least-recently-used cache every AIDE layer shares.

Paper Section 4.2: "These loads can be alleviated by caching the output
of HtmlDiff for a while."  The snapshot store keeps two of these caches
(served HtmlDiff pages and checked-out revision texts) and the diff
server keeps one per shard for finished responses
(:class:`~repro.serve.cache.ResponseCache`).  All three have the same
eviction rule and report the same stats shape.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Generic, Hashable, Optional, TypeVar

__all__ = ["LruCache"]

V = TypeVar("V")


class LruCache(Generic[V]):
    """``capacity`` entries at most, least recently used evicted first.

    ``capacity`` 0 disables caching entirely (every ``get`` misses,
    ``put`` is a no-op), which keeps call sites branch-free.  Entries
    dropped by :meth:`discard`, :meth:`invalidate` or :meth:`clear`
    count as invalidations; entries pushed out by capacity count as
    evictions.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, V]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __contains__(self, key: Hashable) -> bool:
        """Would :meth:`get` hit?  No LRU touch and no hit/miss
        accounting, so a cost model can ask without disturbing either."""
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Optional[V]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: Hashable, value: V) -> None:
        if self.capacity == 0:
            return
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
        entries[key] = value
        while len(entries) > self.capacity:
            entries.popitem(last=False)
            self.evictions += 1

    def discard(self, key: Hashable) -> None:
        if self._entries.pop(key, None) is not None:
            self.invalidations += 1

    def invalidate(self, doomed: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose key ``doomed`` accepts; returns how
        many were dropped."""
        keys = [key for key in self._entries if doomed(key)]
        for key in keys:
            del self._entries[key]
        self.invalidations += len(keys)
        return len(keys)

    def clear(self) -> int:
        """Drop every entry; returns how many."""
        dropped = len(self._entries)
        self._entries.clear()
        self.invalidations += dropped
        return dropped

    def stats(self) -> Dict[str, float]:
        lookups = self.hits + self.misses
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
        }
