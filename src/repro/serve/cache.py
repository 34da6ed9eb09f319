"""Per-shard response caching for the diff server.

Paper Section 4.2: "These loads can be alleviated by caching the output
of HtmlDiff for a while."  The store already caches *diff results*
and *checkout texts* (two :class:`~repro.lru.LruCache` instances);
this layer caches the **finished HTTP response** — rendered HTML,
keep-alive padding and all — so a repeat request never reaches the
store at all.

Soundness rule: a response may be replayed only if recomputing it could
not produce different bytes.  Three request shapes qualify:

* ``action=view&rev=R`` — a pinned revision's text is immutable;
* ``action=diff&r1=A&r2=B`` — the diff of two pinned revisions is
  immutable (the store's own diff cache relies on the same fact);
* ``action=view&date=D`` — resolves through ``revision_at``; a *new*
  check-in can change the resolution, so these entries are **volatile**
  and are dropped for a URL whenever the server routes a mutating
  action (remember, or a diff that may check in the live page) there.

The Memento actions follow the same split: ``action=memento&rev=R`` is
a pinned revision (immutable, like a pinned view), while
``action=timegate`` (keyed by the request's ``Accept-Datetime`` value
and policy — the 302 is a *negotiation result*, cacheable like a 200)
and ``action=timemap`` enumerate history that the next check-in
extends, so both are volatile.

Everything else (default diffs, history, remember, stats) is
state-dependent or side-effecting and is never cached.  Entries are
LRU-bounded; the hit counters feed the ``serve.cache.*`` metrics.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

from ..lru import LruCache
from ..web.http import Response

__all__ = ["ResponseCache", "cacheable_key", "copy_response"]


def cacheable_key(params: Dict[str, str], url: str,
                  accept_datetime: str = "") -> Optional[Tuple]:
    """The cache identity of a request, or None when it must not be
    cached.  ``url`` is the request's canonical URL and
    ``accept_datetime`` its Accept-Datetime header (TimeGate only).
    The key carries a ``volatile`` flag (date-resolved views) used for
    per-URL invalidation."""
    action = params.get("action", "")
    if not url:
        return None
    if action == "view":
        rev = params.get("rev")
        date = params.get("date")
        if rev is not None:
            return ("view", url, str(rev), False)
        if date is not None:
            return ("view_at", url, str(date), True)
        return None
    if action == "diff":
        r1, r2 = params.get("r1"), params.get("r2")
        if r1 is not None and r2 is not None:
            return ("diff", url, str(r1), str(r2), False)
        return None
    if action == "memento":
        rev = params.get("rev")
        if rev is not None:
            return ("memento", url, str(rev), False)
        return None
    if action == "timegate":
        # The negotiated target lives in the Accept-Datetime *header*
        # (absent header ≠ any dated request).
        return ("timegate", url, params.get("policy") or "",
                accept_datetime, True)
    if action == "timemap":
        return ("timemap", url, params.get("format", "link"), True)
    return None


def copy_response(response: Response) -> Response:
    """Responses are handed to transport code that may mutate them
    (HEAD handling blanks bodies); never share the cached object."""
    return Response(status=response.status, headers=response.headers.copy(),
                    body=response.body)


class ResponseCache(LruCache[Response]):
    """LRU cache of finished responses for one shard."""

    def __init__(self, capacity: int = 512) -> None:
        super().__init__(capacity)

    def get(self, key: Hashable, copy: bool = True) -> Optional[Response]:
        """A copy of the cached response.  The copying default is
        deliberate: no caller can share the cached object by accident.
        ``copy=False`` returns the shared entry, for a caller that may
        drop it unused (a shed hit) and copies it before handing out."""
        entry = super().get(key)
        return entry if entry is None or not copy else copy_response(entry)

    def put(self, key: Hashable, response: Response) -> None:
        # Only successful pages — plus the TimeGate's 302, which is a
        # deterministic negotiation *result* — are worth replaying;
        # error pages are cheap to regenerate and may reflect transient
        # state.
        if response.status in (200, 302):
            super().put(key, copy_response(response))

    def invalidate_url(self, url: str, volatile_only: bool = True) -> int:
        """Drop cached entries for ``url``.

        The default drops only the *volatile* entries (date-resolved
        views) — pinned-revision entries are immutable under ordinary
        operation and survive a check-in.  ``volatile_only=False``
        drops **everything** for the URL: replication repair can
        rewrite a replica's archive (a divergence rebuild renumbers
        history), so after a failover or read repair even "immutable"
        pinned entries may describe revisions that no longer exist.
        """
        return self.invalidate(lambda key: key[1] == url and (
            key[-1] is True or not volatile_only))
