"""The sharded, pooled, cached snapshot/diff server.

One :class:`DiffServer` is the whole Section-4.2 scaling story in a
single front end:

* requests route by **URL hash** (rendezvous, via
  :class:`~repro.core.snapshot.sharding.ShardedSnapshotStore`) to one
  of N shards, each a full :class:`~repro.core.snapshot.store.
  SnapshotStore` + :class:`~repro.core.snapshot.service.
  SnapshotService` pair — so every response body is produced by
  exactly the code the single-store reference service runs, which is
  what makes the byte-identity gate possible;
* each shard has a bounded :class:`~.pool.WorkerPool`; a request that
  cannot even queue is shed with **503 + Retry-After** (the advice
  :class:`~repro.web.resilience.ResilientAgent` honors) instead of
  joining an unbounded-latency convoy;
* each shard has a :class:`~.cache.ResponseCache` above the store's
  diff and checkout caches, so a repeated pinned-revision request costs
  one dictionary lookup;
* queue depth, busy workers, shard routing, cache hit rate, shed rate,
  and per-action latency histograms all land in :mod:`repro.obs`.

The server is callable with the CGI signature ``(request, now) ->
Response`` so it registers on a simulated
:class:`~repro.web.server.HttpServer` exactly where the single CGI
script used to sit — the "long-running" difference is that the object
keeps its pools, caches, and shards alive across requests.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from ..core.snapshot.keepalive import KeepAlive
from ..core.snapshot.service import (
    OperationCosts,
    SnapshotService,
    fsck_page_html,
    stats_page_html,
)
from ..core.snapshot.sharding import (
    ShardedSnapshotStore,
    append_sharded,
    verify_sharded,
)
from ..core.snapshot.options import StoreOptions
from ..core.snapshot.store import diff_cache_key
from ..memento.core import ACCEPT_DATETIME
from ..obs import NOOP as NOOP_OBS, to_json, to_prometheus
from ..simclock import SimClock
from ..web.cgi import request_params
from ..web.client import UserAgent
from ..web.http import Request, Response, make_response
from ..web.url import canonical_url
from .cache import ResponseCache, cacheable_key, copy_response
from .pool import Admission, Rejection, WorkerPool
from .replication import ReplicationManager, ShardFaultPlan

__all__ = ["DiffServer"]

#: Actions with their own latency histogram; anything else is "other".
_TRACKED_ACTIONS = ("remember", "diff", "history", "view", "form",
                    "timegate", "timemap", "memento")


class DiffServer:
    """N store shards, N worker pools, N response caches, one face."""

    def __init__(
        self,
        clock: SimClock,
        agent: UserAgent,
        shards: int = 4,
        workers_per_shard: int = 4,
        queue_limit: int = 32,
        response_cache_size: int = 512,
        costs: Optional[OperationCosts] = None,
        keepalive: Optional[KeepAlive] = None,
        store_options: Optional[StoreOptions] = None,
        diff_options=None,
        obs=None,
        script_path: str = "/cgi-bin/snapshot",
        repository_dir: Optional[str] = None,
        replication: int = 1,
        fault_plan: Optional[ShardFaultPlan] = None,
        scrub_interval: int = 0,
        sync_interval: int = 0,
        guard=None,
        quarantine=None,
    ) -> None:
        self.clock = clock
        self.obs = obs if obs is not None else NOOP_OBS
        self.costs = costs or OperationCosts()
        self.keepalive = keepalive or KeepAlive()
        self.script_path = script_path
        self.repository_dir = repository_dir
        self.replication = replication
        #: Mutating dispatches between on-disk journal appends (0 =
        #: never sync automatically); requires ``repository_dir``.
        self.sync_interval = sync_interval
        self._mutations_since_sync = 0
        self.store = ShardedSnapshotStore(
            clock, agent, shard_count=shards,
            diff_options=diff_options, options=store_options, obs=self.obs,
            guard=guard, quarantine=quarantine,
        )
        #: One full CGI service per shard: the response-rendering code
        #: is shared with the reference deployment, not reimplemented.
        self.services: List[SnapshotService] = [
            SnapshotService(
                shard_store, keepalive=self.keepalive, costs=self.costs,
                script_path=script_path,
            )
            for shard_store in self.store.shards
        ]
        self.pools: List[WorkerPool] = [
            WorkerPool(workers_per_shard, queue_limit, obs=self.obs,
                       name=f"serve.shard{index:02d}.pool")
            for index in range(shards)
        ]
        self.response_caches: List[ResponseCache] = [
            ResponseCache(capacity=response_cache_size) for _ in range(shards)
        ]
        #: The replication layer is engaged only when asked for — at
        #: R=1 with no fault plan the dispatch path is byte-for-byte
        #: the unreplicated server's, which the identity gates rely on.
        self.replicator: Optional[ReplicationManager] = None
        if replication > 1 or fault_plan is not None or scrub_interval:
            self.replicator = ReplicationManager(
                self.store,
                replication=replication,
                fault_plan=fault_plan,
                directory=repository_dir,
                scrub_interval=scrub_interval,
                on_reset=self._on_shard_reset,
                on_repair=self._on_shard_repair,
            )
            self.obs.register_stats("serve.replication",
                                    self.replicator.stats)
        self.requests = 0
        self.shed = 0
        self.cache_hits = 0
        #: The last dispatch's schedule — the closed-loop driver reads
        #: completion times from here right after calling the server.
        self.last_admission: Optional[Admission] = None
        self._c_requests = self.obs.counter("serve.requests")
        self._c_shed = self.obs.counter("serve.shed")
        self._c_cache_hits = self.obs.counter("serve.cache.hits")
        self._c_cache_misses = self.obs.counter("serve.cache.misses")
        self._h_latency = {
            action: self.obs.histogram(f"serve.latency.{action}")
            for action in _TRACKED_ACTIONS + ("other",)
        }
        self.obs.register_stats("serve.server", self.stats)

    # ------------------------------------------------------------------
    # Replication hooks
    # ------------------------------------------------------------------
    def _on_shard_reset(self, shard_index: int) -> None:
        """A shard crashed (or just recovered): its store object was
        replaced, so rebuild the CGI service wrapping it, and drop the
        shard's whole response cache — cached responses may describe
        state the crash destroyed (or that recovery just rebuilt)."""
        self.services[shard_index] = SnapshotService(
            self.store.shards[shard_index], keepalive=self.keepalive,
            costs=self.costs, script_path=self.script_path,
        )
        self.response_caches[shard_index].clear()

    def _on_shard_repair(self, shard_index: int, url: str) -> None:
        """Replication repair rewrote ``url``'s state on this shard:
        drop every cached response for it, pinned entries included — a
        divergence rebuild can change what a pinned revision means."""
        self.response_caches[shard_index].invalidate_url(
            url, volatile_only=False)

    # ------------------------------------------------------------------
    # CGI entry point
    # ------------------------------------------------------------------
    def __call__(self, request: Request, now: int) -> Response:
        response, _schedule = self.dispatch(request, now)
        return response

    def dispatch(
        self, request: Request, now: int
    ) -> Tuple[Response, Union[Admission, Rejection, None]]:
        """Serve one request; also return its pool schedule (None for
        requests the server answers without touching a pool)."""
        self.requests += 1
        self._c_requests.inc()
        if self.replicator is not None:
            # Fault transitions and the anti-entropy scrub run on the
            # request stream's virtual timestamps — deterministically.
            self.replicator.advance(now)
        params = request_params(request)
        action = params.get("action", "")
        url = params.get("url", "")

        # Operator surfaces answer from the front end itself: their
        # content spans every shard, and they must stay reachable even
        # with all pools saturated.
        if action == "stats":
            return self._stats_page(), None
        if action == "metrics":
            return self._metrics_page(params.get("format", "text")), None
        if action == "fsck":
            return self._fsck_page(params.get("repair") == "1"), None

        if self.replicator is not None and url:
            serving = self.replicator.serving_index(url)
            if serving is None:
                # The whole replica set is down.  Tell the client when
                # the earliest replica is scheduled back, exactly like
                # a queue-full shed — ResilientAgent and the closed
                # loop both honor Retry-After, so the request is
                # retried, not lost.
                self.replicator.unavailable += 1
                self.shed += 1
                self._c_shed.inc()
                self.last_admission = None
                rejection = Rejection(
                    retry_after=self.replicator.retry_after(url, now))
                return self._shed_response(rejection), rejection
            shard_index = serving
            self.store.router.routed[shard_index] += 1
            self.store._c_routes[shard_index].inc()
        else:
            shard_index = self._shard_index(url)
        cache = self.response_caches[shard_index]
        pool = self.pools[shard_index]
        canonical = canonical_url(url)
        accept_datetime = ""
        if action == "timegate":
            # Datetime negotiation varies on a header, not a query
            # parameter; fold it into the key so two targets never
            # share a cached 302 (exactly what Vary: accept-datetime
            # tells a real shared cache).
            accept_datetime = request.headers.get(ACCEPT_DATETIME, "") or ""
        key = cacheable_key(params, canonical, accept_datetime)

        # The shared entry itself: it is copied only once the request
        # is admitted, so a shed hit costs a lookup and no copy.
        cached = cache.get(key, copy=False) if key is not None else None
        if cached is not None:
            self.cache_hits += 1
            self._c_cache_hits.inc()
        elif key is not None:
            self._c_cache_misses.inc()

        cost = self._cost(action, params, canonical, shard_index,
                          cache_hit=cached is not None)
        if self.replicator is not None:
            cost *= self.replicator.slow_factor[shard_index]
        schedule = pool.admit(cost, now)
        if isinstance(schedule, Rejection):
            self.shed += 1
            self._c_shed.inc()
            self.last_admission = None
            return self._shed_response(schedule), schedule
        self.last_admission = schedule
        self._observe_latency(action, schedule.latency(now))

        mutates = self._mutates(action, params) and bool(url)
        if (self.replicator is not None and url and not mutates):
            # Read repair: live replicas that visibly lag the serving
            # copy are converged before the response leaves.
            self.replicator.on_read(url, shard_index)
        if cached is not None:
            return copy_response(cached), schedule
        response = self.services[shard_index](request, now, params=params)
        if key is not None:
            cache.put(key, response)
        if mutates:
            cache.invalidate_url(canonical)
            if self.replicator is not None:
                self.replicator.on_write(url, shard_index)
            self._note_mutation()
        return response, schedule

    def checkin_content(self, user: str, url: str, body: str):
        """Check in content out-of-band (the tracker / fixed-page
        archiver path) without going stale: the shard's volatile cache
        entries for the URL — date-resolved views, TimeGate 302s,
        TimeMaps — are dropped, exactly as a dispatched ``remember``
        would have dropped them."""
        result = self.store.checkin_content(user, url, body)
        index = self.store.shard_for(url)
        self.response_caches[index].invalidate_url(canonical_url(url))
        self._note_mutation()
        return result

    def _note_mutation(self) -> None:
        """Periodic on-disk journal sync, counted in mutations so a
        read-only stretch never rewrites anything."""
        if not self.sync_interval or self.repository_dir is None:
            return
        self._mutations_since_sync += 1
        if self._mutations_since_sync < self.sync_interval:
            return
        self._mutations_since_sync = 0
        append_sharded(self.store, self.repository_dir,
                       replication=self.replication)

    # ------------------------------------------------------------------
    # Routing, caching, cost model
    # ------------------------------------------------------------------
    def _shard_index(self, url: str) -> int:
        """No-URL requests (the registration form) go to shard 0."""
        if not url:
            return 0
        index = self.store.router.route(url)
        self.store._c_routes[index].inc()
        return index

    @staticmethod
    def _mutates(action: str, params: Dict[str, str]) -> bool:
        """Could this action check a new revision in?  ``remember``
        always; ``diff`` when the new endpoint is unpinned (the Diff
        link fetches the live page and archives it)."""
        if action == "remember":
            return True
        if action == "diff":
            return params.get("r2") is None
        return False

    def _cost(self, action: str, params: Dict[str, str], canonical: str,
              shard_index: int, cache_hit: bool) -> int:
        """Simulated worker-seconds one request occupies a worker.

        The response cache turns any request into a memory read; a
        pinned diff whose result is already in the shard's diff cache
        skips the HtmlDiff run; everything else mirrors the
        :class:`OperationCosts` arithmetic the CGI service charges.
        """
        costs = self.costs
        if cache_hit:
            return costs.cheap
        if action == "remember":
            return costs.fetch
        if action == "diff":
            r1, r2 = params.get("r1"), params.get("r2")
            if r1 is not None and r2 is not None:
                store = self.store.shards[shard_index]
                shared_key = diff_cache_key(canonical, r1, r2,
                                            store.diff_options)
                if shared_key in store.diff_cache:
                    return costs.cheap
                return costs.htmldiff
            return costs.fetch + costs.htmldiff
        return costs.cheap

    def _observe_latency(self, action: str, latency: int) -> None:
        name = action if action in _TRACKED_ACTIONS else (
            "form" if not action else "other"
        )
        self._h_latency[name].observe(latency)

    # ------------------------------------------------------------------
    # Backpressure and operator pages
    # ------------------------------------------------------------------
    def _shed_response(self, rejection: Rejection) -> Response:
        response = make_response(
            503,
            "<P>The snapshot facility is at its simultaneous-user "
            "limit; please retry shortly.</P>",
        )
        response.headers.set("Retry-After", str(rejection.retry_after))
        return response

    def _stats_page(self) -> Response:
        padding = self.keepalive.padding(self.costs.cheap)
        stats = dict(self.store.stats())
        stats["serve"] = self.stats()
        return make_response(200, padding + stats_page_html(stats))

    def _metrics_page(self, fmt: str) -> Response:
        snapshot = self.obs.snapshot()
        if fmt == "json":
            return make_response(200, to_json(snapshot),
                                 content_type="application/json")
        if fmt != "text":
            return make_response(
                400, "<HTML><HEAD><TITLE>Snapshot error</TITLE></HEAD><BODY>"
                     "<H1>Snapshot error</H1>"
                     f"<P>unknown metrics format {fmt!r}</P></BODY></HTML>",
            )
        return make_response(200, to_prometheus(snapshot),
                             content_type="text/plain")

    def _fsck_page(self, repair: bool) -> Response:
        if self.repository_dir is None:
            return make_response(
                400, "<HTML><HEAD><TITLE>Snapshot error</TITLE></HEAD><BODY>"
                     "<H1>Snapshot error</H1><P>fsck requires an on-disk "
                     "repository directory</P></BODY></HTML>",
            )
        padding = self.keepalive.padding(self.costs.cheap)
        report = verify_sharded(self.repository_dir, repair=repair)
        return make_response(200 if report.ok else 500,
                             padding + fsck_page_html(report))

    # ------------------------------------------------------------------
    def attach_scheduler(self, scheduler) -> None:
        """Deterministic concurrency: wire every shard's locks and
        failpoints to a :class:`~repro.core.snapshot.sched.SimScheduler`
        so simulated request processes interleave reproducibly."""
        self.store.attach_scheduler(scheduler)

    def stats(self) -> Dict[str, object]:
        pools = [pool.stats() for pool in self.pools]
        caches = [cache.stats() for cache in self.response_caches]
        lookups = sum(c["hits"] + c["misses"] for c in caches)
        hits = sum(c["hits"] for c in caches)
        out: Dict[str, object] = {
            "requests": self.requests,
            "shed": self.shed,
            "shards": self.store.shard_count,
            "routed": list(self.store.router.routed),
            "pool": {
                "workers": sum(p["workers"] for p in pools),
                "admitted": sum(p["admitted"] for p in pools),
                "rejected": sum(p["rejected"] for p in pools),
                "queued": sum(p["queued"] for p in pools),
                "busy_seconds": sum(p["busy_seconds"] for p in pools),
            },
            "response_cache": {
                "hits": hits,
                "misses": sum(c["misses"] for c in caches),
                "evictions": sum(c["evictions"] for c in caches),
                "invalidations": sum(c["invalidations"] for c in caches),
                "hit_rate": (hits / lookups) if lookups else 0.0,
            },
        }
        if self.replicator is not None:
            out["replication"] = self.replicator.stats()
        return out
