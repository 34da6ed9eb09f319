"""The long-running snapshot/diff server (paper Section 4.2, scaled).

The paper served everything through one CGI dispatch per request; this
package is the front end the "millions of users" north star needs: a
stateful server object composing

* :class:`~repro.core.snapshot.sharding.ShardedSnapshotStore` shards
  behind stable rendezvous routing,
* a bounded per-shard :class:`~.pool.WorkerPool` (admission queue +
  deterministic virtual-time queueing on the shared sim clock),
* a per-shard :class:`~.cache.ResponseCache` above the store's diff
  and checkout caches (all three :class:`~repro.lru.LruCache`),
* backpressure: queue-full requests get **503 + Retry-After**, which
  :class:`~repro.web.resilience.ResilientAgent` already honors,
* redundancy: a :class:`~.replication.ReplicationManager` keeps every
  URL's archive on R rendezvous-ordered shards, with failover reads,
  fan-out writes, hinted handoff for down replicas, read repair, and a
  Merkle-fingerprint anti-entropy scrub — all driven deterministically
  (chaos included, via :class:`~.replication.ShardFaultPlan`) on the
  sim clock,

with every moving part wired through :mod:`repro.obs`.
"""

from .cache import ResponseCache, cacheable_key
from .loadgen import ClosedLoopLoad, LoadReport, build_world, seed_world
from .pool import Admission, Rejection, WorkerPool
from .replication import (
    HandoffJournal,
    ReplicationManager,
    ShardFault,
    ShardFaultPlan,
    bucket_fingerprints,
    url_fingerprint,
)
from .server import DiffServer

__all__ = [
    "Admission",
    "ClosedLoopLoad",
    "DiffServer",
    "HandoffJournal",
    "LoadReport",
    "Rejection",
    "ReplicationManager",
    "ResponseCache",
    "ShardFault",
    "ShardFaultPlan",
    "WorkerPool",
    "bucket_fingerprints",
    "build_world",
    "cacheable_key",
    "seed_world",
    "url_fingerprint",
]
