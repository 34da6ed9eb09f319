"""Replicated shards: failover, hinted handoff, and anti-entropy repair.

Paper Section 4.2 anticipates that a heavily used AIDE facility would
"replicate itself among multiple computers, as many W3 services do".
The sharded :class:`~.server.DiffServer` spread archives across shards
but kept exactly one copy of each — a single lost shard silently loses
history for ~1/N of all tracked URLs.  This module adds the redundancy
layer, federated-archive style (Memento's overlapping holdings):

* every URL's archive lives on the top **R** shards of its rendezvous
  ranking (:meth:`~repro.core.snapshot.sharding.ShardRouter.
  replicas_for`) — prefix-stable under fleet growth, deterministic in
  every process;
* **writes fan out**: the serving replica applies the mutation through
  the ordinary CGI path, then state-transfers the result to its live
  peers; peers that are down get a **hinted handoff** entry queued in a
  framed journal (:class:`HandoffJournal`, same wire format as the
  store journal) and replayed when they recover;
* **reads fail over**: the serving replica is the freshest live member
  of the replica set, so a dead primary degrades to its peer instead
  of a 503; when live replicas visibly disagree (revision counts
  differ), the read triggers **read repair**;
* a background **anti-entropy scrub** walks the URL space on the sim
  clock, comparing per-replica **Merkle-style bucketed revision
  fingerprints** pairwise and converging any divergence to the
  freshest copy — the safety net for every window the fast paths miss;
* faults are injected by :class:`ShardFaultPlan` — crash (in-memory
  state lost, optionally with a torn on-disk journal tail), slow shard
  (cost multiplier), all at fixed virtual times — so one seeded chaos
  run is byte-reproducible and a recovered replica can be proved
  identical to an unfaulted twin.

Everything here is deterministic: fault schedules are explicit virtual
times, replica choice is a pure function of (liveness, archive state,
rendezvous order), and state transfer replays the deterministic
``checkin`` path — which is what lets the benchmark gate on
byte-identity of post-scrub state against a zero-fault reference run.
"""

from __future__ import annotations

import hashlib
import os
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import framedlog
from ..core.snapshot.journal import JOURNAL_NAME
from ..core.snapshot.persistence import JournalRecoveryWarning, load_store
from ..core.snapshot.sharding import ShardedSnapshotStore, shard_dirname
from ..core.snapshot.store import SnapshotStore
from ..web.url import canonical_url

__all__ = [
    "ShardFault",
    "ShardFaultPlan",
    "HandoffJournal",
    "ReplicationManager",
    "url_fingerprint",
    "bucket_fingerprints",
    "HANDOFF_NAME",
]

#: The hinted-handoff journal's file name, next to the shard dirs.
HANDOFF_NAME = "handoff.log"


# ----------------------------------------------------------------------
# Deterministic shard-level fault injection
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ShardFault:
    """One scheduled shard fault.

    ``crash`` kills shard ``shard`` at virtual time ``at`` (its
    in-memory state is discarded; with ``torn_tail`` its on-disk
    journal additionally loses a partial final frame, the way a real
    crash tears an in-flight write) and recovers it at ``recover_at``.
    ``slow`` multiplies the shard's worker cost by ``factor`` over the
    same window instead.
    """

    kind: str  # "crash" | "slow"
    shard: int
    at: int
    recover_at: int
    torn_tail: bool = False
    factor: int = 4


class ShardFaultPlan:
    """A fixed schedule of shard faults, the storage-layer sibling of
    :class:`~repro.web.network.FaultPlan`: all fault times are explicit
    virtual timestamps, so two runs of the same plan observe the exact
    same transitions at the exact same dispatches."""

    def __init__(self) -> None:
        self.faults: List[ShardFault] = []

    def crash(self, shard: int, at: int, recover_at: int,
              torn_tail: bool = False) -> "ShardFaultPlan":
        if recover_at <= at:
            raise ValueError("recover_at must be after at")
        self.faults.append(ShardFault("crash", shard, at, recover_at,
                                      torn_tail=torn_tail))
        return self

    def slow(self, shard: int, at: int, until: int,
             factor: int = 4) -> "ShardFaultPlan":
        if until <= at:
            raise ValueError("until must be after at")
        if factor < 1:
            raise ValueError("slow factor must be >= 1")
        self.faults.append(ShardFault("slow", shard, at, until,
                                      factor=factor))
        return self

    @classmethod
    def kill_each_once(cls, shard_count: int, start: int, downtime: int,
                       spacing: Optional[int] = None,
                       torn_tail: bool = False) -> "ShardFaultPlan":
        """Kill every shard exactly once, staggered so no two outages
        overlap — the strongest single-failure schedule an R=2 fleet
        must survive with full availability."""
        if spacing is None:
            spacing = 2 * downtime
        if spacing < downtime:
            raise ValueError("spacing < downtime would overlap outages")
        plan = cls()
        for shard in range(shard_count):
            at = start + shard * spacing
            plan.crash(shard, at, at + downtime, torn_tail=torn_tail)
        return plan

    def transitions(self) -> List[Tuple[int, int, str, ShardFault]]:
        """Every state change in time order: ``(time, seq, event,
        fault)`` with event one of crash/recover/slow_on/slow_off.  The
        sequence number makes the sort total, so simultaneous events
        apply in plan order."""
        out: List[Tuple[int, int, str, ShardFault]] = []
        for seq, fault in enumerate(self.faults):
            if fault.kind == "crash":
                out.append((fault.at, seq, "crash", fault))
                out.append((fault.recover_at, seq, "recover", fault))
            else:
                out.append((fault.at, seq, "slow_on", fault))
                out.append((fault.recover_at, seq, "slow_off", fault))
        out.sort(key=lambda item: (item[0], item[1]))
        return out


# ----------------------------------------------------------------------
# Hinted handoff
# ----------------------------------------------------------------------

def _handoff_fields(payload: bytes) -> List[str]:
    return payload.decode("utf-8").rstrip("\n").split("\t")


class HandoffJournal:
    """Per-replica queues of "this URL changed while you were down".

    Hints are URL-level, not operation-level: replay state-transfers
    the URL from a live peer, which is idempotent and order-free, so a
    hint queued twice or replayed after a scrub already fixed the URL
    is harmless.  With a ``directory`` the queue is also persisted as a
    durable framed log (``handoff.log``, :mod:`repro.framedlog`, the
    store journal's format) — ``queue`` and ``drain`` events append
    records, and :meth:`load` folds them back into pending queues under
    the same recovery rule as the store journal.
    """

    def __init__(self, directory: Optional[str] = None) -> None:
        self.directory = directory
        self._pending: Dict[int, List[str]] = {}
        self.queued = 0
        self.replayed = 0
        self.torn_tail_truncations = 0
        if directory is not None:
            self.load()

    # ------------------------------------------------------------------
    def _path(self) -> Optional[str]:
        if self.directory is None:
            return None
        return os.path.join(self.directory, HANDOFF_NAME)

    def _append(self, line: str) -> None:
        path = self._path()
        if path is not None:
            framedlog.append(path, [line.encode("utf-8")])

    def load(self) -> None:
        """Rebuild pending queues from the on-disk log.  A torn tail is
        truncated away (the lost suffix is at most one hint, whose URL
        the recovery scrub re-converges anyway); damage with intact
        hints beyond it raises :class:`~repro.framedlog.JournalError`
        and leaves the file untouched."""
        path = self._path()
        if path is None:
            return
        scan = framedlog.recover(path, _handoff_fields)
        if scan.damage:
            self.torn_tail_truncations += 1
        pending: Dict[int, List[str]] = {}
        for fields in scan.entries:
            if fields[0] == "hint" and len(fields) == 3:
                target = int(fields[1])
                urls = pending.setdefault(target, [])
                if fields[2] not in urls:
                    urls.append(fields[2])
            elif fields[0] == "drain" and len(fields) == 2:
                pending.pop(int(fields[1]), None)
        self._pending = pending

    # ------------------------------------------------------------------
    def queue(self, target: int, url: str) -> None:
        urls = self._pending.setdefault(target, [])
        if url not in urls:
            urls.append(url)
            self.queued += 1
            self._append(f"hint\t{target}\t{url}\n")

    def drain(self, target: int) -> List[str]:
        urls = self._pending.pop(target, [])
        if urls:
            self.replayed += len(urls)
            self._append(f"drain\t{target}\n")
        return urls

    def depth(self, target: int) -> int:
        return len(self._pending.get(target, []))

    def depths(self) -> Dict[int, int]:
        return {target: len(urls)
                for target, urls in sorted(self._pending.items()) if urls}

    @property
    def total_depth(self) -> int:
        return sum(len(urls) for urls in self._pending.values())


# ----------------------------------------------------------------------
# Replica state fingerprints
# ----------------------------------------------------------------------

def url_fingerprint(store: SnapshotStore, key: str) -> str:
    """Hex digest of everything one replica holds for canonical URL
    ``key``: every revision (number, date, author, log, full text),
    every per-user seen stamp, and the cached live page.  Two replicas
    with equal fingerprints hold byte-identical state for the URL —
    the equality witness read repair, the scrub, and the benchmark's
    identical-to-unfaulted-twin gate all share."""
    digest = hashlib.sha256()
    archive = store.archives.get(key)
    if archive is not None:
        for info, text in archive.iter_texts():
            digest.update(
                f"rev\t{info.number}\t{info.date}\t{info.author}\t"
                f"{info.log}\n".encode("utf-8")
            )
            digest.update(text.encode("utf-8"))
            digest.update(b"\x00")
    for user in store.users.users_tracking(key):
        for seen in store.users.versions_seen(user, key):
            digest.update(
                f"stamp\t{user}\t{seen.revision}\t{seen.when}\n"
                .encode("utf-8")
            )
    page = store.page_cache.get(key)
    if page is not None:
        digest.update(b"page\n")
        digest.update(page.encode("utf-8"))
    return digest.hexdigest()


def bucket_fingerprints(store: SnapshotStore, keys: Sequence[str],
                        buckets: int = 16) -> Dict[int, str]:
    """Merkle-style rollup: URL fingerprints folded into ``buckets``
    digests by URL hash.  Two replicas compare bucket digests first and
    descend to per-URL fingerprints only inside unequal buckets, so a
    converged pair is confirmed in ``buckets`` comparisons."""
    grouped: Dict[int, List[str]] = {}
    for key in keys:
        bucket = int.from_bytes(
            hashlib.sha256(key.encode("utf-8")).digest()[:4], "big"
        ) % buckets
        grouped.setdefault(bucket, []).append(key)
    out: Dict[int, str] = {}
    for bucket, bucket_keys in grouped.items():
        digest = hashlib.sha256()
        for key in sorted(bucket_keys):
            digest.update(key.encode("utf-8"))
            digest.update(b"\x00")
            digest.update(url_fingerprint(store, key).encode("ascii"))
        out[bucket] = digest.hexdigest()
    return out


# ----------------------------------------------------------------------
# The replication manager
# ----------------------------------------------------------------------

class ReplicationManager:
    """Liveness, routing, fan-out, handoff, repair, and scrub for a
    replicated :class:`~repro.core.snapshot.sharding.
    ShardedSnapshotStore`.

    The consistency model is single-writer-per-URL: the **serving
    replica** — the freshest live member of the URL's rendezvous
    replica set, ties broken by rendezvous order — handles both reads
    and writes, and every other copy is converged to it by *state
    transfer* (:meth:`sync_url`), never by re-executing operations.
    Replaying the deterministic ``checkin`` path with the source's
    recorded dates and authors makes the transfer idempotent and the
    copies provably identical, which is what all four repair channels
    (write fan-out, hint replay, read repair, scrub) lean on.
    """

    def __init__(
        self,
        store: ShardedSnapshotStore,
        replication: int = 2,
        fault_plan: Optional[ShardFaultPlan] = None,
        directory: Optional[str] = None,
        scrub_interval: int = 0,
        scrub_batch: int = 64,
        scrub_buckets: int = 16,
        default_retry_after: int = 30,
        on_reset: Optional[Callable[[int], None]] = None,
        on_repair: Optional[Callable[[int, str], None]] = None,
    ) -> None:
        if not 1 <= replication <= store.shard_count:
            raise ValueError(
                f"replication must be in [1, {store.shard_count}], "
                f"got {replication}"
            )
        self.store = store
        self.replication = replication
        self.directory = directory
        self.scrub_interval = scrub_interval
        self.scrub_batch = scrub_batch
        self.scrub_buckets = scrub_buckets
        self.default_retry_after = default_retry_after
        #: Hooks into the serving layer: a reset clears a shard's whole
        #: response cache, a repair drops one URL's cached responses on
        #: one shard — the stale-after-repair guarantee.
        self.on_reset = on_reset or (lambda shard: None)
        self.on_repair = on_repair or (lambda shard, url: None)
        self.alive = [True] * store.shard_count
        self.slow_factor = [1] * store.shard_count
        self.handoff = HandoffJournal(directory)
        self._transitions = (fault_plan.transitions()
                             if fault_plan is not None else [])
        self._next_transition = 0
        self._replica_sets: Dict[str, Tuple[int, ...]] = {}
        #: Dead shards' scheduled recovery times (for Retry-After).
        self._recover_at: Dict[int, int] = {}
        self._scrub_cursor = 0
        self._next_scrub = scrub_interval if scrub_interval else None
        # Counters (surfaced through stats()).
        self.failovers = 0
        self.read_repairs = 0
        self.write_syncs = 0
        self.sync_bytes = 0
        self.divergence_rebuilds = 0
        self.crashes = 0
        self.recoveries = 0
        self.journal_truncations = 0
        self.scrub_runs = 0
        self.scrub_cycles = 0
        self.scrub_repairs = 0
        self.unavailable = 0

    # ------------------------------------------------------------------
    # Liveness and fault transitions
    # ------------------------------------------------------------------
    def advance(self, now: int) -> None:
        """Apply every scheduled fault transition due by ``now``, then
        run the scrub if its next tick has arrived.  Called at the top
        of every dispatch, so fault timing is a pure function of the
        request stream's virtual timestamps."""
        while (self._next_transition < len(self._transitions)
               and self._transitions[self._next_transition][0] <= now):
            _at, _seq, event, fault = \
                self._transitions[self._next_transition]
            self._next_transition += 1
            if event == "crash":
                self._crash(fault)
            elif event == "recover":
                self._recover(fault, now)
            elif event == "slow_on":
                self.slow_factor[fault.shard] = fault.factor
            elif event == "slow_off":
                self.slow_factor[fault.shard] = 1
        if self._next_scrub is not None and now >= self._next_scrub:
            self.scrub(now)
            self._next_scrub = now + self.scrub_interval

    def _shard_dir(self, shard: int) -> Optional[str]:
        if self.directory is None:
            return None
        return os.path.join(self.directory, shard_dirname(shard))

    def _crash(self, fault: ShardFault) -> None:
        shard = fault.shard
        self.alive[shard] = False
        self.crashes += 1
        self._recover_at[shard] = fault.recover_at
        if fault.torn_tail:
            self._tear_journal_tail(shard)
        # The crash model: in-memory state is gone.  Everything the
        # shard knew must come back from its disk journal and its
        # replica peers.
        self.store.reset_shard(shard)
        self.on_reset(shard)

    def _tear_journal_tail(self, shard: int) -> None:
        """Simulate an in-flight journal write torn by the crash:
        truncate the shard's journal mid-frame, producing exactly the
        recoverable torn-tail shape ``load_store`` knows how to cut."""
        shard_dir = self._shard_dir(shard)
        if shard_dir is None:
            return
        path = os.path.join(shard_dir, JOURNAL_NAME)
        if not os.path.exists(path):
            return
        size = os.path.getsize(path)
        if size > 17:
            with open(path, "ab") as handle:
                handle.truncate(size - 17)

    def _recover(self, fault: ShardFault, now: int) -> None:
        shard = fault.shard
        self.alive[shard] = True
        self.recoveries += 1
        self._recover_at.pop(shard, None)
        shard_dir = self._shard_dir(shard)
        if shard_dir is not None and os.path.isdir(shard_dir):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", JournalRecoveryWarning)
                load_store(self.store.shards[shard], shard_dir)
            self.journal_truncations += sum(
                1 for warning in caught
                if issubclass(warning.category, JournalRecoveryWarning)
            )
        # Hinted handoff first (targeted, cheap), then the recovery
        # scrub over every co-owned URL — the hint queue only covers
        # writes that happened while the shard was down, not state the
        # crash destroyed between disk syncs.
        for url in self.handoff.drain(shard):
            self._sync_to(shard, url)
        self._recovery_scrub(shard)
        self.on_reset(shard)

    def _recovery_scrub(self, shard: int) -> None:
        for key in self.known_urls():
            if shard in self.replica_set(key):
                self._sync_to(shard, key)

    def retry_after(self, url: str, now: int) -> int:
        """How long a request for a fully-dead replica set should wait:
        until the earliest scheduled recovery among its replicas."""
        waits = [
            self._recover_at[shard] - now
            for shard in self.replica_set(url)
            if shard in self._recover_at and self._recover_at[shard] > now
        ]
        return max(1, min(waits)) if waits else self.default_retry_after

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def replica_set(self, url: str) -> Tuple[int, ...]:
        key = canonical_url(url)
        cached = self._replica_sets.get(key)
        if cached is None:
            cached = tuple(self.store.router.replicas_for(
                key, self.replication))
            self._replica_sets[key] = cached
        return cached

    def serving_index(self, url: str) -> Optional[int]:
        """The freshest live replica for ``url`` (rendezvous order
        breaks ties), or None when the whole replica set is down."""
        key = canonical_url(url)
        replicas = self.replica_set(key)
        best: Optional[int] = None
        best_count = -1
        for shard in replicas:
            if not self.alive[shard]:
                continue
            archive = self.store.shards[shard].archives.get(key)
            count = archive.revision_count if archive is not None else 0
            if count > best_count:
                best, best_count = shard, count
        if best is not None and replicas and best != replicas[0]:
            # Served by a non-primary member: either the primary is
            # dead (failover) or it is still catching up (stale).
            self.failovers += 1
        return best

    def known_urls(self) -> List[str]:
        """The URL universe, discovered from the shards themselves:
        every archive key any replica holds, plus every URL a hint or a
        routing decision has mentioned.  Sorted for determinism."""
        keys = set(self._replica_sets)
        for shard in self.store.shards:
            keys.update(shard.archives.keys())
        for urls in self.handoff._pending.values():
            keys.update(urls)
        return sorted(keys)

    # ------------------------------------------------------------------
    # State transfer — the one repair primitive
    # ------------------------------------------------------------------
    def sync_url(self, source: int, target: int, url: str) -> int:
        """Converge ``target``'s state for ``url`` to ``source``'s;
        returns bytes transferred (0 when already identical).

        Fast path: the target's revision metadata is a prefix of the
        source's → append only the missing revisions, replaying
        ``checkin`` with the source's recorded dates/authors/logs so
        the copies end up identical.  Divergence (same numbers,
        different history) rebuilds the target's archive from the
        source outright.  Stamps and the cached live page are copied
        wholesale either way, and the target's derived caches for the
        URL are dropped.
        """
        src = self.store.shards[source]
        dst = self.store.shards[target]
        key = canonical_url(url)
        moved = 0
        src_archive = src.archives.get(key)
        dst_archive = dst.archives.get(key)
        if src_archive is not None:
            src_texts = list(src_archive.iter_texts())
            prefix_ok = dst_archive is not None and self._is_prefix(
                dst_archive, src_texts)
            if dst_archive is not None and not prefix_ok:
                # Divergent history: drop and rebuild.
                self.divergence_rebuilds += 1
                dst.drop_archive(key)
            dst_archive = dst.archive_for(key)
            start = dst_archive.revision_count
            for info, text in src_texts[start:]:
                dst_archive.checkin(text, info.date, author=info.author,
                                    log=info.log)
                moved += len(text)
            dst.diff_cache.invalidate(lambda cached: cached[0] == key)
        elif dst_archive is not None:
            # The source holds nothing for this URL; mirror that.
            self.divergence_rebuilds += 1
            dst.drop_archive(key)
        moved += self._sync_stamps(src, dst, key)
        page = src.page_cache.get(key)
        if page is None:
            dst.page_cache.pop(key, None)
        elif dst.page_cache.get(key) != page:
            dst.page_cache[key] = page
            moved += len(page)
        if moved:
            self.sync_bytes += moved
            self.on_repair(target, key)
        return moved

    @staticmethod
    def _is_prefix(dst_archive, src_texts: List[Tuple[object, str]]) -> bool:
        count = dst_archive.revision_count
        if count > len(src_texts):
            return False
        for (src_info, src_text), dst_info in zip(
                src_texts[:count], dst_archive.revisions()):
            if (src_info.number != dst_info.number
                    or src_info.date != dst_info.date
                    or src_info.author != dst_info.author
                    or src_info.log != dst_info.log):
                return False
        # Metadata matches; confirm the head text (interior texts are
        # pinned by the heads on both sides via the delta chains).
        if count:
            head = dst_archive.checkout(dst_archive.head_revision)
            if head != src_texts[count - 1][1]:
                return False
        return True

    def _sync_stamps(self, src: SnapshotStore, dst: SnapshotStore,
                     key: str) -> int:
        """Copy ``key``'s stamps.  Only the stamps that are missing or
        changed are recorded, and a <user, URL> history is forgotten
        only where it is not a prefix of the source's (a forget makes
        the target's next sync a compaction), so the fan-out of an
        ordinary write only adds stamps."""
        moved = 0
        src_users = src.users.users_tracking(key)
        for user in dst.users.users_tracking(key):
            if user not in src_users:
                dst.users.forget(user, key)
                moved += len(user)
        for user in src_users:
            src_seen = src.users.versions_seen(user, key)
            dst_seen = dst.users.versions_seen(user, key)
            if dst_seen == src_seen:
                continue
            if ([seen.revision for seen in dst_seen]
                    != [seen.revision for seen in src_seen[:len(dst_seen)]]):
                dst.users.forget(user, key)
                dst_seen = []
            for index, seen in enumerate(src_seen):
                if index < len(dst_seen) and dst_seen[index] == seen:
                    continue
                dst.users.record(user, key, seen.revision, seen.when)
                moved += len(seen.revision) + 8
        return moved

    def _freshest(self, key: str, members: Sequence[int]) -> Optional[int]:
        best: Optional[int] = None
        best_count = -1
        for shard in members:
            archive = self.store.shards[shard].archives.get(key)
            count = archive.revision_count if archive is not None else 0
            if count > best_count:
                best, best_count = shard, count
        return best

    def _sync_to(self, target: int, url: str) -> int:
        """Converge ``target`` from the freshest live peer.

        A recovering shard whose disk journal is *ahead* of its peers
        is never truncated down to a staler copy — when the target
        holds strictly more revisions than every live peer it has
        nothing to pull (the peers catch up through read repair and the
        scrub).  On a revision-count tie the peer still wins: a
        disk-restored shard can match its peer's archive while lagging
        on stamps or the cached live page, and ``sync_url`` copies
        exactly those differences (and nothing when the copies really
        are identical).
        """
        key = canonical_url(url)
        peers = [shard for shard in self.replica_set(key)
                 if self.alive[shard] and shard != target]
        source = self._freshest(key, peers)
        if source is None:
            return 0
        target_archive = self.store.shards[target].archives.get(key)
        target_count = (target_archive.revision_count
                        if target_archive is not None else 0)
        source_archive = self.store.shards[source].archives.get(key)
        source_count = (source_archive.revision_count
                        if source_archive is not None else 0)
        if target_count > source_count:
            return 0
        return self.sync_url(source, target, key)

    # ------------------------------------------------------------------
    # The four repair channels
    # ------------------------------------------------------------------
    def on_write(self, url: str, serving: int) -> None:
        """Fan a completed mutation out: live peers get an immediate
        state transfer, dead peers get a hint."""
        key = canonical_url(url)
        for shard in self.replica_set(key):
            if shard == serving:
                continue
            if self.alive[shard]:
                if self.sync_url(serving, shard, key):
                    self.write_syncs += 1
            else:
                self.handoff.queue(shard, key)

    def on_read(self, url: str, serving: int) -> None:
        """Read repair: when live replicas visibly disagree (revision
        counts differ), converge the laggards to the serving copy
        before the response leaves — the next read may be served by
        the replica that was behind."""
        key = canonical_url(url)
        serving_archive = self.store.shards[serving].archives.get(key)
        serving_count = (serving_archive.revision_count
                         if serving_archive is not None else 0)
        for shard in self.replica_set(key):
            if shard == serving or not self.alive[shard]:
                continue
            archive = self.store.shards[shard].archives.get(key)
            count = archive.revision_count if archive is not None else 0
            if count != serving_count:
                if self.sync_url(serving, shard, key):
                    self.read_repairs += 1

    def scrub(self, now: int) -> int:
        """One anti-entropy tick: walk the next ``scrub_batch`` URLs of
        the (sorted) URL universe, compare every live replica pair's
        bucketed fingerprints, and converge any URL whose fingerprints
        disagree to its freshest live copy.  Returns repairs made."""
        self.scrub_runs += 1
        urls = self.known_urls()
        if not urls:
            return 0
        if self._scrub_cursor >= len(urls):
            self._scrub_cursor = 0
        batch = urls[self._scrub_cursor:self._scrub_cursor + self.scrub_batch]
        self._scrub_cursor += len(batch)
        if self._scrub_cursor >= len(urls):
            self._scrub_cursor = 0
            self.scrub_cycles += 1
        # Group the batch by replica pair so each pair is compared via
        # its bucket digests (the Merkle rollup) before any per-URL
        # fingerprint walk.
        by_pair: Dict[Tuple[int, int], List[str]] = {}
        for key in batch:
            replicas = [shard for shard in self.replica_set(key)
                        if self.alive[shard]]
            for a_pos in range(len(replicas)):
                for b_pos in range(a_pos + 1, len(replicas)):
                    pair = (replicas[a_pos], replicas[b_pos])
                    by_pair.setdefault(pair, []).append(key)
        repairs = 0
        suspect: Dict[str, None] = {}
        for (a, b), pair_keys in sorted(by_pair.items()):
            digests_a = bucket_fingerprints(
                self.store.shards[a], pair_keys, self.scrub_buckets)
            digests_b = bucket_fingerprints(
                self.store.shards[b], pair_keys, self.scrub_buckets)
            if digests_a == digests_b:
                continue
            bad_buckets = {bucket for bucket in digests_a
                           if digests_a[bucket] != digests_b.get(bucket)}
            for key in pair_keys:
                bucket = int.from_bytes(
                    hashlib.sha256(key.encode("utf-8")).digest()[:4], "big"
                ) % self.scrub_buckets
                if bucket in bad_buckets:
                    suspect[key] = None
        for key in suspect:
            replicas = [shard for shard in self.replica_set(key)
                        if self.alive[shard]]
            source = self._freshest(key, replicas)
            if source is None:
                continue
            for shard in replicas:
                if shard == source:
                    continue
                if (url_fingerprint(self.store.shards[shard], key)
                        != url_fingerprint(self.store.shards[source], key)):
                    self.sync_url(source, shard, key)
                    repairs += 1
        self.scrub_repairs += repairs
        return repairs

    def converged(self, url: str) -> bool:
        """Do every URL's live replicas hold identical state?  (The
        test/benchmark witness, not a serving-path operation.)"""
        key = canonical_url(url)
        replicas = [shard for shard in self.replica_set(key)
                    if self.alive[shard]]
        if len(replicas) < 2:
            return True
        first = url_fingerprint(self.store.shards[replicas[0]], key)
        return all(
            url_fingerprint(self.store.shards[shard], key) == first
            for shard in replicas[1:]
        )

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        live = [index for index, up in enumerate(self.alive) if up]
        dead = [index for index, up in enumerate(self.alive) if not up]
        return {
            "factor": self.replication,
            "live_replicas": len(live),
            "dead_replicas": len(dead),
            "dead": dead,
            "slow": [index for index, factor
                     in enumerate(self.slow_factor) if factor > 1],
            "handoff": {
                "depth": self.handoff.total_depth,
                "by_target": self.handoff.depths(),
                "queued": self.handoff.queued,
                "replayed": self.handoff.replayed,
            },
            "failovers": self.failovers,
            "read_repairs": self.read_repairs,
            "write_syncs": self.write_syncs,
            "sync_bytes": self.sync_bytes,
            "divergence_rebuilds": self.divergence_rebuilds,
            "crashes": self.crashes,
            "recoveries": self.recoveries,
            "journal_truncations": self.journal_truncations,
            "unavailable": self.unavailable,
            "scrub": {
                "runs": self.scrub_runs,
                "cycles": self.scrub_cycles,
                "repairs": self.scrub_repairs,
                "cursor": self._scrub_cursor,
                "interval": self.scrub_interval,
            },
        }
