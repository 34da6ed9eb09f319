"""Synchronization for the snapshot facility.

Paper Section 4.2: "The system must synchronize access to the RCS
repository, the locally cached copy of the HTML document, and the
control files that record the versions of each page a user has checked
in.  Currently this is done by using UNIX file locking on both a
per-URL lock file and the per-user control file.  Ideally the locks
could be queued such that if multiple users request the same page
simultaneously, the second snapshot process would just wait for the
page and then return, rather than repeating the work."

This module implements both halves of that paragraph:

* **Single-process bookkeeping** (the historical mode): with no
  scheduler attached, locks count acquisition order and contention —
  a re-entrant acquisition stands in for "a second simultaneous
  process would have blocked here" — exactly as before.
* **Real blocking and queueing** under a
  :class:`~repro.core.snapshot.sched.SimScheduler`: a contended
  acquisition parks the simulated process on a FIFO queue and the
  release hands the lock to the head waiter — the queued-lock
  behaviour the paper wishes for.

Because lock *files* outlive the process that created them, the
manager also models the failure half of the story:

* **Owner leases** — every grant records its owner and sim-clock
  acquisition time; a lease older than ``lease_seconds`` is breakable
  by the next acquirer (``lease_expiries`` counts the takeovers).
* **Stale-lock breaking** — when a simulated process is killed, the
  scheduler notifies the manager and every lock the corpse held is
  granted to its queue head (``stale_breaks``).
* **Wait-for-graph deadlock detection** — a blocking acquisition that
  would close a cycle raises :class:`~repro.core.snapshot.sched.DeadlockError`
  carrying the full cycle, enforcing the lock-ordering discipline
  (per-URL before per-user) dynamically.  ``strict_order=True`` also
  rejects the mis-ordering statically, before any cycle can form.

Leases are context managers and **must** be released exactly once:
double release raises :class:`LockError` instead of silently driving
the held-count negative (the corruption mode the old counter had).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ...obs import NOOP_HISTOGRAM
from ...simclock import SimClock
from .sched import DeadlockError, SimScheduler

__all__ = ["LockError", "LockManager", "RequestCoalescer"]

#: Owner name used for acquisitions made outside any simulated process
#: (the single-threaded historical mode).
_MAIN = "main"


class LockError(RuntimeError):
    """Lease misuse: double release, or releasing a broken lease."""


@dataclass
class _LockState:
    owner: str
    depth: int
    acquired_at: int
    #: FIFO of process names parked on this lock.
    queue: List[str] = field(default_factory=list)


class LockManager:
    """Advisory locks keyed by name (per-URL and per-user files)."""

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        lease_seconds: int = 0,
        strict_order: bool = False,
    ) -> None:
        self.clock = clock
        #: Leases older than this many sim-seconds are breakable; 0
        #: disables clock-based expiry (death-based breaking still
        #: works — a dead holder's locks are always breakable).
        self.lease_seconds = lease_seconds
        #: Raise :class:`LockError` on a per-URL acquisition made while
        #: holding a per-user lock (the discipline violation that can
        #: deadlock against the normal url-then-user order).
        self.strict_order = strict_order
        self.scheduler: Optional[SimScheduler] = None
        self._locks: Dict[str, _LockState] = {}
        self.acquisitions = 0
        self.contentions = 0
        self.stale_breaks = 0
        self.lease_expiries = 0
        self.order_violations = 0
        self.deadlocks = 0
        #: Sim-seconds spent parked on contended locks (histogram
        #: handle; a no-op until :meth:`attach_obs`).
        self._h_wait = NOOP_HISTOGRAM

    def attach_obs(self, obs) -> None:
        """Record blocking waits into ``obs``'s
        ``snapshot.locking.wait_seconds`` histogram."""
        self._h_wait = obs.histogram("snapshot.locking.wait_seconds")

    # ------------------------------------------------------------------
    def attach(self, scheduler: SimScheduler) -> None:
        """Wire blocking/queueing to a scheduler; dead processes'
        locks are broken the moment the scheduler reports the death."""
        self.scheduler = scheduler
        scheduler.on_death(self._owner_died)

    def _current_owner(self) -> str:
        if self.scheduler is not None:
            name = self.scheduler.current_name()
            if name is not None:
                return name
        return _MAIN

    def _now(self) -> int:
        return self.clock.now if self.clock is not None else 0

    # ------------------------------------------------------------------
    def acquire(self, key: str) -> "_Lease":
        """Take the lock, blocking (under a scheduler) if contended.

        Re-entrant acquisition by the same owner deepens the hold and
        counts as contention — in the single-threaded mode that is the
        signal "a second simultaneous process would have blocked here",
        preserved for the paper's §4.2 accounting.
        """
        owner = self._current_owner()
        self.acquisitions += 1
        self._check_order(owner, key)
        state = self._locks.get(key)
        if state is None:
            self._locks[key] = _LockState(
                owner=owner, depth=1, acquired_at=self._now()
            )
            return _Lease(self, key, owner)
        if state.owner == owner:
            state.depth += 1
            self.contentions += 1
            return _Lease(self, key, owner)
        # Held by someone else.
        self.contentions += 1
        if self._breakable(state):
            self._break_lock(key, state, owner)
            return _Lease(self, key, owner)
        if self.scheduler is None or not self.scheduler.in_process():
            # No way to block without a scheduler: treat like the
            # breakable case once the lease expires, else refuse —
            # a single-threaded driver holding foreign locks is a
            # harness bug, not a simulation outcome.
            raise LockError(
                f"{owner} cannot wait for lock {key!r} held by "
                f"{state.owner} outside a simulated process"
            )
        self._detect_deadlock(owner, key, state)
        state.queue.append(owner)
        waited_from = self._now()
        self.scheduler.block_on(key)
        self._h_wait.observe(self._now() - waited_from)
        # Woken: the releaser (or a death) granted us the lock.
        state = self._locks[key]
        if state.owner != owner:
            raise LockError(
                f"woken for lock {key!r} but it is owned by {state.owner}"
            )
        return _Lease(self, key, owner)

    # ------------------------------------------------------------------
    def _check_order(self, owner: str, key: str) -> None:
        """Lock-ordering discipline: per-URL locks are acquired before
        per-user locks, never while holding one."""
        if not key.startswith("url:"):
            return
        holds_user = any(
            state.owner == owner and name.startswith("user:")
            for name, state in self._locks.items()
        )
        if holds_user:
            self.order_violations += 1
            if self.strict_order:
                raise LockError(
                    f"{owner} acquiring {key!r} while holding a per-user "
                    f"lock violates the url-before-user lock order"
                )

    def _breakable(self, state: _LockState) -> bool:
        if self.scheduler is not None and self.scheduler.is_dead(state.owner):
            return True
        if (
            self.lease_seconds > 0
            and self.clock is not None
            and self._now() - state.acquired_at >= self.lease_seconds
        ):
            return True
        return False

    def _break_lock(self, key: str, state: _LockState, new_owner: str) -> None:
        if self.scheduler is not None and self.scheduler.is_dead(state.owner):
            self.stale_breaks += 1
        else:
            self.lease_expiries += 1
        state.owner = new_owner
        state.depth = 1
        state.acquired_at = self._now()

    def _detect_deadlock(self, owner: str, key: str, state: _LockState) -> None:
        """Would parking ``owner`` on ``key`` close a wait-for cycle?

        Follows holder → (lock that holder waits for) → its holder …;
        reaching ``owner`` again is a deadlock, reported with the full
        cycle so the mis-ordered acquisition is evident.
        """
        cycle = [owner, f"{key} (held by {state.owner})"]
        seen = {owner}
        holder = state.owner
        while True:
            if holder == owner:
                self.deadlocks += 1
                raise DeadlockError(cycle)
            if holder in seen or self.scheduler is None:
                return
            seen.add(holder)
            waiting_key = self.scheduler.waiting_for(holder)
            if waiting_key is None:
                return
            waited = self._locks.get(waiting_key)
            if waited is None:
                return
            cycle.append(f"{waiting_key} (held by {waited.owner})")
            holder = waited.owner

    # ------------------------------------------------------------------
    def _release(self, key: str, owner: str) -> None:
        state = self._locks.get(key)
        if state is None or state.owner != owner:
            raise LockError(
                f"{owner} releasing lock {key!r} it does not hold"
            )
        state.depth -= 1
        if state.depth > 0:
            return
        self._grant_next(key, state)

    def _grant_next(self, key: str, state: _LockState) -> None:
        while state.queue:
            waiter = state.queue.pop(0)
            if self.scheduler is not None and self.scheduler.is_dead(waiter):
                continue
            state.owner = waiter
            state.depth = 1
            state.acquired_at = self._now()
            if self.scheduler is not None:
                self.scheduler.wake(waiter)
            return
        del self._locks[key]

    def _owner_died(self, owner: str) -> None:
        """Death watcher: hand the corpse's locks to their queued
        waiters (who would otherwise park forever).  A corpse-held lock
        with no waiters is left in place — the stale lock *file* the
        paper's operators knew — and the next acquirer breaks it."""
        for key in list(self._locks):
            state = self._locks.get(key)
            if state is None or state.owner != owner:
                continue
            if not state.queue:
                continue
            self.stale_breaks += 1
            state.depth = 0
            self._grant_next(key, state)

    # ------------------------------------------------------------------
    def held(self, key: str) -> bool:
        return key in self._locks

    def holder(self, key: str) -> Optional[str]:
        state = self._locks.get(key)
        return state.owner if state else None

    def stats(self) -> Dict[str, int]:
        return {
            "acquisitions": self.acquisitions,
            "contentions": self.contentions,
            "stale_breaks": self.stale_breaks,
            "lease_expiries": self.lease_expiries,
            "order_violations": self.order_violations,
            "deadlocks": self.deadlocks,
        }


@dataclass
class _Lease:
    """One grant of one lock, released exactly once.

    ``with``-friendly: the context manager releases on every normal
    exception path — including ``CgiTimeout`` aborts and standalone
    injected crashes that unwind.  (A process *killed* by the scheduler
    never unwinds at all: its leases go stale and are broken, which is
    the point.)  Calling :meth:`release` twice raises
    :class:`LockError` instead of silently corrupting the held-count.
    """

    manager: LockManager
    key: str
    owner: str
    _released: bool = False

    def __enter__(self) -> "_Lease":
        return self

    def __exit__(self, *exc_info) -> None:
        if not self._released:
            self.release()

    def release(self) -> None:
        if self._released:
            raise LockError(
                f"double release of lock {self.key!r} by {self.owner}"
            )
        self._released = True
        self.manager._release(self.key, self.owner)


class RequestCoalescer:
    """Run identical expensive work once per simulated instant.

    Two users clicking Diff on the same page "simultaneously" (the same
    simulation timestamp) share one execution: "there is no reason to
    run HtmlDiff twice on the same data."  Results are also kept for a
    TTL, implementing the paper's "caching the output of HtmlDiff for a
    while".

    Only fresh results stay resident: entries are kept in the order
    they were produced and each store drops the stale prefix (the clock
    never runs backwards, so a stale entry never becomes fresh again).
    """

    def __init__(self, clock: SimClock, ttl: int = 0) -> None:
        self.clock = clock
        self.ttl = ttl
        self._results: "OrderedDict[str, Tuple[int, Any]]" = OrderedDict()
        self.executions = 0
        self.coalesced = 0

    def _fresh(self, produced_at: int) -> bool:
        age = self.clock.now - produced_at
        return age == 0 or (self.ttl > 0 and age < self.ttl)

    def peek(self, key: str) -> bool:
        """Is a fresh result for ``key`` already available?"""
        entry = self._results.get(key)
        return entry is not None and self._fresh(entry[0])

    def do(self, key: str, work: Callable[[], Any]) -> Any:
        """Return a cached result when fresh, else run ``work``."""
        entry = self._results.get(key)
        if entry is not None and self._fresh(entry[0]):
            self.coalesced += 1
            return entry[1]
        self.executions += 1
        value = work()
        self._results.pop(key, None)
        self._results[key] = (self.clock.now, value)
        while not self._fresh(next(iter(self._results.values()))[0]):
            self._results.popitem(last=False)
        return value

    def invalidate(self, prefix: str = "") -> None:
        """Drop cached results (all, or those whose key starts with
        ``prefix`` — e.g. every diff of one URL after a new check-in)."""
        for key in [k for k in self._results if k.startswith(prefix)]:
            del self._results[key]
