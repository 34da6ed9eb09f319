"""Deterministic concurrent-process simulation for the snapshot service.

Paper Section 4.2 describes snapshot's hard operational problems — lock
queueing, CGI timeouts, crashed processes leaving stale locks — but the
paper's system only ever met them in production.  This module builds the
lab bench: a **deterministic scheduler** that interleaves several
simulated snapshot processes at *declared yield points*, plus a
**crash-injection plan** that kills a simulated process at any named
point, so every "what if the process died right here?" question becomes
a reproducible test.

Three cooperating pieces:

* :class:`SimScheduler` — runs each :class:`SimProcess` on its own
  (cooperatively parked) thread, but only ever lets **one** run at a
  time.  Control moves at yield points; the next runnable process is
  chosen by a seeded hash, so a given seed always produces the same
  interleaving.  A killed process is *abandoned*: its thread never
  resumes, its Python ``finally`` blocks never run — exactly like a
  ``kill -9`` — so locks it held go stale and half-written journal
  state stays on disk for recovery to deal with.
* :class:`CrashPlan` — decides *where* to die: at the N-th hit of a
  named crash point, chosen explicitly or derived from a seed.  Plans
  work both under the scheduler (process abandonment) and standalone
  (a :class:`SimulatedCrash` unwinds into the test harness, which then
  discards the in-memory store and exercises recovery from disk).
* :class:`Failpoints` — the hub threaded through the store: every
  ``step(name)`` call is simultaneously a yield point (scheduler), a
  potential crash site (plan), and the place a CGI-timeout abort is
  delivered (:meth:`Failpoints.arm_timeout`).  With nothing attached,
  ``step`` is a counter increment — the zero-overhead guarantee the
  differential tests pin down.

Every legal point name is declared in :data:`CRASH_POINTS`; ``step``
rejects undeclared names so the exhaustive crash sweep in
``benchmarks/bench_crash_consistency.py`` can enumerate the registry
and know it covered everything.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .keepalive import CgiTimeout

__all__ = [
    "CRASH_POINTS",
    "CrashPlan",
    "DeadlockError",
    "Failpoints",
    "SimProcess",
    "SimScheduler",
    "SimulatedCrash",
    "pick",
]


#: Every declared yield/crash point: the ones an unimpeded ``remember``
#: passes, in order, then the persistence layer's.  ``Failpoints.step``
#: rejects names not listed here — the registry IS the sweep space of
#: the crash bench.
CRASH_POINTS: Tuple[str, ...] = (
    "remember.url-locked",     # per-URL lock taken, nothing fetched yet
    "remember.fetched",        # page retrieved, nothing durable yet
    "txn.intent-appended",     # WAL intent on disk, no effects yet
    "txn.rev-appended",        # archive revision journaled
    "txn.cache-written",       # cached-copy file rewritten
    "txn.seen-appended",       # one control-file stamp journaled
    "txn.commit",              # commit barrier: everything but the marker
    "txn.committed",           # commit marker durable
    "batch.user-stamped",      # between users of a batched check-in
    "diff.checked-in",         # diff's embedded live check-in finished
    "sync.journal-appended",   # a sync's revisions and stamps journaled
    "compact.archives-written",  # every ,v file replaced
    "compact.control-written",   # users.ctl replaced
    "compact.journal-clearing",  # MANIFEST replaced, journal not yet gone
)


class SimulatedCrash(BaseException):
    """The simulated process died at a crash point.

    Inherits ``BaseException`` (like ``KeyboardInterrupt``) so stray
    ``except Exception`` handlers cannot swallow a death.  Under the
    scheduler a killed process never even raises — its thread is
    abandoned mid-``step`` — so this exception is the *standalone*
    spelling, used by crash sweeps that then discard the in-memory
    store and recover from disk.
    """

    def __init__(self, point: str, hit: int = 1) -> None:
        super().__init__(f"simulated crash at {point} (hit {hit})")
        self.point = point
        self.hit = hit


class DeadlockError(RuntimeError):
    """A lock acquisition closed a cycle in the wait-for graph.

    The message carries the full cycle (process → lock → holder → ...)
    so a mis-ordered acquisition is diagnosable from the report alone.
    """

    def __init__(self, cycle: List[str]) -> None:
        super().__init__("deadlock: " + " -> ".join(cycle))
        self.cycle = cycle


def _draw(seed: int, salt: str, bound: int) -> int:
    """Deterministic pseudo-random draw in ``[0, bound)``."""
    digest = hashlib.sha256(f"{seed}:{salt}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % bound


def pick(seed: int, step: int, ready: Sequence):
    """The seeded choice among ``ready`` at ``step``: the one rule of
    :class:`SimScheduler` and of the crawl executor's workers."""
    return ready[_draw(seed, str(step), len(ready))]


@dataclass(frozen=True)
class CrashPlan:
    """Where a simulated process dies: the ``hit``-th arrival at
    ``point``.  ``hit`` counts per-point from the plan's arming (the
    hub's counters reset with :meth:`Failpoints.reset`), so a sweep can
    target "the second control-file stamp of this batch" precisely."""

    point: str
    hit: int = 1

    def __post_init__(self) -> None:
        if self.point not in CRASH_POINTS:
            raise ValueError(f"unknown crash point {self.point!r}")
        if self.hit < 1:
            raise ValueError(f"hit must be >= 1, got {self.hit}")

    @classmethod
    def at(cls, point: str, hit: int = 1) -> "CrashPlan":
        return cls(point=point, hit=hit)

    @classmethod
    def seeded(cls, seed: int) -> "CrashPlan":
        """A deterministic plan drawn from the registry: same seed,
        same death, forever — the property the resumable crash sweep
        and any bug report both rely on."""
        point = CRASH_POINTS[_draw(seed, "point", len(CRASH_POINTS))]
        hit = 1 + _draw(seed, "hit", 3)
        return cls(point=point, hit=hit)

    def should_crash(self, point: str, hit: int) -> bool:
        return point == self.point and hit == self.hit


class Failpoints:
    """The store's yield/crash/timeout hub.

    One instance per :class:`~repro.core.snapshot.store.SnapshotStore`.
    Inactive (no plan, no scheduler, no armed timeout) it only counts —
    the overhead-only mode the byte-identity tests assert.
    """

    def __init__(self) -> None:
        self.plan: Optional[CrashPlan] = None
        self.scheduler: Optional["SimScheduler"] = None
        self.hits: Dict[str, int] = {}
        self.crashes = 0
        #: When True, the next arrival at ``txn.commit`` raises
        #: :class:`~repro.core.snapshot.keepalive.CgiTimeout`: the
        #: operation outlived httpd, so it must never become durable
        #: (see ``KeepAlive.guard`` for the model).
        self._timeout_armed = False
        self.timeout_aborts = 0
        self.recording = False
        self.trace: List[str] = []

    # ------------------------------------------------------------------
    def arm(self, plan: Optional[CrashPlan]) -> None:
        """Install (or clear, with None) a crash plan; counters reset
        so the plan's ``hit`` indexes count from here."""
        self.plan = plan
        self.reset()

    def arm_timeout(self) -> None:
        self._timeout_armed = True

    def disarm_timeout(self) -> bool:
        """Clear the armed timeout; True if it never fired."""
        was_armed = self._timeout_armed
        self._timeout_armed = False
        return was_armed

    def attach(self, scheduler: "SimScheduler") -> None:
        self.scheduler = scheduler

    def reset(self) -> None:
        self.hits.clear()
        self.trace = []

    @property
    def active(self) -> bool:
        return (
            self.plan is not None
            or self.scheduler is not None
            or self._timeout_armed
        )

    # ------------------------------------------------------------------
    def step(self, point: str) -> None:
        """One declared yield point.  In order: deliver an armed CGI
        timeout (at the commit barrier only), consult the crash plan,
        then hand control to the scheduler for interleaving."""
        if point not in CRASH_POINTS:
            raise ValueError(f"undeclared crash point {point!r}")
        hit = self.hits.get(point, 0) + 1
        self.hits[point] = hit
        if self.recording:
            self.trace.append(point)
        if self._timeout_armed and point == "txn.commit":
            self._timeout_armed = False
            self.timeout_aborts += 1
            raise CgiTimeout(
                "httpd timed out mid-operation; aborting before commit"
            )
        if self.plan is not None and self.plan.should_crash(point, hit):
            self.crashes += 1
            if self.scheduler is not None and self.scheduler.in_process():
                self.scheduler.kill_current(point, hit)  # never returns
            raise SimulatedCrash(point, hit)
        if self.scheduler is not None and self.scheduler.in_process():
            self.scheduler.checkpoint(point)

    def stats(self) -> Dict[str, object]:
        return {
            "steps": sum(self.hits.values()),
            "crashes": self.crashes,
            "timeout_aborts": self.timeout_aborts,
        }


# ----------------------------------------------------------------------
# The scheduler
# ----------------------------------------------------------------------

_READY = "ready"
_RUNNING = "running"
_BLOCKED = "blocked"
_DONE = "done"
_FAILED = "failed"
_DEAD = "dead"

#: Hard cap on one control handoff; a healthy handoff is microseconds,
#: so hitting this means the simulation itself is wedged.
_HANDOFF_TIMEOUT = 30.0


@dataclass
class SimProcess:
    """One simulated snapshot process (CGI invocation)."""

    name: str
    target: Callable[[], object]
    state: str = _READY
    result: object = None
    error: Optional[BaseException] = None
    #: Lock key this process is parked on (None unless ``_BLOCKED``).
    waiting_on: Optional[str] = None
    #: Why the process died, when it died at a crash point.
    crashed_at: Optional[str] = None
    _go: threading.Event = field(default_factory=threading.Event, repr=False)
    _thread: Optional[threading.Thread] = field(default=None, repr=False)

    @property
    def finished(self) -> bool:
        return self.state in (_DONE, _FAILED, _DEAD)


class SimScheduler:
    """Cooperative deterministic interleaving of simulated processes.

    Exactly one thread — a process's or the driver's — runs at any
    moment; control changes hands only at declared yield points, lock
    waits, and process boundaries.  With ``seed=None`` scheduling is
    strict FIFO round-robin; an integer seed draws the next runnable
    process from a hash chain, giving seeded-random but perfectly
    reproducible interleavings.
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        self.seed = seed
        self.processes: Dict[str, SimProcess] = {}
        self._spawn_order: List[str] = []
        self._last_run: Optional[str] = None
        self._control = threading.Event()
        self._tls = threading.local()
        self._steps = 0
        #: (process, event) pairs, e.g. ("p1", "remember.fetched") or
        #: ("p2", "blocked:url:http://x/") — the determinism witness.
        self.trace: List[Tuple[str, str]] = []
        #: Observers told when a process dies (the lock manager breaks
        #: the dead holder's locks here).
        self._death_watchers: List[Callable[[str], None]] = []
        self._live_threads: List[threading.Thread] = []

    # ------------------------------------------------------------------
    # Driver-side API
    # ------------------------------------------------------------------
    def spawn(self, name: str, target: Callable[[], object]) -> SimProcess:
        if name in self.processes:
            raise ValueError(f"duplicate process name {name!r}")
        process = SimProcess(name=name, target=target)
        thread = threading.Thread(
            target=self._bootstrap, args=(process,),
            name=f"sim:{name}", daemon=True,
        )
        process._thread = thread
        self.processes[name] = process
        self._spawn_order.append(name)
        self._live_threads.append(thread)
        thread.start()
        return process

    def run(self) -> Dict[str, SimProcess]:
        """Drive until every process is done, failed, dead, or parked
        on a lock nobody will ever release (reported as failed with a
        :class:`DeadlockError` — the detector normally fires earlier)."""
        while True:
            ready = [
                name for name in self._spawn_order
                if self.processes[name].state == _READY
            ]
            if not ready:
                stuck = [
                    name for name in self._spawn_order
                    if self.processes[name].state == _BLOCKED
                ]
                for name in stuck:
                    process = self.processes[name]
                    process.state = _FAILED
                    process.error = DeadlockError(
                        [name, f"{process.waiting_on} (never released)"]
                    )
                return self.processes
            self._steps += 1
            if self.seed is None:
                # Round-robin: the first ready process strictly after
                # the last one that ran (cyclic in spawn order).
                if self._last_run in self._spawn_order:
                    pivot = self._spawn_order.index(self._last_run)
                    rotated = (
                        self._spawn_order[pivot + 1:]
                        + self._spawn_order[:pivot + 1]
                    )
                    chosen = next(n for n in rotated if n in ready)
                else:
                    chosen = ready[0]
            else:
                chosen = pick(self.seed, self._steps, ready)
            self._last_run = chosen
            self._resume(self.processes[chosen])

    def stats(self) -> Dict[str, object]:
        """Scheduling counters for the observability surface."""
        by_state: Dict[str, int] = {}
        for process in self.processes.values():
            by_state[process.state] = by_state.get(process.state, 0) + 1
        return {
            "steps": self._steps,
            "processes": len(self.processes),
            "by_state": dict(sorted(by_state.items())),
            "trace_events": len(self.trace),
        }

    def join_threads(self, timeout: float = 1.0) -> None:
        """Best-effort join of finished process threads (abandoned dead
        threads are daemons and are left parked)."""
        for thread in self._live_threads:
            if thread.is_alive() and not self._thread_abandoned(thread):
                thread.join(timeout=timeout)

    def _thread_abandoned(self, thread: threading.Thread) -> bool:
        for process in self.processes.values():
            if process._thread is thread and process.state == _DEAD:
                return True
        return False

    # ------------------------------------------------------------------
    # Process-side API (called from inside process threads)
    # ------------------------------------------------------------------
    def current_name(self) -> Optional[str]:
        return getattr(self._tls, "name", None)

    def in_process(self) -> bool:
        return self.current_name() is not None

    def checkpoint(self, label: str) -> None:
        """Yield control; the scheduler may run others before resuming."""
        process = self._current_process()
        if process is None:
            return
        self.trace.append((process.name, label))
        process.state = _READY
        self._hand_back(process)

    def block_on(self, key: str) -> None:
        """Park the current process until :meth:`wake` grants it."""
        process = self._current_process()
        if process is None:
            raise RuntimeError("block_on called outside a SimProcess")
        self.trace.append((process.name, f"blocked:{key}"))
        process.state = _BLOCKED
        process.waiting_on = key
        self._hand_back(process)
        process.waiting_on = None
        self.trace.append((process.name, f"granted:{key}"))

    def wake(self, name: str) -> None:
        """Mark a blocked process runnable (its lock was granted)."""
        process = self.processes[name]
        if process.state == _BLOCKED:
            process.state = _READY

    def kill_current(self, point: str, hit: int) -> None:
        """Abandon the current process mid-step: no unwinding, no
        ``finally`` blocks, locks left held.  Never returns."""
        process = self._current_process()
        if process is None:
            raise RuntimeError("kill_current called outside a SimProcess")
        self.trace.append((process.name, f"killed:{point}"))
        process.state = _DEAD
        process.crashed_at = point
        process.error = SimulatedCrash(point, hit)
        for watcher in self._death_watchers:
            watcher(process.name)
        self._control.set()
        # Park forever; the daemon thread dies with the interpreter.
        threading.Event().wait()

    def waiting_for(self, name: str) -> Optional[str]:
        process = self.processes.get(name)
        return process.waiting_on if process else None

    def is_dead(self, name: str) -> bool:
        process = self.processes.get(name)
        return process is not None and process.state == _DEAD

    def on_death(self, watcher: Callable[[str], None]) -> None:
        self._death_watchers.append(watcher)

    # ------------------------------------------------------------------
    def _current_process(self) -> Optional[SimProcess]:
        name = self.current_name()
        if name is None:
            return None
        return self.processes[name]

    def _bootstrap(self, process: SimProcess) -> None:
        process._go.wait()
        process._go.clear()
        self._tls.name = process.name
        process.state = _RUNNING
        try:
            process.result = process.target()
        except SimulatedCrash as crash:
            # Standalone-style crash raised inside a scheduled process
            # (no abandonment requested): record the death and tell the
            # death watchers so held locks go stale correctly.
            process.state = _DEAD
            process.crashed_at = crash.point
            process.error = crash
            for watcher in self._death_watchers:
                watcher(process.name)
        except BaseException as exc:  # noqa: BLE001 - report, don't die
            process.state = _FAILED
            process.error = exc
        else:
            process.state = _DONE
        self._control.set()

    def _resume(self, process: SimProcess) -> None:
        process.state = _RUNNING
        self._control.clear()
        process._go.set()
        if not self._control.wait(timeout=_HANDOFF_TIMEOUT):
            raise RuntimeError(
                f"scheduler handoff to {process.name} timed out — "
                f"a process blocked outside a declared yield point"
            )

    def _hand_back(self, process: SimProcess) -> None:
        self._control.set()
        process._go.wait(timeout=_HANDOFF_TIMEOUT * 10)
        process._go.clear()
        process.state = _RUNNING
