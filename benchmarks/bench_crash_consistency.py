"""Crash-consistency sweep: kill a snapshot operation at every declared
crash point and gate on recovery.

The robustness claim behind paper §4.2's consistency triangle (RCS
repository, cached copy, control files): no matter where a process
dies, recovery leaves zero cross-file invariant violations, and
re-running the interrupted operation converges to a repository
byte-identical to one that never crashed.

Method, per operation (remember, batch check-in, diff-view, remember
under the deterministic scheduler, and the two persistence writes: a
sync of a stamp made outside a transaction, and a compaction):

1. **Probe**: run the operation cleanly with ``Failpoints.recording``
   on; the recorded trace enumerates every (point, hit) the operation
   passes — the sweep space is measured, not guessed.
2. **Sweep**: for each (point, hit), rebuild the world from scratch,
   arm ``CrashPlan.at(point, hit)``, run until the simulated death,
   then: fsck the wreckage (no data-losing problems allowed), recover
   with ``load_store``, re-run the operation, sync, and compare the
   compacted archives + control file byte-for-byte against the
   never-crashed reference.  A final ``verify_store(repair=True)``
   must come back clean.

Writes benchmarks/results/BENCH_crash.json; the union of the probed
traces must cover the entire CRASH_POINTS registry, so a new crash
point cannot silently escape the sweep.
"""

import json
import os
import warnings
from collections import Counter

from repro.core.snapshot.journal import scan_journal
from repro.core.snapshot.persistence import (
    JournalRecoveryWarning,
    append_store,
    compact_store,
    load_store,
    verify_store,
)
from repro.core.snapshot.sched import (
    CRASH_POINTS,
    CrashPlan,
    Failpoints,
    SimScheduler,
    SimulatedCrash,
)
from repro.core.snapshot.store import SnapshotStore
from repro.core.snapshot.wal import WriteAheadLog
from repro.rcs.rcsfile import serialize_rcsfile
from repro.simclock import DAY, SimClock
from repro.web.client import UserAgent
from repro.web.network import Network

from conftest import RESULTS_DIR

URL = "http://site.com/page"
V1 = "<HTML><BODY><P>crash fodder, version one.</P>\n<P>More.</P></BODY></HTML>"
V2 = "<HTML><BODY><P>crash fodder, version two!</P>\n<P>More.</P></BODY></HTML>"
BATCH_USERS = ["a@x.com", "b@x.com", "c@x.com"]


class World:
    """One isolated simulated universe with an on-disk repository."""

    def __init__(self, repo, scheduled=False):
        self.repo = repo
        self.clock = SimClock()
        self.network = Network(self.clock)
        self.server = self.network.create_server("site.com")
        self.server.set_page("/page", V1)
        self.agent = UserAgent(self.network, self.clock)
        self.store = self._fresh_store()
        self.sched = None
        if scheduled:
            self.sched = SimScheduler()
            self.store.failpoints.attach(self.sched)
            self.store.locks.attach(self.sched)

    def _fresh_store(self):
        store = SnapshotStore(self.clock, self.agent)
        store.attach_failpoints(Failpoints())
        store.attach_wal(WriteAheadLog(store, self.repo))
        return store

    def recover(self):
        """What a restarted CGI process sees: disk is all that's left."""
        store = SnapshotStore(self.clock, self.agent)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", JournalRecoveryWarning)
            load_store(store, self.repo)
        store.attach_failpoints(Failpoints())
        store.attach_wal(WriteAheadLog(store, self.repo))
        if self.sched is not None:
            store.failpoints.attach(self.sched)
            store.locks.attach(self.sched)
        self.store = store
        return store


def normalize_result(result):
    """An operation result with the already-done-ness stripped: a
    re-run after a post-commit crash correctly reports ``changed=False``
    for work the first attempt made durable, so only the identifying
    outcome (which revision, for whom, when) must match."""
    if isinstance(result, list):
        return [normalize_result(item) for item in result]
    if hasattr(result, "revision"):
        return (result.url, result.revision, result.when)
    return result


def canonical(store):
    """The repository's logical content as bytes-comparable text."""
    return {
        "archives": {
            url: serialize_rcsfile(archive)
            for url, archive in sorted(store.archives.items())
        },
        "users": store.users.serialize(),
    }


# ----------------------------------------------------------------------
# The operations under test.  Each spec: (scheduled, prime, run).
# ----------------------------------------------------------------------

def _prime_nothing(world):
    pass


def _prime_first_snapshot(world):
    world.store.remember("fred@att.com", URL)
    world.clock.advance(DAY)
    world.server.set_page("/page", V2)


def _run_remember(world):
    return world.store.remember("fred@att.com", URL)


def _run_batch(world):
    return world.store.checkin_content_batch(BATCH_USERS, URL, V1)


def _run_diff_view(world):
    return world.store.diff("fred@att.com", URL).html


def _run_remember_scheduled(world):
    name = f"p{len(world.sched.processes) + 1}"
    proc = world.sched.spawn(
        name, lambda: world.store.remember("fred@att.com", URL)
    )
    world.sched.run()
    world.sched.join_threads()
    if proc.state in ("dead", "failed"):
        raise proc.error  # surface the simulated death to the sweep
    return proc.result


def _prime_two_snapshots(world):
    _prime_first_snapshot(world)
    world.store.remember("tom@att.com", URL)


def _stamp_outside_transaction(world):
    """A seen stamp no transaction journals (a tracker's mark-seen)."""
    world.store.users.record("ann@att.com", URL, "1.1", world.clock.now)


def _run_sync(world):
    _stamp_outside_transaction(world)
    return append_store(world.store, world.repo)


def _run_compact(world):
    _stamp_outside_transaction(world)
    return compact_store(world.store, world.repo)


OPS = {
    "remember": (False, _prime_nothing, _run_remember),
    "checkin-batch": (False, _prime_nothing, _run_batch),
    "diff-view": (False, _prime_first_snapshot, _run_diff_view),
    "remember-sched": (True, _prime_nothing, _run_remember_scheduled),
    "sync": (False, _prime_first_snapshot, _run_sync),
    "compact": (False, _prime_two_snapshots, _run_compact),
}


def probe(name, tmp_root):
    """Clean run with trace recording: the measured sweep space."""
    scheduled, prime, run = OPS[name]
    world = World(os.path.join(tmp_root, f"probe-{name}"), scheduled)
    prime(world)
    world.store.failpoints.reset()
    world.store.failpoints.recording = True
    result = run(world)
    trace = list(world.store.failpoints.trace)
    hits = []
    seen = Counter()
    for point in trace:
        seen[point] += 1
        hits.append((point, seen[point]))
    return hits, canonical(world.store), normalize_result(result)


def crash_trial(name, point, hit, reference, reference_result, tmp_root):
    """One sweep cell: die at (point, hit), recover, re-run, compare."""
    scheduled, prime, run = OPS[name]
    repo = os.path.join(tmp_root, f"{name}-{point.replace('.', '_')}-{hit}")
    world = World(repo, scheduled)
    prime(world)
    world.store.failpoints.arm(CrashPlan.at(point, hit))
    crashed = False
    try:
        run(world)
    except SimulatedCrash:
        crashed = True
    assert crashed, f"{name}: plan at {point}#{hit} never fired"

    # Gate 1: the wreckage has no data-losing problems — everything a
    # half-done transaction left behind is explainable and recoverable.
    wreck = verify_store(repo)
    fsck_ok = wreck.ok

    # Gate 2: recovery + re-run converges byte-identically.
    store = world.recover()
    world.store.failpoints.arm(None)
    result = run(world)
    append_store(store, repo)
    converged = canonical(store) == reference
    result_matches = normalize_result(result) == reference_result

    # Gate 3: a repair pass leaves a clean, note-free repository.
    final = verify_store(repo, repair=True)

    return {
        "point": point,
        "hit": hit,
        "fsck_ok_after_crash": fsck_ok,
        "fsck_problems": list(wreck.problems),
        "converged": converged,
        "result_matches": result_matches,
        "final_ok": final.ok,
        "final_notes": len(final.notes),
    }


# ----------------------------------------------------------------------
def test_crash_consistency(sink, tmp_path):
    tmp_root = str(tmp_path)
    report = {"ops": {}, "points_covered": []}
    covered = set()
    total = failures = 0

    sink.row("Crash-consistency sweep: die at every (point, hit), "
             "recover, re-run, compare")
    for name in OPS:
        hits, reference, reference_result = probe(name, tmp_root)
        trials = []
        for point, hit in hits:
            trial = crash_trial(
                name, point, hit, reference, reference_result, tmp_root
            )
            trials.append(trial)
            covered.add(point)
            total += 1
            ok = (trial["fsck_ok_after_crash"] and trial["converged"]
                  and trial["result_matches"] and trial["final_ok"])
            if not ok:
                failures += 1
            marker = "ok" if ok else "FAIL"
            sink.row(f"  {name:15s} {point:22s} hit {hit}: {marker}")
        report["ops"][name] = {
            "crash_sites": len(hits),
            "trials": trials,
        }

    report["points_covered"] = sorted(covered)
    report["registry"] = list(CRASH_POINTS)
    report["total_trials"] = total
    report["failures"] = failures
    uncovered = set(CRASH_POINTS) - covered
    sink.row()
    sink.row(f"  {total} crash trials across {len(OPS)} operations; "
             f"{len(covered)}/{len(CRASH_POINTS)} registry points "
             f"exercised; {failures} failure(s)")
    if uncovered:
        sink.row(f"  UNCOVERED points: {sorted(uncovered)}")

    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "BENCH_crash.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)

    # The headline gates.
    assert failures == 0
    assert not uncovered, f"registry points never exercised: {uncovered}"
    for name, data in report["ops"].items():
        for trial in data["trials"]:
            assert trial["fsck_ok_after_crash"], (name, trial)
            assert trial["converged"], (name, trial)
            assert trial["result_matches"], (name, trial)
            assert trial["final_ok"], (name, trial)


def test_zero_crash_overhead_is_invisible(sink, tmp_path):
    """With no plan armed, the transactional store's observable results
    equal the plain store's — the opt-in guarantee."""
    def drive(store, world):
        outputs = []
        outputs.append(store.remember("fred@att.com", URL))
        world.clock.advance(DAY)
        world.server.set_page("/page", V2)
        outputs.append(store.remember("tom@att.com", URL))
        outputs.append(store.diff("fred@att.com", URL).html)
        outputs.append(store.view(URL, "1.1"))
        return outputs, canonical(store)

    plain_world = World(str(tmp_path / "wal"))
    plain = SnapshotStore(plain_world.clock, plain_world.agent)
    plain_out, plain_state = drive(plain, plain_world)

    txn_world = World(str(tmp_path / "wal2"))
    txn_out, txn_state = drive(txn_world.store, txn_world)

    assert plain_out == txn_out
    assert plain_state == txn_state
    journaled = len(scan_journal(str(tmp_path / "wal2")).entries)
    sink.row(f"  zero-crash differential: plain vs transactional store "
             f"byte-identical across remember/diff/view "
             f"({journaled} journal entries written along the way)")
