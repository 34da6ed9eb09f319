"""Tests for write-ahead transactions: commit, abort, crash, recovery.

Paper §4.2's consistency triangle — "the RCS repository, the locally
cached copy of the HTML document, and the control files" — must move
atomically.  These tests drive a transactional store through every
outcome: clean commits, rolled-back aborts, simulated crashes at each
declared point, and the recovery that follows.
"""

import os
import warnings

import pytest

from repro.core.snapshot.journal import (
    JournalRecord,
    SeenRecord,
    TxnCommit,
    TxnIntent,
    resolve_entries,
    scan_journal,
)
from repro.core.snapshot.keepalive import CgiTimeout, KeepAlive
from repro.core.snapshot.persistence import (
    JournalRecoveryWarning,
    load_store,
    verify_store,
)
from repro.core.snapshot.sched import CrashPlan, Failpoints, SimulatedCrash
from repro.core.snapshot.service import OperationCosts, SnapshotService
from repro.core.snapshot.store import SnapshotStore
from repro.core.snapshot.wal import WalError, WriteAheadLog
from repro.simclock import DAY, SimClock
from repro.web.client import UserAgent
from repro.web.network import Network

URL = "http://site.com/page"
V1 = "<HTML><BODY><P>version one.</P></BODY></HTML>"
V2 = "<HTML><BODY><P>version two, rewritten.</P></BODY></HTML>"


def make_world(tmp_path, transactional=True):
    clock = SimClock()
    network = Network(clock)
    server = network.create_server("site.com")
    server.set_page("/page", V1)
    agent = UserAgent(network, clock)
    store = SnapshotStore(clock, agent)
    repo = str(tmp_path)
    if transactional:
        store.attach_wal(WriteAheadLog(store, repo))
        store.attach_failpoints(Failpoints())
    return clock, network, server, store, repo


@pytest.fixture
def world(tmp_path):
    return make_world(tmp_path)


def recover(world):
    """What a restarted CGI process does: rebuild from disk alone."""
    clock, network, _server, store, repo = world
    fresh = SnapshotStore(clock, store.agent)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", JournalRecoveryWarning)
        load_store(fresh, repo)
    fresh.attach_wal(WriteAheadLog(fresh, repo))
    fresh.attach_failpoints(Failpoints())
    return fresh


class TestCommit:
    def test_remember_journals_intent_effects_marker(self, world):
        clock, network, server, store, repo = world
        store.remember("fred@att.com", URL)
        entries = scan_journal(repo).entries
        kinds = [type(e).__name__ for e in entries]
        assert kinds == ["TxnIntent", "JournalRecord", "SeenRecord",
                        "TxnCommit"]
        intent = entries[0]
        assert isinstance(intent, TxnIntent)
        assert intent.op == "remember"
        assert intent.url == URL
        assert intent.users == ("fred@att.com",)
        assert entries[1].txn == intent.txn
        assert entries[3].txn == intent.txn

    def test_commit_writes_cache_file(self, world):
        clock, network, server, store, repo = world
        store.remember("fred@att.com", URL)
        assert store.wal.read_cache(URL) == V1

    def test_resolution_sees_committed_effects(self, world):
        clock, network, server, store, repo = world
        store.remember("fred@att.com", URL)
        resolved = resolve_entries(scan_journal(repo).entries)
        assert len(resolved.committed) == 1
        assert len(resolved.revisions) == 1
        assert len(resolved.seens) == 1
        assert not resolved.rolled_back

    def test_unchanged_remember_journals_no_revision(self, world):
        clock, network, server, store, repo = world
        store.remember("fred@att.com", URL)
        clock.advance(DAY)
        store.remember("tom@att.com", URL)
        resolved = resolve_entries(scan_journal(repo).entries)
        assert len(resolved.revisions) == 1  # still just the first
        assert len(resolved.seens) == 2

    def test_commit_advances_persisted_revisions(self, world):
        # append_store must not double-journal what the txn already wrote.
        clock, network, server, store, repo = world
        store.remember("fred@att.com", URL)
        assert store.persisted_revisions[URL] == 1

    def test_batch_checkin_is_one_transaction(self, world):
        clock, network, server, store, repo = world
        users = ["a@x.com", "b@x.com", "c@x.com"]
        results = store.checkin_content_batch(users, URL, V1)
        assert [r.changed for r in results] == [True, False, False]
        resolved = resolve_entries(scan_journal(repo).entries)
        assert len(resolved.committed) == 1
        assert len(resolved.seens) == 3

    def test_transaction_misuse_raises(self, world):
        clock, network, server, store, repo = world
        txn = store.wal.begin("checkin", URL, "fred@att.com")
        txn.commit()
        with pytest.raises(WalError):
            txn.commit()
        with pytest.raises(WalError):
            txn.log_rev(URL, "1.1", "late")
        with pytest.raises(WalError):
            txn.abort()


class TestAbort:
    def test_timeout_abort_rolls_back_everything(self, world):
        clock, network, server, store, repo = world
        store.failpoints.arm_timeout()
        with pytest.raises(CgiTimeout):
            store.remember("fred@att.com", URL)
        # In memory: no archive head, no stamp, no cached page.
        assert store.archive_for(URL).revision_count == 0
        assert store.users.last_seen_version("fred@att.com", URL) is None
        assert URL not in store.page_cache
        # On disk: the abort marker voids the journaled effects.
        resolved = resolve_entries(scan_journal(repo).entries)
        assert len(resolved.aborted) == 1
        assert not resolved.revisions and not resolved.seens
        assert store.wal.stats()["aborted"] == 1

    def test_abort_restores_prior_revision_and_stamp(self, world):
        clock, network, server, store, repo = world
        store.remember("fred@att.com", URL)
        clock.advance(DAY)
        server.set_page("/page", V2)
        store.failpoints.arm_timeout()
        with pytest.raises(CgiTimeout):
            store.remember("fred@att.com", URL)
        archive = store.archive_for(URL)
        assert archive.revision_count == 1
        assert archive.checkout("1.1") == V1
        seen = store.users.last_seen_version("fred@att.com", URL)
        assert seen.revision == "1.1"
        assert seen.when == 0  # the day-old stamp, not the aborted one
        assert store.wal.read_cache(URL) == V1

    def test_aborted_store_is_fsck_clean(self, world):
        clock, network, server, store, repo = world
        store.remember("fred@att.com", URL)
        clock.advance(DAY)
        server.set_page("/page", V2)
        store.failpoints.arm_timeout()
        with pytest.raises(CgiTimeout):
            store.remember("fred@att.com", URL)
        report = verify_store(repo)
        assert report.ok, report.problems

    def test_retry_after_abort_succeeds_identically(self, world):
        clock, network, server, store, repo = world
        store.failpoints.arm_timeout()
        with pytest.raises(CgiTimeout):
            store.remember("fred@att.com", URL)
        result = store.remember("fred@att.com", URL)
        assert result.revision == "1.1"
        assert result.changed
        assert store.archive_for(URL).checkout("1.1") == V1


# Crash points a plain (coalesced, schedulerless) remember passes.
REMEMBER_POINTS = [
    "remember.fetched",
    "txn.intent-appended",
    "txn.rev-appended",
    "txn.cache-written",
    "txn.seen-appended",
    "txn.commit",
    "txn.committed",
]


class TestCrashRecovery:
    @pytest.mark.parametrize("point", REMEMBER_POINTS)
    def test_recovery_is_consistent_after_crash_anywhere(
        self, tmp_path, point
    ):
        world = make_world(tmp_path)
        clock, network, server, store, repo = world
        store.failpoints.arm(CrashPlan.at(point))
        with pytest.raises(SimulatedCrash):
            store.remember("fred@att.com", URL)
        fresh = recover(world)
        report = verify_store(repo)
        assert report.ok, f"crash at {point}: {report.problems}"
        # The operation either fully happened or fully didn't.
        count = fresh.archive_for(URL).revision_count
        seen = fresh.users.last_seen_version("fred@att.com", URL)
        if point == "txn.committed":
            assert count == 1 and seen.revision == "1.1"
        else:
            assert count == 0 and seen is None

    @pytest.mark.parametrize("point", REMEMBER_POINTS)
    def test_rerun_after_recovery_converges(self, tmp_path, point):
        world = make_world(tmp_path)
        clock, network, server, store, repo = world
        store.failpoints.arm(CrashPlan.at(point))
        with pytest.raises(SimulatedCrash):
            store.remember("fred@att.com", URL)
        fresh = recover(world)
        result = fresh.remember("fred@att.com", URL)
        assert result.revision == "1.1"
        archive = fresh.archive_for(URL)
        assert archive.revision_count == 1
        assert archive.checkout("1.1") == V1
        assert fresh.users.last_seen_version("fred@att.com", URL).when >= 0
        assert verify_store(repo).ok

    def test_interrupted_txn_warns_by_name_on_load(self, world):
        clock, network, server, store, repo = world
        store.failpoints.arm(CrashPlan.at("txn.seen-appended"))
        with pytest.raises(SimulatedCrash):
            store.remember("fred@att.com", URL)
        fresh = SnapshotStore(clock, store.agent)
        with pytest.warns(JournalRecoveryWarning, match="never committed"):
            load_store(fresh, repo)

    def test_crash_mid_batch_rolls_back_all_users(self, world):
        # Second user's stamp crashes: NO user keeps a stamp — the
        # batch is one transaction, not three.
        clock, network, server, store, repo = world
        users = ["a@x.com", "b@x.com", "c@x.com"]
        store.failpoints.arm(CrashPlan.at("batch.user-stamped", hit=2))
        with pytest.raises(SimulatedCrash):
            store.checkin_content_batch(users, URL, V1)
        fresh = recover(world)
        assert fresh.archive_for(URL).revision_count == 0
        for user in users:
            assert fresh.users.last_seen_version(user, URL) is None
        assert verify_store(repo).ok

    def test_crash_during_diff_checkin_rolls_back(self, world):
        clock, network, server, store, repo = world
        store.remember("fred@att.com", URL)
        clock.advance(DAY)
        server.set_page("/page", V2)
        store.failpoints.arm(CrashPlan.at("txn.commit"))
        with pytest.raises(SimulatedCrash):
            store.diff("fred@att.com", URL)
        fresh = recover(world)
        assert fresh.archive_for(URL).revision_count == 1
        assert verify_store(repo).ok

    def test_wal_ids_stay_unique_across_restarts(self, world):
        clock, network, server, store, repo = world
        store.remember("fred@att.com", URL)
        fresh = recover(world)
        clock.advance(DAY)
        server = world[1].server_for("site.com")
        server.set_page("/page", V2)
        fresh.remember("fred@att.com", URL)
        txn_ids = [e.txn for e in scan_journal(repo).entries
                   if isinstance(e, TxnIntent)]
        assert len(txn_ids) == len(set(txn_ids))


class TestByteIdentity:
    """Acceptance: zero-crash single-process runs are byte-identical to
    the plain (pre-transactional) service output."""

    def _drive(self, tmp_path, transactional):
        clock, network, server, store, repo = make_world(
            tmp_path, transactional=transactional
        )
        service = SnapshotService(
            store, keepalive=KeepAlive(httpd_timeout=60, emit_interval=15),
            costs=OperationCosts(fetch=20, htmldiff=30, cheap=1),
        )
        aide = network.create_server("aide.att.com")
        aide.register_cgi("/cgi-bin/snapshot", service)
        client = UserAgent(network, clock)
        base = "http://aide.att.com/cgi-bin/snapshot"
        bodies = []

        def call(query):
            response = client.get(f"{base}?{query}").response
            bodies.append((response.status, response.body))

        call(f"action=remember&url={URL}&user=fred@att.com")
        clock.advance(DAY)
        server.set_page("/page", V2)
        call(f"action=remember&url={URL}&user=tom@att.com")
        call(f"action=diff&url={URL}&user=fred@att.com")
        call(f"action=history&url={URL}&user=fred@att.com")
        call(f"action=view&url={URL}&rev=1.1")
        return bodies

    def test_transactional_store_output_is_byte_identical(self, tmp_path):
        plain = self._drive(tmp_path / "plain", transactional=False)
        txn = self._drive(tmp_path / "txn", transactional=True)
        assert plain == txn
