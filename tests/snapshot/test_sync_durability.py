"""A sync appends to the journal and writes nothing else; the files only
compaction writes (``,v`` files, ``users.ctl``, ``MANIFEST``,
``SHARDS``) survive a cut or a crash loudly or intact.

The properties: a sync leaves every file but ``journal.log`` byte- and
mtime-identical; a stamp is journaled exactly once; a change no journal
record expresses (a forgotten stamp, a replica's rebuilt archive)
compacts instead; a control file cut anywhere either loads every stamp
or fails loudly; a compaction killed at any crash point reloads to the
state it was writing.
"""

import os
import re

import pytest

from repro.core.snapshot.journal import JOURNAL_NAME, JournalError, scan_journal
from repro.core.snapshot.persistence import (
    JournalRecoveryWarning,
    append_store,
    compact_store,
    load_store,
    save_store,
    verify_store,
)
from repro.core.snapshot.sched import CrashPlan, Failpoints, SimulatedCrash
from repro.core.snapshot.sharding import (
    ShardedSnapshotStore,
    append_sharded,
    load_sharded,
    save_sharded,
    shard_dirname,
    verify_sharded,
)
from repro.core.snapshot.store import SnapshotStore, StoreOptions
from repro.core.snapshot.wal import WriteAheadLog
from repro.rcs.rcsfile import serialize_rcsfile
from repro.serve import DiffServer, build_world, seed_world, url_fingerprint
from repro.simclock import HOUR, SimClock
from repro.web.client import UserAgent
from repro.web.network import Network
from repro.web.url import canonical_url

URL_A = "http://site-a.com/page.html"
URL_B = "http://site-b.com/other.html"
OLD_MTIME_NS = 1_000_000_000 * 1_000_000_000


def make_store(clock=None):
    clock = clock or SimClock()
    return clock, SnapshotStore(clock, UserAgent(Network(clock), clock),
                                options=StoreOptions())


def feed(clock, store, url, count, user="fred@att.com", start=0):
    for n in range(start, start + count):
        clock.advance(HOUR)
        store.checkin_content(user, url, f"<P>{url} version {n}</P>\n")


def state(store):
    return (
        {url: serialize_rcsfile(archive)
         for url, archive in sorted(store.archives.items())},
        store.users.serialize(),
    )


def age_files(root):
    """Back-date every file, so a rewrite shows in its mtime."""
    for folder, _dirs, files in os.walk(root):
        for name in files:
            os.utime(os.path.join(folder, name),
                     ns=(OLD_MTIME_NS, OLD_MTIME_NS))


def snapshot_files(root):
    """(bytes, mtime) of every file but the journals."""
    out = {}
    for folder, _dirs, files in os.walk(root):
        for name in files:
            if name == JOURNAL_NAME:
                continue
            path = os.path.join(folder, name)
            with open(path, "rb") as handle:
                out[os.path.relpath(path, root)] = (
                    handle.read(), os.stat(path).st_mtime_ns)
    return out


class TestSyncWritesOnlyTheJournal:
    def test_append_store(self, tmp_path):
        repo = str(tmp_path)
        clock, store = make_store()
        feed(clock, store, URL_A, 3)
        save_store(store, repo)
        age_files(repo)
        before = snapshot_files(repo)
        feed(clock, store, URL_A, 2, start=3)
        feed(clock, store, URL_B, 2, user="tom@att.com")
        clock.advance(HOUR)
        store.users.record("ann@att.com", URL_A, "1.2", clock.now)
        assert append_store(store, repo) == 4
        assert snapshot_files(repo) == before
        _clock, fresh = make_store(clock)
        load_store(fresh, repo)
        assert state(fresh) == state(store)

    def test_append_sharded_and_a_reset_shard(self, tmp_path):
        repo = str(tmp_path)
        clock = SimClock()
        store = ShardedSnapshotStore(clock, UserAgent(Network(clock), clock),
                                     shard_count=3)
        urls = [f"http://site-{n}.com/p.html" for n in range(6)]
        for url in urls:
            feed(clock, store, url, 2)
        save_sharded(store, repo)
        age_files(repo)
        before = snapshot_files(repo)
        for url in urls:
            feed(clock, store, url, 1, user="tom@att.com", start=2)
        append_sharded(store, repo)
        assert snapshot_files(repo) == before
        # A crashed shard reset to empty has nothing to sync, so its
        # journal is not touched either.
        victim = store.shard_for(urls[0])
        journal = os.path.join(repo, shard_dirname(victim), JOURNAL_NAME)
        journal_bytes = open(journal, "rb").read()
        reference = state(store.shards[victim])
        store.reset_shard(victim)
        append_sharded(store, repo)
        assert open(journal, "rb").read() == journal_bytes
        assert snapshot_files(repo) == before
        reloaded = ShardedSnapshotStore(
            clock, UserAgent(Network(clock), clock), shard_count=3)
        load_sharded(reloaded, repo)
        assert state(reloaded.shards[victim]) == reference

    def test_no_in_place_rewrite_of_repository_files(self):
        import repro.core.snapshot.persistence as persistence
        import repro.core.snapshot.sharding as sharding
        import repro.core.snapshot.wal as wal
        for module in (persistence, sharding, wal):
            source = open(module.__file__, encoding="utf-8").read()
            assert not re.search(r"open\([^)]*['\"][wa]", source), module


class TestPendingStamps:
    def test_transactional_stamp_is_journaled_once(self, tmp_path):
        repo = str(tmp_path)
        clock, store = make_store()
        network = store.agent.network
        network.create_server("site-a.com").set_page("/page.html", "<P>a</P>")
        store.attach_wal(WriteAheadLog(store, repo))
        store.remember("fred@att.com", URL_A)
        clock.advance(HOUR)
        store.remember("tom@att.com", URL_A)
        size = os.path.getsize(os.path.join(repo, JOURNAL_NAME))
        assert store.users.pending == {}
        assert append_store(store, repo) == 0
        assert os.path.getsize(os.path.join(repo, JOURNAL_NAME)) == size

    def test_pending_is_bounded_by_the_stamps_and_emptied(self, tmp_path):
        clock, store = make_store()
        feed(clock, store, URL_A, 3)
        for _ in range(50):
            clock.advance(HOUR)
            store.users.record("fred@att.com", URL_A, "1.2", clock.now)
        stamps = sum(1 for _ in store.users.all_stamps())
        assert len(store.users.pending) <= stamps == 3
        append_store(store, str(tmp_path))
        assert store.users.pending == {}
        _clock, fresh = make_store(clock)
        load_store(fresh, str(tmp_path))
        assert state(fresh) == state(store)

    def test_forget_makes_the_next_sync_a_compaction(self, tmp_path):
        repo = str(tmp_path)
        clock, store = make_store()
        feed(clock, store, URL_A, 2)
        feed(clock, store, URL_A, 1, user="tom@att.com", start=2)
        append_store(store, repo)
        store.users.forget("tom@att.com", URL_A)
        append_store(store, repo)
        assert not os.path.exists(os.path.join(repo, JOURNAL_NAME))
        _clock, fresh = make_store(clock)
        load_store(fresh, repo)
        assert state(fresh) == state(store)
        assert fresh.users.users_tracking(URL_A) == ["fred@att.com"]
        # The compaction reset the sync state: appending resumes.
        feed(clock, store, URL_A, 1, start=3)
        assert append_store(store, repo) == 1


class TestControlFileCuts:
    @pytest.mark.parametrize("name", ["users.ctl", "MANIFEST"])
    def test_every_cut_loads_everything_or_fails_loudly(self, tmp_path, name):
        repo = str(tmp_path)
        clock, store = make_store()
        for user in ("fred@att.com", "tom@att.com"):
            feed(clock, store, URL_A, 3, user=user, start=0)
        save_store(store, repo)
        path = os.path.join(repo, name)
        data = open(path, "rb").read()
        for cut in range(len(data) + 1):
            with open(path, "wb") as handle:
                handle.write(data[:cut])
            _clock, fresh = make_store(clock)
            try:
                load_store(fresh, repo)
            except JournalError:
                report = verify_store(repo)
                assert not report.ok, cut
                assert any(name in problem for problem in report.problems)
                continue
            assert cut == len(data)
            assert state(fresh) == state(store)
            assert verify_store(repo).ok


class TestCompactionCrash:
    @pytest.mark.parametrize("point", [
        "compact.archives-written",
        "compact.control-written",
        "compact.journal-clearing",
    ])
    def test_reloads_the_state_being_written(self, tmp_path, point):
        repo = str(tmp_path)
        clock, store = make_store()
        store.attach_failpoints(Failpoints())
        feed(clock, store, URL_A, 3)
        save_store(store, repo)
        feed(clock, store, URL_A, 2, start=3)
        clock.advance(HOUR)
        store.users.record("fred@att.com", URL_A, "1.1", clock.now)
        append_store(store, repo)
        synced = state(store)
        # A stamp moved later than its journaled copy, not yet synced.
        clock.advance(HOUR)
        store.users.record("fred@att.com", URL_A, "1.1", clock.now)
        writing = state(store)
        store.failpoints.arm(CrashPlan.at(point))
        with pytest.raises(SimulatedCrash):
            compact_store(store, repo)
        assert verify_store(repo).ok
        _clock, fresh = make_store(clock)
        with pytest.warns(JournalRecoveryWarning, match="compaction"):
            load_store(fresh, repo)
        expected = synced if point == "compact.archives-written" else writing
        assert state(fresh) == expected
        # The next sync finishes the interrupted compaction.
        append_store(fresh, repo)
        assert not scan_journal(repo).entries
        _clock, again = make_store(clock)
        load_store(again, repo)
        assert state(again) == expected


class TestReplicaDivergenceReload:
    def test_rebuilt_replica_reloads_and_verifies(self, tmp_path):
        repo = str(tmp_path)
        world = build_world(7, pages=8)
        server = DiffServer(world.clock, world.agent, shards=4,
                            workers_per_shard=2, queue_limit=16,
                            replication=2, repository_dir=repo)
        seed_world(server, world, seed=7, rounds=2)
        append_sharded(server.store, repo, replication=2)
        mgr = server.replicator
        key = canonical_url(world.urls[0])
        a, b = mgr.replica_set(key)
        # Diverge b: same revision count, different content.
        stale = server.store.shards[b]
        del stale.archives[key]
        archive = stale.archive_for(key)
        archive.checkin("<HTML><BODY>one</BODY></HTML>", 1, author="evil")
        archive.checkin("<HTML><BODY>two</BODY></HTML>", 2, author="evil")
        mgr.sync_url(a, b, key)
        assert mgr.divergence_rebuilds == 1
        append_sharded(server.store, repo, replication=2)

        assert verify_sharded(repo).ok
        reloaded = ShardedSnapshotStore(world.clock, world.agent,
                                        shard_count=4)
        load_sharded(reloaded, repo)
        for index in range(4):
            assert state(reloaded.shards[index]) == state(
                server.store.shards[index])
        assert (url_fingerprint(reloaded.shards[a], key)
                == url_fingerprint(reloaded.shards[b], key))
