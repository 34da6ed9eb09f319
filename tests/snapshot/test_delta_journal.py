"""The journal stores each revision as a line delta with a checksum.

Properties: a store synced many times (plain syncs and write-ahead
transactions, several check-ins per URL between syncs, awkward texts)
reloads every revision's text, date, author and log exactly as a
compacted copy does; a sync appends a small fraction of the text it
journals; a delta that does not yield its recorded text, and a
full-text ``rev`` record of the older format, fail loudly instead of
loading something else; and a compaction killed after writing a rebuilt
archive never reloads as a mix of the two histories.
"""

import os
import random
import warnings

import pytest

from repro import framedlog
from repro.core.snapshot.journal import (
    JOURNAL_NAME,
    JournalError,
    read_journal,
    scan_journal,
)
from repro.core.snapshot.persistence import (
    append_store,
    compact_store,
    load_store,
    save_store,
    verify_store,
)
from repro.core.snapshot.sched import CrashPlan, Failpoints, SimulatedCrash
from repro.core.snapshot.store import SnapshotStore, StoreOptions
from repro.core.snapshot.wal import WriteAheadLog
from repro.rcs.rcsfile import serialize_rcsfile
from repro.simclock import HOUR, SimClock
from repro.web.client import UserAgent
from repro.web.network import Network
from repro.workloads.mutate import MUTATORS
from repro.workloads.pagegen import PageGenerator

URL_A = "http://site-a.com/page.html"
URL_B = "http://site-b.com/other.html"
URL_C = "http://site-c.com/@odd.html"

#: Texts with the edge cases a line delta must carry: the empty page, a
#: trailing newline or none, ``@``, carriage returns, repeated lines.
AWKWARD = [
    "",
    "\n",
    "one line",
    "one line\n",
    "@\n@@\n@",
    "a\r\nb\r\n",
    "same\nsame\nsame\n",
    "same\nsame\n",
    "\r",
    "x\n\n\nx",
]


def make_store(clock=None, options=None):
    clock = clock or SimClock()
    return clock, SnapshotStore(
        clock, UserAgent(Network(clock), clock),
        options=options if options is not None else StoreOptions())


def revisions_of(store):
    """Every revision of every archive: number, date, author, log, text."""
    return {
        url: [(info.number, info.date, info.author, info.log,
               archive.checkout(info.number))
              for info in archive.revisions()]
        for url, archive in sorted(store.archives.items())
    }


def churn_texts(seed, count):
    rng = random.Random(seed)
    names = sorted(set(MUTATORS) - {"rewrite"})
    page = PageGenerator(seed).page(paragraphs=12, links=5)
    texts = [page]
    for _ in range(count - 1):
        page = MUTATORS[rng.choice(names)](page, rng)
        texts.append(page)
    return texts


def reload_equals_compacted(store, repo, tmp_path):
    _clock, journaled = make_store(store.clock)
    load_store(journaled, repo)
    compacted_dir = str(tmp_path / "compacted")
    save_store(store, compacted_dir)
    _clock, compacted = make_store(store.clock)
    load_store(compacted, compacted_dir)
    assert revisions_of(journaled) == revisions_of(compacted) \
        == revisions_of(store)
    assert ({u: serialize_rcsfile(a) for u, a in journaled.archives.items()}
            == {u: serialize_rcsfile(a)
                for u, a in compacted.archives.items()})
    assert journaled.users.serialize() == store.users.serialize()


class TestSyncedManyTimes:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_reload_equals_compacted_copy(self, tmp_path, seed):
        rng = random.Random(seed)
        repo = str(tmp_path / "repo")
        clock, store = make_store()
        histories = {URL_A: churn_texts(seed, 40), URL_B: AWKWARD * 3,
                     URL_C: churn_texts(seed + 10, 20)[::-1]}
        cursor = {url: 0 for url in histories}
        syncs = 0
        while any(cursor[url] < len(texts)
                  for url, texts in histories.items()):
            # 0-3 check-ins per URL between syncs, so a sync also
            # journals revisions below the head.
            for url, texts in histories.items():
                for _ in range(rng.randrange(4)):
                    if cursor[url] == len(texts):
                        break
                    clock.advance(HOUR)
                    user = rng.choice(["fred@att.com", "tom@att.com"])
                    store.checkin_content(user, url, texts[cursor[url]])
                    cursor[url] += 1
            append_store(store, repo)
            syncs += 1
        assert syncs >= 20
        reload_equals_compacted(store, repo, tmp_path)

    def test_transactions_and_syncs_interleaved(self, tmp_path):
        repo = str(tmp_path / "repo")
        clock, store = make_store()
        store.attach_wal(WriteAheadLog(store, repo))
        texts = AWKWARD + churn_texts(4, 10)
        for index, text in enumerate(texts):
            clock.advance(HOUR)
            store.checkin_content("fred@att.com", URL_A, text)
            if index % 3 == 0:
                append_store(store, repo)
        assert sum(1 for _ in read_journal(repo)) == len(texts)
        reload_equals_compacted(store, repo, tmp_path)


class TestJournalBytes:
    def test_a_small_change_journals_a_small_record(self, tmp_path):
        repo = str(tmp_path)
        clock, store = make_store()
        texts = churn_texts(9, 12)
        store.checkin_content("fred@att.com", URL_A, texts[0])
        save_store(store, repo)
        text_bytes = 0
        for text in texts[1:]:
            clock.advance(HOUR)
            store.checkin_content("fred@att.com", URL_A, text)
            text_bytes += len(text.encode("utf-8"))
        append_store(store, repo)
        journal = os.path.getsize(os.path.join(repo, JOURNAL_NAME))
        assert journal * 5 <= text_bytes


class TestLoudFailures:
    def _journal_with_one_delta(self, tmp_path):
        repo = str(tmp_path)
        clock, store = make_store()
        feed = ["<P>one</P>\n<P>two</P>\n", "<P>one</P>\n<P>2</P>\n"]
        store.checkin_content("fred@att.com", URL_A, feed[0])
        save_store(store, repo)
        clock.advance(HOUR)
        store.checkin_content("fred@att.com", URL_A, feed[1])
        append_store(store, repo)
        return clock, repo

    def _rewrite_first_frame(self, repo, edit):
        path = os.path.join(repo, JOURNAL_NAME)
        data = framedlog.read(path)
        scan = framedlog.scan(data, lambda payload: payload)
        payloads = [edit(scan.entries[0])] + scan.entries[1:]
        with open(path, "wb") as handle:
            handle.write(b"".join(framedlog.frame(p) for p in payloads))

    def test_checksum_mismatch_names_url_and_revision(self, tmp_path):
        clock, repo = self._journal_with_one_delta(tmp_path)
        (record,) = read_journal(repo)
        self._rewrite_first_frame(repo, lambda payload: payload.replace(
            b"%08x" % record.crc, b"%08x" % (record.crc ^ 1)))
        _clock, fresh = make_store(clock)
        with pytest.raises(JournalError, match=f"{URL_A} rev 1.2"):
            load_store(fresh, repo)
        report = verify_store(repo)
        assert not report.ok
        assert any(URL_A in p and "1.2" in p and "checksum" in p
                   for p in report.problems)

    def test_delta_onto_another_text_is_refused(self, tmp_path):
        clock, repo = self._journal_with_one_delta(tmp_path)
        # The ,v base now holds a different 1.1: the journaled delta
        # must not land on it.
        _clock, other = make_store(clock)
        other.checkin_content("fred@att.com", URL_A,
                              "<P>uno</P>\n<P>two</P>\n")
        other.users.pending = {}
        journal = framedlog.read(os.path.join(repo, JOURNAL_NAME))
        save_store(other, repo)
        with open(os.path.join(repo, JOURNAL_NAME), "wb") as handle:
            handle.write(journal)
        _clock, fresh = make_store(clock)
        with pytest.raises(JournalError, match=f"{URL_A} rev 1.2"):
            load_store(fresh, repo)

    def test_full_text_rev_record_is_refused_not_truncated(self, tmp_path):
        clock, repo = self._journal_with_one_delta(tmp_path)
        path = os.path.join(repo, JOURNAL_NAME)
        legacy = framedlog.frame(
            b"rev\t@%s@\t1.2\t7\t@a@\n@l@\n@<P>one</P>@\n" % URL_A.encode())
        with open(path, "wb") as handle:
            handle.write(legacy)
        scan = scan_journal(repo)
        assert not scan.recoverable
        assert "before the delta format" in scan.damage
        _clock, fresh = make_store(clock)
        with pytest.raises(JournalError, match="delta format"):
            load_store(fresh, repo)
        assert framedlog.read(path) == legacy
        assert not verify_store(repo).ok


class TestDivergenceRebuildCompactionCrash:
    """A replica rebuilds an archive to a *shorter* history, and the
    compaction that writes it dies after the ``,v`` files: the journal
    still holds the old history's revisions beyond the new base."""

    def test_reload_is_never_a_mixed_archive(self, tmp_path):
        repo = str(tmp_path)
        clock, store = make_store()
        store.attach_failpoints(Failpoints())
        for n in range(4):
            clock.advance(HOUR)
            store.checkin_content("fred@att.com", URL_A,
                                  f"<P>old {n}</P>\n<P>shared</P>\n")
            if n == 1:
                save_store(store, repo)  # base: 1.1-1.2
        append_store(store, repo)  # journal: 1.3-1.4
        store.drop_archive(URL_A)
        rebuilt = store.archive_for(URL_A)
        for n in range(3):
            rebuilt.checkin(f"<P>new {n}</P>\n<P>shared</P>\n",
                            date=clock.now + n, author="replica")
        rebuilt_state = revisions_of(store)
        store.failpoints.arm(CrashPlan.at("compact.archives-written"))
        with pytest.raises(SimulatedCrash):
            compact_store(store, repo)

        _clock, fresh = make_store(clock)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                load_store(fresh, repo)
        except JournalError as exc:
            assert f"{URL_A} rev 1.4" in str(exc)
            report = verify_store(repo)
            assert not report.ok
            assert any(f"{URL_A} rev 1.4" in p for p in report.problems)
        else:
            assert revisions_of(fresh) == rebuilt_state
