"""Append-only journal persistence: byte-identity with full rewrites.

Acceptance bar: append-only save after N check-ins reloads to a store
whose serialized archives equal a full ``save_store`` rewrite,
including after compaction.
"""

import os

import pytest

from repro.core.snapshot.journal import (
    JOURNAL_NAME,
    JournalError,
    JournalRecord,
    _Scanner,
    append_entries,
    clear_journal,
    read_journal,
    text_crc,
)
from repro.core.snapshot.persistence import (
    append_store,
    compact_store,
    load_store,
    save_store,
)
from repro.core.snapshot.store import SnapshotStore, StoreOptions
from repro.diffcore.textdiff import EditCommand
from repro.rcs.rcsfile import RcsParseError, serialize_rcsfile
from repro.simclock import HOUR, SimClock
from repro.web.client import UserAgent
from repro.web.network import Network

from ..rcs.test_keyframes import generated_history

URL_A = "http://site-a.com/page.html"
URL_B = "http://site-b.com/other.html"


def make_store(clock=None, options=None):
    clock = clock or SimClock()
    network = Network(clock)
    return clock, SnapshotStore(
        clock, UserAgent(network, clock),
        options=options if options is not None else StoreOptions(),
    )


def feed(clock, store, url, texts, user="fred@att.com"):
    for text in texts:
        clock.advance(HOUR)
        store.checkin_content(user, url, text)


def first_revision(url, date, author, log, text):
    """The record of ``text`` checked in as 1.1: one append of every
    line onto the empty document."""
    lines = tuple(text.split("\n"))
    return JournalRecord(url=url, revision="1.1", date=date, author=author,
                         log=log, script=(EditCommand("a", 0, len(lines),
                                                      lines),),
                         crc=text_crc(text), cut_crc=text_crc(""))


def serialized_archives(store):
    return {
        url: serialize_rcsfile(archive)
        for url, archive in store.archives.items()
    }


class TestAtStrings:
    """The journal reads RCS's @-strings with its own error type."""

    def test_doubled_at_is_undoubled(self):
        scanner = _Scanner("@a@@b@\trest")
        assert scanner.read_string() == "a@b"
        assert scanner.text[scanner.pos:] == "\trest"

    def test_whitespace_before_an_at_string_is_rejected(self):
        with pytest.raises(JournalError):
            _Scanner(" @url@").read_string()

    def test_unterminated_at_string_is_a_journal_error(self):
        with pytest.raises(JournalError) as info:
            _Scanner("@url").read_string()
        assert not isinstance(info.value, RcsParseError)


class TestJournalRecords:
    def test_roundtrip_with_awkward_payloads(self, tmp_path):
        records = [
            first_revision("http://x/?a=1&b=@2", 7, "user@host",
                           "log @ line",
                           "body with @@ and\nnewlines\n\tand tabs\r\n@"),
            JournalRecord(url=URL_B, revision="1.2", date=8, author="",
                          log="", script=(EditCommand("d", 1, 1),
                                          EditCommand("a", 1, 1, ("",))),
                          crc=text_crc(""), cut_crc=text_crc("@")),
        ]
        assert append_entries(str(tmp_path), records) == 2
        assert read_journal(str(tmp_path)) == records

    def test_appends_accumulate(self, tmp_path):
        first = first_revision(URL_A, 1, "a", "", "one")
        second = JournalRecord(url=URL_A, revision="1.2", date=2, author="a",
                               log="", script=(EditCommand("d", 1, 1),
                                               EditCommand("a", 1, 1,
                                                           ("two",))),
                               crc=text_crc("two"), cut_crc=text_crc("one"))
        append_entries(str(tmp_path), [first])
        append_entries(str(tmp_path), [second])
        assert read_journal(str(tmp_path)) == [first, second]

    def test_missing_journal_reads_empty(self, tmp_path):
        assert read_journal(str(tmp_path)) == []
        assert not clear_journal(str(tmp_path))

    def test_corrupt_journal_fails_loudly(self, tmp_path):
        (tmp_path / JOURNAL_NAME).write_text("rev\tgarbage without quotes\n")
        with pytest.raises(JournalError):
            read_journal(str(tmp_path))


class TestAppendStore:
    def test_append_only_touches_journal_not_archives(self, tmp_path):
        clock, store = make_store()
        texts = generated_history(10, seed=3)
        feed(clock, store, URL_A, texts[:6])
        save_store(store, str(tmp_path))
        vfile = tmp_path / "archives" / os.listdir(tmp_path / "archives")[0]
        stamp_before = vfile.read_text()
        feed(clock, store, URL_A, texts[6:])
        appended = append_store(store, str(tmp_path))
        assert appended == 4
        assert vfile.read_text() == stamp_before  # ,v base untouched
        assert (tmp_path / JOURNAL_NAME).exists()
        assert len(read_journal(str(tmp_path))) == 4

    def test_append_without_new_revisions_appends_nothing(self, tmp_path):
        clock, store = make_store()
        feed(clock, store, URL_A, generated_history(5, seed=4))
        save_store(store, str(tmp_path))
        assert append_store(store, str(tmp_path)) == 0
        assert not (tmp_path / JOURNAL_NAME).exists()

    def test_journal_reload_equals_full_rewrite(self, tmp_path):
        """The acceptance criterion, end to end."""
        clock, store = make_store()
        texts_a = generated_history(40, seed=11)
        texts_b = generated_history(30, seed=12, paragraphs=5)
        feed(clock, store, URL_A, texts_a[:20])
        journal_dir, full_dir = str(tmp_path / "journal"), str(tmp_path / "full")
        save_store(store, journal_dir)
        # N more check-ins across two URLs (one brand new), three
        # append-only syncs along the way.
        feed(clock, store, URL_A, texts_a[20:30])
        append_store(store, journal_dir)
        feed(clock, store, URL_B, texts_b[:15], user="tom@att.com")
        append_store(store, journal_dir)
        feed(clock, store, URL_A, texts_a[30:])
        feed(clock, store, URL_B, texts_b[15:], user="tom@att.com")
        append_store(store, journal_dir)
        # A full rewrite of the same store is the reference.
        save_store(store, full_dir)

        for directory in (journal_dir, full_dir):
            _clock2, fresh = make_store(clock)
            load_store(fresh, directory)
            assert serialized_archives(fresh) == serialized_archives(store)
            assert fresh.users.serialize() == store.users.serialize()

    def test_stamp_without_new_revision_survives_append(self, tmp_path):
        clock, store = make_store()
        feed(clock, store, URL_A, generated_history(4, seed=5))
        save_store(store, str(tmp_path))
        clock.advance(HOUR)
        # A re-save of unchanged content moves only the seen marker.
        store.checkin_content("new-user@att.com", URL_A,
                              store.view(URL_A, rewrite_base=False))
        assert append_store(store, str(tmp_path)) == 0
        _clock2, fresh = make_store(clock)
        load_store(fresh, str(tmp_path))
        seen = fresh.users.last_seen_version("new-user@att.com", URL_A)
        assert (seen.revision, seen.when) == ("1.4", clock.now)
        assert fresh.users.serialize() == store.users.serialize()

    def test_compaction_merges_journal(self, tmp_path):
        clock, store = make_store()
        texts = generated_history(25, seed=6)
        feed(clock, store, URL_A, texts[:10])
        save_store(store, str(tmp_path))
        feed(clock, store, URL_A, texts[10:])
        append_store(store, str(tmp_path))
        assert (tmp_path / JOURNAL_NAME).exists()
        compact_store(store, str(tmp_path))
        assert not (tmp_path / JOURNAL_NAME).exists()
        _clock2, fresh = make_store(clock)
        load_store(fresh, str(tmp_path))
        assert serialized_archives(fresh) == serialized_archives(store)
        # Nothing left to append after compaction.
        assert append_store(store, str(tmp_path)) == 0

    def test_journal_only_store_loads(self, tmp_path):
        """A store never fully saved: the journal alone carries it."""
        clock, store = make_store()
        feed(clock, store, URL_A, generated_history(8, seed=7))
        appended = append_store(store, str(tmp_path))
        assert appended == 8
        assert not (tmp_path / "archives").exists()
        _clock2, fresh = make_store(clock)
        assert load_store(fresh, str(tmp_path)) == 1
        assert serialized_archives(fresh) == serialized_archives(store)

    def test_reference_options_degrade_to_full_save(self, tmp_path):
        clock, store = make_store(options=StoreOptions().reference())
        feed(clock, store, URL_A, generated_history(6, seed=8))
        save_store(store, str(tmp_path))
        feed(clock, store, URL_A, generated_history(6, seed=9)[3:])
        append_store(store, str(tmp_path))
        assert not (tmp_path / JOURNAL_NAME).exists()  # full rewrite instead
        _clock2, fresh = make_store(clock, options=StoreOptions().reference())
        load_store(fresh, str(tmp_path))
        assert serialized_archives(fresh) == serialized_archives(store)

    def test_replay_mismatch_fails_loudly(self, tmp_path):
        clock, store = make_store()
        feed(clock, store, URL_A, generated_history(4, seed=10))
        append_store(store, str(tmp_path))
        # Corrupt the journal: duplicate the last record so replay
        # produces an unchanged check-in.
        records = read_journal(str(tmp_path))
        append_entries(str(tmp_path), [records[-1]])
        _clock2, fresh = make_store(clock)
        with pytest.raises(JournalError):
            load_store(fresh, str(tmp_path))
