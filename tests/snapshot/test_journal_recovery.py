"""Crash-safe journal recovery: torn tails, corrupt frames, verify_store.

The property under test: committed revisions are never lost and
``load_store`` never crashes, no matter where a crash (truncation) or a
flipped byte lands in the final record.  Mid-file corruption — damage
with committed records *beyond* it — is the one case that must stay
loud, because truncating there would silently lose data.
"""

import os

import pytest

from repro.core.snapshot.journal import (
    JOURNAL_NAME,
    JournalError,
    JournalRecord,
    SeenRecord,
    append_entries,
    read_journal,
    scan_journal,
    text_crc,
)
from repro.core.snapshot.persistence import (
    JournalRecoveryWarning,
    append_store,
    load_store,
    save_store,
    verify_store,
)
from repro.core.snapshot.store import SnapshotStore, StoreOptions
from repro.diffcore.textdiff import deleted_lines, make_edit_script
from repro.rcs.rcsfile import serialize_rcsfile
from repro.simclock import HOUR, SimClock
from repro.web.client import UserAgent
from repro.web.network import Network

URL = "http://site-a.com/page.html"


def make_store(clock=None):
    clock = clock or SimClock()
    network = Network(clock)
    return clock, SnapshotStore(clock, UserAgent(network, clock),
                                options=StoreOptions())


def feed(clock, store, url, texts, user="fred@att.com"):
    for text in texts:
        clock.advance(HOUR)
        store.checkin_content(user, url, text)


def journal_path(directory):
    return os.path.join(str(directory), JOURNAL_NAME)


def build_journaled_store(tmp_path, revisions=4):
    clock, store = make_store()
    feed(clock, store, URL,
         [f"<P>version {n} — naïve café text</P>\n" for n in range(revisions)])
    append_store(store, str(tmp_path))
    return clock, store


def committed_prefix_lengths(data):
    """Byte offsets that end a whole frame (valid truncation points)."""
    offsets = [0]
    pos = 0
    while pos < len(data):
        newline = data.find(b"\n", pos)
        nbytes = int(data[pos:newline].split()[1])
        pos = newline + 1 + nbytes
        offsets.append(pos)
    return offsets


def final_frames(data, revisions):
    """``(start, end)`` of the final revision's frame and of the final
    stamp's frame: a sync appends its revisions, then its stamps."""
    boundaries = committed_prefix_lengths(data)
    return ((boundaries[revisions - 1], boundaries[revisions]),
            (boundaries[-2], boundaries[-1]))


def stamps_of(store, user="fred@att.com"):
    return [seen.revision for seen in store.users.versions_seen(user, URL)]


class TestTornTailRecovery:
    def test_truncation_at_every_byte_boundary(self, tmp_path):
        """The exhaustive property: cut the journal anywhere in the
        final revision's frame or the final stamp's frame; load always
        succeeds and keeps every frame before the cut (the cut one only
        when it is complete)."""
        clock, _store = build_journaled_store(tmp_path, revisions=3)
        data = open(journal_path(tmp_path), "rb").read()
        boundaries = committed_prefix_lengths(data)
        for start, end in final_frames(data, 3):
            for cut in range(start, end + 1):
                with open(journal_path(tmp_path), "wb") as handle:
                    handle.write(data[:cut])
                _clock2, fresh = make_store(clock)
                if cut in boundaries:
                    load_store(fresh, str(tmp_path))  # clean: no warning
                else:
                    with pytest.warns(JournalRecoveryWarning):
                        load_store(fresh, str(tmp_path))
                kept = sum(1 for end_ in boundaries[1:] if end_ <= cut)
                (archive,) = fresh.archives.values()
                assert archive.revision_count == min(kept, 3), cut
                assert stamps_of(fresh) == (
                    ["1.1", "1.2", "1.3"][:max(kept - 3, 0)]), cut

    def test_corruption_at_every_byte_of_final_record(self, tmp_path):
        """Flip each byte of the final stamp's frame: the frame checksum
        (or header parse) catches it, and load keeps every revision and
        the earlier stamps.  Flip each byte of the final revision's
        frame: intact stamp frames follow it, so that is mid-file
        damage and load fails loudly instead of dropping them."""
        clock, _store = build_journaled_store(tmp_path, revisions=3)
        data = open(journal_path(tmp_path), "rb").read()
        (rev_start, rev_end), (seen_start, seen_end) = final_frames(data, 3)
        for start, end in ((rev_start, rev_end), (seen_start, seen_end)):
            for index in range(start, end):
                mutated = bytearray(data)
                mutated[index] ^= 0xFF
                with open(journal_path(tmp_path), "wb") as handle:
                    handle.write(bytes(mutated))
                _clock2, fresh = make_store(clock)
                if start == rev_start:
                    with pytest.raises(JournalError, match="mid-file"):
                        load_store(fresh, str(tmp_path))
                    continue
                with pytest.warns(JournalRecoveryWarning):
                    load_store(fresh, str(tmp_path))
                (archive,) = fresh.archives.values()
                assert archive.revision_count == 3, f"corrupt byte {index}"
                assert stamps_of(fresh) == ["1.1", "1.2"], index

    def test_truncation_restores_append_capability(self, tmp_path):
        for torn in ("revision", "stamp"):
            self._tear_then_append(tmp_path / torn, torn)

    @staticmethod
    def _tear_then_append(directory, torn):
        directory.mkdir()
        clock, store = build_journaled_store(directory, revisions=3)
        data = open(journal_path(directory), "rb").read()
        (_start, rev_end), _seen = final_frames(data, 3)
        cut = rev_end - 5 if torn == "revision" else len(data) - 5
        with open(journal_path(directory), "wb") as handle:
            handle.write(data[:cut])  # tear the frame
        _clock2, fresh = make_store(clock)
        with pytest.warns(JournalRecoveryWarning):
            load_store(fresh, str(directory))
        # Recovery truncated the file: the journal is clean again and
        # new appends produce a loadable stream.
        assert scan_journal(str(directory)).clean
        if torn == "revision":
            text = "<P>version 2 rewritten</P>\n"
            (archive,) = fresh.archives.values()
            head = archive.checkout().split("\n")
            script = make_edit_script(head, text.split("\n"))
            append_entries(str(directory), [JournalRecord(
                url=URL, revision="1.3", date=clock.now + 1,
                author="fred@att.com", log="re-checkin",
                script=tuple(script), crc=text_crc(text),
                cut_crc=text_crc("\n".join(deleted_lines(head, script))),
            )])
        else:
            append_entries(str(directory), [SeenRecord(
                txn="", user="fred@att.com", url=URL, revision="1.3",
                when=clock.now + 1,
            )])
        _clock3, again = make_store(clock)
        load_store(again, str(directory))
        (archive,) = again.archives.values()
        assert archive.revision_count == 3
        # Tearing the revision's frame cut away every stamp after it.
        expected = [] if torn == "revision" else ["1.1", "1.2", "1.3"]
        assert stamps_of(again) == expected

    def test_empty_journal_file_loads_clean(self, tmp_path):
        clock, _store = build_journaled_store(tmp_path, revisions=2)
        with open(journal_path(tmp_path), "wb") as handle:
            handle.write(b"")
        _clock2, fresh = make_store(clock)
        load_store(fresh, str(tmp_path))  # no warning, no records


class TestMidFileCorruption:
    def test_corrupting_first_record_raises(self, tmp_path):
        clock, _store = build_journaled_store(tmp_path, revisions=3)
        data = bytearray(open(journal_path(tmp_path), "rb").read())
        # Flip a byte inside the *first* frame's payload: intact frames
        # follow, so truncation would lose committed revisions.
        data[len(b"frame ") + 20] ^= 0xFF
        with open(journal_path(tmp_path), "wb") as handle:
            handle.write(bytes(data))
        _clock2, fresh = make_store(clock)
        with pytest.raises(JournalError):
            load_store(fresh, str(tmp_path))

    def test_scan_reports_unrecoverable(self, tmp_path):
        clock, _store = build_journaled_store(tmp_path, revisions=3)
        data = bytearray(open(journal_path(tmp_path), "rb").read())
        data[len(b"frame ") + 20] ^= 0xFF
        with open(journal_path(tmp_path), "wb") as handle:
            handle.write(bytes(data))
        scan = scan_journal(str(tmp_path))
        assert not scan.clean
        assert not scan.recoverable
        assert scan.records == []
        assert scan.damage_offset == 0


class TestUnframedJournals:
    def test_unframed_journal_refused_not_truncated(self, tmp_path):
        # Bare records from before framing: no writer makes them any
        # more, and dropping them as a torn tail would lose revisions.
        legacy = ("rev\t@%s@\t1.1\t7\t@a@\n@l@\n@one@\n" % URL).encode()
        with open(journal_path(tmp_path), "wb") as handle:
            handle.write(legacy)
        scan = scan_journal(str(tmp_path))
        assert not scan.recoverable
        assert "before the framed format" in scan.damage
        _clock, fresh = make_store()
        with pytest.raises(JournalError):
            load_store(fresh, str(tmp_path))
        assert open(journal_path(tmp_path), "rb").read() == legacy


class TestVerifyStore:
    def test_clean_store_verifies_ok(self, tmp_path):
        clock, store = make_store()
        feed(clock, store, URL, ["<P>a</P>", "<P>b</P>"])
        save_store(store, str(tmp_path))
        feed(clock, store, URL, ["<P>c</P>"])
        append_store(store, str(tmp_path))
        report = verify_store(str(tmp_path))
        assert report.ok
        assert report.archives_checked == 1
        assert report.journal_records == 1
        assert "ok" in report.summary()

    def test_pinpoints_torn_tail_without_mutating(self, tmp_path):
        clock, _store = build_journaled_store(tmp_path, revisions=3)
        data = open(journal_path(tmp_path), "rb").read()
        with open(journal_path(tmp_path), "wb") as handle:
            handle.write(data[:-5])
        report = verify_store(str(tmp_path))
        assert report.ok  # torn tail is survivable
        assert any("torn" in note for note in report.notes)
        # verify_store is read-only: the torn tail is still on disk.
        assert open(journal_path(tmp_path), "rb").read() == data[:-5]

    def test_pinpoints_mid_file_corruption(self, tmp_path):
        clock, _store = build_journaled_store(tmp_path, revisions=3)
        data = bytearray(open(journal_path(tmp_path), "rb").read())
        data[len(b"frame ") + 20] ^= 0xFF
        with open(journal_path(tmp_path), "wb") as handle:
            handle.write(bytes(data))
        report = verify_store(str(tmp_path))
        assert not report.ok
        assert any("mid-file" in problem for problem in report.problems)

    def test_pinpoints_corrupt_archive(self, tmp_path):
        clock, store = make_store()
        feed(clock, store, URL, ["<P>a</P>", "<P>b</P>"])
        save_store(store, str(tmp_path))
        archives = os.path.join(str(tmp_path), "archives")
        name = os.listdir(archives)[0]
        with open(os.path.join(archives, name), "w") as handle:
            handle.write("not an rcs file at all")
        report = verify_store(str(tmp_path))
        assert not report.ok
        assert any(name in problem for problem in report.problems)

    def test_pinpoints_replay_mismatch(self, tmp_path):
        clock, store = make_store()
        feed(clock, store, URL, ["<P>a</P>", "<P>b</P>"])
        append_store(store, str(tmp_path))
        records = read_journal(str(tmp_path))
        append_entries(str(tmp_path), [records[-1]])  # duplicate
        report = verify_store(str(tmp_path))
        assert not report.ok
        assert any("replay" in problem for problem in report.problems)

    def test_missing_directory_is_a_note_not_a_crash(self, tmp_path):
        report = verify_store(str(tmp_path / "nowhere"))
        assert report.ok
        assert report.notes

    def test_reports_missing_manifest_entries(self, tmp_path):
        clock, store = make_store()
        feed(clock, store, URL, ["<P>a</P>"])
        save_store(store, str(tmp_path))
        archives = os.path.join(str(tmp_path), "archives")
        os.remove(os.path.join(archives, os.listdir(archives)[0]))
        report = verify_store(str(tmp_path))
        assert any("MANIFEST" in note for note in report.notes)


class TestLoadEquivalenceAfterRecovery:
    def test_recovered_store_matches_reference(self, tmp_path):
        """After recovery the store equals one that never saw the torn
        record: committed revisions only, byte-identical archives."""
        clock, store = make_store()
        texts = [f"<P>rev {n}</P>\n" for n in range(4)]
        feed(clock, store, URL, texts[:3])
        append_store(store, str(tmp_path))
        intact = open(journal_path(tmp_path), "rb").read()
        feed(clock, store, URL, texts[3:])
        append_store(store, str(tmp_path))
        full = open(journal_path(tmp_path), "rb").read()
        # Crash mid-append of revision 4: any strict prefix of the new
        # frame's bytes.
        torn = full[:len(intact) + 7]
        with open(journal_path(tmp_path), "wb") as handle:
            handle.write(torn)
        _clock2, recovered = make_store(clock)
        with pytest.warns(JournalRecoveryWarning):
            load_store(recovered, str(tmp_path))
        # Reference: a store that only ever committed three revisions.
        ref_clock, reference = make_store()
        feed(ref_clock, reference, URL, texts[:3])
        (rec_archive,) = recovered.archives.values()
        (ref_archive,) = reference.archives.values()
        assert serialize_rcsfile(rec_archive) == serialize_rcsfile(ref_archive)
