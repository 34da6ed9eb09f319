"""The durable framed log and the one recovery rule every log obeys.

Unit tests for :mod:`repro.framedlog`, then one property test run over
all three logs built on it — the store journal, the replicas'
``handoff.log`` and the quarantine journal: a crash that tears or
corrupts the final frame loses only that frame, and damage with intact
frames beyond it raises and leaves the file as it was.
"""

import os
import warnings
import zlib

import pytest

from repro import framedlog
from repro.core.quarantine import QuarantineJournal
from repro.core.snapshot.journal import (
    JOURNAL_NAME,
    JournalError,
    JournalRecord,
    TxnCommit,
    append_entries,
    text_crc,
)
from repro.core.snapshot.persistence import append_store, load_store
from repro.core.snapshot.store import SnapshotStore, StoreOptions
from repro.diffcore.textdiff import EditCommand
from repro.serve.replication import HANDOFF_NAME, HandoffJournal
from repro.simclock import HOUR, SimClock


def test_journal_error_is_one_class():
    assert JournalError is framedlog.JournalError
    assert issubclass(JournalError, ValueError)


class TestWireFormat:
    def test_frame_header(self):
        payload = b"hint\t2\thttp://a/x\n"
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        assert framedlog.frame(payload) == (
            b"frame %d %08x\n" % (len(payload), crc) + payload
        )

    def test_handoff_log_bytes_unchanged(self, tmp_path):
        journal = HandoffJournal(str(tmp_path))
        journal.queue(2, "http://a.example.com/x.html")
        journal.drain(2)
        assert (tmp_path / HANDOFF_NAME).read_bytes() == (
            b"frame 35 b6172356\nhint\t2\thttp://a.example.com/x.html\n"
            b"frame 8 c4737f39\ndrain\t2\n"
        )

    def test_store_journal_bytes_unchanged(self, tmp_path):
        append_entries(str(tmp_path), [
            TxnCommit(txn="t1"),
            JournalRecord(url="http://a/x", revision="1.1", date=7,
                          author="a@b", log="l",
                          script=(EditCommand("a", 0, 2, ("body @ x", "")),),
                          crc=text_crc("body @ x\n"), cut_crc=text_crc(""),
                          txn="t1"),
        ])
        assert (tmp_path / JOURNAL_NAME).read_bytes() == (
            b"frame 10 d0de7808\ncommit\tt1\n"
            b"frame 79 a32f237a\ndelta\t@http://a/x@\t1.1\t7\t@a@@b@\t"
            b"ab28105d\t00000000\ttxn=t1\n@l@\n@a0 2\nbody @@ x\n@\n"
        )


@pytest.fixture
def fsyncs(monkeypatch):
    calls = []
    real = os.fsync

    def counting(fd):
        calls.append(fd)
        real(fd)

    monkeypatch.setattr(os, "fsync", counting)
    return calls


class TestAppend:
    def test_one_fsync_per_call(self, tmp_path, fsyncs):
        path = str(tmp_path / "sub" / "x.log")
        assert framedlog.append(path, [b"a\n", b"b\n"]) == 2
        assert len(fsyncs) == 1
        assert framedlog.append(path, [b"c\n"]) == 1
        assert len(fsyncs) == 2
        with open(path, "rb") as handle:
            assert handle.read() == b"".join(
                framedlog.frame(p) for p in (b"a\n", b"b\n", b"c\n"))

    def test_missing_directory_is_created_once(self, tmp_path, monkeypatch):
        made = []
        real = os.makedirs

        def counting(name, *args, **kwargs):
            made.append(name)
            real(name, *args, **kwargs)

        monkeypatch.setattr(os, "makedirs", counting)
        path = str(tmp_path / "a" / "b" / "x.log")
        assert framedlog.append(path, [b"one\n"]) == 1
        # (makedirs calls itself for each missing parent.)
        assert made[0] == str(tmp_path / "a" / "b")
        calls = len(made)
        # The directory exists now: later appends only open the file.
        assert framedlog.append(path, [b"two\n"]) == 1
        assert len(made) == calls
        assert framedlog.read(path) == (framedlog.frame(b"one\n")
                                        + framedlog.frame(b"two\n"))

    def test_nothing_to_append_touches_nothing(self, tmp_path, fsyncs):
        path = str(tmp_path / "x.log")
        assert framedlog.append(path, []) == 0
        assert not os.path.exists(path)
        assert fsyncs == []


def three_frames():
    # Every log's payloads end in a newline, so each frame header
    # starts a line — which is where the mid-file check looks.
    return b"".join(framedlog.frame(p)
                    for p in (b"one\n", b"two\n", b"three\n"))


class TestScan:
    def test_clean(self):
        data = three_frames() + b"\n"
        result = framedlog.scan(data, bytes.decode)
        assert result.entries == ["one\n", "two\n", "three\n"]
        assert result.clean and result.recoverable
        assert result.valid_bytes == result.total_bytes == len(data)
        assert result.damage_offset is None

    def test_torn_tail_is_recoverable(self):
        data = three_frames()
        last = data.rindex(b"frame ")
        result = framedlog.scan(data[:-2], bytes.decode)
        assert result.entries == ["one\n", "two\n"]
        assert result.recoverable
        assert result.valid_bytes == result.damage_offset == last
        assert "torn frame payload" in result.damage

    def test_mid_file_damage_is_not_recoverable(self):
        data = bytearray(three_frames())
        data[data.index(b"one")] ^= 0xFF
        result = framedlog.scan(bytes(data), bytes.decode)
        assert result.entries == []
        assert not result.recoverable
        assert result.damage_offset == 0
        assert "checksum mismatch" in result.damage

    def test_parse_failure_is_damage_not_an_exception(self):
        def parse(payload):
            if payload == b"two\n":
                raise ValueError("no twos")
            return payload

        result = framedlog.scan(three_frames(), parse)
        assert result.entries == [b"one\n"]
        assert "no twos" in result.damage
        # "three" still parses, so the damage is mid-file.
        assert not result.recoverable

    def test_unrecognized_bytes_and_start_offset(self):
        data = b"prefix" + three_frames() + b"garbage"
        result = framedlog.scan(data, bytes.decode, start=len(b"prefix"))
        assert result.entries == ["one\n", "two\n", "three\n"]
        assert "unrecognized record start" in result.damage
        assert result.recoverable
        assert result.valid_bytes == len(data) - len(b"garbage")


class TestRecover:
    def test_missing_file_is_empty(self, tmp_path):
        result = framedlog.recover(str(tmp_path / "none.log"), bytes.decode)
        assert result.entries == [] and result.clean
        assert not (tmp_path / "none.log").exists()

    def test_truncates_torn_tail_with_fsync(self, tmp_path, fsyncs):
        path = tmp_path / "x.log"
        data = three_frames()
        path.write_bytes(data[:-3])
        result = framedlog.recover(str(path), bytes.decode)
        assert result.entries == ["one\n", "two\n"]
        assert path.read_bytes() == data[:data.rindex(b"frame ")]
        assert len(fsyncs) == 1

    def test_mid_file_damage_raises_untouched(self, tmp_path, fsyncs):
        path = tmp_path / "x.log"
        data = bytearray(three_frames())
        data[data.index(b"two")] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(JournalError, match="mid-file"):
            framedlog.recover(str(path), bytes.decode)
        assert path.read_bytes() == bytes(data)
        assert fsyncs == []


class TestReplace:
    def test_writes_fsyncs_and_renames(self, tmp_path, fsyncs):
        path = tmp_path / "x.log"
        path.write_bytes(b"old")
        framedlog.replace(str(path), b"new")
        assert path.read_bytes() == b"new"
        assert len(fsyncs) == 1
        assert os.listdir(tmp_path) == ["x.log"]

    def test_failed_rename_leaves_old_content(self, tmp_path, monkeypatch):
        path = tmp_path / "x.log"
        path.write_bytes(b"old")

        def fail(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            framedlog.replace(str(path), b"new")
        assert path.read_bytes() == b"old"


# ----------------------------------------------------------------------
# One recovery rule, three logs
# ----------------------------------------------------------------------

URLS = ["http://a.example.com/%d.html" % n for n in range(3)]


class StoreJournalLog:
    """Three revisions of one page, journaled by ``append_store``."""

    def write(self, tmp_path):
        clock = SimClock()
        store = SnapshotStore(clock, agent=None, options=StoreOptions())
        for n in range(3):
            clock.advance(HOUR)
            store.archive_for(URLS[0]).checkin(
                f"<P>version {n}</P>\n", date=clock.now, author="a@b")
        append_store(store, str(tmp_path))
        return str(tmp_path / JOURNAL_NAME)

    def load(self, path):
        store = SnapshotStore(SimClock(), agent=None, options=StoreOptions())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            load_store(store, os.path.dirname(path))
        return store.archives[URLS[0]].revision_count


class HandoffLog:
    """Three hints, one per URL, for replica 1."""

    def write(self, tmp_path):
        journal = HandoffJournal(str(tmp_path))
        for url in URLS:
            journal.queue(1, url)
        return str(tmp_path / HANDOFF_NAME)

    def load(self, path):
        return HandoffJournal(os.path.dirname(path)).depth(1)


class QuarantineLog:
    """Three guard trips, one per URL."""

    def write(self, tmp_path):
        path = str(tmp_path / "quarantine.log")
        journal = QuarantineJournal(path)
        for n, url in enumerate(URLS):
            journal.record(url, "nesting-depth", "too deep", "<DIV>" * n)
        return path

    def load(self, path):
        return len(QuarantineJournal(path))


LOGS = [StoreJournalLog(), HandoffLog(), QuarantineLog()]
LOG_IDS = ["store-journal", "handoff", "quarantine"]


def frame_starts(data):
    starts, pos = [], 0
    while pos < len(data):
        starts.append(pos)
        newline = data.index(b"\n", pos)
        pos = newline + 1 + int(data[pos:newline].split()[1])
    return starts


@pytest.mark.parametrize("log", LOGS, ids=LOG_IDS)
class TestOneRecoveryRule:
    def test_cut_anywhere_in_final_frame(self, log, tmp_path):
        path = log.write(tmp_path)
        data = open(path, "rb").read()
        last = frame_starts(data)[-1]
        assert log.load(path) == 3
        for cut in range(last + 1, len(data)):
            with open(path, "wb") as handle:
                handle.write(data[:cut])
            assert log.load(path) == 2, f"cut at byte {cut}"
            assert open(path, "rb").read() == data[:last]

    def test_flip_any_byte_of_final_frame(self, log, tmp_path):
        path = log.write(tmp_path)
        data = open(path, "rb").read()
        last = frame_starts(data)[-1]
        for index in range(last, len(data)):
            mutated = bytearray(data)
            mutated[index] ^= 0xFF
            with open(path, "wb") as handle:
                handle.write(bytes(mutated))
            assert log.load(path) == 2, f"flipped byte {index}"
            assert open(path, "rb").read() == data[:last]

    def test_damaged_first_frame_raises_untouched(self, log, tmp_path):
        path = log.write(tmp_path)
        data = bytearray(open(path, "rb").read())
        data[data.index(b"\n") + 3] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        with pytest.raises(JournalError, match="mid-file"):
            log.load(path)
        assert open(path, "rb").read() == bytes(data)
