"""Tests for the poison-document dead-letter journal."""

import os

import pytest

from repro.core.quarantine import QuarantineEntry, QuarantineJournal
from repro.core.snapshot.journal import JournalError
from repro.web.guards import GuardLimits


class TestRecording:
    def test_record_and_get(self):
        journal = QuarantineJournal()
        journal.record("http://h/x", "token-bomb", "too many tokens",
                       "<B>x</B>" * 10, at=42)
        entry = journal.get("http://h/x")
        assert entry.guard == "token-bomb"
        assert entry.at == 42
        assert entry.attempts == 1

    def test_repeated_trips_accumulate_attempts(self):
        journal = QuarantineJournal()
        journal.record("http://h/x", "token-bomb", "d", "b", at=1)
        journal.record("http://h/x", "nesting-depth", "d2", "b2", at=2)
        entry = journal.get("http://h/x")
        assert entry.attempts == 2
        assert entry.guard == "nesting-depth"  # latest verdict wins
        assert len(journal) == 1

    def test_entries_sorted(self):
        journal = QuarantineJournal()
        for host in ("zeta", "alpha", "mid"):
            journal.record(f"http://{host}/x", "charset", "d", "b")
        assert [e.url for e in journal.entries()] == [
            "http://alpha/x", "http://mid/x", "http://zeta/x"
        ]


class TestPersistence:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "q.jsonl")
        journal = QuarantineJournal(path)
        journal.record("http://h/x", "charset", "bad charset", "café", at=7)
        reloaded = QuarantineJournal(path)
        entry = reloaded.get("http://h/x")
        assert entry.detail == "bad charset"
        assert entry.body == "café"

    def test_torn_tail_line_skipped(self, tmp_path):
        path = str(tmp_path / "q.jsonl")
        journal = QuarantineJournal(path)
        journal.record("http://h/x", "charset", "d", "b")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"url": "http://h/torn", "gua')  # crash mid-append
        reloaded = QuarantineJournal(path)
        assert len(reloaded) == 1
        assert "http://h/torn" not in reloaded

    def test_purge_compacts_file(self, tmp_path):
        path = str(tmp_path / "q.jsonl")
        journal = QuarantineJournal(path)
        journal.record("http://h/x", "charset", "d", "b")
        journal.record("http://h/y", "charset", "d", "b")
        assert journal.purge("http://h/x") == 1
        assert len(QuarantineJournal(path)) == 1
        assert journal.purge() == 1
        assert len(QuarantineJournal(path)) == 0

    def test_mid_file_damage_raises_untouched(self, tmp_path):
        path = str(tmp_path / "q.log")
        journal = QuarantineJournal(path)
        for host in ("a", "b", "c"):
            journal.record(f"http://{host}/x", "charset", "d", "body")
        data = bytearray(open(path, "rb").read())
        # A byte inside the middle record: the record after it is
        # intact, so dropping the damage would lose it too.
        data[data.index(b"http://b/x")] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        with pytest.raises(JournalError):
            QuarantineJournal(path)
        assert open(path, "rb").read() == bytes(data)

    def test_json_lines_file_raises_untouched(self, tmp_path):
        path = str(tmp_path / "q.jsonl")
        old_format = (QuarantineEntry(url="http://h/x", guard="charset",
                                      detail="d", body="b").to_json()
                      + "\n").encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(old_format)
        with pytest.raises(JournalError, match="framed format"):
            QuarantineJournal(path)
        assert open(path, "rb").read() == old_format

    def test_record_and_purge_are_durable(self, tmp_path, monkeypatch):
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            calls.append("fsync")
            real_fsync(fd)

        def replace(src, dst):
            calls.append(("replace", src, dst))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        path = str(tmp_path / "q.log")
        journal = QuarantineJournal(path)
        journal.record("http://h/x", "charset", "d", "b")
        assert calls == ["fsync"]
        journal.purge("http://h/x")
        assert calls == ["fsync", "fsync", ("replace", path + ".tmp", path)]
        assert len(QuarantineJournal(path)) == 0


class TestRetry:
    def test_retry_releases_now_acceptable_bodies(self):
        journal = QuarantineJournal()
        # Quarantined under strict limits; fine under the defaults.
        journal.record("http://h/deep", "nesting-depth", "d",
                       "<DIV>" * 100 + "x")
        journal.record("http://h/nul", "binary-content", "d", "a\x00b")
        released, still_bad = journal.retry(limits=GuardLimits())
        assert [e.url for e in released] == ["http://h/deep"]
        assert [e.url for e, _ in still_bad] == ["http://h/nul"]
        assert "http://h/deep" not in journal
        assert "http://h/nul" in journal

    def test_retry_single_url(self):
        journal = QuarantineJournal()
        journal.record("http://h/a", "nesting-depth", "d", "<P>fine</P>")
        journal.record("http://h/b", "nesting-depth", "d", "<P>fine</P>")
        released, _ = journal.retry(url="http://h/a")
        assert [e.url for e in released] == ["http://h/a"]
        assert "http://h/b" in journal

    def test_stats(self):
        journal = QuarantineJournal()
        journal.record("http://h/a", "charset", "d", "b")
        journal.record("http://h/b", "charset", "d", "b")
        journal.record("http://h/c", "token-bomb", "d", "b")
        stats = journal.stats()
        assert stats["entries"] == 3
        assert stats["by_guard"] == {"charset": 2, "token-bomb": 1}


class TestEntrySerialization:
    def test_json_round_trip(self):
        entry = QuarantineEntry(
            url="http://h/x", guard="charset", detail="d", body="café",
            at=9, attempts=3, content_type="text/plain",
        )
        assert QuarantineEntry.from_json(entry.to_json()) == entry
