"""On-disk persistence for the snapshot repository.

The paper's service kept its state in a CGI-owned directory: RCS ``,v``
files per URL, plus "the per-user control file" — and its security
section turns on exactly that layout ("the data in the repository is
vulnerable to any CGI script and any user with access to the CGI area.
Data in this repository can be browsed, altered, or deleted").

This module writes and reads that directory:

* ``archives/<mangled-url>,v`` — one RCS file per tracked URL;
* ``users.ctl`` — the seen-version control file;
* ``MANIFEST`` — mangled-name → URL map (URL characters that cannot
  appear in filenames are percent-escaped, so the map is also
  reconstructible from names alone);
* ``journal.log`` — append-only records of the revisions and stamps
  made since the last compaction (see :mod:`.journal`).

Everything is plain text on purpose: the repository is as browsable —
and as unprotected — as the paper describes.  ``users.ctl`` and
``MANIFEST`` are one framed payload each (:mod:`repro.framedlog`), so
a cut copy is detected instead of read as fewer stamps.

A sync (:func:`append_store`) appends to ``journal.log`` and writes
nothing else.  Every other file is written only by :func:`save_store`
(creation and compaction), each replaced atomically.  One replay,
:func:`_replay`, reads a repository for both :func:`load_store` and
:func:`verify_store`.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from ... import framedlog
from ...framedlog import replace, truncate_tail
from ...rcs.archive import RcsArchive
from ...rcs.rcsfile import parse_rcsfile, serialize_rcsfile
from ...simclock import SimClock
from .journal import (
    JOURNAL_NAME,
    JournalError,
    JournalRecord,
    JournalScan,
    ResolvedJournal,
    SeenRecord,
    append_entries,
    clear_journal,
    resolve_entries,
    scan_journal,
)
from .store import SnapshotStore
from .usercontrol import UserControl

__all__ = ["save_store", "append_store", "compact_store", "load_store",
           "verify_store", "StoreVerification", "JournalRecoveryWarning",
           "mangle_url", "unmangle_name", "CACHE_DIR"]

#: Subdirectory holding the "locally cached copy of the HTML document"
#: (paper §4.2) — one file per URL, same name mangling as the ``,v``
#: archives.  Written by write-ahead transactions (:mod:`.wal`) and
#: compaction, and checked against the head revisions on every read.
CACHE_DIR = "cache"
CONTROL_FILE = "users.ctl"
MANIFEST_FILE = "MANIFEST"


class JournalRecoveryWarning(UserWarning):
    """A load recovered from a crash: a torn journal tail was truncated
    away, a half-done transaction rolled back, the records of an
    interrupted compaction skipped, or a stamp of a lost revision
    dropped."""

_SAFE = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789.-_"
)


def mangle_url(url: str) -> str:
    """A URL as a safe, reversible filename (percent-escaping)."""
    out = []
    for ch in url:
        if ch in _SAFE:
            out.append(ch)
        else:
            out.append(f"%{ord(ch):02X}")
    return "".join(out)


def unmangle_name(name: str) -> str:
    """Inverse of :func:`mangle_url` (tolerates malformed escapes)."""
    out = []
    index = 0
    while index < len(name):
        if name[index] == "%" and index + 2 < len(name) + 1:
            try:
                out.append(chr(int(name[index + 1:index + 3], 16)))
                index += 3
                continue
            except ValueError:
                pass
        out.append(name[index])
        index += 1
    return "".join(out)


def _write_framed(path: str, text: str) -> None:
    """Replace ``path`` with ``text`` as one framed payload."""
    replace(path, framedlog.frame(text.encode("utf-8")))


def _read_framed(path: str) -> str:
    """The text :func:`_write_framed` stored at ``path`` ("" when the
    file does not exist); raises :class:`JournalError` when it is cut
    or damaged."""
    if not os.path.exists(path):
        return ""
    scan = framedlog.scan(framedlog.read(path), bytes.decode)
    if scan.damage or len(scan.entries) != 1:
        raise JournalError(
            f"{os.path.basename(path)} is damaged: "
            f"{scan.damage or f'{len(scan.entries)} frames, expected 1'}"
        )
    return scan.entries[0]


def save_store(store: SnapshotStore, directory: str) -> int:
    """Write the whole repository to ``directory`` (creation and
    compaction); returns files written.

    Every ``,v`` file, ``users.ctl`` and ``MANIFEST`` is replaced
    atomically, then the journal they supersede is removed, as are the
    ``,v`` files of archives the store dropped; cache files are brought
    back to the heads and the store's sync state is reset.  Until the
    journal is gone, a replay skips the records the new base holds.
    """
    archives_dir = os.path.join(directory, "archives")
    os.makedirs(archives_dir, exist_ok=True)
    manifest: Dict[str, str] = {}
    for url, archive in sorted(store.archives.items()):
        name = mangle_url(url) + ",v"
        manifest[name] = url
        replace(os.path.join(archives_dir, name),
                serialize_rcsfile(archive).encode("utf-8"))
    store._step("compact.archives-written")
    _write_framed(os.path.join(directory, CONTROL_FILE),
                  store.users.serialize())
    store._step("compact.control-written")
    _write_framed(os.path.join(directory, MANIFEST_FILE), "".join(
        f"{name}\t{url}\n" for name, url in sorted(manifest.items())
    ))
    store._step("compact.journal-clearing")
    clear_journal(directory)
    for name in os.listdir(archives_dir):
        if name.endswith(",v") and name not in manifest:
            os.remove(os.path.join(archives_dir, name))
    store.persisted_revisions = {
        url: archive.revision_count
        for url, archive in store.archives.items()
    }
    store.users.pending = {}
    store.compact_on_sync = False
    _fix_cache(_check_cache(store.archives, directory))
    return len(manifest) + 2


def compact_store(store: SnapshotStore, directory: str) -> int:
    """Merge the journal into the ``,v`` base (full rewrite) and drop
    it.  Identical to :func:`save_store`; named for intent."""
    return save_store(store, directory)


def append_store(store: SnapshotStore, directory: str) -> int:
    """Sync: journal what changed since the last sync; returns the
    number of revisions journaled.

    The revisions checked in since the last sync, then the stamps
    recorded outside a transaction (``store.users.pending``), go to
    ``journal.log`` in one framed, fsynced append; no other file is
    written, so the cost is that of the new data.  A change no journal
    record expresses (a forgotten stamp, a dropped archive), or
    ``journal_persistence`` off, makes it a :func:`save_store` instead
    (returning its file count), keeping call sites branch-free.
    """
    if (not store.options.journal_persistence or store.compact_on_sync
            or store.users.pending is None):
        return save_store(store, directory)
    entries: List[object] = []
    synced: Dict[str, int] = {}
    for url, archive in store.archives.items():
        done = store.persisted_revisions.get(url, 0)
        if archive.revision_count <= done:
            continue
        for delta in archive.forward_deltas(done):
            info = delta[0]
            entries.append(JournalRecord.from_delta(
                url, delta, info.date, info.author, info.log))
        synced[url] = archive.revision_count
    revisions = len(entries)
    entries.extend(
        SeenRecord(txn="", user=user, url=url, revision=revision, when=when)
        for (user, url, revision), when in store.users.pending.items()
    )
    append_entries(directory, entries)
    store._step("sync.journal-appended")
    store.persisted_revisions.update(synced)
    store.users.pending = {}
    return revisions


#: One ``cache/`` file: its path, the URL it caches (None for a stray
#: temp file), the text it must hold (None: it must go) and what is
#: wrong with it ("" when nothing).
CacheFile = Tuple[str, Optional[str], Optional[str], str]


def _check_cache(archives: Dict[str, RcsArchive],
                 directory: str) -> List[CacheFile]:
    """Every ``cache/`` file checked against its archive's head."""
    cache_dir = os.path.join(directory, CACHE_DIR)
    if not os.path.isdir(cache_dir):
        return []
    by_name = {mangle_url(url): url for url in archives}
    files: List[CacheFile] = []
    for name in sorted(os.listdir(cache_dir)):
        path = os.path.join(cache_dir, name)
        if not os.path.isfile(path):
            continue
        if name.endswith(".tmp"):
            files.append((path, None, None,
                          f"cache/{name}: orphaned temp file"))
            continue
        url = by_name.get(name) or unmangle_name(name)
        archive = archives.get(url)
        if archive is None or archive.revision_count == 0:
            files.append((path, url, None, f"cache/{name}: cached copy "
                          f"of a URL with no archived revisions"))
            continue
        head = archive.checkout(archive.head_revision)
        with open(path, "r", encoding="utf-8", errors="replace",
                  newline="") as handle:
            stale = handle.read() != head
        files.append((path, url, head, (
            f"cache/{name}: cached copy does not match head revision "
            f"{archive.head_revision}" if stale else ""
        )))
    return files


def _fix_cache(files: List[CacheFile]) -> None:
    """Rewrite each stale cache file from its head, or remove it."""
    for path, _url, head, finding in files:
        if not finding:
            continue
        if head is None:
            os.remove(path)
        else:
            replace(path, head.encode("utf-8"))


@dataclass
class _Replay:
    """One read of a repository directory (see :func:`_replay`).

    ``errors`` is damage a load cannot get past; ``recovered`` what a
    load repairs and warns about; ``notes`` oddities nothing needs to
    fix.  ``dangling`` stamps name revisions no archive holds, and
    ``superseded`` counts journaled revisions the ``,v`` base already
    held (a compaction a crash cut short).
    """

    archives: Dict[str, RcsArchive] = field(default_factory=dict)
    users: UserControl = field(default_factory=UserControl)
    cache: List[CacheFile] = field(default_factory=list)
    scan: JournalScan = field(default_factory=JournalScan)
    resolved: ResolvedJournal = field(default_factory=ResolvedJournal)
    archives_checked: int = 0
    superseded: int = 0
    dangling: List[Tuple[str, str, str]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    recovered: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def stale_cache(self) -> List[CacheFile]:
        return [entry for entry in self.cache if entry[3]]


def _replay(directory: str) -> _Replay:
    """Rebuild ``directory``'s repository without changing it: the
    ``,v`` base and ``users.ctl``, then the journal's surviving records
    (:func:`~.journal.resolve_entries`) through ``checkin``, each
    checked to land on its recorded number; then every stamp and cache
    file is checked against the archives."""
    replay = _Replay()
    try:
        manifest = _read_manifest(directory)
    except JournalError as exc:
        replay.errors.append(str(exc))
        manifest = {}
    archives_dir = os.path.join(directory, "archives")
    names = sorted(os.listdir(archives_dir)) if os.path.isdir(
        archives_dir) else []
    base: Dict[str, int] = {}
    for name in names:
        if not name.endswith(",v"):
            continue
        replay.archives_checked += 1
        try:
            with open(os.path.join(archives_dir, name), "r",
                      encoding="utf-8", newline="") as handle:
                archive = parse_rcsfile(handle.read())
            if archive.revision_count:
                archive.checkout(archive.head_revision)
        except Exception as exc:
            replay.errors.append(f"archives/{name}: {exc}")
            continue
        url = manifest.get(name) or unmangle_name(name[:-2])
        archive.name = url
        replay.archives[url] = archive
        base[url] = archive.revision_count
    for name in manifest:
        if name not in names:
            replay.notes.append(f"MANIFEST names missing archive {name}")

    scan = replay.scan = scan_journal(directory)
    if scan.damage and scan.recoverable:
        replay.recovered.append(
            f"journal tail torn ({scan.damage}); the "
            f"{scan.total_bytes - scan.valid_bytes} byte(s) after the last "
            f"intact record are truncated on load"
        )
    elif scan.damage:
        replay.errors.append(
            f"journal corrupted mid-file with intact records beyond the "
            f"damage: {scan.damage}"
        )
    resolved = replay.resolved = resolve_entries(scan.entries)
    for txn in resolved.interrupted:
        replay.recovered.append(
            f"transaction {resolved.describe(txn)} never committed; its "
            f"journaled effects are rolled back on load"
        )
    if resolved.aborted:
        replay.notes.append(
            f"{len(resolved.aborted)} cleanly aborted transaction(s) "
            f"awaiting compaction"
        )
    for record in resolved.revisions:
        try:
            if _revision_index(record.revision) <= base.get(record.url, 0):
                replay.superseded += 1
                continue
            archive = replay.archives.get(record.url)
            if archive is None:
                archive = replay.archives[record.url] = RcsArchive(
                    name=record.url)
            text = record.apply(archive.checkout().split("\n")
                                if archive.revision_count else [])
            number, changed = archive.checkin(
                text, date=record.date,
                author=record.author, log=record.log,
            )
        except Exception as exc:
            replay.errors.append(
                f"journal replay of {record.url} rev {record.revision}: {exc}"
            )
            continue
        if not changed or number != record.revision:
            replay.errors.append(
                f"journal replay of {record.url} expected revision "
                f"{record.revision}, got {number} (changed={changed})"
            )
    if replay.superseded:
        replay.recovered.append(
            f"{replay.superseded} journaled revision(s) already in the ,v "
            f"base: a compaction stopped before clearing the journal"
        )

    try:
        replay.users = UserControl.deserialize(
            _read_framed(os.path.join(directory, CONTROL_FILE)))
    except JournalError as exc:
        replay.errors.append(str(exc))
    users = replay.users
    for seen in resolved.seens:
        # A journaled stamp never moves a stamp back in time: one older
        # than users.ctl's copy predates a compaction.
        prior = users.record(seen.user, seen.url, seen.revision, seen.when)
        if prior is not None and prior.when > seen.when:
            users.record(seen.user, seen.url, seen.revision, prior.when)
    users.pending = {}
    replay.dangling = [
        (user, url, seen.revision)
        for user, url, seen in users.all_stamps()
        if not _revision_known(replay.archives.get(url), seen.revision)
    ]
    replay.cache = _check_cache(replay.archives, directory)
    return replay


def _revision_index(revision: str) -> int:
    return int(revision.rpartition(".")[2])


def _revision_known(archive: Optional[RcsArchive], revision: str) -> bool:
    return archive is not None and any(
        info.number == revision for info in archive.revisions()
    )


def load_store(store: SnapshotStore, directory: str) -> int:
    """Populate an (empty or existing) store from ``directory``;
    returns the number of archives loaded.  The disk copy wins over
    in-memory archives of the same URLs and over the control file, as
    it would for a restarted CGI process.

    :class:`~.journal.JournalError` is raised for damage a load cannot
    get past (see :func:`_replay`): an unreadable ``,v`` file, a cut
    ``users.ctl`` or ``MANIFEST``, mid-file journal corruption, a record
    that does not replay onto its number.  Crash debris is recovered
    from with a :class:`JournalRecoveryWarning` each: a torn journal
    tail is truncated, uncommitted transactions rolled back, stamps of
    lost revisions dropped; stale cache files are rewritten.
    """
    replay = _replay(directory)
    truncate_tail(os.path.join(directory, JOURNAL_NAME), replay.scan)
    if replay.errors:
        raise JournalError(replay.errors[0])
    for finding in replay.recovered:
        warnings.warn(finding, JournalRecoveryWarning, stacklevel=2)
    # Loaded archives adopt the store's checkpoint spacing (keyframes
    # are derived data; this only rebuilds acceleration state).
    for archive in replay.archives.values():
        if archive.keyframe_interval != store.options.keyframe_interval:
            archive.set_keyframe_interval(store.options.keyframe_interval)
    store.archives.update(replay.archives)
    store.persisted_revisions = {
        url: archive.revision_count
        for url, archive in replay.archives.items()
    }
    store.compact_on_sync = replay.superseded > 0
    store.users = replay.users
    # A recovered store must not claim a user has seen a version it
    # cannot produce; forgetting makes the next sync a compaction.
    for user, url, revision in replay.dangling:
        warnings.warn(
            f"dropping {user}'s stamp of {url} rev {revision}: the "
            f"revision is not in the recovered archive",
            JournalRecoveryWarning,
            stacklevel=2,
        )
        store.users.forget(user, url, revision)
    _fix_cache(replay.cache)
    for _path, url, head, _finding in replay.cache:
        if head is not None:
            store.page_cache[url] = head
    return len(replay.archives)


@dataclass
class StoreVerification:
    """What :func:`verify_store` found.  ``problems`` are data-losing
    (corrupt archives or control files, unreplayable or mid-file-damaged
    journal, cross-file invariant violations); ``notes`` are survivable
    oddities (torn tail, orphan manifest entries, transactions a load
    would roll back).  ``ok`` means :func:`load_store` would succeed and
    lose nothing that was ever committed.  ``repaired`` lists the fixes
    a ``repair=True`` run applied."""

    directory: str
    archives_checked: int = 0
    journal_records: int = 0
    cache_files_checked: int = 0
    seen_stamps_checked: int = 0
    problems: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    repaired: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def summary(self) -> str:
        verdict = "ok" if self.ok else f"{len(self.problems)} problem(s)"
        repaired = f", {len(self.repaired)} repair(s)" if self.repaired else ""
        return (
            f"{self.directory}: {verdict} — {self.archives_checked} "
            f"archive(s), {self.journal_records} journal record(s), "
            f"{self.cache_files_checked} cache file(s), "
            f"{self.seen_stamps_checked} seen stamp(s), "
            f"{len(self.notes)} note(s){repaired}"
        )

    def to_dict(self) -> Dict[str, object]:
        """Structured form for the CGI ``action=fsck`` endpoint and the
        crash-consistency bench gate."""
        return {"ok": self.ok, **asdict(self)}


def verify_store(directory: str, repair: bool = False) -> StoreVerification:
    """Inspect an on-disk repository and *report* damage, never raise.

    The read-only counterpart of :func:`load_store`, from the same
    :func:`_replay`, which also checks the **cross-file invariants** of
    paper §4.2's consistency triangle: every stamped revision exists,
    and every ``cache/`` file matches its archive's head.  A violation
    that crash debris explains (a stamp lost with a torn tail, a cache
    file a rolled-back transaction left) is a note: a load repairs it.

    ``repair=True`` fixes what is fixable — drops dangling stamps,
    compacts rolled-back transactions and interrupted compactions out
    of the journal, rewrites stale cache files — then re-verifies and
    lists the fixes in ``repaired``.  It changes nothing when compaction
    would lose damaged data (an unreadable archive or control file, an
    unreplayable journal).
    """
    report = StoreVerification(directory=directory)
    if not os.path.isdir(directory):
        report.notes.append("no repository directory")
        return report
    replay = _replay(directory)
    report.archives_checked = replay.archives_checked
    report.journal_records = len(replay.scan.records)
    report.cache_files_checked = sum(
        1 for _path, url, _head, _finding in replay.cache if url is not None)
    report.seen_stamps_checked = sum(1 for _ in replay.users.all_stamps())
    report.problems.extend(replay.errors)
    report.notes.extend(replay.recovered + replay.notes)
    torn_tail = bool(replay.scan.damage) and replay.scan.recoverable
    for user, url, revision in replay.dangling:
        finding = (f"users.ctl: {user} has seen {url} rev {revision}, "
                   f"which is not in the archive")
        if torn_tail:
            report.notes.append(
                finding + " (torn tail; a load would drop the stamp)")
        else:
            report.problems.append(finding)
    rolled_back_urls = {
        replay.resolved.intents[txn].url
        for txn in replay.resolved.rolled_back
        if txn in replay.resolved.intents
    }
    for _path, url, _head, finding in replay.stale_cache:
        if url is None or url in rolled_back_urls:
            report.notes.append(
                finding + " (left by an interrupted write; a load fixes it)")
        else:
            report.problems.append(finding)
    fixable = (replay.dangling or replay.stale_cache or replay.superseded
               or replay.resolved.rolled_back or replay.scan.damage)
    if not repair or replay.errors or not fixable:
        return report
    repaired = _repair_store(directory, replay)
    final = verify_store(directory, repair=False)
    final.repaired = repaired
    return final


def _repair_store(directory: str, replay: _Replay) -> List[str]:
    """Write the verified replay back: drop dangling stamps, compact
    rolled-back transactions out of the journal, and rewrite the stale
    cache files (:func:`save_store` does the last two)."""
    repaired: List[str] = []
    for user, url, revision in replay.dangling:
        replay.users.forget(user, url, revision)
        repaired.append(
            f"users.ctl: dropped {user}'s stamp of {url} rev {revision}"
        )
    scratch = SnapshotStore(SimClock(), agent=None)
    scratch.archives = replay.archives
    scratch.users = replay.users
    save_store(scratch, directory)
    repaired.append(
        "compacted archives and journal (rolled-back transactions dropped)"
    )
    repaired.extend(
        f"{finding}: {'removed' if head is None else 'rewritten from head'}"
        for _path, _url, head, finding in replay.stale_cache
    )
    return repaired


def _read_manifest(directory: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for line in _read_framed(
            os.path.join(directory, MANIFEST_FILE)).splitlines():
        name, _, url = line.partition("\t")
        if name and url:
            out[name] = url
    return out
