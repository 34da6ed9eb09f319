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
* ``journal.log`` — append-only records for revisions checked in since
  the last full rewrite (see :mod:`.journal`).

Everything is plain text on purpose: the repository is as browsable —
and as unprotected — as the paper describes.

Two save paths:

* :func:`save_store` — the full rewrite (every ``,v`` file), O(total
  archive).  A full rewrite supersedes the journal, so it doubles as
  **compaction** (:func:`compact_store` is the explicit spelling).
* :func:`append_store` — O(new data): one journal record per revision
  checked in since the last sync, plus rewrites of the two small
  bookkeeping files.  :func:`load_store` replays the journal on top of
  the compacted base through the ordinary deterministic ``checkin``
  path, reconstructing a store whose serialized archives are
  byte-identical to what a full rewrite would have produced.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ...framedlog import truncate_tail
from ...rcs.archive import RcsArchive
from ...rcs.rcsfile import parse_rcsfile, serialize_rcsfile
from ...simclock import SimClock
from .journal import (
    JOURNAL_NAME,
    JournalError,
    JournalRecord,
    ResolvedJournal,
    append_records,
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
#: reconciled against head revisions on load and by ``verify_store``.
CACHE_DIR = "cache"


class JournalRecoveryWarning(UserWarning):
    """A torn journal tail was truncated away during load, or a
    half-done transaction was rolled back."""

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


def _write_users(store: SnapshotStore, directory: str) -> None:
    with open(os.path.join(directory, "users.ctl"), "w",
              encoding="utf-8") as handle:
        handle.write(store.users.serialize())


def save_store(store: SnapshotStore, directory: str) -> int:
    """Write the repository to ``directory``; returns files written.

    A full rewrite: every archive's ``,v`` file is re-serialized.  Any
    existing journal is superseded by the rewrite and removed, and the
    store's persisted-revision markers are brought up to date — this is
    the compaction step of the append-only scheme.
    """
    archives_dir = os.path.join(directory, "archives")
    os.makedirs(archives_dir, exist_ok=True)
    written = 0
    manifest: Dict[str, str] = {}
    for url, archive in sorted(store.archives.items()):
        name = mangle_url(url) + ",v"
        manifest[name] = url
        path = os.path.join(archives_dir, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(serialize_rcsfile(archive))
        written += 1
    _write_users(store, directory)
    written += 1
    with open(os.path.join(directory, "MANIFEST"), "w",
              encoding="utf-8") as handle:
        for name, url in sorted(manifest.items()):
            handle.write(f"{name}\t{url}\n")
    written += 1
    clear_journal(directory)
    store.persisted_revisions = {
        url: archive.revision_count
        for url, archive in store.archives.items()
    }
    # Compaction may have dropped rolled-back revisions the cache files
    # still reflect; bring any existing cache files back to the heads.
    _reconcile_cache(store.archives, directory)
    return written


def compact_store(store: SnapshotStore, directory: str) -> int:
    """Merge the journal into the ``,v`` base (full rewrite) and drop
    it.  Identical to :func:`save_store`; named for intent."""
    return save_store(store, directory)


def append_store(store: SnapshotStore, directory: str) -> int:
    """Append-only save: journal every revision checked in since the
    last sync; returns the number of records appended.

    Only the journal grows — the ``,v`` base stays untouched — so the
    cost is proportional to the *new* data, not the repository size.
    The two small bookkeeping files (``users.ctl``, whose seen-markers
    move even without new revisions, and nothing else) are rewritten
    each sync.  With ``store.options.journal_persistence`` off this
    degrades to a full :func:`save_store` rewrite (and returns its
    file count), keeping call sites branch-free.
    """
    if not store.options.journal_persistence:
        return save_store(store, directory)
    os.makedirs(directory, exist_ok=True)
    records: List[JournalRecord] = []
    for url, archive in sorted(store.archives.items()):
        done = store.persisted_revisions.get(url, 0)
        if archive.revision_count <= done:
            continue
        for info in archive.revisions()[done:]:
            records.append(JournalRecord(
                url=url,
                revision=info.number,
                date=info.date,
                author=info.author,
                log=info.log,
                text=archive.checkout(info.number),
            ))
        store.persisted_revisions[url] = archive.revision_count
    appended = append_records(directory, records)
    _write_users(store, directory)
    _reconcile_cache(store.archives, directory)
    return appended


def load_store(store: SnapshotStore, directory: str) -> int:
    """Populate an (empty or existing) store from ``directory``.

    Returns the number of archives loaded.  Existing in-memory archives
    for the same URLs are replaced — the disk copy wins, as it would
    for a restarted CGI process.  After the ``,v`` base is read, the
    journal (if any) is replayed through the ordinary check-in path.

    A *torn tail* — the journal stops mid-record, the signature of a
    crash during an append — is recovered from, not fatal: the damaged
    suffix is truncated away, a :class:`JournalRecoveryWarning` is
    issued, and every record whose frame was committed is replayed.
    Damage with intact frames *beyond* it is different — truncating
    there would silently drop committed revisions — so mid-file
    corruption raises :class:`~.journal.JournalError`, as does a replay
    record that does not land on its recorded revision number.

    Transactional records (see :mod:`.wal`) are resolved before replay:
    effects of a transaction whose ``commit`` marker never reached disk
    are **rolled back** — their ``rev`` and ``seen`` records skipped, a
    :class:`JournalRecoveryWarning` naming the half-done operation
    issued — and any ``cache/`` file left behind by the interrupted
    write is reconciled against the surviving head revision.  Committed
    ``seen`` records are applied on top of ``users.ctl``, recovering
    control-file stamps that were journaled but never made it into a
    bookkeeping rewrite.
    """
    archives_dir = os.path.join(directory, "archives")
    loaded = 0
    manifest = _read_manifest(os.path.join(directory, "MANIFEST"))
    if os.path.isdir(archives_dir):
        for name in sorted(os.listdir(archives_dir)):
            if not name.endswith(",v"):
                continue
            with open(os.path.join(archives_dir, name), "r",
                      encoding="utf-8") as handle:
                archive = parse_rcsfile(handle.read())
            url = manifest.get(name) or unmangle_name(name[:-2])
            archive.name = url
            store.archives[url] = archive
            loaded += 1
    scan = scan_journal(directory)
    truncate_tail(os.path.join(directory, JOURNAL_NAME), scan)
    if scan.damage:
        warnings.warn(
            f"journal tail torn ({scan.damage}); truncated to last "
            f"intact record — {len(scan.records)} record(s) kept, "
            f"{scan.total_bytes - scan.valid_bytes} byte(s) dropped",
            JournalRecoveryWarning,
            stacklevel=2,
        )
    resolved = resolve_entries(scan.entries)
    for txn in resolved.interrupted:
        warnings.warn(
            f"transaction {resolved.describe(txn)} never committed; "
            f"rolling back its journaled effects",
            JournalRecoveryWarning,
            stacklevel=2,
        )
    for record in resolved.revisions:
        if record.url not in store.archives:
            loaded += 1
        archive = store.archive_for(record.url)
        number, changed = archive.checkin(
            record.text, date=record.date,
            author=record.author, log=record.log,
        )
        if not changed or number != record.revision:
            raise JournalError(
                f"journal replay of {record.url} expected revision "
                f"{record.revision}, got {number} (changed={changed})"
            )
    # Everything now in memory is on disk (base + journal).
    store.persisted_revisions = {
        url: archive.revision_count
        for url, archive in store.archives.items()
    }
    # Loaded archives adopt the store's checkpoint spacing (keyframes
    # are derived data; this only rebuilds acceleration state).
    for archive in store.archives.values():
        if archive.keyframe_interval != store.options.keyframe_interval:
            archive.set_keyframe_interval(store.options.keyframe_interval)
    # users.ctl is the bookkeeping base; committed seen records layer
    # the stamps that were journaled after its last rewrite on top.
    users_path = os.path.join(directory, "users.ctl")
    if os.path.exists(users_path):
        with open(users_path, "r", encoding="utf-8") as handle:
            store.users = UserControl.deserialize(handle.read())
    for seen in resolved.seens:
        store.users.record(seen.user, seen.url, seen.revision, seen.when)
    # Stamps referencing revisions that did not survive (lost to a torn
    # tail, or rolled back with their transaction) are pruned — a
    # recovered store must not claim a user has seen a version it
    # cannot produce.
    dangling = [
        (user, url, seen.revision)
        for user, url, seen in store.users.all_stamps()
        if not _revision_known(store.archives.get(url), seen.revision)
    ]
    for user, url, revision in dangling:
        warnings.warn(
            f"dropping {user}'s stamp of {url} rev {revision}: the "
            f"revision is not in the recovered archive",
            JournalRecoveryWarning,
            stacklevel=2,
        )
        store.users.forget(user, url, revision)
    # A crash after the cache write but before the commit marker leaves
    # the cache file ahead of the (rolled-back) archive; rewrite any
    # such file from the revision that actually survived.
    _reconcile_cache(store.archives, directory, page_cache=store.page_cache)
    return loaded


def _revision_known(archive: Optional[RcsArchive], revision: str) -> bool:
    return archive is not None and any(
        info.number == revision for info in archive.revisions()
    )


def _reconcile_cache(
    archives: Dict[str, RcsArchive],
    directory: str,
    page_cache: Optional[Dict[str, str]] = None,
) -> List[str]:
    """Make every ``cache/`` file match its archive's head revision.

    Returns a description of each fix.  Files for unknown or empty
    archives are removed; mismatched files are rewritten from the head.
    Only URLs that *have* a cache file are touched — the cache is an
    optional per-URL artifact, written by transactions.
    """
    cache_dir = os.path.join(directory, CACHE_DIR)
    fixed: List[str] = []
    if not os.path.isdir(cache_dir):
        return fixed
    by_name = {mangle_url(url): url for url in archives}
    for name in sorted(os.listdir(cache_dir)):
        path = os.path.join(cache_dir, name)
        if not os.path.isfile(path):
            continue
        if name.endswith(".tmp"):
            os.remove(path)
            fixed.append(f"cache/{name}: removed orphaned temp file")
            continue
        url = by_name.get(name)
        archive = archives.get(url) if url is not None else None
        if archive is None or archive.revision_count == 0:
            os.remove(path)
            fixed.append(f"cache/{name}: removed (no archived revisions)")
            continue
        head = archive.checkout(archive.head_revision)
        with open(path, "r", encoding="utf-8") as handle:
            content = handle.read()
        if content != head:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(head)
            fixed.append(f"cache/{name}: rewritten from head revision")
        if page_cache is not None:
            page_cache[url] = head
    return fixed


@dataclass
class StoreVerification:
    """What :func:`verify_store` found.  ``problems`` are data-losing
    (corrupt archives, unreplayable or mid-file-damaged journal,
    cross-file invariant violations); ``notes`` are survivable oddities
    (torn tail, orphan manifest entries, transactions a load would roll
    back).  ``ok`` means :func:`load_store` would succeed and lose
    nothing that was ever committed.  ``repaired`` lists the fixes a
    ``repair=True`` run applied."""

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
        return {
            "directory": self.directory,
            "ok": self.ok,
            "archives_checked": self.archives_checked,
            "journal_records": self.journal_records,
            "cache_files_checked": self.cache_files_checked,
            "seen_stamps_checked": self.seen_stamps_checked,
            "problems": list(self.problems),
            "notes": list(self.notes),
            "repaired": list(self.repaired),
        }


def verify_store(directory: str, repair: bool = False) -> StoreVerification:
    """Inspect an on-disk repository and *report* damage, never raise.

    The read-only counterpart of :func:`load_store`'s recovery: every
    ``,v`` file is parsed and its head checked out, the journal is
    scanned frame-by-frame, transactions are resolved, and the
    surviving records are replayed onto a scratch copy of the archives
    — so a replay mismatch is found before a real load trips over it.

    On top of the per-file checks, the **cross-file invariants** of
    paper §4.2's consistency triangle:

    * every revision named by a control-file stamp (``users.ctl`` plus
      committed journaled stamps) exists in its URL's archive;
    * every ``cache/`` file matches its archive's head revision.

    With ``repair=False`` (the default) nothing on disk is modified.
    ``repair=True`` fixes what is fixable — rewrites mismatched cache
    files from the head, drops control-file stamps naming revisions
    that do not exist, compacts rolled-back transactions out of the
    journal — then re-verifies and reports the remaining state with
    the applied fixes listed in ``repaired``.
    """
    report = StoreVerification(directory=directory)
    if not os.path.isdir(directory):
        report.notes.append("no repository directory")
        return report
    manifest = _read_manifest(os.path.join(directory, "MANIFEST"))
    archives_dir = os.path.join(directory, "archives")
    archives: Dict[str, RcsArchive] = {}
    unreadable: List[str] = []
    if os.path.isdir(archives_dir):
        for name in sorted(os.listdir(archives_dir)):
            if not name.endswith(",v"):
                continue
            report.archives_checked += 1
            url = manifest.get(name) or unmangle_name(name[:-2])
            try:
                with open(os.path.join(archives_dir, name), "r",
                          encoding="utf-8") as handle:
                    archive = parse_rcsfile(handle.read())
                if archive.revision_count:
                    archive.checkout(archive.head_revision)
            except Exception as exc:
                report.problems.append(f"archives/{name}: {exc}")
                unreadable.append(name)
                continue
            archive.name = url
            archives[url] = archive
    for name in manifest:
        if not os.path.exists(os.path.join(archives_dir, name)):
            report.notes.append(f"MANIFEST names missing archive {name}")
    scan = scan_journal(directory)
    report.journal_records = len(scan.records)
    if scan.damage:
        if scan.recoverable:
            report.notes.append(
                f"journal tail torn ({scan.damage}); load_store would "
                f"truncate {scan.total_bytes - scan.valid_bytes} byte(s)"
            )
        else:
            report.problems.append(
                f"journal corrupted mid-file with intact records beyond "
                f"the damage: {scan.damage}"
            )
    resolved = resolve_entries(scan.entries)
    for txn in resolved.interrupted:
        report.notes.append(
            f"transaction {resolved.describe(txn)} never committed; "
            f"load_store would roll it back"
        )
    if resolved.aborted:
        report.notes.append(
            f"{len(resolved.aborted)} cleanly aborted transaction(s) "
            f"awaiting compaction"
        )
    for record in resolved.revisions:
        archive = archives.get(record.url)
        if archive is None:
            archive = RcsArchive(name=record.url)
            archives[record.url] = archive
        try:
            number, changed = archive.checkin(
                record.text, date=record.date,
                author=record.author, log=record.log,
            )
        except Exception as exc:
            report.problems.append(
                f"journal replay of {record.url} rev {record.revision}: {exc}"
            )
            continue
        if not changed or number != record.revision:
            report.problems.append(
                f"journal replay of {record.url} expected revision "
                f"{record.revision}, got {number} (changed={changed})"
            )
    # The effective control-file state a load would build: users.ctl
    # plus the committed journaled stamps.
    users = UserControl()
    users_path = os.path.join(directory, "users.ctl")
    if os.path.exists(users_path):
        try:
            with open(users_path, "r", encoding="utf-8") as handle:
                users = UserControl.deserialize(handle.read())
        except Exception as exc:
            report.problems.append(f"users.ctl: {exc}")
    for seen in resolved.seens:
        users.record(seen.user, seen.url, seen.revision, seen.when)
    # Cross-file invariant 1: every stamped revision exists.  When a
    # recoverable torn tail is present the lost write explains (and a
    # load repairs) the dangling stamp, so it is a note, not a problem.
    torn_tail = bool(scan.damage) and scan.recoverable
    dangling: List[tuple] = []
    for user, url, seen in users.all_stamps():
        report.seen_stamps_checked += 1
        if not _revision_known(archives.get(url), seen.revision):
            finding = (
                f"users.ctl: {user} has seen {url} rev {seen.revision}, "
                f"which is not in the archive"
            )
            if torn_tail:
                report.notes.append(
                    finding + " (torn tail; a load would drop the stamp)"
                )
            else:
                report.problems.append(finding)
            dangling.append((user, url, seen.revision))
    # Cross-file invariant 2: every cache file matches its head.  A
    # mismatch on a URL some rolled-back transaction touched is the
    # expected debris of the interrupted write — a load reconciles it —
    # so, like the torn-tail stamps above, it is a note, not a problem.
    rolled_back_urls = {
        resolved.intents[txn].url
        for txn in resolved.rolled_back
        if txn in resolved.intents
    }
    cache_dir = os.path.join(directory, CACHE_DIR)
    stale_cache = False
    if os.path.isdir(cache_dir):
        by_name = {mangle_url(url): url for url in archives}
        for name in sorted(os.listdir(cache_dir)):
            path = os.path.join(cache_dir, name)
            if not os.path.isfile(path) or name.endswith(".tmp"):
                continue
            report.cache_files_checked += 1
            url = by_name.get(name) or unmangle_name(name)
            explained = url in rolled_back_urls
            archive = archives.get(url)
            if archive is None or archive.revision_count == 0:
                finding = (
                    f"cache/{name}: cached copy of a URL with no "
                    f"archived revisions"
                )
                stale_cache = True
                if explained:
                    report.notes.append(
                        finding + " (rolled-back transaction; a load "
                        "would remove it)"
                    )
                else:
                    report.problems.append(finding)
                continue
            with open(path, "r", encoding="utf-8") as handle:
                content = handle.read()
            if content != archive.checkout(archive.head_revision):
                finding = (
                    f"cache/{name}: cached copy does not match head "
                    f"revision {archive.head_revision}"
                )
                stale_cache = True
                if explained:
                    report.notes.append(
                        finding + " (rolled-back transaction; a load "
                        "would rewrite it)"
                    )
                else:
                    report.problems.append(finding)
    if not repair:
        return report
    fixable = (
        dangling or stale_cache or resolved.rolled_back
        or (scan.damage and scan.recoverable)
    )
    if not fixable:
        return report
    repaired = _repair_store(directory, archives, users, dangling)
    final = verify_store(directory, repair=False)
    final.repaired = repaired
    return final


def _repair_store(
    directory: str,
    archives: Dict[str, RcsArchive],
    users: UserControl,
    dangling: List[tuple],
) -> List[str]:
    """Write the verified scratch state back: drop dangling stamps,
    compact rolled-back transactions out of the journal, and reconcile
    the cache files against the surviving heads."""
    repaired: List[str] = []
    for user, url, revision in dangling:
        users.forget(user, url, revision)
        repaired.append(
            f"users.ctl: dropped {user}'s stamp of {url} rev {revision}"
        )
    scratch = SnapshotStore(SimClock(), agent=None)
    scratch.archives = dict(archives)
    scratch.users = users
    save_store(scratch, directory)
    repaired.append(
        "compacted archives and journal (rolled-back transactions dropped)"
    )
    repaired.extend(_reconcile_cache(archives, directory))
    return repaired


def _read_manifest(path: str) -> Dict[str, str]:
    if not os.path.exists(path):
        return {}
    out: Dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            name, _, url = line.rstrip("\n").partition("\t")
            if name and url:
                out[name] = url
    return out
