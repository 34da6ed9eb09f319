"""Write-ahead transactions for the snapshot service.

Paper §4.2 names the three files one ``remember`` must keep mutually
consistent: "the RCS repository, the locally cached copy of the HTML
document, and the control files that record the versions of each page a
user has checked in."  A crash between any two of those writes leaves
cross-file damage that per-file recovery cannot see.

This module makes the triple-write atomic with a classic redo log plus
commit marker, layered on the journal's framed records:

1. ``begin`` appends a :class:`~.journal.TxnIntent` (the write-ahead
   intent: what operation, which URL, for whom) and fsyncs it;
2. each effect lands in memory *and* appends its txn-tagged effect
   record — ``rev`` for the archive check-in, a ``cache/`` file write
   for the local copy, ``seen`` for each control-file stamp;
3. ``commit`` appends the ``commit`` marker.  Only then do the effect
   records count: :func:`~.journal.resolve_entries` discards every
   effect of a transaction whose marker never reached disk.

Two failure paths use the same undo machinery:

* **Abort** (application error or a ``CgiTimeout`` raised mid-op): the
  in-memory effects are unwound in reverse — control-file stamps via
  :meth:`UserControl.undo_record`, the cache file restored from its
  prior content, the archive via :meth:`RcsArchive.drop_head` — and an
  ``abort`` marker records the clean rollback.
* **Crash** (the process dies; nothing unwinds): the in-memory store is
  gone, and the next ``load_store`` rolls the half-done transaction
  back during replay — its effect records are skipped and its cache
  file is rewritten from the surviving head revision.

A store without a ``WriteAheadLog`` attached behaves exactly as before:
the transactional path is overhead-only and opt-in.
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional, TYPE_CHECKING

from ...framedlog import replace
from .journal import (
    JournalRecord,
    SeenRecord,
    TxnAbort,
    TxnCommit,
    TxnIntent,
    append_entries,
    scan_journal,
)
from .persistence import CACHE_DIR, mangle_url
from .usercontrol import SeenVersion

if TYPE_CHECKING:
    from .store import SnapshotStore

__all__ = ["WriteAheadLog", "Transaction", "WalError", "CACHE_DIR"]


class WalError(RuntimeError):
    """Transaction misuse: effects logged after commit/abort, or a
    second finalization of an already-finalized transaction."""


class Transaction:
    """One atomic snapshot operation in flight.

    Collects txn-tagged journal entries (the redo log) and in-memory
    undo closures (the rollback log) in lockstep; exactly one of
    :meth:`commit` or :meth:`abort` finalizes it.
    """

    def __init__(self, wal: "WriteAheadLog", intent: TxnIntent) -> None:
        self.wal = wal
        self.txn = intent.txn
        self.intent = intent
        self.state = "open"
        #: (label, closure) pairs, run in reverse on abort.
        self._undos: List[tuple] = []
        #: (url, revision) of each archive check-in this txn performed.
        self.revs: List[tuple] = []

    # ------------------------------------------------------------------
    def _require_open(self) -> None:
        if self.state != "open":
            raise WalError(f"transaction {self.txn} is already {self.state}")

    def log_rev(self, url: str, revision: str, body: str, log: str) -> None:
        """Journal an archive check-in this transaction just made; the
        undo drops the freshly created head again."""
        self._require_open()
        record = JournalRecord(
            url=url,
            revision=revision,
            date=self.intent.date,
            author=self.intent.author,
            log=log,
            text=body,
            txn=self.txn,
        )
        append_entries(self.wal.directory, [record])
        store = self.wal.store
        self.revs.append((url, revision))

        def undo() -> None:
            archive = store.archive_for(url)
            archive.drop_head(revision)
            # The in-memory cached copy was overwritten by the check-in
            # *before* this transaction saw it, so restore it from the
            # surviving head (the invariant the cache promises) rather
            # than from any captured prior.
            if archive.revision_count:
                store.page_cache[url] = archive.checkout(
                    archive.head_revision
                )
            else:
                store.page_cache.pop(url, None)
            # The dropped number may be reused with different text, so
            # every cache keyed on (url, revision) must forget it —
            # including the coalescer's same-instant check-in slot,
            # which would otherwise serve the rolled-back outcome to a
            # retry at the same simulated instant.
            store.checkout_cache.discard((url, revision))
            store.token_cache.discard(url)
            store.diff_cache.invalidate(lambda key: key[0] == url)
            store.coalescer.invalidate(f"diff:{url}:")
            store.coalescer.invalidate(f"checkin:{url}:")

        self._undos.append((f"rev {url} {revision}", undo))

    def write_cache(self, url: str, body: str) -> None:
        """Update the locally cached copy; the undo restores the file's
        prior content (or removes a file that did not exist)."""
        self._require_open()
        path = self.wal.cache_path(url)
        prior: Optional[str] = None
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as handle:
                prior = handle.read()
        replace(path, body.encode("utf-8"))
        memory_prior = self.wal.store.page_cache.get(url)
        self.wal.store.page_cache[url] = body

        def undo() -> None:
            if prior is None:
                if os.path.exists(path):
                    os.remove(path)
                self.wal.store.page_cache.pop(url, None)
            else:
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(prior)
            if memory_prior is None:
                self.wal.store.page_cache.pop(url, None)
            else:
                self.wal.store.page_cache[url] = memory_prior

        self._undos.append((f"cache {url}", undo))

    def log_seen(
        self,
        user: str,
        url: str,
        revision: str,
        when: int,
        prior: Optional[SeenVersion],
    ) -> None:
        """Journal one control-file stamp the store just recorded;
        ``prior`` is :meth:`UserControl.record`'s return value and
        drives the undo."""
        self._require_open()
        append_entries(
            self.wal.directory,
            [SeenRecord(txn=self.txn, user=user, url=url,
                        revision=revision, when=when)],
        )
        users = self.wal.store.users

        def undo() -> None:
            users.undo_record(user, url, revision, prior)

        self._undos.append((f"seen {user} {url} {revision}", undo))

    # ------------------------------------------------------------------
    def commit(self) -> None:
        """Append the commit marker — the transaction's atomic point.

        Also advances ``persisted_revisions`` for every check-in this
        transaction journaled, so routine ``append_store`` syncs know
        those revisions are already safely on disk.
        """
        self._require_open()
        append_entries(self.wal.directory, [TxnCommit(txn=self.txn)])
        self.state = "committed"
        store = self.wal.store
        for url, revision in self.revs:
            count = int(revision.rpartition(".")[2])
            if count > store.persisted_revisions.get(url, 0):
                store.persisted_revisions[url] = count
        self.wal.committed += 1

    def abort(self) -> None:
        """Unwind every in-memory effect (reverse order) and append the
        abort marker recording the clean rollback."""
        self._require_open()
        while self._undos:
            _label, undo = self._undos.pop()
            undo()
        append_entries(self.wal.directory, [TxnAbort(txn=self.txn)])
        self.state = "aborted"
        self.wal.aborted += 1


class WriteAheadLog:
    """The store's transaction manager, bound to one on-disk directory.

    Transaction ids are ``t<seq>``; the sequence resumes past every id
    visible in the existing journal, so ids stay unique across crashes
    and restarts.
    """

    def __init__(self, store: "SnapshotStore", directory: str) -> None:
        self.store = store
        self.directory = directory
        os.makedirs(os.path.join(directory, CACHE_DIR), exist_ok=True)
        self._next = self._scan_next_id()
        self.begun = 0
        self.committed = 0
        self.aborted = 0

    def _scan_next_id(self) -> int:
        highest = 0
        for entry in scan_journal(self.directory).entries:
            txn = getattr(entry, "txn", "")
            if txn.startswith("t"):
                try:
                    highest = max(highest, int(txn[1:]))
                except ValueError:
                    continue
        return highest + 1

    # ------------------------------------------------------------------
    def begin(self, op: str, url: str, author: str,
              users: tuple = ()) -> Transaction:
        """Write the intent record and open the transaction."""
        txn_id = f"t{self._next}"
        self._next += 1
        intent = TxnIntent(
            txn=txn_id,
            op=op,
            url=url,
            date=self.store.clock.now,
            author=author,
            users=tuple(users),
        )
        append_entries(self.directory, [intent])
        self.begun += 1
        return Transaction(self, intent)

    def cache_path(self, url: str) -> str:
        return os.path.join(self.directory, CACHE_DIR, mangle_url(url))

    def read_cache(self, url: str) -> Optional[str]:
        path = self.cache_path(url)
        if not os.path.exists(path):
            return None
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()

    def stats(self) -> dict:
        return {
            "begun": self.begun,
            "committed": self.committed,
            "aborted": self.aborted,
        }
