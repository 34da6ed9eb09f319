"""Append-only check-in journal for the snapshot repository.

``save_store`` rewrites every ``,v`` file — O(total archive) per save,
which is what caps a transactional archive's write throughput under
load (the SiteStory finding).  The journal makes routine persistence
O(what changed): each *new* revision and each new control-file stamp
since the last sync is appended as one record, and a loader replays the
records (in order, through the ordinary ``checkin`` path, which is
deterministic) on top of the last compacted ``,v`` base and
``users.ctl`` to rebuild a byte-identical store.

Record shape: each record is one payload of the shared durable framed
log (:mod:`repro.framedlog`), whose length+checksum **frame** lets a
reader tell a record that was *committed* from one that was torn
mid-write by a crash::

    frame <payload-bytes> <checksum>\\n
    delta\t<quoted url>\t<revision>\t<date>\t<quoted author>\t<crc>\t<cut crc>[\ttxn=<id>]
    <quoted log>
    <quoted edit script>

A revision is stored the way RCS stores one: as a ``diff -n`` edit
script (:mod:`repro.diffcore.textdiff`), here the *forward* one that
turns the archive's previous revision (the empty document, for 1.1)
into this one.  Two CRC-32s (8 hex digits each, of UTF-8 bytes) pin
what it applies to: ``<crc>`` of the text it yields, ``<cut crc>`` of
the previous revision's lines it deletes, newline-joined.  A replay
applies the script to the archive's head and refuses it unless both
match: a line the script keeps differs in the result, and a line it
deletes in the cut, so a script never lands on a text other than the
one it was made from.  A ``rev`` record carrying a whole text, the
format before deltas, is refused as unknown, not truncated: compact
such a repository with a version that still reads it.

The payload is plain text like the rest of the repository —
``@``-quoting is RCS's (payload wrapped in ``@...@``, literal ``@``
doubled) — so a journal is still browsable with ``cat``.  Compaction =
a full ``save_store`` rewrite followed by truncating the journal.

The journal doubles as the snapshot service's **write-ahead intent
log** (paper §4.2's cross-file consistency problem: "the RCS
repository, the locally cached copy of the HTML document, and the
control files" must move together).  Four more framed record types
carry a transaction through the log::

    txn\t<id>\t<op>\t<quoted url>\t<date>\t<quoted author>
    <quoted newline-joined users>          -- the write-ahead intent

    seen\t<id>\t<quoted user>\t<quoted url>\t<revision>\t<when>
                                            -- one control-file stamp
                                               (empty id: from a sync)

    commit\t<id>                            -- the commit marker
    abort\t<id>                             -- a clean rollback marker

A ``delta`` or ``seen`` record tagged with a transaction id only takes
effect if that id's ``commit`` marker made it to disk;
:func:`resolve_entries` computes the surviving effect set, and
everything belonging to an uncommitted transaction is rolled back on
replay.  Untagged ``delta`` and ``seen`` records — what a routine sync
appends for the check-ins and stamps made outside a transaction — are
unconditionally applied.

Reading comes in two flavors.  :func:`read_journal` is strict: any
damage raises :class:`JournalError`.  :func:`scan_journal` never raises
on content: it is :func:`repro.framedlog.scan` with this module's
record parser.  A ``rev`` record of an older format, bare or framed, is
reported as damage that must not be truncated.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple

from ... import framedlog
from ...diffcore.textdiff import (
    EditCommand,
    EditScript,
    apply_edit_script,
    deleted_lines,
    format_edit_script,
    parse_edit_script,
)
from ...framedlog import JournalError
from ...rcs.rcsfile import quote_at_string, read_at_string

__all__ = ["JournalRecord", "JournalError", "JournalScan", "TxnIntent",
           "SeenRecord", "TxnCommit", "TxnAbort", "ResolvedJournal",
           "append_entries", "resolve_entries", "text_crc",
           "read_journal", "scan_journal", "clear_journal", "JOURNAL_NAME"]

JOURNAL_NAME = "journal.log"


def text_crc(text: str) -> int:
    """The CRC-32 a ``delta`` record keeps of the text it yields."""
    return zlib.crc32(text.encode("utf-8"))


@dataclass(frozen=True)
class JournalRecord:
    """One checked-in revision, as the edit script that turns the
    archive's previous revision into it.  ``crc`` is :func:`text_crc`
    of the result, ``cut_crc`` that of the previous revision's lines
    the script deletes, newline-joined.

    ``txn`` is empty for standalone (pre-transaction) records; when
    set, the record only takes effect if its transaction committed.
    """

    url: str
    revision: str
    date: int
    author: str
    log: str
    script: Tuple[EditCommand, ...]
    crc: int
    cut_crc: int
    txn: str = ""

    @classmethod
    def from_delta(
        cls,
        url: str,
        delta: Tuple[object, EditScript, List[str], List[str]],
        date: int,
        author: str,
        log: str,
        txn: str = "",
    ) -> "JournalRecord":
        """The record of one ``(info, script, cut, lines)`` of
        :meth:`~repro.rcs.archive.RcsArchive.forward_deltas`."""
        info, script, cut, lines = delta
        return cls(url=url, revision=info.number, date=date, author=author,
                   log=log, script=tuple(script),
                   crc=text_crc("\n".join(lines)),
                   cut_crc=text_crc("\n".join(cut)), txn=txn)

    def apply(self, lines: Sequence[str]) -> str:
        """The text this record yields on top of ``lines``, the previous
        revision's; raises ValueError unless both checksums match."""
        text = "\n".join(apply_edit_script(lines, self.script))
        cut = "\n".join(deleted_lines(lines, self.script))
        if (text_crc(cut), text_crc(text)) != (self.cut_crc, self.crc):
            raise JournalError("checksum mismatch: the delta was not made "
                               "from the text it is applied to")
        return text


@dataclass(frozen=True)
class TxnIntent:
    """Write-ahead declaration: operation ``op`` on ``url`` for
    ``users`` is about to mutate the repository under id ``txn``."""

    txn: str
    op: str
    url: str
    date: int
    author: str
    users: Tuple[str, ...] = ()


@dataclass(frozen=True)
class SeenRecord:
    """One per-user control-file stamp (user saw revision at when)."""

    txn: str
    user: str
    url: str
    revision: str
    when: int


@dataclass(frozen=True)
class TxnCommit:
    """Transaction ``txn``'s effects are complete and durable."""

    txn: str


@dataclass(frozen=True)
class TxnAbort:
    """Transaction ``txn`` was rolled back cleanly (CGI timeout or an
    application error); its effect records must be skipped."""

    txn: str


class JournalScan(framedlog.LogScan):
    """A :class:`repro.framedlog.LogScan` of the journal: ``entries``
    holds records of every type, ``records`` only the revisions."""

    @property
    def records(self) -> List[JournalRecord]:
        return [e for e in self.entries if isinstance(e, JournalRecord)]


def _serialize(record: JournalRecord) -> str:
    header = "delta\t%s\t%s\t%d\t%s\t%08x\t%08x" % (
        quote_at_string(record.url), record.revision, record.date,
        quote_at_string(record.author), record.crc, record.cut_crc,
    )
    if record.txn:
        header += "\ttxn=%s" % record.txn
    return "\n".join([
        header, quote_at_string(record.log),
        quote_at_string(format_edit_script(record.script)),
    ]) + "\n"


def _serialize_entry(entry: object) -> str:
    if isinstance(entry, JournalRecord):
        return _serialize(entry)
    if isinstance(entry, TxnIntent):
        return (
            "txn\t%s\t%s\t%s\t%d\t%s\n%s\n" % (
                entry.txn, entry.op, quote_at_string(entry.url), entry.date,
                quote_at_string(entry.author),
                quote_at_string("\n".join(entry.users)),
            )
        )
    if isinstance(entry, SeenRecord):
        return "seen\t%s\t%s\t%s\t%s\t%d\n" % (
            entry.txn, quote_at_string(entry.user),
            quote_at_string(entry.url), entry.revision, entry.when,
        )
    if isinstance(entry, TxnCommit):
        return "commit\t%s\n" % entry.txn
    if isinstance(entry, TxnAbort):
        return "abort\t%s\n" % entry.txn
    raise TypeError(f"unknown journal entry type {type(entry).__name__}")


def append_entries(directory: str, entries: Iterable[object]) -> int:
    """Append framed entries (any record type) to ``directory``'s
    journal with one fsync (:func:`repro.framedlog.append`); returns
    how many."""
    return framedlog.append(
        os.path.join(directory, JOURNAL_NAME),
        [_serialize_entry(entry).encode("utf-8") for entry in entries],
    )


class _Scanner:
    """Cursor over journal text, reading @strings and plain fields."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def at_end(self) -> bool:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.pos >= len(self.text)

    def expect(self, literal: str) -> None:
        if not self.text.startswith(literal, self.pos):
            raise JournalError(
                f"expected {literal!r} at offset {self.pos}"
            )
        self.pos += len(literal)

    def read_string(self) -> str:
        """Read an @string starting right here (no leading whitespace)."""
        value, self.pos = read_at_string(self.text, self.pos, JournalError)
        return value

    def read_field(self) -> str:
        """Read up to the next tab or newline (plain metadata field)."""
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in "\t\n":
            self.pos += 1
        return self.text[start:self.pos]

    def skip(self, chars: str) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in chars:
            self.pos += 1


def _int_field(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise JournalError(f"bad {what} field {text!r}")


def _crc_field(text: str) -> int:
    try:
        return int(text, 16)
    except ValueError:
        raise JournalError(f"bad crc field {text!r}")


def _read_one(scanner: _Scanner) -> JournalRecord:
    """One ``delta`` record at the scanner's cursor (raises
    JournalError)."""
    scanner.expect("delta")
    scanner.skip("\t")
    url = scanner.read_string()
    scanner.skip("\t")
    revision = scanner.read_field()
    scanner.skip("\t")
    date_text = scanner.read_field()
    scanner.skip("\t")
    author = scanner.read_string()
    scanner.skip("\t")
    crc = _crc_field(scanner.read_field())
    scanner.skip("\t")
    cut_crc = _crc_field(scanner.read_field())
    txn = ""
    if scanner.text.startswith("\ttxn=", scanner.pos):
        scanner.pos += len("\ttxn=")
        txn = scanner.read_field()
    scanner.skip("\n")
    log = scanner.read_string()
    scanner.skip("\n")
    script = tuple(parse_edit_script(scanner.read_string(), JournalError))
    return JournalRecord(url=url, revision=revision,
                         date=_int_field(date_text, "date"),
                         author=author, log=log, script=script, crc=crc,
                         cut_crc=cut_crc, txn=txn)


def _read_intent(scanner: _Scanner) -> TxnIntent:
    scanner.expect("txn")
    scanner.skip("\t")
    txn = scanner.read_field()
    scanner.skip("\t")
    op = scanner.read_field()
    scanner.skip("\t")
    url = scanner.read_string()
    scanner.skip("\t")
    date_text = scanner.read_field()
    scanner.skip("\t")
    author = scanner.read_string()
    scanner.skip("\n")
    users_blob = scanner.read_string()
    users = tuple(users_blob.split("\n")) if users_blob else ()
    return TxnIntent(txn=txn, op=op, url=url,
                     date=_int_field(date_text, "date"),
                     author=author, users=users)


def _read_seen(scanner: _Scanner) -> SeenRecord:
    scanner.expect("seen\t")
    txn = scanner.read_field()  # empty for a sync's untagged stamp
    scanner.skip("\t")
    user = scanner.read_string()
    scanner.skip("\t")
    url = scanner.read_string()
    scanner.skip("\t")
    revision = scanner.read_field()
    scanner.skip("\t")
    when_text = scanner.read_field()
    return SeenRecord(txn=txn, user=user, url=url, revision=revision,
                      when=_int_field(when_text, "when"))


def _read_marker(scanner: _Scanner) -> object:
    keyword = scanner.read_field()
    scanner.skip("\t")
    txn = scanner.read_field()
    if not txn:
        raise JournalError(f"{keyword} marker without a transaction id")
    return TxnCommit(txn=txn) if keyword == "commit" else TxnAbort(txn=txn)


def _read_entry(scanner: _Scanner) -> object:
    """One record of any type at the scanner's cursor."""
    text, pos = scanner.text, scanner.pos
    if text.startswith("delta", pos):
        return _read_one(scanner)
    if text.startswith("txn", pos):
        return _read_intent(scanner)
    if text.startswith("seen", pos):
        return _read_seen(scanner)
    if text.startswith("commit", pos) or text.startswith("abort", pos):
        return _read_marker(scanner)
    raise JournalError(f"unrecognized record keyword at offset {pos}")


def _parse_payload(payload: bytes) -> object:
    """One framed record of any type (raises JournalError)."""
    # The checksum vouches for the bytes; decode defensively anyway.
    scanner = _Scanner(payload.decode("utf-8", errors="replace"))
    entry = _read_entry(scanner)
    if not scanner.at_end():
        raise JournalError("trailing bytes inside frame")
    return entry


def scan_journal(directory: str) -> JournalScan:
    """Tolerant read of ``directory``'s journal (see :class:`JournalScan`).

    Never raises on content: damage is *reported*, with enough
    positional detail for the caller to truncate (torn tail) or refuse
    to (mid-file corruption with committed records beyond it).
    """
    data = framedlog.read(os.path.join(directory, JOURNAL_NAME))
    scan = JournalScan(**vars(framedlog.scan(data, _parse_payload)))
    pos = scan.damage_offset
    if pos is None:
        return scan
    # A ``rev`` record of an older format holds committed revisions:
    # refuse it, never truncate it away as a torn tail.
    if data.startswith(b"rev", pos):
        scan.recoverable = False
        scan.damage = ("unframed records from before the framed format; "
                       f"convert or remove the journal ({scan.damage})")
    elif (data.startswith(b"frame ", pos)
          and data.startswith(b"rev\t", data.find(b"\n", pos) + 1)):
        scan.recoverable = False
        scan.damage = ("full-text rev record from before the delta format; "
                       "compact the repository with a version that reads "
                       f"it ({scan.damage})")
    return scan


def read_journal(directory: str) -> List[JournalRecord]:
    """All records in ``directory``'s journal, oldest first.

    Strict: any damage anywhere raises :class:`JournalError`.  Use
    :func:`scan_journal` when a partial read is acceptable.
    """
    scan = scan_journal(directory)
    if scan.damage:
        raise JournalError(scan.damage)
    return scan.records


@dataclass
class ResolvedJournal:
    """The effect set that survives transaction resolution.

    ``revisions`` and ``seens`` hold, in journal order, every effect
    record that should be replayed: untagged records plus records whose
    transaction committed.  ``rolled_back`` lists transaction ids whose
    effects were discarded — ``aborted`` ones by a clean abort marker,
    ``interrupted`` ones by a crash that beat the commit marker to
    disk.
    """

    revisions: List[JournalRecord] = field(default_factory=list)
    seens: List[SeenRecord] = field(default_factory=list)
    intents: "dict[str, TxnIntent]" = field(default_factory=dict)
    committed: List[str] = field(default_factory=list)
    aborted: List[str] = field(default_factory=list)
    interrupted: List[str] = field(default_factory=list)

    @property
    def rolled_back(self) -> List[str]:
        return self.aborted + self.interrupted

    def describe(self, txn: str) -> str:
        intent = self.intents.get(txn)
        if intent is None:
            return txn
        who = ",".join(intent.users) or intent.author
        return f"{txn} ({intent.op} {intent.url} for {who})"


def resolve_entries(entries: Iterable[object]) -> ResolvedJournal:
    """Split a journal's entries into applied effects and rollbacks.

    The commit protocol: effect records (``rev``/``seen``) tagged with
    a transaction id are provisional until that id's ``commit`` marker
    appears; an ``abort`` marker (or no marker at all — the crash
    case) rolls them back.  Untagged records were appended by a sync
    and are applied unconditionally.
    """
    entries = list(entries)
    committed = {e.txn for e in entries if isinstance(e, TxnCommit)}
    aborted = {e.txn for e in entries if isinstance(e, TxnAbort)}
    resolved = ResolvedJournal()
    seen_ids: List[str] = []
    for entry in entries:
        if isinstance(entry, TxnIntent):
            resolved.intents[entry.txn] = entry
        elif isinstance(entry, JournalRecord):
            if not entry.txn or entry.txn in committed:
                resolved.revisions.append(entry)
        elif isinstance(entry, SeenRecord):
            if not entry.txn or entry.txn in committed:
                resolved.seens.append(entry)
        else:
            continue
        if entry.txn and entry.txn not in seen_ids:
            seen_ids.append(entry.txn)
    for txn in seen_ids:
        if txn in committed:
            resolved.committed.append(txn)
        elif txn in aborted:
            resolved.aborted.append(txn)
        else:
            resolved.interrupted.append(txn)
    return resolved


def clear_journal(directory: str) -> bool:
    """Remove the journal (after compaction); True if one existed."""
    path = os.path.join(directory, JOURNAL_NAME)
    if os.path.exists(path):
        os.remove(path)
        return True
    return False
