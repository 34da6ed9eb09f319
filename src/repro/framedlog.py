"""The durable framed log every AIDE journal shares.

Paper Section 4.2: the RCS repository, the cached page copies and the
per-user control files must survive a crashed CGI process together.
The store journal (:mod:`repro.core.snapshot.journal`), the replicas'
``handoff.log`` (:class:`~repro.serve.replication.HandoffJournal`) and
the quarantine journal (:class:`~repro.core.quarantine.QuarantineJournal`)
all write, read and recover through this module.  Each payload is
wrapped in a length+checksum frame, so a reader can tell a committed
payload from one a crash tore mid-write::

    frame <payload-bytes> <crc32-hex>\\n
    <payload>

One recovery rule holds for every log: damage with nothing intact after
it is a torn tail, and is truncated away; damage with an intact frame
beyond it would lose committed data if truncated, so it raises
:class:`JournalError` and the file is left as it was.

>>> data = frame(b"one\\n") + frame(b"two\\n")
>>> data[:18]
b'frame 4 f817a89f\\no'
>>> result = scan(data + b"frame 9 0", bytes.decode)
>>> result.entries, result.recoverable, result.valid_bytes == len(data)
(['one\\n', 'two\\n'], True, True)
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Tuple

__all__ = ["JournalError", "LogScan", "frame", "append", "scan", "read",
           "truncate_tail", "recover", "replace"]

#: Turns a committed payload into an entry; raises ValueError,
#: LookupError or TypeError on bytes it cannot read.
Parse = Callable[[bytes], object]


class JournalError(ValueError):
    """A log's bytes are not a valid record stream."""


@dataclass
class LogScan:
    """What a tolerant read of a framed log found.

    ``entries`` holds every parsed payload before the first damage.
    ``valid_bytes`` is the offset just past the last intact frame.
    ``recoverable`` is False when an intact frame lies *beyond* the
    damage: mid-file corruption, which truncation would lose data to.
    """

    entries: List[object] = field(default_factory=list)
    total_bytes: int = 0
    valid_bytes: int = 0
    damage: str = ""
    damage_offset: Optional[int] = None
    recoverable: bool = True

    @property
    def clean(self) -> bool:
        return not self.damage


def frame(payload: bytes) -> bytes:
    """``payload`` wrapped in its length+CRC frame."""
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return b"frame %d %08x\n" % (len(payload), crc) + payload


def append(path: str, payloads: Iterable[bytes]) -> int:
    """Frame and append ``payloads`` to ``path`` in one write, flushed
    and fsynced; returns how many.  A missing directory is created."""
    chunks = [frame(payload) for payload in payloads]
    if not chunks:
        return 0
    try:
        handle = open(path, "ab")
    except FileNotFoundError:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        handle = open(path, "ab")
    with handle:
        handle.write(b"".join(chunks))
        handle.flush()
        os.fsync(handle.fileno())
    return len(chunks)


def _read_frame(data: bytes, pos: int,
                parse: Parse) -> Tuple[int, object, str]:
    """(end-offset, entry, why-not) for the frame at ``pos``; ``why-not``
    is empty when the frame is intact and its payload parses."""
    newline = data.find(b"\n", pos)
    if newline == -1:
        return pos, None, "torn frame header (no terminating newline)"
    parts = data[pos:newline].split()
    if len(parts) != 3:
        return pos, None, f"malformed frame header {data[pos:newline]!r}"
    try:
        nbytes = int(parts[1])
    except ValueError:
        nbytes = -1
    if nbytes < 0:
        return pos, None, f"malformed frame length {parts[1]!r}"
    payload = data[newline + 1:newline + 1 + nbytes]
    if len(payload) < nbytes:
        return pos, None, (
            f"torn frame payload ({len(payload)} of {nbytes} bytes present)"
        )
    crc = b"%08x" % (zlib.crc32(payload) & 0xFFFFFFFF)
    if crc != parts[2].lower():
        return pos, None, (
            f"frame checksum mismatch (recorded "
            f"{parts[2].decode('ascii', 'replace')}, "
            f"computed {crc.decode('ascii')})"
        )
    try:
        entry = parse(payload)
    except (ValueError, LookupError, TypeError) as exc:
        return pos, None, f"framed record does not parse: {exc}"
    return newline + 1 + nbytes, entry, ""


def _intact_frame_after(data: bytes, pos: int, parse: Parse) -> bool:
    """Is there any intact frame at a line start beyond ``pos``?"""
    candidate = data.find(b"\nframe ", pos)
    while candidate != -1:
        if not _read_frame(data, candidate + 1, parse)[2]:
            return True
        candidate = data.find(b"\nframe ", candidate + 1)
    return False


def scan(data: bytes, parse: Parse, start: int = 0) -> LogScan:
    """Tolerant read of the frames in ``data[start:]``: never raises on
    content, stops at the first damage and reports it."""
    result = LogScan(total_bytes=len(data))
    pos = start
    while True:
        while pos < len(data) and data[pos] in b" \t\r\n":
            pos += 1
        if pos >= len(data):
            result.valid_bytes = len(data)
            return result
        if data.startswith(b"frame ", pos):
            end, entry, why = _read_frame(data, pos, parse)
        else:
            why = f"unrecognized record start {data[pos:pos + 8]!r}"
        if why:
            result.valid_bytes = result.damage_offset = pos
            result.damage = f"{why} (at byte {pos})"
            result.recoverable = not _intact_frame_after(data, pos, parse)
            return result
        result.entries.append(entry)
        pos = end


def read(path: str) -> bytes:
    """The log's bytes; empty when the file does not exist."""
    if not os.path.exists(path):
        return b""
    with open(path, "rb") as handle:
        return handle.read()


def truncate_tail(path: str, result: LogScan) -> None:
    """Apply the recovery rule to ``result``, a scan of ``path``: a torn
    tail is truncated to the last intact frame, with fsync; mid-file
    damage raises :class:`JournalError` and leaves the file untouched."""
    if result.clean:
        return
    if not result.recoverable:
        raise JournalError(
            f"{path}: corrupted mid-file with intact records beyond the "
            f"damage — refusing to truncate: {result.damage}"
        )
    with open(path, "r+b") as handle:
        handle.truncate(result.valid_bytes)
        handle.flush()
        os.fsync(handle.fileno())


def recover(path: str, parse: Parse) -> LogScan:
    """Scan ``path`` (missing = empty), apply :func:`truncate_tail`, and
    return the scan."""
    result = scan(read(path), parse)
    truncate_tail(path, result)
    return result


def replace(path: str, data: bytes) -> None:
    """Atomically make ``data`` the content of ``path``: write a temp
    file, fsync it, then rename it over ``path``."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
