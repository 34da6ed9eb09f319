"""The RCS ``,v`` file format: serialize and parse archives.

Real RCS persists each archive as a ``file,v`` text file: an admin
header (``head``, ``access``, ``symbols``, ``locks``), per-revision
metadata paragraphs, and per-revision ``log``/``text`` sections where
the head's text is stored whole and every other revision's text is a
``diff -n`` edit script.  AIDE's repository directory is a tree of
these files; this module reads and writes the same shape so archives
survive process restarts (and can be eyeballed with ``cat``).

``@``-quoting follows RCS exactly: string payloads are wrapped in
``@...@`` with literal ``@`` doubled.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple, Type

from ..diffcore.textdiff import EditCommand, EditScript, script_size
from .archive import RcsArchive, RevisionInfo, _StoredRevision

__all__ = [
    "serialize_rcsfile",
    "parse_rcsfile",
    "RcsParseError",
    "quote_at_string",
    "read_at_string",
]


class RcsParseError(ValueError):
    """The ,v text is not a valid archive serialization."""


def quote_at_string(text: str) -> str:
    """``text`` as an ``@...@`` string, with literal ``@`` doubled."""
    return "@" + text.replace("@", "@@") + "@"


def read_at_string(
    text: str, pos: int, error: Type[Exception] = RcsParseError,
) -> Tuple[str, int]:
    """Read the ``@...@`` string that starts exactly at ``text[pos]``.

    Returns the un-doubled value and the offset just past the closing
    ``@``.  Raises ``error`` when no string starts at ``pos`` or it is
    never closed; callers that allow leading whitespace skip it first.
    """
    if pos >= len(text) or text[pos] != "@":
        raise error(f"expected @string at offset {pos}")
    pos += 1
    out: List[str] = []
    while True:
        next_at = text.find("@", pos)
        if next_at == -1:
            raise error("unterminated @string")
        out.append(text[pos:next_at])
        if text[next_at + 1:next_at + 2] == "@":
            out.append("@")
            pos = next_at + 2
            continue
        return "".join(out), next_at + 1


def _format_script(script: EditScript) -> str:
    return "\n".join(cmd.serialize() for cmd in script)


def serialize_rcsfile(archive: RcsArchive) -> str:
    """Render an archive in the ,v shape."""
    revisions = archive.revisions()
    head = archive.head_revision or ""
    lines = [
        f"head\t{head};",
        "access;",
        "symbols;",
        "locks; strict;",
        f"comment\t{quote_at_string('# ')};",
    ]
    if archive.keyframe_interval:
        # Checkpoint spacing survives the round trip; the checkpoints
        # themselves are derived data and are rebuilt by the parser.
        # Emitted only when enabled, so reference archives serialize
        # byte-identically to the historical format.
        lines.append(f"keyframes\t{archive.keyframe_interval};")
    lines.append("")
    # Metadata paragraphs, newest first (RCS order).
    for info in reversed(revisions):
        lines.append(f"{info.number}")
        lines.append(f"date\t{info.date};\tauthor {info.author or 'aide'};\tstate Exp;")
        lines.append("branches;")
        lines.append("next\t;")
        lines.append("")
    lines.append("")
    lines.append("desc")
    lines.append(quote_at_string(archive.name))
    lines.append("")
    # Text sections, newest first: head whole, others as reverse deltas.
    for index in range(len(revisions) - 1, -1, -1):
        info = revisions[index]
        stored = archive._stored(info.number)
        lines.append("")
        lines.append(f"{info.number}")
        lines.append("log")
        lines.append(quote_at_string(info.log))
        lines.append("text")
        if stored.reverse_delta is None:
            lines.append(quote_at_string(archive.checkout(info.number)))
        else:
            lines.append(quote_at_string(_format_script(stored.reverse_delta)))
    return "\n".join(lines) + "\n"


class _Reader:
    """Tokenizing cursor over ,v text."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def read_string(self) -> str:
        """Read an @...@ string, un-doubling @@."""
        self.skip_ws()
        value, self.pos = read_at_string(self.text, self.pos)
        return value

    def skip_to_line_matching(self, pattern: re.Pattern) -> Optional[str]:
        """Advance past lines until one matches; return the match."""
        while self.pos < len(self.text):
            eol = self.text.find("\n", self.pos)
            if eol == -1:
                eol = len(self.text)
            line = self.text[self.pos:eol].strip()
            self.pos = eol + 1
            if pattern.fullmatch(line):
                return line
        return None


_REV_LINE = re.compile(r"\d+\.\d+")


def _parse_script(text: str) -> EditScript:
    """Parse a serialized diff -n script back into commands."""
    script: EditScript = []
    lines = text.split("\n")
    index = 0
    while index < len(lines):
        line = lines[index]
        index += 1
        if not line.strip():
            continue
        match = re.fullmatch(r"([ad])(\d+) (\d+)", line.strip())
        if not match:
            raise RcsParseError(f"bad edit command: {line!r}")
        kind, anchor, count = match.group(1), int(match.group(2)), int(match.group(3))
        if kind == "d":
            script.append(EditCommand("d", anchor, count))
        else:
            payload = tuple(lines[index:index + count])
            if len(payload) != count:
                raise RcsParseError("append command truncated")
            index += count
            script.append(EditCommand("a", anchor, count, payload))
    return script


def parse_rcsfile(text: str) -> RcsArchive:
    """Reconstruct an archive from ,v text.

    The parser is purpose-built for what :func:`serialize_rcsfile`
    emits (plus whitespace tolerance); it is not a general RCS reader.
    """
    reader = _Reader(text)

    # Admin header: head N.N;
    head_line = reader.skip_to_line_matching(re.compile(r"head\s+[\d.]+;|head\s*;"))
    if head_line is None:
        raise RcsParseError("missing head line")

    # Optional checkpoint spacing (absent in historical archives).
    keyframe_interval = 0
    keyframe_match = re.search(r"^keyframes\s+(\d+);$", text, re.MULTILINE)
    if keyframe_match:
        keyframe_interval = int(keyframe_match.group(1))

    # Revision metadata paragraphs.
    dates: Dict[str, int] = {}
    authors: Dict[str, str] = {}
    meta_re = re.compile(
        r"date\s+(\d+);\s*author ([^;]*);\s*state [^;]*;"
    )
    # Walk lines collecting "N.N" then its date line, until "desc".
    lines = text.split("\n")
    index = 0
    order_newest_first: List[str] = []
    while index < len(lines):
        stripped = lines[index].strip()
        if stripped == "desc":
            break
        if _REV_LINE.fullmatch(stripped):
            number = stripped
            if index + 1 < len(lines):
                match = meta_re.match(lines[index + 1].strip())
                if match:
                    dates[number] = int(match.group(1))
                    authors[number] = match.group(2).strip()
                    order_newest_first.append(number)
                    index += 2
                    continue
        index += 1
    if not order_newest_first and "desc" not in text:
        raise RcsParseError("no revisions and no desc section")

    # desc string gives the archive name.
    desc_pos = text.find("\ndesc")
    reader.pos = desc_pos + len("\ndesc") if desc_pos != -1 else 0
    name = reader.read_string() if desc_pos != -1 else ""

    archive = RcsArchive(name=name)
    if not order_newest_first:
        archive.keyframe_interval = keyframe_interval
        return archive

    # Text sections: for each revision number, a log string and a text
    # string, newest first.
    logs: Dict[str, str] = {}
    texts: Dict[str, str] = {}
    while True:
        line = reader.skip_to_line_matching(_REV_LINE)
        if line is None:
            break
        number = line
        marker = reader.skip_to_line_matching(re.compile(r"log"))
        if marker is None:
            raise RcsParseError(f"revision {number}: missing log")
        logs[number] = reader.read_string()
        marker = reader.skip_to_line_matching(re.compile(r"text"))
        if marker is None:
            raise RcsParseError(f"revision {number}: missing text")
        texts[number] = reader.read_string()

    head_number = order_newest_first[0]
    if head_number not in texts:
        raise RcsParseError("head revision has no text section")

    # Rebuild internal state directly (oldest first).
    oldest_first = list(reversed(order_newest_first))
    archive._head_lines = texts[head_number].split("\n")
    for number in oldest_first:
        info = RevisionInfo(
            number=number,
            date=dates.get(number, 0),
            author=authors.get(number, "aide"),
            log=logs.get(number, ""),
        )
        if number == head_number:
            info.stored_bytes = sum(len(l) + 1 for l in archive._head_lines)
            archive._revisions.append(
                _StoredRevision(info=info, reverse_delta=None)
            )
        else:
            delta = _parse_script(texts[number])
            info.stored_bytes = script_size(delta)
            archive._revisions.append(
                _StoredRevision(info=info, reverse_delta=delta)
            )
    archive._rebuild_lookup_state()
    if keyframe_interval:
        archive.set_keyframe_interval(keyframe_interval)
    return archive
