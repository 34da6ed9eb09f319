"""Line-level edit scripts: the machinery under RCS deltas and rcsdiff.

RCS (Tichy 1985) stores each non-head revision as a *reverse delta*: an
edit script that, applied to the newer text, reconstructs the older one.
The scripts use the classic ``diff -n`` command set — ``aN M`` (append M
lines after line N) and ``dN M`` (delete M lines starting at line N) —
which this module reproduces, along with a unified-diff renderer for the
``rcsdiff`` CGI of Section 8.1.

The snapshot journal stores the *forward* script of each new revision
(previous revision → this one).  :func:`invert_edit_script` derives it
from the reverse delta a check-in already computed, in time
proportional to the script, not to the page.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Sequence, Tuple, Type

from .huntmcilroy import hunt_mcilroy_pairs, hunt_mcilroy_window

__all__ = [
    "EditCommand",
    "EditScript",
    "make_edit_script",
    "apply_edit_script",
    "invert_edit_script",
    "deleted_lines",
    "format_edit_script",
    "parse_edit_script",
    "script_size",
    "unified_diff",
]


@dataclass(frozen=True)
class EditCommand:
    """One ``diff -n`` command.

    ``kind`` is ``'a'`` (append ``len(lines)`` lines after source line
    ``line``, 1-based, 0 meaning "before everything") or ``'d'`` (delete
    ``count`` lines starting at source line ``line``, 1-based).
    """

    kind: str  # 'a' or 'd'
    line: int
    count: int
    lines: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("a", "d"):
            raise ValueError(f"bad edit command kind: {self.kind!r}")
        if self.kind == "a" and len(self.lines) != self.count:
            raise ValueError("append command count disagrees with payload")
        if self.kind == "d" and self.lines:
            raise ValueError("delete command carries no payload")

    def serialize(self) -> str:
        """Render in the RCS delta text format."""
        head = f"{self.kind}{self.line} {self.count}"
        if self.kind == "a":
            return "\n".join([head, *self.lines])
        return head


EditScript = List[EditCommand]


def make_edit_script(old: Sequence[str], new: Sequence[str]) -> EditScript:
    """Compute the edit script turning ``old`` into ``new``.

    Commands are emitted top-to-bottom and reference *original* line
    numbers of ``old``, matching the RCS convention (so they must be
    applied with the offset bookkeeping in :func:`apply_edit_script`).
    Only the window between the common prefix and suffix is matched:
    the affixes hold no command.
    """
    prefix, suffix, pairs = hunt_mcilroy_window(old, new)
    pairs.append((len(old) - suffix, len(new) - suffix))
    script: EditScript = []
    ai = bi = prefix
    for pi, pj in pairs:
        deleted = pi - ai
        if deleted:
            script.append(EditCommand("d", ai + 1, deleted))
        if pj > bi:
            # Insert after the last surviving old line, i.e. after
            # original line ``pi`` once the deletions above are applied.
            script.append(EditCommand("a", pi, pj - bi, tuple(new[bi:pj])))
        ai = pi + 1
        bi = pj + 1
    return script


def apply_edit_script(old: Sequence[str], script: EditScript) -> List[str]:
    """Apply an edit script produced by :func:`make_edit_script`.

    Raises :class:`ValueError` if a command references lines outside the
    source — corrupted archives must fail loudly, not reconstruct junk.
    """
    result: List[str] = []
    cursor = 0  # index into ``old`` of the next uncopied line
    for cmd in script:
        if cmd.kind == "d":
            anchor = cmd.line - 1
            if anchor < cursor or anchor + cmd.count > len(old):
                raise ValueError(f"delete out of range: {cmd}")
            result.extend(old[cursor:anchor])
            cursor = anchor + cmd.count
        else:
            anchor = cmd.line  # append AFTER this 1-based line
            if anchor < cursor or anchor > len(old):
                raise ValueError(f"append out of range: {cmd}")
            result.extend(old[cursor:anchor])
            cursor = anchor
            result.extend(cmd.lines)
    result.extend(old[cursor:])
    return result


def invert_edit_script(script: EditScript,
                       source: Sequence[str]) -> EditScript:
    """The script turning ``apply_edit_script(source, script)`` back
    into ``source``, in the command order :func:`make_edit_script`
    emits.

    A deletion of ``source`` lines becomes an append of those lines, and
    an append becomes a deletion of the lines it added, so the cost is
    the script's commands plus the lines it deletes; ``source`` is only
    sliced there.  ``shift`` is the result's line number minus
    ``source``'s over the lines both keep.
    """
    out: EditScript = []
    shift = 0
    for cmd in script:
        if cmd.kind == "d":
            start = cmd.line - 1
            out.append(EditCommand("a", start + shift, cmd.count,
                                   tuple(source[start:start + cmd.count])))
            shift -= cmd.count
            continue
        delete = EditCommand("d", cmd.line + shift + 1, cmd.count)
        shift += cmd.count
        last = out[-1] if out else None
        if (last is not None and last.kind == "a"
                and last.line == delete.line - 1):
            # One changed stretch: delete first, then append after the
            # last deleted line.
            out[-1] = delete
            out.append(EditCommand("a", last.line + cmd.count, last.count,
                                   last.lines))
        else:
            out.append(delete)
    return out


def deleted_lines(source: Sequence[str], script: EditScript) -> List[str]:
    """The lines of ``source`` that ``script`` deletes, in order."""
    return [line for cmd in script if cmd.kind == "d"
            for line in source[cmd.line - 1:cmd.line - 1 + cmd.count]]


def format_edit_script(script: EditScript) -> str:
    """``script`` in the RCS delta text format."""
    return "\n".join(cmd.serialize() for cmd in script)


_COMMAND = re.compile(r"([ad])(\d+) (\d+)")


def parse_edit_script(
    text: str, error: Type[Exception] = ValueError
) -> EditScript:
    """Parse :func:`format_edit_script` output back into commands;
    raises ``error`` on a malformed command or a cut payload."""
    script: EditScript = []
    lines = text.split("\n")
    index = 0
    while index < len(lines):
        line = lines[index]
        index += 1
        if not line.strip():
            continue
        match = _COMMAND.fullmatch(line.strip())
        if not match:
            raise error(f"bad edit command: {line!r}")
        kind, anchor, count = match.group(1), int(match.group(2)), int(match.group(3))
        if kind == "d":
            script.append(EditCommand("d", anchor, count))
        else:
            payload = tuple(lines[index:index + count])
            if len(payload) != count:
                raise error("append command truncated")
            index += count
            script.append(EditCommand("a", anchor, count, payload))
    return script


def script_size(script: EditScript) -> int:
    """Bytes needed to store a script in the RCS text format.

    This is the quantity the Section 7 storage experiment measures:
    per-revision archive growth is (roughly) the serialized script size.
    """
    return sum(len(cmd.serialize()) + 1 for cmd in script)


def unified_diff(
    old: Sequence[str],
    new: Sequence[str],
    old_label: str = "old",
    new_label: str = "new",
    context: int = 3,
) -> str:
    """A unified diff of two line sequences (for the rcsdiff CGI).

    Matches the familiar ``diff -u`` presentation: ``---``/``+++``
    headers, ``@@`` hunk markers, prefixed body lines.
    """
    pairs = hunt_mcilroy_pairs(list(old), list(new))

    # Build a flat op list: (' ', i, j) / ('-', i, -1) / ('+', -1, j)
    ops: List[Tuple[str, int, int]] = []
    ai = bi = 0
    for i, j in pairs + [(len(old), len(new))]:
        while ai < i:
            ops.append(("-", ai, -1))
            ai += 1
        while bi < j:
            ops.append(("+", -1, bi))
            bi += 1
        if i < len(old):
            ops.append((" ", i, j))
            ai, bi = i + 1, j + 1

    if all(op[0] == " " for op in ops):
        return ""

    lines = [f"--- {old_label}", f"+++ {new_label}"]
    # Group ops into hunks with ``context`` lines of surrounding match.
    hunk_ranges: List[Tuple[int, int]] = []
    idx = 0
    while idx < len(ops):
        if ops[idx][0] == " ":
            idx += 1
            continue
        start = idx
        end = idx
        scan = idx
        gap = 0
        while scan < len(ops) and gap <= 2 * context:
            if ops[scan][0] != " ":
                end = scan
                gap = 0
            else:
                gap += 1
            scan += 1
        hunk_ranges.append((max(0, start - context), min(len(ops), end + context + 1)))
        idx = end + 1

    # Merge overlapping hunks.
    merged: List[Tuple[int, int]] = []
    for lo, hi in hunk_ranges:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        else:
            merged.append((lo, hi))

    for lo, hi in merged:
        chunk = ops[lo:hi]
        old_start = next((i for op, i, _ in chunk if op in (" ", "-")), 0) + 1
        new_start = next((j for op, _, j in chunk if op in (" ", "+")), 0) + 1
        old_count = sum(1 for op, _, _ in chunk if op in (" ", "-"))
        new_count = sum(1 for op, _, _ in chunk if op in (" ", "+"))
        lines.append(f"@@ -{old_start},{old_count} +{new_start},{new_count} @@")
        for op, i, j in chunk:
            if op == " ":
                lines.append(" " + old[i])
            elif op == "-":
                lines.append("-" + old[i])
            else:
                lines.append("+" + new[j])
    return "\n".join(lines) + "\n"
