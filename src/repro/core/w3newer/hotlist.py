"""Hotlist (bookmark) parsing.

w3newer reads "the URLs of pages of interest to a user... saved in a
'hotlist' (known as a bookmark file in Netscape)".  Both 1995 formats
are parsed:

* Netscape bookmarks: an HTML outline of ``<DT><A HREF="..."
  ADD_DATE="...">Title</A>`` entries (folders via ``<DL>`` nesting);
* NCSA Mosaic hotlists: a two-line-per-entry text format
  (``url date`` then the title).

Plus a plain-lines format for tests and scripting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from ...html.entities import decode_entities, encode_entities
from ...html.lexer import Tag, Text, tokenize_html

__all__ = ["HotlistEntry", "Hotlist"]


@dataclass(frozen=True)
class HotlistEntry:
    """One bookmarked URL."""

    url: str
    title: str = ""
    added: Optional[int] = None
    folder: str = ""

    def display_title(self) -> str:
        return self.title or self.url


@dataclass
class Hotlist:
    """An ordered collection of bookmarks."""

    entries: List[HotlistEntry] = field(default_factory=list)

    def __iter__(self) -> Iterator[HotlistEntry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def urls(self) -> List[str]:
        return [entry.url for entry in self.entries]

    def add(self, url: str, title: str = "", added: Optional[int] = None,
            folder: str = "") -> HotlistEntry:
        entry = HotlistEntry(url=url, title=title, added=added, folder=folder)
        self.entries.append(entry)
        return entry

    # ------------------------------------------------------------------
    # Parsers
    # ------------------------------------------------------------------
    @classmethod
    def from_netscape_html(cls, source: str) -> "Hotlist":
        """Parse a Netscape bookmark file.

        Folder titles come from ``<H3>`` headers; nesting flattens into
        a ``/``-joined folder path.  Malformed files never raise — any
        ``<A HREF>`` found becomes an entry.
        """
        hotlist = cls()
        folder_stack: List[str] = []
        pending_header = False
        header_words: List[str] = []
        current_anchor: Optional[Tag] = None
        anchor_words: List[str] = []

        def _flush_anchor() -> None:
            nonlocal current_anchor, anchor_words
            if current_anchor is not None:
                href = decode_entities(current_anchor.attr("HREF") or "")
                if href:
                    added_raw = current_anchor.attr("ADD_DATE")
                    try:
                        added = int(added_raw) if added_raw else None
                    except ValueError:
                        added = None
                    hotlist.add(
                        url=href,
                        title=" ".join(anchor_words).strip(),
                        added=added,
                        folder="/".join(folder_stack),
                    )
            current_anchor = None
            anchor_words = []

        for node in tokenize_html(source):
            if isinstance(node, Tag):
                name = node.name
                if name == "A" and not node.closing:
                    current_anchor = node
                    anchor_words = []
                elif name == "A" and node.closing:
                    _flush_anchor()
                elif name == "H3":
                    if node.closing:
                        folder_stack.append(" ".join(header_words).strip())
                        pending_header = False
                    else:
                        pending_header = True
                        header_words = []
                elif name == "DL" and node.closing:
                    if folder_stack:
                        folder_stack.pop()
            elif isinstance(node, Text):
                words = decode_entities(node.data).split()
                if current_anchor is not None:
                    anchor_words.extend(words)
                elif pending_header:
                    header_words.extend(words)
        _flush_anchor()
        return hotlist

    @classmethod
    def from_mosaic(cls, source: str) -> "Hotlist":
        """Parse an NCSA Mosaic hotlist.

        Format: a ``ncsa-xmosaic-hotlist-format-1`` header line, a list
        title line, then pairs of lines — ``<url> <date...>`` followed
        by the entry's title.
        """
        lines = source.splitlines()
        hotlist = cls()
        body = lines
        if body and body[0].startswith("ncsa-xmosaic-hotlist-format"):
            body = body[1:]
        if body:
            body = body[1:]  # the list's own title
        index = 0
        while index + 1 < len(body):
            url_line = body[index].strip()
            title = body[index + 1].strip()
            index += 2
            if not url_line:
                continue
            url = url_line.split()[0]
            hotlist.add(url=url, title=title)
        return hotlist

    @classmethod
    def from_lines(cls, source: str) -> "Hotlist":
        """One URL per line, optional title after whitespace."""
        hotlist = cls()
        for line in source.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 1)
            hotlist.add(url=parts[0], title=parts[1] if len(parts) > 1 else "")
        return hotlist

    # ------------------------------------------------------------------
    def to_netscape_html(self, title: str = "Bookmarks") -> str:
        """Serialize back to a Netscape bookmark file (round-trippable
        for flat lists).  URLs and titles are entity-escaped, so a
        hostile bookmark cannot inject markup into the file."""
        items = []
        for entry in self.entries:
            add_date = f' ADD_DATE="{entry.added}"' if entry.added is not None else ""
            items.append(
                f'<DT><A HREF="{encode_entities(entry.url, quote=True)}"'
                f"{add_date}>{encode_entities(entry.display_title())}</A>"
            )
        body = "\n".join(items)
        title = encode_entities(title)
        return (
            "<!DOCTYPE NETSCAPE-Bookmark-file-1>\n"
            f"<TITLE>{title}</TITLE>\n<H1>{title}</H1>\n<DL><P>\n"
            f"{body}\n</DL><P>\n"
        )
