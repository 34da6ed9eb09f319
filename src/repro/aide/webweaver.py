"""WebWeaver: the AT&T WikiWikiWeb clone (paper Section 1).

"Within AT&T, a clone of WikiWikiWeb, called WebWeaver, stores its own
version archive and uses HtmlDiff to show users the differences from
earlier versions of a page...  There is a RecentChanges page that sorts
documents by modification date."

The wiki stores pages under WikiNames, keeps every edit in an RCS
archive, renders WikiName links, exposes RecentChanges, and serves
HtmlDiff between any pair of revisions — including the paper's
"natural and simple extension": per-user differences ("show me what
changed since *I* last read this page").
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.htmldiff.api import HtmlDiffResult, html_diff
from ..core.htmldiff.options import HtmlDiffOptions
from ..html.entities import encode_entities
from ..rcs.archive import RcsArchive, UnknownRevision
from ..simclock import SimClock, format_timestamp

__all__ = ["WebWeaver", "WikiPageInfo"]

_WIKINAME_RE = re.compile(r"\b([A-Z][a-z0-9]+(?:[A-Z][a-z0-9]+)+)\b")


class WikiError(Exception):
    """Page or revision not found."""


@dataclass
class WikiPageInfo:
    name: str
    revision: str
    modified: int
    author: str


class WebWeaver:
    """A wiki whose every page is an RCS archive."""

    def __init__(self, clock: SimClock,
                 diff_options: Optional[HtmlDiffOptions] = None) -> None:
        self.clock = clock
        self.diff_options = diff_options
        self._archives: Dict[str, RcsArchive] = {}
        #: user → page → revision last read (the per-user extension).
        self._read_marks: Dict[str, Dict[str, str]] = {}

    # ------------------------------------------------------------------
    # Editing
    # ------------------------------------------------------------------
    def edit(self, name: str, content: str, author: str = "anonymous") -> str:
        """Save a page edit; returns the revision number.

        WikiWikiWeb semantics: "multiple users... edit the content of
        documents dynamically", content may change anywhere on the page.
        """
        if not _WIKINAME_RE.fullmatch(name):
            raise WikiError(f"not a WikiName: {name!r}")
        archive = self._archives.get(name)
        if archive is None:
            archive = RcsArchive(name=name)
            self._archives[name] = archive
        revision, _changed = archive.checkin(
            content, date=self.clock.now, author=author, log=f"edit by {author}"
        )
        return revision

    def exists(self, name: str) -> bool:
        return name in self._archives

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def raw(self, name: str, revision: Optional[str] = None) -> str:
        archive = self._archives.get(name)
        if archive is None:
            raise WikiError(f"no such page: {name}")
        try:
            return archive.checkout(revision)
        except UnknownRevision as exc:
            raise WikiError(f"no revision {exc} of {name}")

    def render(self, name: str, reader: Optional[str] = None) -> str:
        """The page as HTML: WikiNames become links (existing pages) or
        create-links (missing ones); reading records the reader's mark."""
        content = self.raw(name)
        rendered = _WIKINAME_RE.sub(self._linkify, content)
        info = self.info(name)
        if reader:
            self.mark_read(reader, name)
        return (
            f"<HTML><HEAD><TITLE>{name}</TITLE></HEAD><BODY>"
            f"<H1>{name}</H1>{rendered}<HR>"
            f"<P><I>Revision {info.revision}, "
            f"{format_timestamp(info.modified)}, by "
            f"{encode_entities(info.author)}.</I> "
            f'<A HREF="/wiki/diff?page={name}">[Changes]</A> '
            f'<A HREF="/wiki/RecentChanges">[RecentChanges]</A></P>'
            "</BODY></HTML>"
        )

    def _linkify(self, match: re.Match) -> str:
        name = match.group(1)
        if name in self._archives:
            return f'<A HREF="/wiki/{name}">{name}</A>'
        return f'{name}<A HREF="/wiki/edit?page={name}">?</A>'

    def info(self, name: str) -> WikiPageInfo:
        archive = self._archives.get(name)
        if archive is None or not archive.revisions():
            raise WikiError(f"no such page: {name}")
        head = archive.revisions()[-1]
        return WikiPageInfo(
            name=name, revision=head.number, modified=head.date,
            author=head.author,
        )

    # ------------------------------------------------------------------
    # RecentChanges
    # ------------------------------------------------------------------
    def recent_changes(self, since: Optional[int] = None) -> List[WikiPageInfo]:
        """Pages sorted by modification date, newest first."""
        infos = [self.info(name) for name in self._archives]
        if since is not None:
            infos = [info for info in infos if info.modified >= since]
        return sorted(infos, key=lambda info: (-info.modified, info.name))

    def recent_changes_page(self, since: Optional[int] = None) -> str:
        rows = "".join(
            f'<LI><A HREF="/wiki/{info.name}">{info.name}</A> &#183; '
            f"{format_timestamp(info.modified)} &#183; "
            f"{encode_entities(info.author)} "
            f'<A HREF="/wiki/diff?page={info.name}">[Diff]</A>'
            for info in self.recent_changes(since)
        )
        return (
            "<HTML><HEAD><TITLE>RecentChanges</TITLE></HEAD><BODY>"
            f"<H1>RecentChanges</H1><UL>{rows or '<LI>(no pages)'}</UL>"
            "</BODY></HTML>"
        )

    # ------------------------------------------------------------------
    # Differences
    # ------------------------------------------------------------------
    def diff(self, name: str, rev_old: Optional[str] = None,
             rev_new: Optional[str] = None) -> HtmlDiffResult:
        """HtmlDiff between two revisions (previous → head by default)."""
        archive = self._archives.get(name)
        if archive is None:
            raise WikiError(f"no such page: {name}")
        revisions = [info.number for info in archive.revisions()]
        if rev_new is None:
            rev_new = revisions[-1]
        if rev_old is None:
            index = revisions.index(rev_new)
            rev_old = revisions[index - 1] if index > 0 else rev_new
        old = self.raw(name, rev_old)
        new = self.raw(name, rev_new)
        return html_diff(old, new, options=self.diff_options)

    def diff_for_reader(self, reader: str, name: str) -> HtmlDiffResult:
        """The per-user extension: changes since this reader last read.

        "While the differences are not currently customized for each
        user, that would be a natural and simple extension."
        """
        marks = self._read_marks.get(reader, {})
        rev_old = marks.get(name)
        if rev_old is None:
            rev_old = self._archives[name].revisions()[0].number \
                if name in self._archives else None
        return self.diff(name, rev_old=rev_old)

    def mark_read(self, reader: str, name: str) -> None:
        info = self.info(name)
        self._read_marks.setdefault(reader, {})[name] = info.revision

    def unseen_changes(self, reader: str) -> List[WikiPageInfo]:
        """RecentChanges personalized: pages changed past the reader's
        mark (the integration the paper suggests for the AIDE report)."""
        marks = self._read_marks.get(reader, {})
        out = []
        for info in self.recent_changes():
            if marks.get(info.name) != info.revision:
                out.append(info)
        return out

    # ------------------------------------------------------------------
    # HTTP face
    # ------------------------------------------------------------------
    def mount(self, server) -> None:
        """Serve the wiki from an :class:`~repro.web.server.HttpServer`.

        Routes (all CGI, WikiWikiWeb style):

        * ``/wiki/view?page=Name[&reader=who]`` — rendered page;
        * ``/wiki/RecentChanges`` — the sorted change list;
        * ``/wiki/diff?page=Name[&r1=..&r2=..][&reader=who]`` — HtmlDiff
          (reader form: changes since that reader last read the page);
        * ``/wiki/edit`` (POST ``page=..&content=..&author=..``).
        """
        server.register_cgi("/wiki/view", self._cgi_view)
        server.register_cgi("/wiki/RecentChanges", self._cgi_recent)
        server.register_cgi("/wiki/diff", self._cgi_diff)
        server.register_cgi("/wiki/edit", self._cgi_edit)

    def _cgi_view(self, request, now):
        from ..web.cgi import parse_query_string
        from ..web.http import make_response

        params = parse_query_string(request.url.query)
        name = params.get("page", "")
        try:
            return make_response(
                200, self.render(name, reader=params.get("reader") or None)
            )
        except WikiError as exc:
            return make_response(404, f"<P>{encode_entities(str(exc))}</P>")

    def _cgi_recent(self, request, now):
        from ..web.http import make_response

        return make_response(200, self.recent_changes_page())

    def _cgi_diff(self, request, now):
        from ..web.cgi import parse_query_string
        from ..web.http import make_response

        params = parse_query_string(request.url.query)
        name = params.get("page", "")
        try:
            reader = params.get("reader")
            if reader:
                result = self.diff_for_reader(reader, name)
            else:
                result = self.diff(name, rev_old=params.get("r1"),
                                   rev_new=params.get("r2"))
            return make_response(200, result.html)
        except (WikiError, KeyError) as exc:
            return make_response(404, f"<P>{encode_entities(str(exc))}</P>")

    def _cgi_edit(self, request, now):
        from ..web.cgi import parse_query_string
        from ..web.http import make_response

        if request.method != "POST":
            return make_response(405, "<P>edit requires POST</P>")
        params = parse_query_string(request.body)
        name = params.get("page", "")
        content = params.get("content", "")
        author = params.get("author", "anonymous")
        try:
            revision = self.edit(name, content, author=author)
        except WikiError as exc:
            return make_response(400, f"<P>{encode_entities(str(exc))}</P>")
        return make_response(
            200, f'<P>Saved {name} as revision {revision}. '
                 f'<A HREF="/wiki/view?page={name}">View</A></P>'
        )


WebWeaver.WikiError = WikiError
__all__.append("WikiError")
