"""Web-aware and version-aware comparison (paper Section 5.3).

"Currently, HtmlDiff is neither 'version-aware' nor 'web-aware'...  if
the contents of an image file are changed but the URL of the file does
not, then the URL in the page will not be flagged as changed.  To
support such comparison would require some sort of versioning of
referenced entities...  A cheaper alternative would be to store a
checksum of each entity and use the checksums to determine if something
has changed.  We are exploring how to efficiently perform such
'smarter' comparisons."  And from 8.3: "HtmlDiff could in turn be
invoked recursively".

This module implements the exploration:

* :class:`EntityChecksumStore` — the "cheaper alternative": one
  checksum per referenced entity, no full entity versioning;
* :class:`WebAwareDiffer` — runs ordinary HtmlDiff, then (a) checks
  every image whose markup did NOT change to see whether the bytes
  behind the unchanged URL did, and (b) recursively diffs referenced
  pages that live in a snapshot store, down to a depth limit.

The result extends the merged page with an addendum section listing
entity changes and nested page changes, each a link target.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ...html.entities import encode_entities
from ...html.lexer import Tag, tokenize_html
from ...web.client import UserAgent
from ...web.http import NetworkError
from ...web.url import canonical_url, join_url, parse_url
from .api import HtmlDiffResult, html_diff
from .options import HtmlDiffOptions

__all__ = ["EntityChecksumStore", "EntityChange", "WebAwareDiffer",
           "WebAwareResult"]


def _entity_checksum(body: str) -> str:
    return hashlib.md5(body.encode("utf-8", "replace")).hexdigest()


class EntityChecksumStore:
    """URL → checksum of the referenced entity's last-seen content.

    "Full versioning of all entities... would dramatically increase
    storage requirements" — this store keeps 32 bytes per entity.
    """

    def __init__(self) -> None:
        self._checksums: Dict[str, str] = {}

    def update(self, url: str, body: str) -> bool:
        """Record the entity's current content; True when it changed
        relative to the previously stored checksum."""
        key = canonical_url(url)
        checksum = _entity_checksum(body)
        previous = self._checksums.get(key)
        self._checksums[key] = checksum
        return previous is not None and previous != checksum

    def known(self, url: str) -> bool:
        return canonical_url(url) in self._checksums

    def __len__(self) -> int:
        return len(self._checksums)


@dataclass
class EntityChange:
    """A referenced entity whose bytes changed behind a stable URL."""

    url: str
    kind: str  # "image" or "page"
    detail: str = ""


@dataclass
class WebAwareResult:
    """Ordinary HtmlDiff output plus the web-aware findings."""

    page: HtmlDiffResult
    entity_changes: List[EntityChange] = field(default_factory=list)
    nested: Dict[str, HtmlDiffResult] = field(default_factory=dict)
    html: str = ""

    @property
    def total_changes(self) -> int:
        nested_changed = sum(
            1 for result in self.nested.values() if not result.identical
        )
        return (self.page.difference_count + len(self.entity_changes)
                + nested_changed)


def _image_urls(html: str, base_url: str) -> List[str]:
    base = parse_url(base_url).normalized()
    seen: Set[str] = set()
    out: List[str] = []
    for node in tokenize_html(html):
        if isinstance(node, Tag) and node.name == "IMG" and not node.closing:
            src = node.attr("SRC")
            if not src:
                continue
            resolved = str(join_url(base, src).normalized())
            if resolved not in seen:
                seen.add(resolved)
                out.append(resolved)
    return out


def _link_urls(html: str, base_url: str) -> List[str]:
    base = parse_url(base_url).normalized()
    seen: Set[str] = set()
    out: List[str] = []
    for node in tokenize_html(html):
        if isinstance(node, Tag) and node.name == "A" and not node.closing:
            href = node.attr("HREF")
            if not href:
                continue
            resolved = join_url(base, href).normalized()
            if resolved.scheme != "http":
                continue
            text = str(resolved)
            if text not in seen:
                seen.add(text)
                out.append(text)
    return out


class WebAwareDiffer:
    """HtmlDiff plus entity checksums plus recursive page diffs."""

    def __init__(
        self,
        agent: UserAgent,
        snapshot_store=None,
        options: Optional[HtmlDiffOptions] = None,
        max_depth: int = 1,
        entity_store: Optional[EntityChecksumStore] = None,
    ) -> None:
        self.agent = agent
        self.snapshot_store = snapshot_store
        self.options = options
        self.max_depth = max_depth
        self.entities = entity_store or EntityChecksumStore()
        self.entity_fetches = 0

    # ------------------------------------------------------------------
    def prime_entities(self, html: str, base_url: str) -> int:
        """Record checksums for every entity a page references.

        Call when a page is first snapshotted, so later diffs have a
        baseline.  Returns the number of entities recorded.
        """
        recorded = 0
        for url in _image_urls(html, base_url):
            body = self._fetch_quiet(url)
            if body is not None:
                self.entities.update(url, body)
                recorded += 1
        return recorded

    def _fetch_quiet(self, url: str) -> Optional[str]:
        try:
            result = self.agent.get(url)
        except NetworkError:
            return None
        if not result.response.ok:
            return None
        self.entity_fetches += 1
        return result.response.body

    # ------------------------------------------------------------------
    def diff(
        self,
        old_html: str,
        new_html: str,
        base_url: str,
        _depth: int = 0,
    ) -> WebAwareResult:
        """Compare two page versions, then look *through* the page."""
        page_result = html_diff(old_html, new_html, options=self.options)
        result = WebAwareResult(page=page_result)

        # (a) entity checksums: images referenced by BOTH versions under
        # the same URL — the case plain HtmlDiff cannot see.
        old_images = set(_image_urls(old_html, base_url))
        for url in _image_urls(new_html, base_url):
            if url not in old_images:
                continue  # markup changed; plain HtmlDiff already flags it
            body = self._fetch_quiet(url)
            if body is None:
                continue
            if self.entities.update(url, body):
                result.entity_changes.append(
                    EntityChange(url=url, kind="image",
                                 detail="content changed, URL unchanged")
                )

        # (b) recursion: referenced pages with history in the snapshot
        # store get their own HtmlDiff, one level down by default.
        if self.snapshot_store is not None and _depth < self.max_depth:
            old_links = set(_link_urls(old_html, base_url))
            for url in _link_urls(new_html, base_url):
                if url not in old_links:
                    continue
                archive = self.snapshot_store.archives.get(url)
                if archive is None or archive.revision_count < 2:
                    continue
                revisions = archive.revisions()
                sub_old = archive.checkout(revisions[-2].number)
                sub_new = archive.checkout(revisions[-1].number)
                result.nested[url] = html_diff(
                    sub_old, sub_new, options=self.options
                )

        result.html = self._render(result, base_url)
        return result

    # ------------------------------------------------------------------
    def _render(self, result: WebAwareResult, base_url: str) -> str:
        """The merged page plus the web-aware addendum."""
        addendum_rows: List[str] = []
        for change in result.entity_changes:
            href = encode_entities(change.url, quote=True)
            addendum_rows.append(
                f'<LI><IMG SRC="{href}" ALT="[image]" HEIGHT=24> '
                f'<A HREF="{href}">{encode_entities(change.url)}</A> '
                f"&#183; {encode_entities(change.detail)}"
            )
        for url, nested in result.nested.items():
            if nested.identical:
                continue
            noun = ("difference" if nested.difference_count == 1
                    else "differences")
            addendum_rows.append(
                f'<LI><A HREF="{encode_entities(url, quote=True)}">'
                f"{encode_entities(url)}</A> &#183; "
                f"referenced page changed "
                f"({nested.difference_count} {noun})"
            )
        if not addendum_rows:
            return result.page.html
        addendum = (
            "\n<HR><H2>Changes beyond this page</H2>"
            f"<UL>{''.join(addendum_rows)}</UL>"
        )
        return result.page.html + addendum
