"""URL parsing, joining, and normalization (RFC 1738/1808 era).

AIDE handles ``http:`` and ``file:`` URLs (w3newer supports ``file:``
hotlist entries checked with a cheap ``stat``), resolves relative links
when rewriting snapshot pages with a ``BASE`` directive, and keys every
repository and cache on normalized URL strings.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

__all__ = ["Url", "parse_url", "join_url", "canonical_url"]

_URL_RE = re.compile(
    r"^(?:(?P<scheme>[a-zA-Z][a-zA-Z0-9+.\-]*):)?"
    r"(?://(?P<host>[^/:?#]*)(?::(?P<port>\d+))?)?"
    r"(?P<path>[^?#]*)"
    r"(?:\?(?P<query>[^#]*))?"
    r"(?:#(?P<fragment>.*))?$",
    re.DOTALL,
)

_DEFAULT_PORTS = {"http": 80, "https": 443, "gopher": 70, "ftp": 21}

#: Schemes whose URLs always carry an authority (``//host``).
_AUTHORITY_SCHEMES = ("http", "https", "ftp", "file")


@dataclass(frozen=True)
class Url:
    """A parsed URL.  Immutable; use :func:`join_url` to derive others."""

    scheme: str = ""
    host: str = ""
    port: Optional[int] = None
    path: str = ""
    query: Optional[str] = None
    fragment: Optional[str] = None

    @property
    def effective_port(self) -> Optional[int]:
        if self.port is not None:
            return self.port
        return _DEFAULT_PORTS.get(self.scheme)

    @property
    def request_path(self) -> str:
        """Path + query as sent in an HTTP request line."""
        path = self.path or "/"
        if self.query is not None:
            return f"{path}?{self.query}"
        return path

    @property
    def netloc(self) -> str:
        if self.port is not None and self.port != _DEFAULT_PORTS.get(self.scheme):
            return f"{self.host}:{self.port}"
        return self.host

    def normalized(self) -> "Url":
        """Canonical form: lowercased scheme/host, default port dropped,
        fragment dropped, and the path of a host-full URL (or a non-empty
        one under a scheme in ``_AUTHORITY_SCHEMES``) made absolute, so
        an empty path becomes "/".

        Fragments never reach the server, so two URLs differing only in
        fragment are the same page for tracking purposes.  Whitespace
        the dropped fragment leaves at the end goes too, as
        :func:`parse_url` would strip it: the string form of a
        normalized URL parses back to itself.
        """
        scheme = self.scheme.lower()
        host = self.host.lower()
        port = self.port
        if port is not None and port == _DEFAULT_PORTS.get(scheme):
            port = None
        path, query = self.path, self.query
        if query is not None:
            query = query.rstrip()
        else:
            path = path.rstrip()
        if ((host or (path and scheme in _AUTHORITY_SCHEMES))
                and not path.startswith("/")):
            path = "/" + path
        return Url(scheme=scheme, host=host, port=port, path=path,
                   query=query, fragment=None)

    def without_fragment(self) -> "Url":
        return replace(self, fragment=None)

    def __str__(self) -> str:
        out = ""
        if self.scheme:
            out += f"{self.scheme}:"
        # Keep an empty authority where dropping it would lose the port
        # or let a "//" path be read back as a host.
        if (self.host or self.port is not None
                or self.scheme in _AUTHORITY_SCHEMES
                or self.path.startswith("//")):
            out += f"//{self.netloc}"
        out += self.path
        if self.query is not None:
            out += f"?{self.query}"
        if self.fragment is not None:
            out += f"#{self.fragment}"
        return out


def parse_url(text: str) -> Url:
    """Parse a URL string.  Forgiving: anything matches (worst case it
    all lands in ``path``), mirroring how 1995 tools treated hotlist
    lines."""
    match = _URL_RE.match(text.strip())
    assert match is not None  # the pattern cannot fail
    parts = match.groupdict()
    return Url(
        scheme=(parts["scheme"] or "").lower(),
        host=(parts["host"] or "").lower(),
        port=int(parts["port"]) if parts["port"] else None,
        path=parts["path"] or "",
        query=parts["query"],
        fragment=parts["fragment"],
    )


@lru_cache(maxsize=1 << 15)
def canonical_url(text: str) -> str:
    """The key every repository and cache stores ``text`` under: the
    string form of its normalized URL.  Memoized (a crawl or a diff
    server canonicalizes the same URLs over and over), and a fixed
    point: ``canonical_url(canonical_url(u)) == canonical_url(u)``."""
    return str(parse_url(text).normalized())


def _merge_paths(base: Url, path: str) -> str:
    if not path:
        return base.path or "/"
    if path.startswith("/"):
        return path
    base_path = base.path or "/"
    directory = base_path.rsplit("/", 1)[0]
    return f"{directory}/{path}"


def _remove_dot_segments(path: str) -> str:
    if not path:
        return path
    absolute = path.startswith("/")
    segments = path.split("/")
    out = []
    for segment in segments:
        if segment == ".":
            continue
        if segment == "..":
            if out and out[-1] not in ("", ".."):
                out.pop()
            elif not absolute:
                out.append("..")
            continue
        out.append(segment)
    # Preserve a trailing slash when the last segment vanished.
    if path.endswith(("/.", "/..", "/")) and (not out or out[-1] != ""):
        out.append("")
    result = "/".join(out)
    if absolute and not result.startswith("/"):
        result = "/" + result
    return result


def join_url(base: Url, reference: str) -> Url:
    """Resolve ``reference`` against ``base`` (RFC 1808 semantics).

    This is what a browser does with relative ``HREF``s, and what the
    snapshot facility's ``BASE`` rewriting has to emulate.
    """
    ref = parse_url(reference)
    if ref.scheme:
        resolved = replace(ref, path=_remove_dot_segments(ref.path)).normalized()
        return replace(resolved, fragment=ref.fragment)
    if ref.host:
        # Network-path reference ("//host/path"): adopt base's scheme.
        resolved = Url(
            scheme=base.scheme,
            host=ref.host,
            port=ref.port,
            path=_remove_dot_segments(ref.path),
            query=ref.query,
        ).normalized()
        return replace(resolved, fragment=ref.fragment)
    if not ref.path and ref.query is None:
        # Fragment-only reference: same document.
        return replace(base, fragment=ref.fragment)
    merged = _remove_dot_segments(_merge_paths(base, ref.path))
    return Url(
        scheme=base.scheme,
        host=base.host,
        port=base.port,
        path=merged,
        query=ref.query,
        fragment=ref.fragment,
    )
