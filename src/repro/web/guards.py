"""Resource-bounded ingest guards for hostile web content.

The rest of ``repro.web`` models the 1995 network being *unreliable*;
this module models it being *adversarial*.  A tracked page can be a
truncated binary blob, a mislabeled charset, a megabyte of nested
``<b>`` tags, or a tiny compressed body that expands a thousandfold.
Every ingest path (w3newer checksum fetches, snapshot check-ins, the
diff server) funnels bytes through a :class:`ContentGuard`, which
either returns the decoded body unchanged — benign input is
byte-identical with guards on or off — or raises a
:class:`ContentGuardError` naming the tripped guard.

The error taxonomy deliberately parallels ``NetworkError``: transport
failures say "the network misbehaved", guard failures say "the content
misbehaved", and both are per-URL verdicts the caller can record
without aborting a run.

The HTML-side budgets (token count, nesting depth, attributes per tag,
diff work) live here too, as :class:`HtmlBudget` — a small mutable
meter the lexer, repairer, and differ call into.  Keeping the meter in
this module means ``repro.html`` never imports ``repro.web``; it only
holds an opaque object with ``charge_token()``-style methods.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "ContentGuardError",
    "BodyTooLarge",
    "ExpansionBomb",
    "HeaderBomb",
    "CharsetUndecodable",
    "BinaryContent",
    "MarkupDepthExceeded",
    "TokenBomb",
    "AttributeBomb",
    "EntityBomb",
    "GuardLimits",
    "HtmlBudget",
    "ContentGuard",
    "GUARD_SLUGS",
    "RLE_ENCODING",
    "rle_compress",
    "rle_decompress",
]


# ----------------------------------------------------------------------
# Error taxonomy
# ----------------------------------------------------------------------

class ContentGuardError(Exception):
    """Base of all content-guard verdicts (parallel to NetworkError).

    Each subclass carries a stable ``guard`` slug used for metrics
    (``guards.trips.<slug>``), quarantine journal entries, and report
    rendering.  The message is deterministic — no addresses, no clock.
    """

    guard = "content"

    def __init__(self, url: str, detail: str) -> None:
        super().__init__(f"{self.guard}: {detail}")
        self.url = str(url)
        self.detail = detail


class BodyTooLarge(ContentGuardError):
    """Decoded body exceeds the byte cap."""

    guard = "body-too-large"


class ExpansionBomb(ContentGuardError):
    """Compressed body expands past the ratio cap (a zip bomb)."""

    guard = "expansion-bomb"


class HeaderBomb(ContentGuardError):
    """Too many headers, or headers too large in aggregate."""

    guard = "header-bomb"


class CharsetUndecodable(ContentGuardError):
    """Declared charset (or transfer encoding) cannot be decoded
    deterministically and the body is not plain ASCII."""

    guard = "charset"


class BinaryContent(ContentGuardError):
    """Body is binary masquerading as text (NULs / control bytes)."""

    guard = "binary-content"


class MarkupDepthExceeded(ContentGuardError):
    """Element nesting exceeds the depth cap (a tag bomb)."""

    guard = "nesting-depth"


class TokenBomb(ContentGuardError):
    """Markup token count exceeds the cap."""

    guard = "token-bomb"


class AttributeBomb(ContentGuardError):
    """A single tag carries more attributes than the cap."""

    guard = "attr-bomb"


class EntityBomb(ContentGuardError):
    """Entity-reference count exceeds the cap."""

    guard = "entity-bomb"


#: Every quarantining guard class, in taxonomy order.  The hostile
#: benchmark asserts each of these trips at least once over its corpus.
GUARD_SLUGS: Tuple[str, ...] = (
    BodyTooLarge.guard,
    ExpansionBomb.guard,
    HeaderBomb.guard,
    CharsetUndecodable.guard,
    BinaryContent.guard,
    MarkupDepthExceeded.guard,
    TokenBomb.guard,
    AttributeBomb.guard,
    EntityBomb.guard,
)


# ----------------------------------------------------------------------
# Simulated transfer coding
# ----------------------------------------------------------------------

#: The one Content-Encoding the simulated web speaks: a line-oriented
#: run-length coding.  Each line is ``N*payload`` (payload repeated N
#: times) or a verbatim line.  Trivial to decode incrementally, which
#: is the point — a zip bomb must be caught *while* expanding, not
#: after materializing gigabytes.
RLE_ENCODING = "x-aide-rle"

_MAX_RUN_DIGITS = 12


def rle_compress(text: str) -> str:
    """Encode ``text`` line-by-line, collapsing runs of equal lines."""
    out: List[str] = []
    lines = text.split("\n")
    i = 0
    while i < len(lines):
        j = i
        while j < len(lines) and lines[j] == lines[i]:
            j += 1
        run = j - i
        line = lines[i]
        if run > 1 and "*" not in line:
            out.append(f"{run}*{line}")
        else:
            out.extend([_escape_rle_line(line)] * run)
        i = j
    return "\n".join(out)


def _escape_rle_line(line: str) -> str:
    # A verbatim line that *looks* like a run header would mis-decode;
    # prefix a 1* count to pin its meaning.
    head, sep, _ = line.partition("*")
    if sep and head.isdigit() and len(head) <= _MAX_RUN_DIGITS:
        return f"1*{line}"
    return line


def rle_decompress(encoded: str, limits: "GuardLimits", url: str = "") -> str:
    """Decode incrementally, aborting the moment a cap is crossed."""
    encoded_size = max(1, len(encoded))
    max_decoded = min(
        limits.max_body_bytes,
        limits.max_expansion_ratio * encoded_size,
    )
    out: List[str] = []
    total = 0
    for raw in encoded.split("\n"):
        head, sep, payload = raw.partition("*")
        if sep and head.isdigit() and len(head) <= _MAX_RUN_DIGITS:
            count = int(head)
        else:
            count, payload = 1, raw
        cost = count * (len(payload) + 1)
        total += cost
        if total > max_decoded:
            if total > limits.max_body_bytes:
                raise BodyTooLarge(
                    url,
                    f"decoded body exceeds {limits.max_body_bytes} bytes",
                )
            raise ExpansionBomb(
                url,
                f"decoded/encoded ratio exceeds {limits.max_expansion_ratio}x "
                f"({total}+ bytes from {encoded_size})",
            )
        out.extend([payload] * count)
    return "\n".join(out)


# ----------------------------------------------------------------------
# Limits
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GuardLimits:
    """Every cap the guard enforces.  ``0`` disables a cap."""

    max_body_bytes: int = 1 << 20          # decoded body size
    max_expansion_ratio: int = 32          # decoded / encoded
    max_headers: int = 64                  # header count
    max_header_bytes: int = 8192           # aggregate name+value bytes
    max_nesting_depth: int = 512           # element stack depth
    max_tokens: int = 200_000              # lexed nodes per document
    max_attrs_per_tag: int = 256
    max_entity_refs: int = 50_000          # '&' occurrences per body
    max_diff_cost: int = 25_000_000        # len(old) * len(new) tokens
    binary_control_ratio: float = 0.10     # control chars / body chars

    @classmethod
    def strict(cls) -> "GuardLimits":
        """Tight caps for fuzzing — trips fast, keeps corpora small."""
        return cls(
            max_body_bytes=64 * 1024,
            max_expansion_ratio=8,
            max_headers=16,
            max_header_bytes=2048,
            max_nesting_depth=64,
            max_tokens=4096,
            max_attrs_per_tag=32,
            max_entity_refs=512,
            max_diff_cost=250_000,
        )

    def html_budget(self, url: str = "") -> "HtmlBudget":
        return HtmlBudget(
            url=url,
            max_tokens=self.max_tokens,
            max_depth=self.max_nesting_depth,
            max_attrs_per_tag=self.max_attrs_per_tag,
            max_work=self.max_diff_cost,
        )


# ----------------------------------------------------------------------
# HTML budget meter
# ----------------------------------------------------------------------

@dataclass
class HtmlBudget:
    """A mutable meter the HTML layer charges against.

    The lexer calls :meth:`charge_token` per node and
    :meth:`check_attrs` per tag; the repairer calls :meth:`check_depth`
    as its element stack grows; the differ asks :meth:`over_work`
    whether the quadratic comparator would bust the work cap (and
    degrades to a line diff rather than raising).  ``0`` caps are
    unlimited, so a default-constructed budget is a no-op.
    """

    url: str = ""
    max_tokens: int = 0
    max_depth: int = 0
    max_attrs_per_tag: int = 0
    max_work: int = 0
    tokens: int = 0
    peak_depth: int = 0

    def fork(self) -> "HtmlBudget":
        """A fresh meter with the same caps (counters reset) — the
        caps are per document, not per lifetime of the budget."""
        return HtmlBudget(
            url=self.url,
            max_tokens=self.max_tokens,
            max_depth=self.max_depth,
            max_attrs_per_tag=self.max_attrs_per_tag,
            max_work=self.max_work,
        )

    def charge_token(self, count: int = 1) -> None:
        """Charge ``count`` lexed nodes (a reused stretch in bulk)."""
        self.tokens += count
        if self.max_tokens and self.tokens > self.max_tokens:
            raise TokenBomb(
                self.url, f"more than {self.max_tokens} markup tokens"
            )

    def check_attrs(self, count: int) -> None:
        if self.max_attrs_per_tag and count > self.max_attrs_per_tag:
            raise AttributeBomb(
                self.url,
                f"tag with more than {self.max_attrs_per_tag} attributes",
            )

    def check_depth(self, depth: int) -> None:
        if depth > self.peak_depth:
            self.peak_depth = depth
        if self.max_depth and depth > self.max_depth:
            raise MarkupDepthExceeded(
                self.url, f"nesting deeper than {self.max_depth} elements"
            )

    def over_work(self, old_tokens: int, new_tokens: int) -> bool:
        """True when the quadratic diff would exceed the work cap."""
        if not self.max_work:
            return False
        return old_tokens * new_tokens > self.max_work


# ----------------------------------------------------------------------
# The guard
# ----------------------------------------------------------------------

#: Charsets the 1995-96 toolchain decodes deterministically.  Anything
#: else declared on a non-ASCII body is a quarantine verdict: guessing
#: would make checksums (and therefore change detection) unstable.
_KNOWN_CHARSETS = {
    "", "us-ascii", "ascii", "utf-8", "utf8",
    "iso-8859-1", "latin-1", "latin1",
}

_TEXT_CONTROLS = {"\t", "\n", "\r", "\f"}


def _charset_of(content_type: str) -> str:
    for part in content_type.split(";")[1:]:
        name, sep, value = part.partition("=")
        if sep and name.strip().lower() == "charset":
            return value.strip().strip('"').lower()
    return ""


class ContentGuard:
    """Admits or quarantines one response at a time.

    :meth:`admit` inspects headers and body against
    :class:`GuardLimits` and returns the (transfer-decoded) body, or
    raises the :class:`ContentGuardError` subclass naming the tripped
    guard.  Trips are counted per guard class, and mirrored to the
    observability registry as ``guards.trips.<slug>`` when an ``obs``
    registry is attached.
    """

    def __init__(self, limits: Optional[GuardLimits] = None, obs=None) -> None:
        self.limits = limits or GuardLimits()
        self.obs = obs
        self.admitted = 0
        self.trips: Dict[str, int] = {}

    # -- bookkeeping ---------------------------------------------------
    def _trip(self, exc: ContentGuardError) -> ContentGuardError:
        self.trips[exc.guard] = self.trips.get(exc.guard, 0) + 1
        if self.obs is not None:
            self.obs.counter(f"guards.trips.{exc.guard}").inc()
        return exc

    def html_budget(self, url: str = "") -> HtmlBudget:
        return self.limits.html_budget(url)

    def stats(self) -> Dict[str, object]:
        return {
            "admitted": self.admitted,
            "tripped": sum(self.trips.values()),
            "trips": dict(sorted(self.trips.items())),
        }

    # -- header envelope -----------------------------------------------
    def check_headers(self, url: str, headers) -> None:
        """Header count/size caps — applies to HEAD responses too."""
        limits = self.limits
        if limits.max_headers and len(headers) > limits.max_headers:
            raise self._trip(HeaderBomb(
                url, f"more than {limits.max_headers} headers"
            ))
        if limits.max_header_bytes:
            total = sum(len(k) + len(v) for k, v in headers)
            if total > limits.max_header_bytes:
                raise self._trip(HeaderBomb(
                    url,
                    f"headers exceed {limits.max_header_bytes} bytes "
                    f"({total})",
                ))

    # -- body envelope -------------------------------------------------
    def admit(self, url: str, response) -> str:
        """Full envelope check for a fetched response.

        Returns the transfer-decoded body — byte-identical to the wire
        body for anything benign (identity encoding, sane markup).
        """
        self.check_headers(url, response.headers)
        body = response.body
        encoding = (response.headers.get("Content-Encoding") or "").lower()
        if encoding in ("", "identity"):
            pass
        elif encoding == RLE_ENCODING:
            try:
                body = rle_decompress(body, self.limits, url)
            except ContentGuardError as exc:
                raise self._trip(exc)
        else:
            raise self._trip(CharsetUndecodable(
                url, f"unknown content-encoding {encoding!r}"
            ))
        return self._admit_text(url, body, response.content_type)

    def admit_body(self, url: str, body: str,
                   content_type: str = "text/html") -> str:
        """Body-only check, for callers holding bytes without headers
        (direct check-ins, quarantine retry)."""
        return self._admit_text(url, body, content_type)

    def _admit_text(self, url: str, body: str, content_type: str) -> str:
        limits = self.limits
        if limits.max_body_bytes and len(body) > limits.max_body_bytes:
            raise self._trip(BodyTooLarge(
                url,
                f"body of {len(body)} bytes exceeds {limits.max_body_bytes}",
            ))
        self._check_charset(url, body, content_type)
        self._check_binary(url, body)
        if limits.max_entity_refs:
            refs = body.count("&")
            if refs > limits.max_entity_refs:
                raise self._trip(EntityBomb(
                    url,
                    f"{refs} entity references exceed "
                    f"{limits.max_entity_refs}",
                ))
        self._check_markup(url, body, content_type)
        self.admitted += 1
        if self.obs is not None:
            self.obs.counter("guards.admitted").inc()
        return body

    def _check_charset(self, url: str, body: str, content_type: str) -> None:
        """Deterministic fallback decoding: an unknown declared charset
        is only acceptable when the body is pure ASCII (every fallback
        agrees there); otherwise decoding would be a guess and the
        checksum pipeline unstable."""
        charset = _charset_of(content_type)
        if charset in _KNOWN_CHARSETS:
            return
        if body.isascii():
            return
        raise self._trip(CharsetUndecodable(
            url, f"undecodable charset {charset!r} on non-ASCII body"
        ))

    def _check_binary(self, url: str, body: str) -> None:
        if not body:
            return
        if "\x00" in body:
            raise self._trip(BinaryContent(url, "NUL byte in body"))
        controls = sum(
            1 for ch in body
            if (ch < " " and ch not in _TEXT_CONTROLS) or ch == "\x7f"
        )
        ratio = controls / len(body)
        if ratio > self.limits.binary_control_ratio:
            raise self._trip(BinaryContent(
                url,
                f"control-character ratio {ratio:.2f} exceeds "
                f"{self.limits.binary_control_ratio:.2f}",
            ))

    def _check_markup(self, url: str, body: str, content_type: str) -> None:
        """Structural scan: lex and repair under the HTML budget so tag
        bombs, attribute bombs, and token floods quarantine at ingest,
        not at first diff."""
        if not content_type.split(";")[0].strip().lower().startswith("text/html"):
            return
        budget = self.limits.html_budget(url)
        if not (budget.max_tokens or budget.max_depth
                or budget.max_attrs_per_tag):
            return
        from ..html.lexer import iter_nodes
        from ..html.repair import repair_nodes

        try:
            repair_nodes(iter_nodes(body, budget=budget), budget=budget)
        except ContentGuardError as exc:
            raise self._trip(exc)
