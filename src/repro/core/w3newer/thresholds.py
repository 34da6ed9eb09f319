"""Per-URL check-frequency thresholds (paper Table 1).

The w3newer configuration file maps perl-style URL patterns to
thresholds: how recently a page may have been visited/checked before
w3newer will spend a direct HEAD request on it.  ``0`` means "check on
every run", ``never`` means "never check" (Dilbert), and "the first
matching pattern is used"; ``Default`` sets the fallback.

The exact configuration printed as Table 1 ships as
:data:`TABLE1_CONFIG` so the reproduction benchmark runs the very same
rules the paper shows.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ...lru import LruCache
from ...simclock import format_duration, parse_duration

__all__ = ["ThresholdRule", "ThresholdConfig", "parse_threshold_config",
           "TABLE1_CONFIG", "FIRST_MATCH_MEMO_SIZE"]

#: Table 1 verbatim (de-hyphenated from the two-column layout).  The
#: comments are part of the artifact.
TABLE1_CONFIG = r"""
# Comments start with a sharp sign.
# perl syntax requires that "." be escaped
# Default is equivalent to ending the file with ".*"
Default 2d
file:.* 0
http://www\.yahoo\.com/.* 7d
http://.*\.att\.com/.* 0
http://www\.ncsa\.uiuc\.edu/SDG/Software/Mosaic/Docs/whats-new\.html 12h
http://snapple\.cs\.washington\.edu:600/mobile/ 1d
# this is in my hotlist but will be different every day
http://www\.unitedmedia\.com/comics/dilbert/ never
"""


@dataclass(frozen=True)
class ThresholdRule:
    """One pattern → threshold line."""

    pattern: str
    threshold: int  # seconds; 0 = every run; NEVER = never
    compiled: re.Pattern

    def matches(self, url: str) -> bool:
        return self.compiled.match(url) is not None

    def __str__(self) -> str:
        return f"{self.pattern} {format_duration(self.threshold)}"


#: First-match memo entries per config (one per URL asked about).
FIRST_MATCH_MEMO_SIZE = 1 << 15


class ThresholdConfig:
    """Ordered rule list with a default; first match wins.

    A URL's first matching rule depends only on the URL and the rules,
    and a crawl asks about the same hotlist every night, so the answer
    is memoized.  ``rules`` is a tuple, so the memo cannot go stale.
    """

    def __init__(self, rules: Sequence[ThresholdRule], default: int) -> None:
        self.rules: Tuple[ThresholdRule, ...] = tuple(rules)
        self.default = default
        #: url -> index of its first matching rule, len(rules) if none.
        self._first_match: LruCache[int] = LruCache(FIRST_MATCH_MEMO_SIZE)

    def _first(self, url: str) -> int:
        index = self._first_match.get(url)
        if index is None:
            index = next((i for i, rule in enumerate(self.rules)
                          if rule.matches(url)), len(self.rules))
            self._first_match.put(url, index)
        return index

    def threshold_for(self, url: str) -> int:
        """Threshold (seconds) applying to ``url``."""
        index = self._first(url)
        return (self.rules[index].threshold if index < len(self.rules)
                else self.default)

    def rule_for(self, url: str) -> Optional[ThresholdRule]:
        """The rule that decided (None when the default applied)."""
        index = self._first(url)
        return self.rules[index] if index < len(self.rules) else None

    @classmethod
    def default_config(cls) -> "ThresholdConfig":
        """The paper's own configuration (Table 1)."""
        return parse_threshold_config(TABLE1_CONFIG)


def parse_threshold_config(text: str) -> ThresholdConfig:
    """Parse a w3newer configuration file.

    Each non-comment line is ``<pattern> <threshold>``; whitespace
    separates the two (patterns contain no spaces — they are URLs).
    A line starting with ``Default`` (case-insensitive) sets the
    fallback threshold; without one, the default is "2d" as in Table 1.

    Table 1's comment pins the semantics: "Default is equivalent to
    ending the file with '.*'" — i.e. every ``Default`` line behaves
    like a ``.*`` rule appended *after* all explicit patterns, and the
    first matching pattern wins.  Explicit patterns therefore always
    beat the default regardless of line order, and when several
    ``Default`` lines appear the FIRST one wins (the first ``.*``
    would match first).  Bad regexes raise ``ValueError`` naming the
    offending line.
    """
    rules: List[ThresholdRule] = []
    default: Optional[int] = None
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(
                f"line {line_number}: expected '<pattern> <threshold>': {line!r}"
            )
        pattern, spec = parts
        threshold = parse_duration(spec)
        if pattern.lower() == "default":
            if default is None:
                default = threshold
            continue
        try:
            compiled = re.compile(pattern)
        except re.error as exc:
            raise ValueError(f"line {line_number}: bad pattern {pattern!r}: {exc}")
        rules.append(
            ThresholdRule(pattern=pattern, threshold=threshold, compiled=compiled)
        )
    if default is None:
        default = parse_duration("2d")
    return ThresholdConfig(rules=rules, default=default)
