"""Per-URL change-rate estimation for adaptive revisit scheduling.

The paper's w3newer decides *when* to re-check a page with the static
Table-1 thresholds.  This module learns that cadence instead: each URL
gets a Poisson change-rate estimate fitted from whatever evidence the
system already has — snapshot revision histories, StatusCache
modification/check timestamps, and the verdicts of previous runs — so
the scheduler can rank a fetch budget by expected change probability
("Management of Volatile Information in Incremental Web Crawler").

The estimator is deliberately humble about its data.  Checks are
*sampled* observations of a renewal process: seeing "changed" at a
check means *at least one* change happened since the previous look, so
a naive changes/span ratio underestimates fast pages badly.  We use
the standard bias-corrected estimator

    lambda_hat = -ln((n - X + 0.5) / (n + 0.5)) / mean_gap

where ``n`` is the number of between-check intervals and ``X`` the
number that observed a change, blended with a conservative prior so a
URL with one data point does not swing to an extreme.  State persists
alongside the status cache in the same line-per-URL text format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional

from ...simclock import DAY, WEEK
from ...web.url import canonical_url
from .statuscache import StatusCache

__all__ = ["UrlEstimate", "ChangeRateEstimator"]

#: Default prior: a page we know nothing about is assumed slow (about
#: one change a month).  Unobserved pages do not need an optimistic
#: prior to get crawled — a URL with *no* observations at all is
#: treated as must-explore (probability 1.0) by :meth:`p_changed`.
DEFAULT_PRIOR_RATE = 1.0 / (4 * WEEK)

#: Weight of the prior, in pseudo-observations.
DEFAULT_PRIOR_WEIGHT = 2.0


@dataclass
class UrlEstimate:
    """Observation counts for one URL.

    ``checks`` counts observations that produced a verdict (changed or
    unchanged); ``changes`` counts the subset that found the page
    changed.  ``misses`` counts checks that failed (errors, degraded
    STALE fallbacks) — they cost budget but teach nothing about the
    page, and are surfaced so ``--explain`` can show flaky URLs.
    """

    url: str
    checks: int = 0
    changes: int = 0
    misses: int = 0
    first_observed_at: Optional[int] = None
    last_check_at: Optional[int] = None
    last_change_at: Optional[int] = None

    @property
    def span(self) -> int:
        """Seconds covered by the observation window."""
        if self.first_observed_at is None or self.last_check_at is None:
            return 0
        return max(0, self.last_check_at - self.first_observed_at)


class ChangeRateEstimator:
    """URL-keyed Poisson change-rate model with persistence."""

    def __init__(
        self,
        prior_rate: float = DEFAULT_PRIOR_RATE,
        prior_weight: float = DEFAULT_PRIOR_WEIGHT,
    ) -> None:
        self.prior_rate = prior_rate
        self.prior_weight = prior_weight
        self._estimates: Dict[str, UrlEstimate] = {}

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def estimate_for(self, url: str) -> UrlEstimate:
        """The estimate for ``url``, created empty if absent."""
        key = canonical_url(url)
        estimate = self._estimates.get(key)
        if estimate is None:
            estimate = UrlEstimate(url=key)
            self._estimates[key] = estimate
        return estimate

    def peek(self, url: str) -> Optional[UrlEstimate]:
        """The estimate if one exists; never creates."""
        return self._estimates.get(canonical_url(url))

    def __len__(self) -> int:
        return len(self._estimates)

    def estimates(self) -> Iterator[UrlEstimate]:
        """All tracked estimates (arbitrary order)."""
        return iter(self._estimates.values())

    # ------------------------------------------------------------------
    # Feeding observations
    # ------------------------------------------------------------------
    def observe(self, url: str, at: int, changed: bool) -> None:
        """Record one successful check verdict at time ``at``.

        The first observation of a URL only establishes the baseline:
        there is no earlier look to define "changed since", so the
        ``changed`` flag is ignored for it.
        """
        estimate = self.estimate_for(url)
        if estimate.first_observed_at is None:
            estimate.first_observed_at = at
            estimate.last_check_at = at
            estimate.checks = max(estimate.checks, 1)
            return
        estimate.checks += 1
        if changed:
            estimate.changes += 1
            estimate.last_change_at = at
        if estimate.last_check_at is None or at > estimate.last_check_at:
            estimate.last_check_at = at

    def observe_miss(self, url: str, at: int) -> None:
        """Record a check that failed to produce a verdict."""
        estimate = self.estimate_for(url)
        estimate.misses += 1

    def seed_from_history(self, url: str, revision_dates: Iterable[int]) -> None:
        """Cold-start a URL from snapshot-archive revision timestamps.

        Every revision after the first is one observed change at a
        known time — exactly the evidence a dense snapshot history
        provides (the Memento motivation: well-timed revision
        histories are worth addressing).  Dates merge idempotently
        into whatever the estimate already covers.
        """
        dates = sorted(set(revision_dates))
        if not dates:
            return
        estimate = self.estimate_for(url)
        if estimate.first_observed_at is None:
            estimate.first_observed_at = dates[0]
            estimate.last_check_at = dates[0]
            estimate.checks = 1
            dates = dates[1:]
        for date in dates:
            if estimate.last_check_at is not None and date <= estimate.last_check_at:
                continue
            estimate.checks += 1
            estimate.changes += 1
            estimate.last_change_at = date
            estimate.last_check_at = date

    def absorb_status_cache(self, cache: StatusCache) -> None:
        """Cold-start URLs from StatusCache timestamps.

        A record proves at least one successful look (when the
        modification date or checksum was obtained); a recorded
        ``last_change_at`` proves one observed change.  Only fills
        gaps — URLs the estimator already tracks are left alone.
        """
        for record in cache.records():
            if self.peek(record.url) is not None:
                continue
            looked_at = [
                t for t in (
                    record.date_obtained_at,
                    record.checksum_obtained_at,
                    record.last_http_check,
                )
                if t is not None
            ]
            if not looked_at:
                continue
            estimate = self.estimate_for(record.url)
            estimate.first_observed_at = min(looked_at)
            estimate.last_check_at = max(looked_at)
            estimate.checks = 1
            last_change = record.last_change_at
            if last_change is None and record.modification_date is not None:
                # The page's Last-Modified is a genuine change instant;
                # usable as history when it falls inside the window.
                if record.modification_date > estimate.first_observed_at:
                    last_change = record.modification_date
            if last_change is not None:
                estimate.last_change_at = last_change
                if last_change > estimate.first_observed_at:
                    estimate.checks += 1
                    estimate.changes += 1
                    if estimate.last_check_at is None or last_change > estimate.last_check_at:
                        estimate.last_check_at = last_change

    # ------------------------------------------------------------------
    # The model
    # ------------------------------------------------------------------
    def rate(self, url: str) -> float:
        """Estimated change rate (changes per second) for ``url``."""
        estimate = self.peek(url)
        if estimate is None:
            return self.prior_rate
        intervals = estimate.checks - 1
        span = estimate.span
        if intervals < 1 or span <= 0:
            return self.prior_rate
        observed = min(estimate.changes, intervals)
        mean_gap = span / intervals
        lam = -math.log(
            (intervals - observed + 0.5) / (intervals + 0.5)
        ) / mean_gap
        return (
            (lam * intervals + self.prior_rate * self.prior_weight)
            / (intervals + self.prior_weight)
        )

    def p_changed(self, url: str, elapsed: Optional[int]) -> float:
        """Probability the page changed within the last ``elapsed`` s.

        ``elapsed=None`` means "never observed by anything" and returns
        1.0 — an unexplored URL must be worth one look.
        """
        if elapsed is None:
            return 1.0
        if elapsed <= 0:
            return 0.0
        return 1.0 - math.exp(-self.rate(url) * float(elapsed))

    def next_due(
        self, url: str, last_checked: Optional[int], confidence: float = 0.5
    ) -> Optional[int]:
        """When the change probability next crosses ``confidence``.

        Returns an absolute sim-clock timestamp, or None when the URL
        has never been checked (it is due immediately).
        """
        if last_checked is None:
            return None
        if not 0.0 < confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        rate = self.rate(url)
        if rate <= 0.0:
            return None
        wait = -math.log(1.0 - confidence) / rate
        return last_checked + int(wait)

    # ------------------------------------------------------------------
    # Surfaces
    # ------------------------------------------------------------------
    def explain(self, url: str, now: int) -> Dict[str, object]:
        """The ``aide newer --explain`` payload for one URL."""
        estimate = self.peek(url)
        rate_per_day = self.rate(url) * DAY
        last_checked = estimate.last_check_at if estimate else None
        due = self.next_due(url, last_checked)
        elapsed = None if last_checked is None else max(0, now - last_checked)
        return {
            "url": canonical_url(url),
            "tracked": estimate is not None,
            "checks": estimate.checks if estimate else 0,
            "changes": estimate.changes if estimate else 0,
            "misses": estimate.misses if estimate else 0,
            "rate_per_day": round(rate_per_day, 6),
            "p_changed_now": round(self.p_changed(url, elapsed), 6),
            "last_check_at": last_checked,
            "last_change_at": estimate.last_change_at if estimate else None,
            "next_due_at": due,
        }

    def stats(self) -> Dict[str, object]:
        """Aggregate counters for the observability surface."""
        checks = sum(e.checks for e in self._estimates.values())
        changes = sum(e.changes for e in self._estimates.values())
        misses = sum(e.misses for e in self._estimates.values())
        return {
            "tracked": len(self._estimates),
            "observations": checks,
            "changes": changes,
            "misses": misses,
        }

    # ------------------------------------------------------------------
    # Persistence (lives alongside the status cache)
    # ------------------------------------------------------------------
    def serialize(self) -> str:
        """A line-per-URL text format, ``|``-separated fields."""
        lines = []
        for key in sorted(self._estimates):
            e = self._estimates[key]
            lines.append(
                "|".join(
                    [
                        e.url,
                        str(e.checks),
                        str(e.changes),
                        str(e.misses),
                        _opt(e.first_observed_at),
                        _opt(e.last_check_at),
                        _opt(e.last_change_at),
                    ]
                )
            )
        return "\n".join(lines)

    @classmethod
    def deserialize(
        cls,
        text: str,
        prior_rate: float = DEFAULT_PRIOR_RATE,
        prior_weight: float = DEFAULT_PRIOR_WEIGHT,
    ) -> "ChangeRateEstimator":
        """Rebuild an estimator from :meth:`serialize` output."""
        estimator = cls(prior_rate=prior_rate, prior_weight=prior_weight)
        for line in text.splitlines():
            parts = line.split("|")
            if len(parts) != 7:
                continue
            estimate = estimator.estimate_for(parts[0])
            try:
                estimate.checks = int(parts[1])
                estimate.changes = int(parts[2])
                estimate.misses = int(parts[3])
            except ValueError:
                continue
            estimate.first_observed_at = _parse_opt(parts[4])
            estimate.last_check_at = _parse_opt(parts[5])
            estimate.last_change_at = _parse_opt(parts[6])
        return estimator


def _opt(value: Optional[int]) -> str:
    """Serialize an optional integer field."""
    return "-" if value is None else str(value)


def _parse_opt(text: str) -> Optional[int]:
    """Parse an optional integer field."""
    if text == "-":
        return None
    try:
        return int(text)
    except ValueError:
        return None
