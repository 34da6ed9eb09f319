"""Simulated time for the AIDE reproduction.

The paper's tools live on wall-clock time: w3newer thresholds are written
as ``2d`` or ``12h`` (Table 1), staleness is "one week", cron drives
periodic runs, and RCS revisions carry datestamps.  Reproducing week-long
polling experiments against a real clock is impossible in-process, so all
components take a :class:`SimClock` and never consult the OS clock.

Durations are plain integers (seconds) decorated with the paper's
``NdMh``-style spelling via :func:`parse_duration` / :func:`format_duration`.
``Timestamp`` is seconds since the simulation epoch (we render it as a
1990s-style date purely for cosmetic fidelity in reports).
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Tuple

__all__ = [
    "SECOND",
    "MINUTE",
    "HOUR",
    "DAY",
    "WEEK",
    "NEVER",
    "parse_duration",
    "format_duration",
    "format_timestamp",
    "parse_timestamp",
    "timestamp_from_civil",
    "MONTH_NAMES",
    "SimClock",
    "CronScheduler",
    "CronJob",
]

SECOND = 1
MINUTE = 60 * SECOND
HOUR = 60 * MINUTE
DAY = 24 * HOUR
WEEK = 7 * DAY

#: Sentinel duration meaning "do not ever check" (Table 1's ``never``).
NEVER = -1

#: The simulation epoch rendered as a date.  Chosen to sit inside the
#: paper's deployment window (second half of 1995).
_EPOCH_LABEL = (1995, 9, 1)

_DURATION_RE = re.compile(
    r"^\s*(?:(?P<weeks>\d+)w)?\s*(?:(?P<days>\d+)d)?\s*(?:(?P<hours>\d+)h)?"
    r"\s*(?:(?P<minutes>\d+)m)?\s*(?:(?P<seconds>\d+)s)?\s*$",
    re.IGNORECASE,
)

_MONTH_LENGTHS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
_MONTH_NAMES = (
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
)
#: Public alias — HTTP date parsers (RFC 850 / asctime tolerance in
#: :mod:`repro.web.http`) resolve month names against the same table
#: the formatter draws from.
MONTH_NAMES = _MONTH_NAMES
_DAY_NAMES = ("Fri", "Sat", "Sun", "Mon", "Tue", "Wed", "Thu")


def parse_duration(text: str) -> int:
    """Parse a Table 1 threshold spelling into seconds.

    Accepts combinations of ``w``/``d``/``h``/``m``/``s`` units (the paper
    shows ``2d``, ``7d``, ``12h``, ``1d``), the literal ``0`` meaning
    "check on every run", and ``never`` meaning "never check".

    >>> parse_duration("2d") == 2 * DAY
    True
    >>> parse_duration("1d12h") == DAY + 12 * HOUR
    True
    >>> parse_duration("never") == NEVER
    True
    """
    stripped = text.strip().lower()
    if stripped == "never":
        return NEVER
    if stripped in {"0", "0s"}:
        return 0
    if not stripped:
        raise ValueError("empty duration")
    match = _DURATION_RE.match(stripped)
    if not match or not any(match.groupdict().values()):
        # A bare integer is taken as seconds, matching cron-ish configs.
        if stripped.isdigit():
            return int(stripped)
        raise ValueError(f"unparseable duration: {text!r}")
    parts = {k: int(v) for k, v in match.groupdict().items() if v}
    return (
        parts.get("weeks", 0) * WEEK
        + parts.get("days", 0) * DAY
        + parts.get("hours", 0) * HOUR
        + parts.get("minutes", 0) * MINUTE
        + parts.get("seconds", 0) * SECOND
    )


def format_duration(seconds: int) -> str:
    """Render seconds back into the compact ``NdMh`` form.

    >>> format_duration(2 * DAY)
    '2d'
    >>> format_duration(NEVER)
    'never'
    >>> format_duration(0)
    '0'
    """
    if seconds == NEVER:
        return "never"
    if seconds == 0:
        return "0"
    if seconds < 0:
        raise ValueError(f"negative duration: {seconds}")
    out = []
    for unit, label in ((DAY, "d"), (HOUR, "h"), (MINUTE, "m"), (SECOND, "s")):
        count, seconds = divmod(seconds, unit)
        if count:
            out.append(f"{count}{label}")
    return "".join(out)


def _is_leap(year: int) -> bool:
    return year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)


def _days_from_civil(year: int, month: int, day: int) -> int:
    """Days from 1 Jan 1970 to a proleptic Gregorian date, in closed
    form (H. Hinnant's ``days_from_civil``): the year is counted from
    March, so the leap day ends it, in 400-year eras of 146097 days."""
    if month <= 2:
        year -= 1
    era = year // 400
    year_of_era = year - era * 400
    day_of_year = (153 * (month + (-3 if month > 2 else 9)) + 2) // 5 + day - 1
    day_of_era = (year_of_era * 365 + year_of_era // 4 - year_of_era // 100
                  + day_of_year)
    return era * 146097 + day_of_era - 719468


def _civil_from_days(days: int) -> Tuple[int, int, int]:
    """The inverse of :func:`_days_from_civil` (``civil_from_days``)."""
    days += 719468
    era = days // 146097
    day_of_era = days - era * 146097
    year_of_era = (day_of_era - day_of_era // 1460 + day_of_era // 36524
                   - day_of_era // 146096) // 365
    day_of_year = day_of_era - (365 * year_of_era + year_of_era // 4
                                - year_of_era // 100)
    month_from_march = (5 * day_of_year + 2) // 153
    day = day_of_year - (153 * month_from_march + 2) // 5 + 1
    month = month_from_march + (3 if month_from_march < 10 else -9)
    year = year_of_era + era * 400
    if month <= 2:
        year += 1
    return year, month, day


#: The epoch's day number from 1 Jan 1970.
_EPOCH_DAYS = _days_from_civil(*_EPOCH_LABEL)


def _civil_from_offset(days: int) -> Tuple[int, int, int]:
    """Convert a day offset from the epoch into (year, month, day)."""
    return _civil_from_days(_EPOCH_DAYS + days)


def format_timestamp(ts: int) -> str:
    """Render a simulation timestamp as an HTTP-date-like string.

    The format mirrors RFC 1123 dates as sent in ``Last-Modified``
    headers, e.g. ``Fri, 01 Sep 1995 00:00:00 GMT``.
    """
    if ts < 0:
        raise ValueError(f"negative timestamp: {ts}")
    days, rem = divmod(ts, DAY)
    hours, rem = divmod(rem, HOUR)
    minutes, seconds = divmod(rem, MINUTE)
    year, month, day = _civil_from_offset(days)
    weekday = _DAY_NAMES[days % 7]
    return (
        f"{weekday}, {day:02d} {_MONTH_NAMES[month - 1]} {year} "
        f"{hours:02d}:{minutes:02d}:{seconds:02d} GMT"
    )


_HTTP_DATE_RE = re.compile(
    r"^\s*(?:\w{3}),\s+(\d{1,2})\s+(\w{3})\s+(\d{4})\s+"
    r"(\d{2}):(\d{2}):(\d{2})\s+GMT\s*$"
)


def timestamp_from_civil(
    year: int, month: int, day: int,
    hours: int = 0, minutes: int = 0, seconds: int = 0,
) -> Optional[int]:
    """Convert a civil date into a simulation timestamp.

    None for out-of-range fields, impossible calendar dates, or dates
    before the simulation epoch (1 Sep 1995).  The shared tail of every
    HTTP date parser — RFC 1123 here, and the tolerant RFC 850/asctime
    variants in :func:`repro.web.http.parse_http_date`.
    """
    if not 1 <= month <= 12:
        return None
    if hours > 23 or minutes > 59 or seconds > 59:
        return None
    if min(hours, minutes, seconds) < 0:
        return None
    if not 1 <= day <= _MONTH_LENGTHS[month - 1] + (
            month == 2 and _is_leap(year)):
        return None
    days = _days_from_civil(year, month, day) - _EPOCH_DAYS
    if days < 0:
        return None
    return days * DAY + hours * HOUR + minutes * MINUTE + seconds * SECOND


def parse_timestamp(text: str) -> Optional[int]:
    """Parse an RFC-1123 date back into a simulation timestamp.

    The inverse of :func:`format_timestamp`; None for unparseable input
    or for dates before the simulation epoch (1 Sep 1995) — real 1995
    servers emitted all three HTTP date formats plus garbage, and a
    tracker must shrug at anything it cannot read.  (The tolerant
    all-three-formats parser is :func:`repro.web.http.parse_http_date`,
    which funnels into :func:`timestamp_from_civil` like this one.)
    """
    match = _HTTP_DATE_RE.match(text or "")
    if not match:
        return None
    day = int(match.group(1))
    month_name = match.group(2).capitalize()
    if month_name not in _MONTH_NAMES:
        return None
    month = _MONTH_NAMES.index(month_name) + 1
    year = int(match.group(3))
    hours, minutes, seconds = (int(match.group(i)) for i in (4, 5, 6))
    return timestamp_from_civil(year, month, day, hours, minutes, seconds)


class SimClock:
    """A monotonically advancing simulated clock.

    Every subsystem (web servers, proxy caches, w3newer, the snapshot
    service, RCS datestamps) shares one instance so that "one week ago"
    means the same thing everywhere.
    """

    def __init__(self, start: int = 0) -> None:
        if start < 0:
            raise ValueError("clock cannot start before the epoch")
        self._now = start

    @property
    def now(self) -> int:
        """Current simulation time in seconds since the epoch."""
        return self._now

    def advance(self, seconds: int) -> int:
        """Move time forward; returns the new time."""
        if seconds < 0:
            raise ValueError("time cannot run backwards")
        self._now += seconds
        return self._now

    def advance_to(self, when: int) -> int:
        """Jump forward to an absolute time (no-op if already past it)."""
        if when > self._now:
            self._now = when
        return self._now

    def httpdate(self) -> str:
        """The current time as an HTTP date string."""
        return format_timestamp(self._now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock({self._now}: {self.httpdate()})"


@dataclass(order=True)
class CronJob:
    """A recurring job on the simulated timeline (sorted by next firing)."""

    next_fire: int
    sequence: int
    period: int = field(compare=False)
    action: Callable[[int], None] = field(compare=False)
    name: str = field(compare=False, default="")
    enabled: bool = field(compare=False, default=True)


class CronScheduler:
    """A minimal cron: fixed-period jobs driven by :class:`SimClock`.

    The paper invokes w3newer "probably by a crontab entry" and the
    snapshot daemon archives fixed pages periodically; this scheduler
    plays that role.  ``run_until`` advances the clock job by job, firing
    each action with the current simulation time.
    """

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        self._heap: List[CronJob] = []
        self._sequence = 0

    def schedule(
        self,
        period: int,
        action: Callable[[int], None],
        name: str = "",
        first_fire: Optional[int] = None,
    ) -> CronJob:
        """Register a job firing every ``period`` seconds.

        ``first_fire`` defaults to one period from now, matching cron's
        behaviour of not firing at registration time.
        """
        if period <= 0:
            raise ValueError("cron period must be positive")
        fire = first_fire if first_fire is not None else self.clock.now + period
        job = CronJob(
            next_fire=fire,
            sequence=self._sequence,
            period=period,
            action=action,
            name=name,
        )
        self._sequence += 1
        heapq.heappush(self._heap, job)
        return job

    def cancel(self, job: CronJob) -> None:
        """Disable a job; it is dropped lazily when it next surfaces."""
        job.enabled = False

    def run_until(self, deadline: int) -> int:
        """Fire every due job up to and including ``deadline``.

        Returns the number of job firings.  The clock is advanced to each
        firing time and finally to the deadline itself.
        """
        fired = 0
        while self._heap and self._heap[0].next_fire <= deadline:
            job = heapq.heappop(self._heap)
            if not job.enabled:
                continue
            self.clock.advance_to(job.next_fire)
            job.action(self.clock.now)
            fired += 1
            job.next_fire += job.period
            job.sequence = self._sequence
            self._sequence += 1
            heapq.heappush(self._heap, job)
        self.clock.advance_to(deadline)
        return fired

    def pending(self) -> Iterator[CronJob]:
        """Iterate over enabled jobs (unordered)."""
        return (job for job in self._heap if job.enabled)
