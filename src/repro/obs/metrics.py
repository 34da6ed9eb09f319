"""The metrics registry: counters, gauges, fixed-bucket histograms.

The paper evaluates AIDE operationally — Table 1 is per-URL check
costs, Section 7 is storage behavior — yet the reproduction grew its
instrumentation as eight disconnected ``stats()`` dicts.  This module
is the unifying substrate: one :class:`MetricsRegistry` holding every
counter under a hierarchical dotted name (``snapshot.wal.commits``,
``w3newer.fetch.bytes``), with the existing ``stats()`` providers
riding along as *collectors* (callables polled at snapshot time, so
the legacy dicts stay the source of truth and no counter is kept
twice).

Determinism rules (shared with the tracer):

* metric values derive only from work performed and the
  :class:`~repro.simclock.SimClock` — never ``time.time`` or
  ``random``;
* :meth:`MetricsRegistry.snapshot` iterates names sorted, so two runs
  of the same scenario export byte-identical text.

When a registry is *disabled*, ``counter()``/``gauge()``/
``histogram()`` hand back shared no-op singletons whose mutators do
nothing: instrumented code keeps one attribute load + one method call
on the hot path and nothing else.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NOOP_COUNTER",
    "NOOP_GAUGE",
    "NOOP_HISTOGRAM",
    "DEFAULT_BUCKETS",
]

#: Default histogram bounds, in simulated seconds: spans the paper's
#: operation costs (1s cheap ops through one-hour cron periods).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0, 1, 2, 5, 10, 30, 60, 120, 300, 600, 1800, 3600,
)


class Counter:
    """A monotonically increasing count."""

    kind = "counter"
    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A value that can go up and down (set to the latest reading)."""

    kind = "gauge"
    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def dec(self, amount: int = 1) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket cumulative histogram (Prometheus semantics).

    ``bounds`` are inclusive upper edges; observations above the last
    bound land in the implicit ``+Inf`` bucket.  Buckets are fixed at
    construction so exports are shape-stable across runs.
    """

    kind = "histogram"
    __slots__ = ("name", "help", "bounds", "bucket_counts", "sum", "count")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS,
                 help: str = "") -> None:
        if not buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self.name = name
        self.help = help
        self.bounds: Tuple[float, ...] = tuple(sorted(buckets))
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.sum = 0
        self.count = 0

    def observe(self, value) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def to_dict(self) -> Dict[str, object]:
        """The export shape: cumulative ``le`` buckets + sum + count."""
        cumulative = 0
        buckets = []
        for bound, n in zip(self.bounds, self.bucket_counts):
            cumulative += n
            buckets.append([bound, cumulative])
        buckets.append(["+Inf", self.count])
        return {"kind": "histogram", "buckets": buckets,
                "sum": self.sum, "count": self.count}


class _NoopCounter:
    """Shared do-nothing counter handed out by a disabled registry."""

    kind = "counter"
    name = ""
    help = ""
    value = 0
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class _NoopGauge:
    kind = "gauge"
    name = ""
    help = ""
    value = 0
    __slots__ = ()

    def set(self, value) -> None:
        pass

    def inc(self, amount: int = 1) -> None:
        pass

    def dec(self, amount: int = 1) -> None:
        pass


class _NoopHistogram:
    kind = "histogram"
    name = ""
    help = ""
    sum = 0
    count = 0
    __slots__ = ()

    def observe(self, value) -> None:
        pass


NOOP_COUNTER = _NoopCounter()
NOOP_GAUGE = _NoopGauge()
NOOP_HISTOGRAM = _NoopHistogram()


def _flatten(prefix: str, value, out: Dict[str, object]) -> None:
    """Recursively flatten a stats() dict under dotted ``prefix``."""
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), sub, out)
    else:
        out[prefix] = value


class MetricsRegistry:
    """All of a deployment's metrics, by hierarchical dotted name.

    Two populations:

    * **instruments** — counters/gauges/histograms created through
      :meth:`counter` / :meth:`gauge` / :meth:`histogram` and mutated
      by instrumented code;
    * **collectors** — legacy ``stats()`` callables registered under a
      prefix; polled lazily at :meth:`snapshot` time and flattened
      into dotted names, so the scattered dicts surface in the same
      namespace without double bookkeeping.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._metrics: Dict[str, object] = {}
        self._collectors: List[Tuple[str, Callable[[], dict]]] = []

    # ------------------------------------------------------------------
    # instruments
    # ------------------------------------------------------------------
    def counter(self, name: str, help: str = "") -> Counter:
        if not self.enabled:
            return NOOP_COUNTER
        return self._get_or_create(name, Counter, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        if not self.enabled:
            return NOOP_GAUGE
        return self._get_or_create(name, Gauge, help)

    def histogram(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS,
                  help: str = "") -> Histogram:
        if not self.enabled:
            return NOOP_HISTOGRAM
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, Histogram):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        metric = Histogram(name, buckets=buckets, help=help)
        self._metrics[name] = metric
        return metric

    def _get_or_create(self, name: str, cls, help: str):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        metric = cls(name, help=help)
        self._metrics[name] = metric
        return metric

    # ------------------------------------------------------------------
    # collectors (the legacy stats() surfaces)
    # ------------------------------------------------------------------
    def register_collector(self, prefix: str,
                           fn: Callable[[], dict]) -> None:
        """Poll ``fn()`` at snapshot time; flatten under ``prefix``.

        Re-registering a prefix replaces the previous collector (a
        rebuilt store re-registers itself without leaking the old one).
        """
        if not self.enabled:
            return
        self._collectors = [
            (p, f) for p, f in self._collectors if p != prefix
        ]
        self._collectors.append((prefix, fn))

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """One deterministic flat mapping of name → value.

        Counters/gauges export their number, histograms their
        bucket/sum/count dict, collectors their flattened stats.  A
        collector key that collides with an instrument name wins (the
        legacy dict is the source of truth).  Keys come back sorted so
        serializations are byte-stable.
        """
        out: Dict[str, object] = {}
        for name, metric in self._metrics.items():
            if isinstance(metric, Histogram):
                out[name] = metric.to_dict()
            else:
                out[name] = metric.value
        for prefix, fn in self._collectors:
            _flatten(prefix, fn(), out)
        return dict(sorted(out.items()))
