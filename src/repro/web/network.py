"""The simulated internet: routing plus fault injection.

A :class:`Network` owns the map from host names to
:class:`~repro.web.server.HttpServer` instances and decides, per
request, whether transport succeeds.  Every failure mode Section 3.1
enumerates is injectable:

* systemic: the whole network unreachable (local connectivity loss);
* per-host: DNS failure (server renamed/deactivated), connection
  refused (host down), slow responses that overrun client timeouts.

Faults are scripted through a :class:`FaultPlan` — a per-host schedule
of :class:`FaultRule` entries.  Beyond the paper's static switches
(which remain as trivial always-on rules behind :meth:`Network.kill_dns`
and friends), a plan can express the *hostile* web the resilience layer
is built against: intermittent failures with a per-request probability,
outage windows (down from t1 to t2), slow-response spikes, overloaded
servers answering 503 with a ``Retry-After``, and flaky-then-recover
hosts.  All randomness is derived from the plan's seed plus a per-host
draw counter, so a chaos scenario replays identically run after run.

The network also keeps a request log so benchmarks can count exactly
how many HTTP requests each tracking strategy issues — the paper's
scalability argument is about precisely this number.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..simclock import SimClock
from .http import (
    ConnectionRefused,
    DnsError,
    Headers,
    NetworkUnreachable,
    Request,
    Response,
    TimeoutError_,
)
from .server import HttpServer

__all__ = ["Network", "RequestRecord", "FaultPlan", "FaultRule"]

#: Everything a rule can break.  ``dns``/``refused``/``timeout`` map to
#: the transport exceptions; ``slow`` adds seconds to the server's
#: response delay; ``overloaded`` short-circuits into an HTTP 503.
FAULT_KINDS = ("dns", "refused", "timeout", "slow", "overloaded")


@dataclass(frozen=True)
class RequestRecord:
    """One entry in the network's request log."""

    time: int
    method: str
    host: str
    path: str
    status: Optional[int]  # None when transport failed
    error: Optional[str] = None


@dataclass
class FaultRule:
    """One scripted fault: what breaks, when, and how often.

    ``start``/``end`` bound the active window ([start, end), ``None``
    meaning unbounded on that side); ``probability`` below 1.0 makes the
    fault intermittent — each request inside the window draws against
    it.  ``delay`` is the extra response time for ``slow`` rules;
    ``retry_after`` is the header an ``overloaded`` host advertises.
    """

    kind: str
    start: Optional[int] = None
    end: Optional[int] = None
    probability: float = 1.0
    delay: int = 0
    retry_after: Optional[int] = None
    tag: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind: {self.kind!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability out of range: {self.probability}")
        if self.delay < 0:
            raise ValueError("delay must be >= 0")

    def active_at(self, now: int) -> bool:
        if self.start is not None and now < self.start:
            return False
        if self.end is not None and now >= self.end:
            return False
        return True


class FaultPlan:
    """A seed-deterministic schedule of per-host faults.

    Rules are kept per host (plus the ``"*"`` wildcard, matched after
    host-specific rules); the first active rule whose probability draw
    fires decides the request's fate.  Draws consume a per-host counter
    hashed with the seed, so two runs of the same scenario — or the
    same scenario replayed after a checkpointed abort — observe the
    same fault sequence.

    The empty plan is guaranteed inert: no rules means no draws and no
    behavioural difference from the pre-fault-plan network.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rules: Dict[str, List[FaultRule]] = {}
        self._draws: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Scripting
    # ------------------------------------------------------------------
    def add_rule(self, host: str, rule: FaultRule) -> FaultRule:
        self._rules.setdefault(host.lower(), []).append(rule)
        return rule

    def outage(self, host: str, kind: str = "refused",
               start: Optional[int] = None, end: Optional[int] = None,
               tag: str = "") -> FaultRule:
        """Host hard-down (deterministically) inside [start, end)."""
        return self.add_rule(host, FaultRule(kind=kind, start=start, end=end,
                                             tag=tag))

    def intermittent(self, host: str, probability: float,
                     kind: str = "timeout", start: Optional[int] = None,
                     end: Optional[int] = None, tag: str = "") -> FaultRule:
        """Each request inside the window fails with ``probability``."""
        return self.add_rule(host, FaultRule(
            kind=kind, start=start, end=end, probability=probability, tag=tag))

    def flaky_until(self, host: str, recover_at: int, probability: float,
                    kind: str = "timeout", tag: str = "") -> FaultRule:
        """Flaky-then-recover: intermittent failures until ``recover_at``."""
        return self.intermittent(host, probability, kind=kind,
                                 end=recover_at, tag=tag)

    def slowdown(self, host: str, delay: int, start: Optional[int] = None,
                 end: Optional[int] = None, probability: float = 1.0,
                 tag: str = "") -> FaultRule:
        """A slow-response spike: ``delay`` extra seconds per response."""
        return self.add_rule(host, FaultRule(
            kind="slow", start=start, end=end, probability=probability,
            delay=delay, tag=tag))

    def overloaded(self, host: str, probability: float = 1.0,
                   retry_after: Optional[int] = None,
                   start: Optional[int] = None, end: Optional[int] = None,
                   tag: str = "") -> FaultRule:
        """The host sheds load: HTTP 503, optionally with Retry-After."""
        return self.add_rule(host, FaultRule(
            kind="overloaded", start=start, end=end, probability=probability,
            retry_after=retry_after, tag=tag))

    def clear(self, host: Optional[str] = None, kind: Optional[str] = None,
              tag: Optional[str] = None) -> int:
        """Remove matching rules; ``None`` matches anything.  Returns
        how many rules were dropped."""
        removed = 0
        hosts = [host.lower()] if host is not None else list(self._rules)
        for key in hosts:
            rules = self._rules.get(key, [])
            kept = [r for r in rules
                    if (kind is not None and r.kind != kind)
                    or (tag is not None and r.tag != tag)]
            if kind is None and tag is None:
                kept = []
            removed += len(rules) - len(kept)
            if kept:
                self._rules[key] = kept
            else:
                self._rules.pop(key, None)
        return removed

    def is_trivial(self) -> bool:
        """True when the plan cannot affect any request."""
        return not self._rules

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _chance(self, host: str) -> float:
        """The next deterministic uniform draw in [0, 1) for ``host``."""
        count = self._draws.get(host, 0) + 1
        self._draws[host] = count
        digest = hashlib.sha256(
            f"{self.seed}:{host}:{count}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / 2.0 ** 64

    def fault_for(self, host: str, now: int) -> Optional[FaultRule]:
        """The fault (if any) this request observes.

        Host-specific rules are consulted before wildcard rules; within
        a list, scripting order.  Probabilistic rules each consume one
        deterministic draw, whether or not they fire.
        """
        host = host.lower()
        for key in (host, "*"):
            for rule in self._rules.get(key, ()):
                if not rule.active_at(now):
                    continue
                if rule.probability >= 1.0:
                    return rule
                if self._chance(host) < rule.probability:
                    return rule
        return None


class Network:
    """Routes requests to virtual hosts, injecting configured faults."""

    def __init__(self, clock: SimClock,
                 fault_plan: Optional[FaultPlan] = None) -> None:
        self.clock = clock
        self._hosts: Dict[str, HttpServer] = {}
        self.plan = fault_plan if fault_plan is not None else FaultPlan()
        self.unreachable = False
        self.log: List[RequestRecord] = []

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def add_server(self, server: HttpServer) -> HttpServer:
        self._hosts[server.host.lower()] = server
        return server

    def create_server(self, host: str, response_delay: int = 0) -> HttpServer:
        server = HttpServer(host, self.clock, response_delay=response_delay)
        return self.add_server(server)

    def server_for(self, host: str) -> Optional[HttpServer]:
        return self._hosts.get(host.lower())

    # ------------------------------------------------------------------
    # Fault injection (the paper's static switches, as trivial plans)
    # ------------------------------------------------------------------
    def kill_dns(self, host: str) -> None:
        """Host name stops resolving."""
        self.plan.outage(host, kind="dns", tag="toggle:dns")

    def restore_dns(self, host: str) -> None:
        self.plan.clear(host, tag="toggle:dns")

    def refuse_connections(self, host: str) -> None:
        """Host resolves but the server process is down."""
        self.plan.outage(host, kind="refused", tag="toggle:refused")

    def accept_connections(self, host: str) -> None:
        self.plan.clear(host, tag="toggle:refused")

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def request(self, request: Request) -> Response:
        """Deliver a request, or raise a :class:`NetworkError`."""
        host = request.url.host.lower()
        path = request.url.request_path

        def _log(status: Optional[int], error: Optional[str] = None) -> None:
            self.log.append(
                RequestRecord(
                    time=self.clock.now,
                    method=request.method,
                    host=host,
                    path=path,
                    status=status,
                    error=error,
                )
            )

        if self.unreachable:
            _log(None, "network unreachable")
            raise NetworkUnreachable("network is unreachable")
        fault = self.plan.fault_for(host, self.clock.now)
        if fault is not None and fault.kind == "dns":
            _log(None, "dns")
            raise DnsError(f"cannot resolve {host}")
        if host not in self._hosts:
            _log(None, "dns")
            raise DnsError(f"cannot resolve {host}")
        if fault is not None and fault.kind == "refused":
            _log(None, "refused")
            raise ConnectionRefused(f"{host} refused the connection")
        if fault is not None and fault.kind == "timeout":
            # Injected at the transport: the packets never arrive, so
            # unlike a slow server the origin does no work at all.
            _log(None, "timeout")
            raise TimeoutError_(
                f"{host} did not respond within {request.timeout}s"
            )
        if fault is not None and fault.kind == "overloaded":
            headers = Headers()
            headers.set("Content-Type", "text/html")
            if fault.retry_after is not None:
                headers.set("Retry-After", str(fault.retry_after))
            response = Response(status=503, headers=headers,
                                body="<P>Service overloaded</P>")
            _log(503)
            return response
        server = self._hosts[host]
        delay = server.response_delay
        if fault is not None and fault.kind == "slow":
            delay += fault.delay
        if delay > request.timeout:
            # The client hangs up before the server answers.  The
            # server still did the work (and its counters show it).
            server.request_count += 1
            _log(None, "timeout")
            raise TimeoutError_(
                f"{host} did not respond within {request.timeout}s"
            )
        response = server.handle(request)
        _log(response.status)
        return response

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def request_counts_by_host(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in self.log:
            counts[record.host] = counts.get(record.host, 0) + 1
        return counts

    def reset_log(self) -> None:
        self.log.clear()
