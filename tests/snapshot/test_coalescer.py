"""RequestCoalescer: bounded memory, unchanged answers.

The coalescer drops results once they can never be served again.  The
reference model below never drops anything; on seeded operation
sequences both must give the same ``do`` values, the same ``peek``
answers and the same execution/coalesced counts.
"""

import random

import pytest

from repro.core.snapshot.locking import RequestCoalescer
from repro.simclock import SimClock


class NeverEvicting:
    """The coalescer's contract with unbounded memory."""

    def __init__(self, clock, ttl):
        self.clock = clock
        self.ttl = ttl
        self.results = {}
        self.executions = 0
        self.coalesced = 0

    def _fresh(self, key):
        entry = self.results.get(key)
        if entry is None:
            return False
        produced_at = entry[0]
        return self.clock.now == produced_at or (
            self.ttl > 0 and self.clock.now - produced_at < self.ttl)

    def peek(self, key):
        return self._fresh(key)

    def do(self, key, work):
        if self._fresh(key):
            self.coalesced += 1
            return self.results[key][1]
        self.executions += 1
        value = work()
        self.results[key] = (self.clock.now, value)
        return value

    def invalidate(self, prefix=""):
        for key in [k for k in self.results if k.startswith(prefix)]:
            del self.results[key]


KEYS = [f"{kind}:{url}:{n}" for kind in ("diff", "fetch")
        for url in ("a", "b", "c") for n in range(3)]
PREFIXES = ("", "diff:", "fetch:a:", "diff:b:1")


@pytest.mark.parametrize("ttl", [0, 1, 7, 40])
@pytest.mark.parametrize("seed", range(6))
def test_same_answers_as_never_evicting_model(ttl, seed):
    rng = random.Random(seed * 100 + ttl)
    clock = SimClock()
    real = RequestCoalescer(clock, ttl=ttl)
    model = NeverEvicting(clock, ttl)
    for step in range(3000):
        roll = rng.random()
        key = rng.choice(KEYS)
        if roll < 0.15:
            clock.advance(rng.choice((0, 1, 1, 2, 5, ttl, ttl + 1)))
        elif roll < 0.25:
            assert real.peek(key) == model.peek(key), step
        elif roll < 0.28:
            prefix = rng.choice(PREFIXES)
            real.invalidate(prefix)
            model.invalidate(prefix)
        else:
            assert real.do(key, lambda: step) == \
                model.do(key, lambda: step), step
    assert (real.executions, real.coalesced) == \
        (model.executions, model.coalesced)
    assert len(real._results) <= len(model.results)


def test_work_that_stores_a_nested_result():
    """A ``work`` that itself runs through the coalescer (a diff that
    fetches) leaves both results served."""
    clock = SimClock()
    coalescer = RequestCoalescer(clock, ttl=0)
    assert coalescer.do("outer", lambda: coalescer.do("inner", lambda: 1) + 1) == 2
    assert coalescer.peek("outer") and coalescer.peek("inner")
    clock.advance(1)
    assert coalescer.do("outer", lambda: 5) == 5
    assert not coalescer.peek("inner")


@pytest.mark.parametrize("ttl", [0, 30])
def test_memory_stays_bounded_over_many_instants(ttl):
    """Keys that carry the instant (``fetch:<url>:<now>``) are never
    asked for again; only the fresh window may stay resident."""
    clock = SimClock()
    coalescer = RequestCoalescer(clock, ttl=ttl)
    per_instant = 3
    for _instant in range(10_000):
        for url in range(per_instant):
            coalescer.do(f"fetch:{url}:{clock.now}", lambda: "body")
            coalescer.do(f"diff:{url}:1.1:1.2", lambda: "page")
        assert len(coalescer._results) <= per_instant * (max(ttl, 1) + 1)
        clock.advance(1)
