"""The store caches the served diff page, not HtmlDiff's token graph.

A full ``HtmlDiffResult`` keeps every classified entry, token and tag
of both documents alive: about 670 GC-tracked objects for each of the
60-paragraph pairs below, about 1,800 for perfbench's churn pages.
The diff cache and the request coalescer both hold what
:meth:`SnapshotStore.diff` returns, so that record must be plain data
the cyclic collector never has to walk.
"""

import gc

from repro.core.snapshot.store import DiffPage, SnapshotStore
from repro.simclock import HOUR, SimClock
from repro.web.client import UserAgent
from repro.web.network import Network
from repro.workloads.mutate import MutationMix
from repro.workloads.pagegen import PageGenerator

URL = "http://site.com/page"
DIFFS = 64


def tracked_objects():
    gc.collect()
    return len(gc.get_objects())


def archived_store():
    """A store holding DIFFS + 2 revisions of one 60-paragraph page."""
    clock = SimClock()
    store = SnapshotStore(clock, UserAgent(Network(clock), clock))
    page = PageGenerator(seed=7).page(paragraphs=60)
    mix = MutationMix.typical(seed=7)
    while store.archive_for(URL).revision_count < DIFFS + 2:
        store.checkin_content("fred", URL, page)
        clock.advance(HOUR)
        page = mix.apply(page)
    revisions = [info.number for info in store.archive_for(URL).revisions()]
    return store, revisions


def test_cached_diffs_hold_no_token_graph():
    store, revisions = archived_store()
    # One diff outside the measurement, so one-time state (compiled
    # patterns, interned names) is already built.
    store.diff("fred", URL, rev_old=revisions[0], rev_new=revisions[1])
    before = tracked_objects()
    results = [
        store.diff("fred", URL, rev_old=old, rev_new=new)
        for old, new in zip(revisions[1:], revisions[2:])
    ]
    growth = tracked_objects() - before
    assert len(results) == DIFFS
    assert store.htmldiff_invocations == DIFFS + 1
    # Both holders keep every result: the LRU and the coalescer's
    # same-instant window.
    assert len(store.diff_cache) == DIFFS + 1
    assert store.coalescer.peek(f"diff:{URL}:{revisions[1]}:{revisions[2]}")
    assert growth < 10 * DIFFS, f"{growth / DIFFS:.0f} tracked objects per diff"


def test_diff_returns_the_page_record():
    store, revisions = archived_store()
    result = store.diff("fred", URL, rev_old=revisions[0], rev_new=revisions[1])
    assert type(result) is DiffPage
    assert result._fields == ("html", "identical", "difference_count",
                              "change_density", "degraded")
    assert result.html.startswith("<")
    assert not result.identical and result.difference_count > 0
    assert 0.0 < result.change_density <= 1.0
    assert result.degraded is False
    # A cache hit returns the same record.
    again = store.diff("tom", URL, rev_old=revisions[0], rev_new=revisions[1])
    assert again is result
