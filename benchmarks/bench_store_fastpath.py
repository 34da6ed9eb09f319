"""S7b — the snapshot-storage fast path end to end.

Four scenarios, each measuring one fast-path layer against the
reference path (``StoreOptions().reference()``, the paper's exact cost
model) while asserting byte-identical outputs:

* **deep checkout** — revision 1 of a 500-revision archive: keyframe
  checkpoints vs the full reverse-delta chain walk (gate: ≥5x);
* **multi-user coalescing** — 25 users remember the same URL at the
  same instant: one fetch + one check-in fanned out vs 25 independent
  check-ins (gate: ≥3x);
* **revision lookup** — ``revision_at`` over a 1000-revision archive:
  bisect vs linear scan;
* **append-only persistence** — syncing 10 new check-ins into a
  200-URL repository: journal append vs full ``,v`` rewrite; and the
  journal bytes a sync writes per check-in against the bytes of the
  texts it journals, on 60-paragraph pages edited by the archive-churn
  mix (gate: the line-delta journal writes at most 1/20 of them).

Results land in ``benchmarks/results/BENCH_snapshot.json`` next to
``BENCH_htmldiff.json`` so CI can archive them.
"""

import json
import os
import time

from repro.core.snapshot.persistence import append_store, load_store, save_store
from repro.core.snapshot.store import SnapshotStore, StoreOptions
from repro.rcs.archive import RcsArchive
from repro.simclock import SimClock
from repro.web.client import UserAgent
from repro.web.network import Network
from repro.workloads.mutate import MutationMix
from repro.workloads.pagegen import PageGenerator

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

DEEP_REVISIONS = 500
COALESCE_USERS = 25
LOOKUP_REVISIONS = 1000
JOURNAL_URLS = 200
#: Page size of the journal-bytes measurement: archive-churn's pages
#: run from 20 to 120 paragraphs.
JOURNAL_BYTES_PARAGRAPHS = 60
#: ``MutationMix.typical`` without ``rewrite``, as archive-churn edits.
CHURN_MIX = {"append_paragraph": 0.30, "edit_sentence": 0.30,
             "add_link": 0.20, "delete_paragraph": 0.10, "restructure": 0.05}


def history(revisions, seed=23, paragraphs=30):
    page = PageGenerator(seed=seed).page(paragraphs=paragraphs, links=10)
    mix = MutationMix.typical(seed=seed)
    texts = [page]
    while len(texts) < revisions:
        page = mix.apply(page)
        if page != texts[-1]:
            texts.append(page)
    return texts


def best_of(repetitions, work, *, setup=None):
    best = float("inf")
    value = None
    for _ in range(repetitions):
        state = setup() if setup is not None else None
        start = time.perf_counter()
        value = work(state) if setup is not None else work()
        best = min(best, time.perf_counter() - start)
    return best, value


# ----------------------------------------------------------------------
def scenario_deep_checkout(sink):
    texts = history(DEEP_REVISIONS)
    keyframed = RcsArchive("deep", keyframe_interval=16)
    reference = RcsArchive("deep")
    for date, text in enumerate(texts):
        keyframed.checkin(text, date=date)
        reference.checkin(text, date=date)

    loops = 20
    ref_s, ref_text = best_of(
        3, lambda: [reference.checkout("1.1") for _ in range(loops)][-1])
    fast_s, fast_text = best_of(
        3, lambda: [keyframed.checkout("1.1") for _ in range(loops)][-1])
    assert fast_text == ref_text == texts[0], "keyframes changed the output"
    speedup = ref_s / fast_s
    sink.row(f"  deep checkout (rev 1 of {DEEP_REVISIONS}): "
             f"ref {ref_s / loops * 1e3:.3f} ms  fast {fast_s / loops * 1e3:.3f} ms  "
             f"{speedup:.1f}x  (chain {reference.chain_length('1.1')} -> "
             f"{keyframed.chain_length('1.1')} deltas)")
    return {
        "revisions": DEEP_REVISIONS,
        "keyframe_interval": 16,
        "reference_ms_per_checkout": round(ref_s / loops * 1e3, 4),
        "fast_ms_per_checkout": round(fast_s / loops * 1e3, 4),
        "reference_chain_length": reference.chain_length("1.1"),
        "fast_chain_length": keyframed.chain_length("1.1"),
        "speedup": round(speedup, 2),
    }


def scenario_coalescing(sink):
    page = PageGenerator(seed=31).page(paragraphs=400, links=20)
    users = [f"user{i}@att.com" for i in range(COALESCE_USERS)]

    def make_world(options):
        clock = SimClock()
        network = Network(clock)
        network.create_server("busy.com").set_page("/hot.html", page)
        store = SnapshotStore(clock, UserAgent(network, clock),
                              options=options)
        return store

    def sweep(store):
        return [store.remember(user, "http://busy.com/hot.html")
                for user in users]

    ref_s, ref_results = best_of(
        5, sweep, setup=lambda: make_world(StoreOptions().reference()))
    fast_s, fast_results = best_of(
        5, sweep, setup=lambda: make_world(StoreOptions()))

    assert [r.revision for r in fast_results] == \
        [r.revision for r in ref_results]
    assert [r.changed for r in fast_results] == \
        [r.changed for r in ref_results]
    speedup = ref_s / fast_s
    sink.row(f"  {COALESCE_USERS}-user same-instant remember: "
             f"ref {ref_s * 1e3:.2f} ms  coalesced {fast_s * 1e3:.2f} ms  "
             f"{speedup:.1f}x")
    return {
        "users": COALESCE_USERS,
        "page_bytes": len(page),
        "reference_ms": round(ref_s * 1e3, 3),
        "coalesced_ms": round(fast_s * 1e3, 3),
        "speedup": round(speedup, 2),
    }


def scenario_revision_lookup(sink):
    indexed = RcsArchive("lookup")
    for date in range(LOOKUP_REVISIONS):
        indexed.checkin(f"line\nrevision {date}\n", date=date * 10)

    queries = list(range(-5, LOOKUP_REVISIONS * 10 + 5, 7))

    def with_bisect():
        return [indexed.revision_at(q) for q in queries][-1]

    def with_scan():
        # The pre-index cost model: force the linear fallback.
        indexed._dates_monotonic = False
        try:
            return [indexed.revision_at(q) for q in queries][-1]
        finally:
            indexed._dates_monotonic = True

    ref_s, ref_last = best_of(3, with_scan)
    fast_s, fast_last = best_of(3, with_bisect)
    assert ref_last.number == fast_last.number
    speedup = ref_s / fast_s
    sink.row(f"  revision_at x{len(queries)} on {LOOKUP_REVISIONS} revs: "
             f"scan {ref_s * 1e3:.1f} ms  bisect {fast_s * 1e3:.1f} ms  "
             f"{speedup:.1f}x")
    return {
        "revisions": LOOKUP_REVISIONS,
        "queries": len(queries),
        "scan_ms": round(ref_s * 1e3, 3),
        "bisect_ms": round(fast_s * 1e3, 3),
        "speedup": round(speedup, 2),
    }


def scenario_journal(sink, tmp_base):
    clock = SimClock()
    network = Network(clock)
    store = SnapshotStore(clock, UserAgent(network, clock))
    gen = PageGenerator(seed=47)
    for index in range(JOURNAL_URLS):
        clock.advance(1)
        store.checkin_content(
            "archiver@att.com", f"http://corpus.org/doc{index}.html",
            gen.page(paragraphs=6, links=3))

    full_dir = os.path.join(tmp_base, "full")
    journal_dir = os.path.join(tmp_base, "journal")
    save_store(store, journal_dir)

    mix = MutationMix.typical(seed=5)
    for index in range(10):
        clock.advance(1)
        url = f"http://corpus.org/doc{index}.html"
        store.checkin_content(
            "archiver@att.com", url,
            mix.apply(store.view(url, rewrite_base=False)))

    # One shot: append_store mutates the persistence markers, so the
    # first call is the measurement.
    journal_s, appended = best_of(1, lambda: append_store(store, journal_dir))
    assert appended == 10
    full_s, _ = best_of(3, lambda: save_store(store, full_dir))

    # The journal-loaded store equals the fully-rewritten one.
    check_full = SnapshotStore(clock, store.agent)
    check_journal = SnapshotStore(clock, store.agent)
    load_store(check_full, full_dir)
    load_store(check_journal, journal_dir)
    from repro.rcs.rcsfile import serialize_rcsfile
    assert {u: serialize_rcsfile(a) for u, a in check_full.archives.items()} \
        == {u: serialize_rcsfile(a) for u, a in check_journal.archives.items()}

    speedup = full_s / journal_s
    journal_bytes, text_bytes = journal_bytes_per_checkin(
        os.path.join(tmp_base, "bytes"))
    sink.row(f"  sync 10 check-ins into {JOURNAL_URLS}-URL repo: "
             f"rewrite {full_s * 1e3:.1f} ms  journal {journal_s * 1e3:.1f} ms  "
             f"{speedup:.1f}x; {journal_bytes:.0f} journal bytes per "
             f"check-in of a {text_bytes:.0f}-byte page")
    return {
        "urls": JOURNAL_URLS,
        "new_checkins": 10,
        "full_rewrite_ms": round(full_s * 1e3, 3),
        "journal_append_ms": round(journal_s * 1e3, 3),
        "speedup": round(speedup, 2),
        "journal_bytes_per_checkin": round(journal_bytes, 1),
        "text_bytes_per_checkin": round(text_bytes, 1),
    }


def journal_bytes_per_checkin(directory):
    """(journal bytes, text bytes) per check-in of one sync of 10
    edited ``JOURNAL_BYTES_PARAGRAPHS``-paragraph pages."""
    clock = SimClock()
    store = SnapshotStore(clock, UserAgent(Network(clock), clock))
    gen = PageGenerator(seed=47)
    urls = [f"http://corpus.org/big{index}.html" for index in range(10)]
    for url in urls:
        clock.advance(1)
        store.checkin_content("archiver@att.com", url, gen.page(
            paragraphs=JOURNAL_BYTES_PARAGRAPHS, links=10))
    save_store(store, directory)
    mix = MutationMix(CHURN_MIX, seed=5)
    text_bytes = 0
    for url in urls:
        clock.advance(1)
        text = mix.apply(store.view(url, rewrite_base=False))
        store.checkin_content("archiver@att.com", url, text)
        text_bytes += len(text.encode("utf-8"))
    assert append_store(store, directory) == len(urls)
    journal = os.path.getsize(os.path.join(directory, "journal.log"))
    return journal / len(urls), text_bytes / len(urls)


# ----------------------------------------------------------------------
def test_store_fastpath(benchmark, sink, tmp_path):
    sink.row("S7b: snapshot storage fast path vs reference "
             "(byte-identical outputs)")
    report = {
        "deep_checkout": scenario_deep_checkout(sink),
        "remember_coalescing": scenario_coalescing(sink),
        "revision_lookup": scenario_revision_lookup(sink),
        "journal_persistence": scenario_journal(sink, str(tmp_path)),
    }

    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "BENCH_snapshot.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)

    # Acceptance bars (measured far above; the margins keep slow CI
    # machines from flaking).
    assert report["deep_checkout"]["speedup"] >= 5.0
    assert report["remember_coalescing"]["speedup"] >= 3.0
    journal = report["journal_persistence"]
    assert journal["journal_bytes_per_checkin"] * 20 \
        <= journal["text_bytes_per_checkin"]

    # pytest-benchmark row: the headline deep-checkout scenario.
    texts = history(DEEP_REVISIONS)
    archive = RcsArchive("bench", keyframe_interval=16)
    for date, text in enumerate(texts):
        archive.checkin(text, date=date)
    benchmark(lambda: archive.checkout("1.1"))
