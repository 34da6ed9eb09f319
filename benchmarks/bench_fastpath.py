"""S4d — the HtmlDiff fast path end to end.

Measures ``html_diff`` with the full fast path (anchor decomposition +
exact fast lane/interning + bag-of-items bound) against the reference
path (all three off) on small/medium/large synthetic page pairs, and
verifies the two render byte-identical pages while timing them.

It also times the cold path on large pages: pairs per second over 40
seeded 120-paragraph ``MutationMix.typical`` pairs, one fresh
``html_diff`` each (no shared matcher memo), and the share of that
pipeline's wall time spent in each phase — tokenize
(``tokenize_document``), classify (``classify_documents``) and render
(``MergedPageRenderer.render_merged``).

And it times the worst case: two unrelated pages of the same size
(``PageGenerator`` seeds 1 and 2) at 20/60/120 paragraphs, where almost
every sentence pair is weighed, in seconds per pair.

Beyond the human-readable rows, the numbers land in
``benchmarks/results/BENCH_htmldiff.json`` so CI can archive them.
"""

import json
import os
import time

from repro.core.htmldiff.api import html_diff
from repro.core.htmldiff.classify import classify_documents
from repro.core.htmldiff.markup import MergedPageRenderer
from repro.core.htmldiff.matcher import TokenMatcher
from repro.core.htmldiff.options import HtmlDiffOptions
from repro.core.htmldiff.tokenizer import tokenize_document
from repro.workloads.mutate import MutationMix
from repro.workloads.pagegen import PageGenerator

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: (label, paragraphs, links, repetitions) — reps shrink as pages grow.
SIZES = (
    ("small", 10, 5, 5),
    ("medium", 40, 10, 3),
    ("large", 120, 15, 2),
)


def make_pair(paragraphs, links, seed=11, edits=3):
    old = PageGenerator(seed=seed).page(paragraphs=paragraphs, links=links)
    mix = MutationMix.typical(seed=seed)
    new = old
    for _ in range(edits):
        new = mix.apply(new)
    return old, new


def timed(old, new, options, reps):
    best = float("inf")
    html = None
    for _ in range(reps):
        start = time.perf_counter()
        result = html_diff(old, new, options=options)
        best = min(best, time.perf_counter() - start)
        html = result.html
    return best, html


#: The cold large-pair workload: this many fresh pairs of this size.
COLD_PAIRS = 40
COLD_PARAGRAPHS = 120


#: Paragraph counts of the unrelated same-size worst-case pairs.
WORST_CASE_PARAGRAPHS = (20, 60, 120)


def cold_pairs():
    """Seeded large pairs, one ``MutationMix.typical`` edit each."""
    pairs = []
    for seed in range(COLD_PAIRS):
        old = PageGenerator(seed=seed).page(paragraphs=COLD_PARAGRAPHS,
                                            links=15)
        pairs.append((old, MutationMix.typical(seed=seed).apply(old)))
    return pairs


def cold_pairs_per_second(pairs):
    start = time.perf_counter()
    for old, new in pairs:
        html_diff(old, new)
    return len(pairs) / (time.perf_counter() - start)


def worst_case_seconds():
    """Seconds for one ``html_diff`` of two unrelated same-size pages,
    keyed by paragraph count."""
    seconds = {}
    for paragraphs in WORST_CASE_PARAGRAPHS:
        old = PageGenerator(seed=1).page(paragraphs=paragraphs)
        new = PageGenerator(seed=2).page(paragraphs=paragraphs)
        start = time.perf_counter()
        html_diff(old, new)
        seconds[paragraphs] = time.perf_counter() - start
    return seconds


def phase_shares(pairs):
    """Share of the cold pipeline's wall time in each phase.  The
    pipeline makes ``html_diff``'s tokenize, classify and merged-render
    calls for every pair (the density fallback never skips the render);
    the shares are of the whole loop's wall time, so their sum shows
    how much of it the three phases account for."""
    options = HtmlDiffOptions()
    spent = {"tokenize": 0.0, "classify": 0.0, "render": 0.0}
    start = time.perf_counter()
    for old, new in pairs:
        t0 = time.perf_counter()
        old_tokens = tokenize_document(old)
        new_tokens = tokenize_document(new)
        t1 = time.perf_counter()
        diff = classify_documents(old_tokens, new_tokens,
                                  matcher=TokenMatcher(options))
        t2 = time.perf_counter()
        MergedPageRenderer(options).render_merged(diff)
        t3 = time.perf_counter()
        spent["tokenize"] += t1 - t0
        spent["classify"] += t2 - t1
        spent["render"] += t3 - t2
    total = time.perf_counter() - start
    return {phase: round(seconds / total, 4) for phase, seconds in spent.items()}


def test_fastpath_speedup(benchmark, sink):
    fast = HtmlDiffOptions()
    reference = fast.reference()

    sink.row("S4d: HtmlDiff fast path vs reference (byte-identical output)")
    sink.row(f"{'size':>6s} {'tokens':>7s} {'ref ms':>8s} {'fast ms':>8s} "
             f"{'tok/s fast':>11s} {'speedup':>8s}")

    report = {}
    for label, paragraphs, links, reps in SIZES:
        old, new = make_pair(paragraphs, links)
        tokens = len(tokenize_document(old)) + len(tokenize_document(new))
        ref_s, ref_html = timed(old, new, reference, reps)
        fast_s, fast_html = timed(old, new, fast, reps)
        assert fast_html == ref_html, f"{label}: fast path changed the output"
        speedup = ref_s / fast_s
        tokens_per_sec = tokens / fast_s
        report[label] = {
            "paragraphs": paragraphs,
            "tokens": tokens,
            "reference_seconds": round(ref_s, 6),
            "fast_seconds": round(fast_s, 6),
            "tokens_per_second_fast": round(tokens_per_sec, 1),
            "tokens_per_second_reference": round(tokens / ref_s, 1),
            "speedup": round(speedup, 2),
        }
        sink.row(f"{label:>6s} {tokens:7d} {ref_s * 1e3:8.1f} "
                 f"{fast_s * 1e3:8.1f} {tokens_per_sec:11.0f} "
                 f"{speedup:7.1f}x")

    pairs = cold_pairs()
    rate = cold_pairs_per_second(pairs)
    shares = phase_shares(pairs)
    report["cold_large"] = {
        "pairs": len(pairs),
        "paragraphs": COLD_PARAGRAPHS,
        "pairs_per_second": round(rate, 2),
        "phase_share": shares,
    }
    sink.row()
    sink.row(f"cold: {len(pairs)} fresh {COLD_PARAGRAPHS}-paragraph pairs, "
             f"{rate:.1f} pairs/s; phase share " + ", ".join(
                 f"{phase} {share:.0%}" for phase, share in shares.items()))
    # The three phases are the whole pipeline, up to timer overhead.
    assert abs(sum(shares.values()) - 1.0) <= 0.02, shares

    worst = worst_case_seconds()
    report["worst_case"] = {
        "seconds_per_pair": {str(p): round(s, 4) for p, s in worst.items()},
    }
    sink.row("worst case (unrelated same-size pages): " + ", ".join(
        f"{p} paragraphs {s:.2f} s" for p, s in worst.items()))

    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "BENCH_htmldiff.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)

    # The acceptance bar: at least 3x on the large workload.  (Measured
    # well above 10x; 3x keeps slow CI machines from flaking.)
    assert report["large"]["speedup"] >= 3.0
    # Doubling an unrelated pair's size should cost about 4x (the
    # sentence pairs weighed grow quadratically); 8x leaves room for
    # timing noise and still catches a superlinear memo or solver.
    assert worst[120] <= 8 * worst[60], worst

    old, new = make_pair(*SIZES[-1][1:3])
    benchmark(lambda: html_diff(old, new, options=fast))
