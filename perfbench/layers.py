"""Which program functions the traced run wraps, and the per-layer table.

Span names are ``<layer>.<operation>``; a layer's self time is the sum
of the self times of its spans.  ``install`` wraps the functions where
they are bound by name (``repro.serve.server.parse_query_string`` and
every other import of ``parse_query_string``) and the methods on their
classes.  The benchmark's own spans are ``bench.*``: their self time is
driver time, the same as ``serve.loadgen``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Modules that generate load rather than serve it: calls they make
#: stay in the caller's span (``serve.loadgen`` is driver time).
DRIVER_MODULES = ("repro.serve.loadgen",)

#: (module, function, span name)
FUNCTIONS: List[Tuple[str, str, str]] = [
    ("repro.web.cgi", "parse_query_string", "web.cgi.parse"),
    ("repro.web.cgi", "encode_query_string", "web.cgi.encode"),
    ("repro.web.url", "parse_url", "web.url.parse"),
    ("repro.serve.cache", "cacheable_key", "serve.cache.key"),
    ("repro.core.snapshot.sharding", "append_sharded",
     "core.snapshot.persistence.append"),
    ("repro.core.htmldiff.api", "html_diff", "core.htmldiff.html_diff"),
    ("repro.core.htmldiff.tokenizer", "tokenize_document",
     "core.htmldiff.tokenize"),
    ("repro.core.htmldiff.classify", "classify_documents",
     "core.htmldiff.classify"),
    ("repro.html.lexer", "tokenize_html", "html.lexer"),
    ("repro.diffcore.lcs", "weighted_lcs_pairs", "diffcore.lcs.weighted"),
    ("repro.diffcore.lcs", "canonicalize_pairs", "diffcore.lcs.canonicalize"),
    ("repro.diffcore.anchor", "anchored_lcs_pairs", "diffcore.lcs.anchored"),
    ("repro.core.w3newer.scheduler", "build_schedule",
     "core.w3newer.schedule"),
    ("repro.core.w3newer.report", "render_report", "core.w3newer.report"),
]

#: (module, class, method, span name)
METHODS: List[Tuple[str, str, str, str]] = [
    ("repro.core.snapshot.sharding", "ShardRouter", "route",
     "core.snapshot.sharding.route"),
    ("repro.serve.pool", "WorkerPool", "admit", "serve.pool.admit"),
    ("repro.serve.cache", "ResponseCache", "get", "serve.cache.get"),
    ("repro.serve.cache", "ResponseCache", "put", "serve.cache.put"),
    ("repro.serve.cache", "ResponseCache", "invalidate_url",
     "serve.cache.invalidate"),
    ("repro.serve.server", "DiffServer", "dispatch", "serve.server.dispatch"),
    ("repro.serve.loadgen", "ClosedLoopLoad", "run", "serve.loadgen"),
    ("repro.core.snapshot.service", "SnapshotService", "__call__",
     "core.snapshot.service.call"),
    ("repro.core.snapshot.store", "SnapshotStore", "remember",
     "core.snapshot.store.remember"),
    ("repro.core.snapshot.store", "SnapshotStore", "diff",
     "core.snapshot.store.diff"),
    ("repro.core.snapshot.store", "SnapshotStore", "view",
     "core.snapshot.store.view"),
    ("repro.core.snapshot.store", "SnapshotStore", "view_at",
     "core.snapshot.store.view_at"),
    ("repro.core.snapshot.store", "SnapshotStore", "history",
     "core.snapshot.store.history"),
    ("repro.core.snapshot.store", "SnapshotStore", "checkin_content",
     "core.snapshot.store.checkin_content"),
    ("repro.rcs.archive", "RcsArchive", "checkin", "rcs.checkin"),
    ("repro.rcs.archive", "RcsArchive", "checkout", "rcs.checkout"),
    ("repro.core.htmldiff.markup", "MergedPageRenderer", "render_merged",
     "core.htmldiff.render"),
    ("repro.core.htmldiff.markup", "MergedPageRenderer",
     "render_only_differences", "core.htmldiff.render"),
    ("repro.core.htmldiff.markup", "MergedPageRenderer", "render_new_only",
     "core.htmldiff.render"),
    ("repro.core.w3newer.runner", "W3Newer", "run", "core.w3newer.run"),
    ("repro.core.w3newer.checker", "UrlChecker", "check",
     "core.w3newer.check"),
    ("repro.core.w3newer.crawl", "HostGovernor", "place",
     "core.w3newer.governor"),
    ("repro.core.w3newer.estimator", "ChangeRateEstimator", "p_changed",
     "core.w3newer.estimator"),
    ("repro.core.w3newer.estimator", "ChangeRateEstimator", "observe",
     "core.w3newer.estimator"),
    ("repro.core.w3newer.estimator", "ChangeRateEstimator", "observe_miss",
     "core.w3newer.estimator"),
    ("repro.web.network", "Network", "request", "web.network.request"),
    ("repro.core.snapshot.sched", "SimScheduler", "run",
     "core.snapshot.sched.run"),
    ("repro.core.snapshot.sched", "SimScheduler", "checkpoint",
     "core.snapshot.sched.checkpoint"),
]

#: Spans in which a thread waits for another to run.
HANDOFFS = ("core.snapshot.sched.run", "core.snapshot.sched.checkpoint")

#: Layer groups for the share metrics (prefix match on span names).
LAYERS: Dict[str, Tuple[str, ...]] = {
    "frontend": ("web.cgi.", "core.snapshot.sharding.", "serve.pool.",
                 "serve.cache.", "serve.server."),
    "htmldiff": ("core.htmldiff.", "diffcore.", "html."),
    "store": ("core.snapshot.service.", "core.snapshot.store.", "rcs.",
              "core.snapshot.persistence."),
    "crawl": ("core.w3newer.", "web.network.", "core.snapshot.sched."),
    "url": ("web.url.",),
    "driver": ("bench.", "serve.loadgen"),
}

#: Per-layer metrics with calls and self time per op.
CALLS_AND_SELF = [
    ("web.cgi.parse", ("web.cgi.parse",)),
    ("web.cgi.encode", ("web.cgi.encode",)),
    ("web.url.parse", ("web.url.parse",)),
    ("core.snapshot.sharding.route", ("core.snapshot.sharding.route",)),
    ("serve.pool.admit", ("serve.pool.admit",)),
    ("serve.server.dispatch", ("serve.server.dispatch",)),
    ("core.snapshot.store.remember", ("core.snapshot.store.remember",)),
    ("core.snapshot.store.diff", ("core.snapshot.store.diff",
                                  "core.snapshot.store.checkin_content")),
    ("core.snapshot.store.view", ("core.snapshot.store.view",
                                  "core.snapshot.store.view_at")),
    ("core.snapshot.store.history", ("core.snapshot.store.history",)),
    ("rcs.checkin", ("rcs.checkin",)),
    ("rcs.checkout", ("rcs.checkout",)),
    ("core.snapshot.persistence.append",
     ("core.snapshot.persistence.append",)),
    ("core.htmldiff.html_diff", ("core.htmldiff.html_diff",)),
    ("diffcore.lcs", ("diffcore.lcs.weighted", "diffcore.lcs.canonicalize",
                      "diffcore.lcs.anchored")),
    ("core.w3newer.check", ("core.w3newer.check",)),
    ("web.network.request", ("web.network.request",)),
]

#: Per-layer metrics with self time per op only.
SELF_ONLY = [
    ("serve.cache", ("serve.cache.get", "serve.cache.put",
                     "serve.cache.invalidate", "serve.cache.key")),
    ("serve.loadgen", ("serve.loadgen",)),
    ("core.snapshot.service.call", ("core.snapshot.service.call",)),
    ("core.htmldiff.tokenize", ("core.htmldiff.tokenize",)),
    ("core.htmldiff.classify", ("core.htmldiff.classify",)),
    ("core.htmldiff.render", ("core.htmldiff.render",)),
    ("html.lexer", ("html.lexer",)),
    ("core.w3newer.schedule", ("core.w3newer.schedule",)),
    ("core.w3newer.report", ("core.w3newer.report",)),
    ("core.w3newer.estimator", ("core.w3newer.estimator",)),
    ("core.w3newer.run", ("core.w3newer.run", "core.w3newer.governor")),
    ("bench.driver", ("bench.block",)),
]

#: Counts the workloads report from the program's own stats, per op
#: unless the name says rate, ratio or share.
STATS_METRICS = [
    ("serve.pool.admitted", "1/op"),
    ("serve.pool.rejected", "1/op"),
    ("serve.cache.hit_rate", "ratio"),
    ("serve.cache.invalidations", "1/op"),
    ("serve.server.dispatches_per_op", "1/op"),
    ("serve.virtual_p99_s", "s"),
    ("serve.virtual_makespan_s", "s"),
    ("core.snapshot.diffcache.hit_rate", "ratio"),
    ("core.snapshot.checkoutcache.hit_rate", "ratio"),
    ("core.snapshot.archive_bytes_ratio", "ratio"),
    ("core.snapshot.persistence.append.bytes", "B/op"),
    ("core.w3newer.detections_per_request", "ratio"),
]


def install(tracer) -> None:
    """Register every wrapper with ``tracer`` (not yet enabled)."""
    import importlib

    def count_tokens(t, tokens):
        t.count("core.htmldiff.tokens", len(tokens))

    def count_degraded(t, result):
        if result.degraded:
            t.count("core.htmldiff.degraded")

    def count_handoff(t, _result):
        t.count("core.snapshot.sched.handoffs")

    hooks = {
        "core.htmldiff.tokenize": count_tokens,
        "core.htmldiff.html_diff": count_degraded,
        "core.snapshot.sched.checkpoint": count_handoff,
    }
    for module, attr, name in FUNCTIONS:
        importlib.import_module(module)
        tracer.wrap_function(module, attr, name, hooks.get(name),
                             skip=DRIVER_MODULES)
    for module, cls_name, attr, name in METHODS:
        cls = getattr(importlib.import_module(module), cls_name)
        tracer.wrap_method(cls, attr, name, hooks.get(name))
    tracer.name_index("bench.block")


def names() -> List[Tuple[str, str]]:
    """Every per-layer metric as (name, unit), in output order."""
    out = []
    for metric, _spans in CALLS_AND_SELF:
        out.append((f"{metric}.calls", "1/op"))
        out.append((f"{metric}.self_ms", "ms/op"))
    for metric, _spans in SELF_ONLY:
        out.append((f"{metric}.self_ms", "ms/op"))
    out += [
        ("serve.cache.get_calls", "1/op"),
        ("core.htmldiff.tokens", "1/op"),
        ("core.htmldiff.degraded", "count"),
        ("core.snapshot.sched.handoffs", "1/op"),
        ("core.snapshot.sched.wait_ms", "ms/op"),
    ]
    out += STATS_METRICS
    out += [(f"layer.{layer}.share", "ratio") for layer in LAYERS]
    out += [
        ("trace.overhead_share", "ratio"),
        ("trace.unaccounted_share", "ratio"),
        ("trace.attribution_gap_share", "ratio"),
        ("failed_share", "ratio"),
    ]
    return out


def better(name: str) -> str:
    """Which direction of a per-layer metric is an improvement."""
    if name.endswith("hit_rate") or name.endswith("detections_per_request"):
        return "higher"
    return "lower"


def table(totals: Dict[str, Tuple[int, float]], counters: Dict[str, float],
          traced_ops: int, scale: float) -> Dict[str, float]:
    """Per-op span metrics and layer shares from the tracer's totals;
    self times are multiplied by ``scale`` (reference-host time over
    wall time)."""
    ops = max(1, traced_ops)

    def calls(spans):
        return sum(totals.get(name, (0, 0.0))[0] for name in spans) / ops

    def self_ms(spans):
        return 1000.0 * scale * sum(totals.get(name, (0, 0.0))[1]
                                    for name in spans) / ops

    out: Dict[str, float] = {}
    for metric, spans in CALLS_AND_SELF:
        out[f"{metric}.calls"] = calls(spans)
        out[f"{metric}.self_ms"] = self_ms(spans)
    for metric, spans in SELF_ONLY:
        out[f"{metric}.self_ms"] = self_ms(spans)
    out["serve.cache.get_calls"] = calls(("serve.cache.get",))
    out["core.htmldiff.tokens"] = counters.get("core.htmldiff.tokens", 0) / ops
    out["core.htmldiff.degraded"] = counters.get("core.htmldiff.degraded", 0)
    out["core.snapshot.sched.handoffs"] = counters.get(
        "core.snapshot.sched.handoffs", 0) / ops
    out["core.snapshot.sched.wait_ms"] = self_ms(HANDOFFS)
    total = sum(seconds for _calls, seconds in totals.values())
    for layer, prefixes in LAYERS.items():
        share = sum(seconds for name, (_c, seconds) in totals.items()
                    if name.startswith(prefixes))
        out[f"layer.{layer}.share"] = share / total if total else 0.0
    return out
