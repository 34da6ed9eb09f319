"""Invariants of ``DiffServer.dispatch`` under a seeded overload.

A dispatch does only the work its outcome needs, and skipping work
must not change what anyone can observe:

* a cache hit that is shed makes no response copy, yet counts the hit
  and refreshes the entry's LRU recency exactly as a served hit does;
* a served hit is copied once, and no response handed out is ever the
  cached object itself;
* with obs on, every busy-worker and queue-depth gauge reading equals
  a recount at that admission; with obs off the responses are the same
  bytes.
"""

from repro.obs import Observability
from repro.serve import ClosedLoopLoad, DiffServer, build_world, seed_world
from repro.serve import cache as cache_module
from repro.serve import server as server_module
from repro.serve.pool import Rejection

SEED = 4242


def overloaded_server(obs=None):
    world = build_world(SEED, pages=24)
    server = DiffServer(world.clock, world.agent, shards=2,
                        workers_per_shard=2, queue_limit=3,
                        response_cache_size=48, obs=obs)
    revisions = seed_world(server, world, seed=SEED, rounds=3, curators=2)
    load = ClosedLoopLoad(SEED, world.urls, revisions, users=400,
                          requests_per_user=2, think_time=5,
                          arrival_window=20, curators=2)
    return world, server, load


def cache_state(server):
    return [(list(cache._entries), cache.stats())
            for cache in server.response_caches]


class Probe:
    """Forwards dispatches and checks each one's effect on the caches."""

    def __init__(self, server, monkeypatch):
        self.server = server
        self.copies = 0
        self.shed_hits = self.served_hits = 0
        real = server_module.copy_response

        def counting_copy(response):
            self.copies += 1
            return real(response)

        monkeypatch.setattr(server_module, "copy_response", counting_copy)
        monkeypatch.setattr(cache_module, "copy_response", counting_copy)

    def dispatch(self, request, now):
        server = self.server
        before = cache_state(server)
        hits, copies = server.cache_hits, self.copies
        response, schedule = server.dispatch(request, now)
        after = cache_state(server)
        cached = [entry for cache in server.response_caches
                  for entry in cache._entries.values()]
        assert all(response is not entry for entry in cached)
        if server.cache_hits == hits:
            return response, schedule
        # One hit: exactly one cache counted it and moved its key last.
        changed = [i for i, (b, a) in enumerate(zip(before, after)) if b != a]
        assert len(changed) == 1
        (order_before, stats_before), (order_after, stats_after) = (
            before[changed[0]], after[changed[0]])
        key = order_after[-1]
        assert order_after == [k for k in order_before if k != key] + [key]
        lookups = stats_before["hits"] + stats_before["misses"] + 1
        assert stats_after == dict(
            stats_before, hits=stats_before["hits"] + 1,
            hit_rate=(stats_before["hits"] + 1) / lookups)
        if isinstance(schedule, Rejection):
            self.shed_hits += 1
            assert self.copies == copies
            assert response.status == 503
        else:
            self.served_hits += 1
            assert self.copies == copies + 1
            entry = server.response_caches[changed[0]]._entries[key]
            assert (response.status, response.body) == (entry.status,
                                                        entry.body)
            assert response.headers is not entry.headers
        return response, schedule


def test_shed_hits_make_no_copy_and_keep_the_cache_rules(monkeypatch):
    _world, server, load = overloaded_server()
    probe = Probe(server, monkeypatch)
    report = load.run(probe)
    assert report.completed == report.requests
    assert probe.shed_hits > 100 and probe.served_hits > 100
    assert server.cache_hits == probe.shed_hits + probe.served_hits


def test_gauges_match_a_recount_at_every_admission():
    _world, server, load = overloaded_server(
        obs=Observability(enabled=True))
    readings = []
    for index, pool in enumerate(server.pools):
        name = f"serve.shard{index:02d}.pool"
        busy = server.obs.gauge(f"{name}.busy_workers")
        depth = server.obs.gauge(f"{name}.queue_depth")

        def admit(cost, now, pool=pool, real=pool.admit, busy=busy,
                  depth=depth):
            result = real(cost, now)
            readings.append((busy.value, pool.busy_workers(now),
                             depth.value, pool.queue_depth(now)))
            return result

        pool.admit = admit
    load.run(server)
    assert len(readings) > 1000
    assert any(busy for busy, _recount, _depth, _queued in readings)
    for busy, recount, depth, queued in readings:
        assert busy == recount
        assert depth == queued


def test_obs_on_and_off_serve_the_same_bytes():
    served = []
    for obs in (Observability(enabled=True), None):
        _world, server, load = overloaded_server(obs=obs)
        report = load.run(server)
        served.append((
            {key: (r.status, r.body) for key, r in report.responses.items()},
            report.to_dict(), server.stats()))
    assert served[0] == served[1]
