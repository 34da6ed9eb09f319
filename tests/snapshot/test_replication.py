"""Tests for the simultaneous-user limit and replication across
machines (§4.2), as the diff server provides them: one shard per
machine, a per-machine worker limit with no queue, URL-hash routing."""

import pytest

from repro.serve import DiffServer
from repro.simclock import DAY, SimClock
from repro.web.client import UserAgent
from repro.web.network import Network


@pytest.fixture
def world():
    clock = SimClock()
    network = Network(clock)
    origin = network.create_server("site.com")
    for i in range(12):
        origin.set_page(f"/p{i}.html", f"<P>page {i} content.</P>")
    agent = UserAgent(network, clock)
    return clock, network, origin, agent


def make_server(clock, network, agent, machines=1, limit=10):
    """``machines`` shards of ``limit`` workers each, no queue, mounted
    where the CGI script would be."""
    server = DiffServer(clock, agent, shards=machines,
                        workers_per_shard=limit, queue_limit=0)
    network.create_server("aide.att.com").register_cgi(
        "/cgi-bin/snapshot", server)
    return server


def call(client, query):
    return client.get(f"http://aide.att.com/cgi-bin/snapshot?{query}").response


class TestAdmissionControl:
    def test_over_limit_gets_503(self, world):
        clock, network, origin, agent = world
        server = make_server(clock, network, agent, limit=3)
        client = UserAgent(network, clock)
        statuses = [
            call(client, f"action=remember&url=http://site.com/p{i}.html&user=u{i}").status
            for i in range(5)
        ]
        assert statuses[:3] == [200, 200, 200]
        assert statuses[3:] == [503, 503]
        pool = server.pools[0]
        assert pool.admitted == 3 and pool.rejected == 2

    def test_limit_resets_next_instant(self, world):
        """The limit counts requests in flight: once the admitted one's
        worker frees (after its simulated cost), admission resumes."""
        clock, network, origin, agent = world
        server = make_server(clock, network, agent, limit=1)
        client = UserAgent(network, clock)
        assert call(client, "action=remember&url=http://site.com/p0.html&user=a").status == 200
        rejected = call(client, "action=remember&url=http://site.com/p1.html&user=a")
        assert rejected.status == 503
        clock.advance(int(rejected.headers.get("Retry-After")))
        assert call(client, "action=remember&url=http://site.com/p1.html&user=a").status == 200

    def test_bad_limit(self, world):
        clock, network, origin, agent = world
        with pytest.raises(ValueError):
            DiffServer(clock, agent, shards=1, workers_per_shard=0)
        with pytest.raises(ValueError):
            DiffServer(clock, agent, shards=1, queue_limit=-1)


class TestReplication:
    def test_routing_is_stable_and_partitioned(self, world):
        clock, network, origin, agent = world
        server = make_server(clock, network, agent, machines=3)
        for url in (f"http://site.com/p{i}.html" for i in range(12)):
            assert server.store.shard_for(url) == server.store.shard_for(url)
        indices = {server.store.shard_for(f"http://site.com/p{i}.html")
                   for i in range(12)}
        assert len(indices) > 1  # load actually spreads

    def test_each_archive_lives_on_one_replica(self, world):
        clock, network, origin, agent = world
        server = make_server(clock, network, agent, machines=3)
        client = UserAgent(network, clock)
        for i in range(12):
            resp = call(client,
                        f"action=remember&url=http://site.com/p{i}.html&user=u")
            assert resp.status == 200
        assert server.store.url_count() == 12  # no page stored twice
        per_machine = [shard.url_count() for shard in server.store.shards]
        assert sum(per_machine) == 12
        assert max(per_machine) < 12  # and not all on one machine

    def test_diff_reaches_the_right_replica(self, world):
        clock, network, origin, agent = world
        make_server(clock, network, agent, machines=3)
        client = UserAgent(network, clock)
        call(client, "action=remember&url=http://site.com/p0.html&user=fred")
        clock.advance(DAY)
        origin.set_page("/p0.html", "<P>page 0 rewritten entirely anew.</P>")
        resp = call(client, "action=diff&url=http://site.com/p0.html&user=fred")
        assert resp.status == 200
        assert "Internet Difference Engine" in resp.body

    def test_no_replicas_rejected(self, world):
        clock, network, origin, agent = world
        with pytest.raises(ValueError):
            DiffServer(clock, agent, shards=0)
