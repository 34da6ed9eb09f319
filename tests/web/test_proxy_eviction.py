"""Tests for proxy cache capacity limits and LRU eviction."""

import pytest

from repro.simclock import HOUR, SimClock
from repro.web.client import UserAgent
from repro.web.network import Network
from repro.web.proxy import ProxyCache
from repro.web.url import parse_url


@pytest.fixture
def world():
    clock = SimClock()
    network = Network(clock)
    server = network.create_server("big.com")
    for i in range(10):
        server.set_page(f"/p{i}", "X" * 100)  # 100 bytes each
    proxy = ProxyCache(network, clock, ttl=HOUR, capacity_bytes=350)
    agent = UserAgent(network, clock, proxy=proxy)
    return clock, network, server, proxy, agent


class TestCapacity:
    def test_stays_under_budget(self, world):
        clock, network, server, proxy, agent = world
        for i in range(10):
            agent.get(f"http://big.com/p{i}")
        assert proxy.cached_bytes <= 350
        assert proxy.evictions > 0

    def test_lru_order_evicted_first(self, world):
        clock, network, server, proxy, agent = world
        agent.get("http://big.com/p0")
        agent.get("http://big.com/p1")
        agent.get("http://big.com/p2")
        # Touch p0 so p1 becomes the least recently used.
        agent.get("http://big.com/p0")
        agent.get("http://big.com/p3")  # forces one eviction
        assert proxy.contains(parse_url("http://big.com/p0"))
        assert not proxy.contains(parse_url("http://big.com/p1"))

    def test_eviction_costs_a_refetch(self, world):
        clock, network, server, proxy, agent = world
        for i in range(10):
            agent.get(f"http://big.com/p{i}")
        before = server.get_count
        agent.get("http://big.com/p0")  # long since evicted
        assert server.get_count == before + 1

    def test_unbounded_by_default(self):
        clock = SimClock()
        network = Network(clock)
        server = network.create_server("big.com")
        for i in range(10):
            server.set_page(f"/p{i}", "X" * 100)
        proxy = ProxyCache(network, clock, ttl=HOUR)
        agent = UserAgent(network, clock, proxy=proxy)
        for i in range(10):
            agent.get(f"http://big.com/p{i}")
        assert proxy.cached_bytes == 1000
        assert proxy.evictions == 0

    def test_oversized_entry_still_served(self, world):
        clock, network, server, proxy, agent = world
        server.set_page("/huge", "Y" * 1000)  # alone exceeds the budget
        response = agent.get("http://big.com/huge").response
        assert response.body == "Y" * 1000
        # The huge entry survives as the sole (protected) occupant until
        # something else displaces it.
        assert proxy.contains(parse_url("http://big.com/huge"))

    def test_hit_refreshes_lru_position(self, world):
        clock, network, server, proxy, agent = world
        agent.get("http://big.com/p0")
        agent.get("http://big.com/p1")
        agent.get("http://big.com/p2")
        agent.get("http://big.com/p1")  # hit refreshes p1
        agent.get("http://big.com/p3")
        agent.get("http://big.com/p4")
        assert proxy.contains(parse_url("http://big.com/p1"))

    def test_revalidation_keeps_lru_position(self, world):
        clock, network, server, proxy, agent = world
        agent.get("http://big.com/p0")
        agent.get("http://big.com/p1")
        agent.get("http://big.com/p2")
        clock.advance(HOUR)
        agent.get("http://big.com/p0")  # 304: fresh again, still oldest
        assert proxy.revalidations == 1
        agent.get("http://big.com/p3")
        assert not proxy.contains(parse_url("http://big.com/p0"))
        assert proxy.contains(parse_url("http://big.com/p1"))

    def test_byte_total_follows_replaced_and_dropped_bodies(self, world):
        clock, network, server, proxy, agent = world
        agent.get("http://big.com/p0")
        agent.get("http://big.com/p1")
        clock.advance(HOUR)
        server.set_page("/p0", "Z" * 50)
        agent.get("http://big.com/p0")  # 200: the new body replaces it
        assert proxy.cached_bytes == 150
        proxy.evict(parse_url("http://big.com/p1"))
        proxy.evict(parse_url("http://big.com/p9"))  # not cached
        assert proxy.cached_bytes == 50
