"""S14 — simultaneous-user limits and replication (§4.2).

"The facility could also impose a limit on the number of simultaneous
users, or replicate itself among multiple computers, as many W3
services do."

The bench throws a burst of users at the snapshot facility under an
admission limit of 10 concurrent requests per machine, with 1 vs 3
machines, and reports served/rejected counts and how the admits
partition.  A machine is one shard of a :class:`DiffServer` with
``PER_MACHINE_LIMIT`` workers and no queue, so a request past the
limit is shed with 503 at once.
"""

from repro.serve import DiffServer
from repro.simclock import SimClock
from repro.web.client import UserAgent
from repro.web.network import Network
from repro.workloads.pagegen import PageGenerator

USERS = 60
PAGES = 12
PER_MACHINE_LIMIT = 10


def run_burst(machines):
    clock = SimClock()
    network = Network(clock)
    origin = network.create_server("site.com")
    generator = PageGenerator(seed=3)
    for i in range(PAGES):
        origin.set_page(f"/p{i}.html", generator.page())
    agent = UserAgent(network, clock)
    front = DiffServer(clock, agent, shards=machines,
                       workers_per_shard=PER_MACHINE_LIMIT, queue_limit=0)
    aide = network.create_server("aide.att.com")
    aide.register_cgi("/cgi-bin/snapshot", front)
    client = UserAgent(network, clock)

    served = rejected = 0
    for user in range(USERS):
        url = f"http://site.com/p{user % PAGES}.html"
        resp = client.get(
            "http://aide.att.com/cgi-bin/snapshot"
            f"?action=remember&url={url}&user=user{user}"
        ).response
        if resp.status == 200:
            served += 1
        elif resp.status == 503:
            rejected += 1
    per_machine = [pool.admitted for pool in front.pools]
    return served, rejected, per_machine


def test_replication_burst(benchmark, sink):
    def run_both():
        return run_burst(1), run_burst(3)

    single, triple = benchmark.pedantic(run_both, rounds=1, iterations=1)

    sink.row(f"S14: {USERS} simultaneous remember requests, "
             f"limit {PER_MACHINE_LIMIT}/machine")
    sink.row(f"{'replicas':>8s} {'served':>7s} {'rejected':>9s} "
             f"{'per-machine admits':>20s}")
    for label, (served, rejected, per_machine) in (("1", single),
                                                   ("3", triple)):
        sink.row(f"{label:>8s} {served:7d} {rejected:9d} "
                 f"{str(per_machine):>20s}")

    # One machine saturates at its limit; three machines triple the
    # admitted load for the same burst.
    assert single[0] == PER_MACHINE_LIMIT
    assert single[1] == USERS - PER_MACHINE_LIMIT
    assert triple[0] > 2 * single[0]
    assert all(count <= PER_MACHINE_LIMIT for count in triple[2])
