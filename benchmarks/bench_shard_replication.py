"""S20 — replicated shards under seeded chaos (§4.2).

"The facility could ... replicate itself among multiple computers, as
many W3 services do."  This bench is the replication layer's gate
battery, all in virtual time on seeded runs:

* **availability + durability under chaos** — with R=2, a
  :class:`~repro.serve.ShardFaultPlan` kills each of the 4 shards once
  mid-run under a 10,000-user (20,000-request) closed loop; every
  request must still be eventually served (no 5xx after the
  Retry-After dance) and no acknowledged revision may be lost;
* **byte-identity to an unfaulted twin** — after the anti-entropy
  scrub, every response and every replica's per-URL state fingerprint
  from the chaos run must be byte-identical to a zero-fault twin run:
  recovery provably reconstructs the exact state, not an
  approximation.  (The identity load is read-only — reads never stamp
  state here, so the twin comparison is exact; a mutating stream's
  user-stamp *times* would shift with retry timing and prove nothing.)
* **write-path chaos is reproducible and convergent** — a mutating
  load under the same staggered kills drives writes through failover
  and hinted handoff; every hint drains, every URL's replicas converge
  to byte-identity, and running the identical seeded run twice yields
  identical stats and identical fleet state;
* **scrub convergence** — replicas diverged by hand (same revision
  count, different history: the failure read repair cannot see) are
  converged to fingerprint identity by the scrub alone;
* **bounded write amplification** — the R=2 fleet stores at most
  ``1.15 x R`` times the logical archive bytes of the unreplicated
  R=1 fleet under the identical seeded workload.

Writes ``benchmarks/results/BENCH_shard_replication.json``.
"""

import json
import os
import time

from repro.serve import (
    ClosedLoopLoad,
    DiffServer,
    ReplicationManager,
    ShardFaultPlan,
    build_world,
    seed_world,
    url_fingerprint,
)
from repro.web.url import canonical_url

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

SEED = 1996
PAGES = 128
ROUNDS = 3
SHARDS = 4
USERS = 10_000
REQUESTS_PER_USER = 2
WORKERS_PER_SHARD = 8
QUEUE_LIMIT = 256
THINK_TIME = 30
ARRIVAL_WINDOW = 120
SCRUB_INTERVAL = 300
REPLICATION = 2

#: Seeding (PAGES x ROUNDS remembers, 30s spacing, 3600s round gap)
#: ends at t=22320 and the load's makespan is ~1650s, so this schedule
#: kills every shard once *inside* the load window.
KILL_START = 22_450
KILL_DOWNTIME = 150
KILL_SPACING = 350

#: The smaller mutating chaos run (hinted-handoff + reproducibility).
WRITE_USERS = 2_000
WRITE_MUTATION_RATE = 0.05

#: The acceptance gates.
MAX_WRITE_AMPLIFICATION = 1.15  # x R


def build_server(replication, fault_plan=None):
    world = build_world(SEED, pages=PAGES)
    server = DiffServer(
        world.clock, world.agent, shards=SHARDS,
        workers_per_shard=WORKERS_PER_SHARD, queue_limit=QUEUE_LIMIT,
        replication=replication, fault_plan=fault_plan,
        scrub_interval=SCRUB_INTERVAL if replication > 1 else 0,
    )
    revisions = seed_world(server, world, seed=SEED, rounds=ROUNDS)
    return world, server, revisions


def run_load(world, server, revisions, users=USERS, mutation_rate=0.0):
    load = ClosedLoopLoad(
        SEED, world.urls, revisions, users=users,
        requests_per_user=REQUESTS_PER_USER, think_time=THINK_TIME,
        arrival_window=ARRIVAL_WINDOW, mutation_rate=mutation_rate,
    )
    started = time.time()
    report = load.run(server, start=world.clock.now)
    return report, time.time() - started


def settle(server):
    """Drain any scheduled transitions past the end of the run, then
    scrub the URL space to a fixed point."""
    mgr = server.replicator
    mgr.advance(10**9)
    for _ in range(8):
        if not mgr.scrub(10**9):
            break
    return mgr


def stored_bytes(server):
    """Physical archive bytes across the whole fleet: every revision
    text on every shard (replicas count once per copy, which is the
    point of the amplification gate)."""
    total = 0
    for shard in server.store.shards:
        for archive in shard.archives.values():
            for _info, text in archive.iter_texts():
                total += len(text)
    return total


def replica_fingerprints(server):
    """(shard, url) -> fingerprint for every replica copy in the
    fleet, the byte-identity witness between two runs."""
    mgr = server.replicator
    out = {}
    for url in mgr.known_urls():
        for shard in mgr.replica_set(url):
            out[(shard, url)] = url_fingerprint(
                server.store.shards[shard], url)
    return out


def kill_plan():
    return ShardFaultPlan.kill_each_once(
        SHARDS, start=KILL_START, downtime=KILL_DOWNTIME,
        spacing=KILL_SPACING)


def test_replicated_shards_survive_chaos(sink):
    sink.row("S20: replicated shards with failover, hinted handoff, and "
             "anti-entropy repair")
    sink.row(f"  shards={SHARDS} R={REPLICATION} pages={PAGES} "
             f"users={USERS} requests/user={REQUESTS_PER_USER}")
    sink.row("")

    # -- the chaos run and its zero-fault twin -------------------------
    chaos_world, chaos_server, chaos_revisions = build_server(
        REPLICATION, fault_plan=kill_plan())
    chaos_report, chaos_wall = run_load(chaos_world, chaos_server,
                                        chaos_revisions)
    chaos_mgr = settle(chaos_server)

    calm_world, calm_server, calm_revisions = build_server(REPLICATION)
    calm_report, calm_wall = run_load(calm_world, calm_server,
                                      calm_revisions)
    settle(calm_server)
    assert chaos_revisions == calm_revisions

    for label, report, wall in (("chaos", chaos_report, chaos_wall),
                                ("zero-fault", calm_report, calm_wall)):
        sink.row(f"  {label:<11} makespan={report.makespan}s "
                 f"completed={report.completed}/{report.requests} "
                 f"shed={report.shed} wall={wall:.1f}s")
    stats = chaos_mgr.stats()
    sink.row(f"  chaos: crashes={stats['crashes']} "
             f"recoveries={stats['recoveries']} "
             f"failovers={stats['failovers']} "
             f"unavailable={stats['unavailable']}")
    sink.row("")

    # -- gate: 100% availability through every single-shard kill -------
    assert stats["crashes"] == SHARDS, (
        f"only {stats['crashes']}/{SHARDS} scheduled kills fired inside "
        f"the run; retune KILL_START/KILL_SPACING")
    assert stats["recoveries"] == SHARDS
    assert chaos_report.completed == USERS * REQUESTS_PER_USER
    five_hundreds = sum(
        1 for response in chaos_report.responses.values()
        if response.status >= 500
    )
    assert five_hundreds == 0, (
        f"{five_hundreds} requests ended in a 5xx despite retries")

    # -- gate: zero lost revisions -------------------------------------
    lost = 0
    for url, revs in chaos_revisions.items():
        key = canonical_url(url)
        for shard in chaos_mgr.replica_set(key):
            archive = chaos_server.store.shards[shard].archives.get(key)
            if archive is None or archive.revision_count < len(revs):
                lost += 1
    sink.row(f"  durability: {lost} replica copies missing acknowledged "
             f"revisions (gate: 0)")
    assert lost == 0

    # -- gate: responses byte-identical to the zero-fault twin ---------
    response_mismatches = sum(
        1 for key, response in chaos_report.responses.items()
        if (response.status, response.body)
        != (calm_report.responses[key].status,
            calm_report.responses[key].body)
    )
    sink.row(f"  response identity: "
             f"{len(chaos_report.responses) - response_mismatches}/"
             f"{len(chaos_report.responses)} identical to zero-fault run")
    assert response_mismatches == 0

    # -- gate: post-scrub state byte-identical to the twin -------------
    chaos_prints = replica_fingerprints(chaos_server)
    calm_prints = replica_fingerprints(calm_server)
    assert set(chaos_prints) == set(calm_prints)
    state_mismatches = sum(
        1 for key, digest in chaos_prints.items()
        if calm_prints[key] != digest
    )
    sink.row(f"  state identity: "
             f"{len(chaos_prints) - state_mismatches}/{len(chaos_prints)} "
             f"replica fingerprints identical to zero-fault run")
    assert state_mismatches == 0

    # -- gate: mutating chaos drains hints, converges, reproduces ------
    write_gates = _write_chaos_gate(sink)

    # -- gate: scrub converges manual divergence -----------------------
    scrub_repairs = _scrub_convergence_gate(sink)

    # -- gate: write amplification bounded -----------------------------
    plain_world, plain_server, plain_revisions = build_server(1)
    plain_report, plain_wall = run_load(plain_world, plain_server,
                                        plain_revisions)
    assert plain_report.completed == USERS * REQUESTS_PER_USER
    plain_bytes = stored_bytes(plain_server)
    replicated_bytes = stored_bytes(chaos_server)
    amplification = replicated_bytes / plain_bytes
    sink.row(f"  write amplification: {replicated_bytes} bytes at "
             f"R={REPLICATION} vs {plain_bytes} at R=1 -> "
             f"{amplification:.3f}x (gate: <= "
             f"{MAX_WRITE_AMPLIFICATION * REPLICATION:.2f}x)")
    assert amplification <= MAX_WRITE_AMPLIFICATION * REPLICATION, (
        f"replication stores {amplification:.3f}x the unreplicated "
        f"bytes; expected <= {MAX_WRITE_AMPLIFICATION}x per replica"
    )

    # -- persist -------------------------------------------------------
    payload = {
        "seed": SEED,
        "pages": PAGES,
        "shards": SHARDS,
        "replication": REPLICATION,
        "users": USERS,
        "requests_per_user": REQUESTS_PER_USER,
        "kill_plan": {
            "start": KILL_START,
            "downtime": KILL_DOWNTIME,
            "spacing": KILL_SPACING,
        },
        "chaos": chaos_report.to_dict(),
        "zero_fault": calm_report.to_dict(),
        "unreplicated": plain_report.to_dict(),
        "replication_stats": stats,
        "gates": {
            "availability_5xx": five_hundreds,
            "lost_revision_copies": lost,
            "response_mismatches": response_mismatches,
            "state_fingerprint_mismatches": state_mismatches,
            "replica_fingerprints_compared": len(chaos_prints),
            "write_chaos": write_gates,
            "scrub_convergence_repairs": scrub_repairs,
            "write_amplification": round(amplification, 4),
            "max_write_amplification": MAX_WRITE_AMPLIFICATION
            * REPLICATION,
        },
        "wall_seconds": {
            "chaos": round(chaos_wall, 2),
            "zero_fault": round(calm_wall, 2),
            "unreplicated": round(plain_wall, 2),
        },
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "BENCH_shard_replication.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)


def _run_write_chaos():
    world, server, revisions = build_server(REPLICATION,
                                            fault_plan=kill_plan())
    report, _wall = run_load(world, server, revisions, users=WRITE_USERS,
                             mutation_rate=WRITE_MUTATION_RATE)
    mgr = settle(server)
    return server, mgr, report


def _write_chaos_gate(sink):
    """Writes through failover and hinted handoff: the mutating chaos
    run must drain every hint, converge every URL's replicas to
    byte-identity, and reproduce exactly when run twice."""
    first_server, first_mgr, first_report = _run_write_chaos()
    second_server, second_mgr, second_report = _run_write_chaos()

    stats = first_mgr.stats()
    sink.row(f"  write chaos: completed={first_report.completed}/"
             f"{first_report.requests} hints queued="
             f"{stats['handoff']['queued']} replayed="
             f"{stats['handoff']['replayed']} depth="
             f"{stats['handoff']['depth']}")
    assert first_report.completed == first_report.requests
    assert stats["crashes"] == SHARDS
    assert stats["handoff"]["queued"] > 0, (
        "the mutating chaos run never exercised hinted handoff; raise "
        "WRITE_MUTATION_RATE or widen the kill windows")
    assert stats["handoff"]["depth"] == 0, "undrained handoff hints"

    unconverged = [url for url in first_mgr.known_urls()
                   if not first_mgr.converged(url)]
    sink.row(f"  write chaos convergence: {len(unconverged)} unconverged "
             f"URLs (gate: 0)")
    assert unconverged == []

    assert second_mgr.stats() == stats, "chaos run is not reproducible"
    first_prints = replica_fingerprints(first_server)
    second_prints = replica_fingerprints(second_server)
    rerun_mismatches = sum(
        1 for key, digest in first_prints.items()
        if second_prints.get(key) != digest
    )
    sink.row(f"  write chaos reproducibility: {rerun_mismatches} state "
             f"mismatches across identical reruns (gate: 0)")
    assert first_prints.keys() == second_prints.keys()
    assert rerun_mismatches == 0
    return {
        "hints_queued": stats["handoff"]["queued"],
        "hints_replayed": stats["handoff"]["replayed"],
        "unconverged_urls": len(unconverged),
        "rerun_state_mismatches": rerun_mismatches,
    }


def _scrub_convergence_gate(sink):
    """Diverge replicas by hand — equal revision counts, different
    history, the shape read repair cannot detect — and prove the scrub
    alone converges every URL to fingerprint identity."""
    world, server, _revisions = build_server(REPLICATION)
    mgr: ReplicationManager = server.replicator
    diverged = []
    for url in world.urls[:16]:
        key = canonical_url(url)
        victim = mgr.replica_set(key)[1]
        shard = server.store.shards[victim]
        count = shard.archives[key].revision_count
        del shard.archives[key]
        archive = shard.archive_for(key)
        for number in range(count):
            archive.checkin(f"<P>divergent {number}</P>", number + 1,
                            author="entropy")
        diverged.append(url)
    assert all(not mgr.converged(url) for url in diverged)

    repairs = 0
    for _ in range(8):
        repairs += mgr.scrub(world.clock.now + 10**9)
        if all(mgr.converged(url) for url in diverged):
            break
    sink.row(f"  scrub convergence: {len(diverged)} URLs diverged, "
             f"{repairs} repairs to byte-identity (gate: all converge)")
    assert all(mgr.converged(url) for url in diverged)
    assert repairs >= len(diverged)
    return repairs
