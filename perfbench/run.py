"""Wall-clock benchmark of AIDE: serve-read, archive-churn and crawl.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-read --seed 1 --trace 0

One invocation runs one workload in this process:

1. set-up, ``SETUP_REPS`` times from scratch; ``setup_s`` is the median;
2. the timed phase: blocks of ops until ``--seconds`` of block time
   have passed (or ``MAX_WALL`` times as much wall time),
   ``RSS_BLOCKS`` blocks ran, and each of the ``PARTS`` parts has at
   least ``TAIL_MARGIN`` samples beyond the tail percentile;
   ``peak_rss_mb`` is the peak RSS of set-up and the first
   ``RSS_BLOCKS`` blocks;
3. the correctness checks, outside the timed phase;
4. the work-count check, beside the correctness checks: a child
   process with another hash seed runs set-up and the first block
   again, and its work counts must equal the ones this process
   recorded at the same point.

Every set-up and every block is sampled by a host-speed probe
(``perfbench/hostspeed.py``) between its ops, and its wall times are
scaled to the reference host speed; every timing below is a scaled
one, and ``--seconds`` counts reference-host seconds.  The timed
phase is cut into ``PARTS`` consecutive parts of whole blocks.
``ops_per_s`` is the median over the parts of a part's ops over its
summed block time; ``op_p50_ms`` and ``op_tail_ms`` are the medians
over the parts of the part's percentiles.

With ``--trace 0`` the end-to-end metrics are printed; with
``--trace 1`` every other block runs with the tracer installed, every
block starts after a full garbage collection, and the per-layer
metrics are printed.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Exit status: 0 when every check passed, 1 when a check failed, 2 when
the program under test cannot be found or the arguments are bad.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-read", "archive-churn", "crawl")
SETUP_REPS = 3
#: Blocks after which the work counts are compared with a fresh process.
COUNT_BLOCKS = 1
#: Blocks after which peak RSS is read.  A fixed amount of work keeps
#: the figure independent of speed: archive-churn's DiffCache grows with
#: every visit, so a faster program would otherwise read as fatter.
RSS_BLOCKS = 3
#: The timed phase is cut into this many consecutive parts, each
#: measured on its own; a timing is the median over the parts.
PARTS = 3
#: Samples that must lie beyond the tail percentile, in every part.
TAIL_MARGIN = 10
#: The timed phase also ends after this many times ``--seconds`` of
#: block wall time, so a slow host cannot stretch a run without end.
MAX_WALL = 2
CHILD_TIMEOUT = 150


def _make(name: str, seed: int, workdir: str):
    if name == "serve-read":
        from perfbench.serve_read import ServeRead
        return ServeRead(seed)
    if name == "archive-churn":
        from perfbench.archive_churn import ArchiveChurn
        return ArchiveChurn(seed, workdir)
    from perfbench.crawl import Crawl
    return Crawl(seed)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tail_index(count: int, fraction: float) -> int:
    return max(0, min(count - 1, math.ceil(fraction * count) - 1))


def _split(blocks: list) -> list:
    """``blocks`` cut into PARTS consecutive runs of blocks whose sizes
    differ by at most one."""
    size, extra = divmod(len(blocks), PARTS)
    parts, start = [], 0
    for index in range(PARTS):
        end = start + size + (index < extra)
        parts.append(blocks[start:end])
        start = end
    return parts


def _part_latencies(blocks: list) -> list:
    return sorted(sample for _ops, _s, samples, _factor in blocks
                  for sample in samples)


def _samples_needed(fraction: float) -> int:
    """Smallest sample count leaving TAIL_MARGIN samples beyond the
    ``fraction`` percentile."""
    count = TAIL_MARGIN + 1
    while count - 1 - _tail_index(count, fraction) < TAIL_MARGIN:
        count += 1
    return count


def _start_count_child(args) -> subprocess.Popen:
    """Start set-up plus COUNT_BLOCKS blocks in a fresh interpreter with
    a different hash seed; it prints its work counts."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(
        (int(env.get("PYTHONHASHSEED", "0") or 0) + 7919) % 4294967295)
    return subprocess.Popen(
        [sys.executable, os.path.abspath(__file__),
         "--workload", args.workload, "--seed", str(args.seed),
         "--counts-only"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )


def _child_counts(child: subprocess.Popen) -> dict:
    try:
        stdout, stderr = child.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        raise
    if child.returncode != 0:
        raise RuntimeError("count child failed: " + stderr[-2000:])
    return json.loads(stdout.strip().splitlines()[-1])


def _run_counts_only(args, workdir: str) -> int:
    workload = _make(args.workload, args.seed, workdir)
    workload.setup()
    for _ in range(COUNT_BLOCKS):
        workload.prepare_block()
        workload.run_block()
        workload.finish_block()
    print(json.dumps(workload.counts(), sort_keys=True))
    return 0


def _run(args, workdir: str) -> int:
    from perfbench.hostspeed import Sampler
    problems = []
    workload = _make(args.workload, args.seed, workdir)
    # Set-up and the timed phase run on one CPU.  Every workload runs
    # one thread at a time (the crawl's SimScheduler hands control
    # between two threads), and on one CPU a handoff is a local switch
    # instead of a wake-up of another virtual CPU, which on a shared
    # host can wait for the hypervisor (README, Steadiness).
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})

    # -- set-up ---------------------------------------------------------
    setup_times = []  # reference-host seconds
    setup_counts = []
    for rep in range(SETUP_REPS):
        if rep:
            workload.teardown()
        gc.collect()
        host = Sampler()
        started = perf_counter()
        workload.setup(host.between_ops)
        elapsed = perf_counter() - started - host.spent
        setup_times.append(elapsed * host.close())
        setup_counts.append(workload.counts())
    if any(counts != setup_counts[0] for counts in setup_counts):
        problems.append("work counts differ between set-ups of one seed")

    tracer = None
    if args.trace:
        from perfbench import layers
        from perfbench.tracer import Tracer
        tracer = Tracer()
        layers.install(tracer)

    # -- timed phase ----------------------------------------------------
    gc.collect()
    needed = _samples_needed(workload.tail)
    # (ops, wall seconds, scaled latencies, scale) per block
    done = []
    ops = failed = blocks = 0
    timed = wall = 0.0  # reference-host and wall seconds
    # traced? -> [ops, wall s, wall s less probes, reference-host s]
    by_mode = {True: [0, 0.0, 0.0, 0.0], False: [0, 0.0, 0.0, 0.0]}
    counts_at = None
    peak_rss = None
    while ((timed < args.seconds and wall < MAX_WALL * args.seconds)
           or blocks < max(RSS_BLOCKS, PARTS)
           or min(sum(len(block[2]) for block in part)
                  for part in _split(done)) < needed):
        workload.prepare_block()
        traced = tracer is not None and blocks % 2 == 0
        if tracer is not None:
            # Every block starts right after a full collection, so GC
            # passes fall on traced and untraced blocks alike and
            # trace.overhead_share measures the tracer.
            gc.collect()
        host = Sampler()
        if traced:
            tracer.enable()
            started = perf_counter()
            with tracer.span("bench.block"):
                block_ops, block_failed, block_lat = workload.run_block(
                    host.between_ops)
            spanned = perf_counter() - started
            tracer.disable()
        else:
            started = perf_counter()
            block_ops, block_failed, block_lat = workload.run_block(
                host.between_ops)
            spanned = perf_counter() - started
        elapsed = spanned - host.spent
        factor = host.close()
        workload.finish_block()
        blocks += 1
        timed += elapsed * factor
        wall += elapsed
        ops += block_ops
        failed += block_failed
        done.append((block_ops, elapsed,
                     [seconds * host.factor_at(start)
                      for start, seconds in block_lat], factor))
        for index, value in enumerate(
                (block_ops, spanned, elapsed, elapsed * factor)):
            by_mode[traced][index] += value
        if blocks == COUNT_BLOCKS:
            counts_at = workload.counts()
        if blocks == RSS_BLOCKS:
            peak_rss = _peak_rss_mb()

    # -- checks (not timed; the child runs beside this process's checks) -
    os.sched_setaffinity(0, cpus)
    if failed:
        # Every workload is built so that no op fails.
        problems.append(f"{failed} of {ops} ops failed")
    child_process = _start_count_child(args)
    try:
        problems.extend(workload.check())
    finally:
        child = _child_counts(child_process)
    if child != counts_at:
        diff = sorted(k for k in set(child) | set(counts_at)
                      if child.get(k) != counts_at.get(k))
        problems.append(f"work counts differ from a fresh process: {diff}")

    # -- report -----------------------------------------------------------
    parts = _split(done)
    samples = [_part_latencies(part) for part in parts]
    tails = [_tail_index(len(lat), workload.tail) for lat in samples]
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (statistics.median(
                sum(b[0] for b in part) / sum(b[1] * b[3] for b in part)
                for part in parts), "1/s"),
            "op_p50_ms": (1000 * statistics.median(
                statistics.median(lat) for lat in samples), "ms"),
            "op_tail_ms": (1000 * statistics.median(
                lat[index] for lat, index in zip(samples, tails)), "ms"),
            "peak_rss_mb": (peak_rss, "MB"),
        }
    else:
        metrics = _layer_metrics(tracer, workload, by_mode, ops, failed,
                                 problems)
    print(f"{workload.name} seed={args.seed} blocks={blocks} ops={ops} "
          f"timed={timed:.3f}s tail=p{100 * workload.tail:g}; per part: "
          f"latency samples {[len(lat) for lat in samples]}, beyond the "
          f"tail {[len(lat) - 1 - i for lat, i in zip(samples, tails)]}")
    factors = [block[3] for block in done]
    print(f"host speed: reference-host time / wall time per block, median "
          f"{statistics.median(factors):.3f}, range {min(factors):.3f}-"
          f"{max(factors):.3f}; wall time {wall:.3f}s")
    print(f"work counts: {json.dumps(counts_at, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    if tracer is not None:
        tracer.dump(os.path.join(os.path.dirname(workdir),
                                 f"spans-{workload.name}.json"))
    print(json.dumps({
        "correct": not problems,
        "attempted": ops,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


def _layer_metrics(tracer, workload, by_mode, ops, failed, problems):
    from perfbench import layers
    # traced_s includes the host-speed probes between ops, which fall
    # inside the driver's spans; self times are scaled to the reference
    # host like the end-to-end timings, by the traced blocks' factor.
    traced_ops, traced_s, traced_work_s, traced_ref_s = by_mode[True]
    plain_ops, _plain_s, _plain_work_s, plain_ref_s = by_mode[False]
    totals = tracer.totals()
    values = layers.table(totals, tracer.counters, traced_ops,
                          traced_ref_s / traced_work_s)
    values.update(workload.layer_stats())
    # The tracer's running self times sum to the traced wall time by
    # construction; the self times worked out again from the recorded
    # spans must agree with them, name by name, and sum to it too.
    span_self, handoff_s = tracer.span_self_times(layers.HANDOFFS)
    span_total = sum(span_self.values()) + handoff_s
    values["trace.unaccounted_share"] = (traced_s - span_total) / traced_s
    if abs(values["trace.unaccounted_share"]) > 0.01:
        problems.append(
            f"span self times sum to {span_total:.4f}s, traced wall time "
            f"is {traced_s:.4f}s")
    running = {name: seconds for name, (_calls, seconds) in totals.items()
               if name not in layers.HANDOFFS}
    gaps = {name: abs(running.get(name, 0.0) - span_self.get(name, 0.0))
            for name in set(running) | set(span_self)}
    gaps["handoffs"] = abs(handoff_s - sum(
        totals.get(name, (0, 0.0))[1] for name in layers.HANDOFFS))
    worst = max(gaps, key=gaps.get)
    values["trace.attribution_gap_share"] = gaps[worst] / traced_s
    if values["trace.attribution_gap_share"] > 0.01:
        problems.append(
            f"{worst}: span self time differs from the running self time "
            f"by {gaps[worst]:.4f}s")
    values["trace.overhead_share"] = (
        1.0 - (traced_ops / traced_ref_s) / (plain_ops / plain_ref_s)
        if plain_ops and traced_ops else 0.0)
    values["failed_share"] = failed / max(1, ops)
    return {name: (float(values.get(name, 0.0)), unit)
            for name, unit in layers.names()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--counts-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: the program's source (src/repro) is not in this "
              "checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    workdir = os.path.join(ROOT, ".perfbench_out", f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.counts_only:
            return _run_counts_only(args, workdir)
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
