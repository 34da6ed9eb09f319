"""Golden digests of the crawl executor's seeded interleavings.

A seeded multi-worker run must reproduce, byte for byte, the
interleaving the executor produced when its workers were SimScheduler
threads: the order checks completed in, the claim count, the unclaimed
remainder, the governor's fetch trace and the rendered report.  Each
case hashes all of them over several nights, so a changed pick rule, a
moved yield point or a different governor placement shows up as a
digest mismatch.

Regenerate the table (only for a change meant to alter interleavings):
``PYTHONPATH=src python tests/w3newer/test_crawl_interleaving_golden.py``.
"""

import hashlib

import pytest

from repro.core.w3newer import (
    BrowserHistory,
    ChangeRateEstimator,
    CrawlOptions,
    ReportOptions,
    SchedulePolicy,
    UrlState,
    W3Newer,
)
from repro.core.w3newer import runner
from repro.core.w3newer.crawl import CrawlExecutor
from repro.simclock import DAY, SimClock
from repro.web import Network, UserAgent
from repro.web.network import FaultPlan
from repro.workloads import (
    apply_changes,
    build_crawl_hotlist,
    build_crawl_world,
    seed_estimator,
)

GOLDEN = {
    "w2-s0":
        "b54489e77dddfd970922e5ba97878517cb5fd0ccc9f63eca851009f535c60824",
    "w2-s1":
        "04b7726a36a77effc3946406452257b18c4b03304ca672b7c4030fb2f4610694",
    "w2-s7":
        "622ec2444b0a4fa62575e4a70736acfb194ee5584cd03db030769e0700de4c55",
    "w3-s0":
        "f0b01e8d0d36204d68dadfa332ab1035749940a83fdc0d699e864be479173eb4",
    "w3-s1":
        "18ec8079fe533937ba098aa4790d1cd700a35445037e1a3627816f106f5b6af3",
    "w3-s7":
        "38935dffbf08677cfb7110298ca0ce27456162664df1d571ef13cccdde2b96ff",
    "w8-s0":
        "606e31f4d715ad61a0df3f7c238f7dffc41df4ab1ee8bc73d67ffd92a793f596",
    "w8-s1":
        "fe4f37b69e6c5b7b4a25dd7a705da8c874cc58aa9af6bd6a980e20a1447f20cd",
    "w8-s7":
        "76616c764950d32d6175a5060be89a66950687349c3ec2953453a00f3c8d5fe9",
    "pause-resume":
        "5c70195bbb94b5bf186b840c1c03c7ac6fa63fab19bde677adaf89635d338bbc",
    "abort-resume":
        "d7d854d6f6bfcb987e6ac4bf6d3eabe443e7478190ee7e314065d65c4af214f3",
}


class _Recorder:
    """Wraps the runner's executor and keeps every drain's result."""

    def __init__(self) -> None:
        self.results = []

    def __call__(self, *args, **kwargs):
        recorder = self

        class Recording(CrawlExecutor):
            def run(self, checks):
                result = super().run(checks)
                recorder.results.append(result)
                return result

        return Recording(*args, **kwargs)


def _build(workers, seed, max_checks=None, plan=None):
    clock = SimClock()
    clock.advance(100 * DAY)
    network = Network(clock, fault_plan=plan)
    world = build_crawl_world(urls=90, hosts=5, seed=11, clock=clock,
                              network=network)
    history = BrowserHistory()
    for url in world.urls:
        history.visit(url, clock.now)
    estimator = ChangeRateEstimator()
    seed_estimator(world, estimator)
    tracker = W3Newer(
        clock, UserAgent(network, clock), build_crawl_hotlist(world),
        history=history,
        crawl=CrawlOptions(workers=workers, budget=40,
                           policy=SchedulePolicy.ADAPTIVE, seed=seed,
                           max_checks=max_checks, host_delay=2),
        estimator=estimator,
        report_options=ReportOptions(render=True),
        abort_after_failures=3,
    )
    return clock, world, tracker


def _record(digest, tracker, result, drained) -> None:
    """Fold one run into the digest."""
    digest.update(repr([
        (task.index, task.url, outcome.state.name, outcome.source.value,
         outcome.http_requests)
        for task, outcome in drained.completed
    ]).encode())
    digest.update(repr((
        [task.index for task in drained.pending],
        drained.claims, drained.aborted, drained.paused,
    )).encode())
    digest.update(repr([
        (slot.host, slot.worker, slot.start, slot.finish, slot.url)
        for slot in tracker.last_crawl["trace"]
    ]).encode())
    digest.update(result.report_html.encode())


def _nights(tracker, clock, world, recorder, nights, digest) -> None:
    for _ in range(nights):
        clock.advance(DAY)
        apply_changes(world)
        result = tracker.run()
        _record(digest, tracker, result, recorder.results[-1])
        for outcome in result.outcomes:
            if outcome.state is UrlState.CHANGED:
                tracker.mark_page_viewed(outcome.url)


def interleaving_digest(workers, seed) -> str:
    clock, world, tracker = _build(workers, seed)
    recorder = _Recorder()
    runner.CrawlExecutor = recorder
    try:
        digest = hashlib.sha256()
        _nights(tracker, clock, world, recorder, 3, digest)
    finally:
        runner.CrawlExecutor = CrawlExecutor
    return digest.hexdigest()


def pause_resume_digest() -> str:
    clock, world, tracker = _build(workers=3, seed=1, max_checks=17)
    recorder = _Recorder()
    runner.CrawlExecutor = recorder
    try:
        digest = hashlib.sha256()
        clock.advance(DAY)
        apply_changes(world)
        paused = 0
        while True:
            result = tracker.run()
            _record(digest, tracker, result, recorder.results[-1])
            if tracker.checkpoint is None:
                break
            paused += 1
        assert paused >= 2
        _nights(tracker, clock, world, recorder, 1, digest)
    finally:
        runner.CrawlExecutor = CrawlExecutor
    return digest.hexdigest()


def abort_resume_digest() -> str:
    plan = FaultPlan()
    clock, world, tracker = _build(workers=4, seed=7, plan=plan)
    recorder = _Recorder()
    runner.CrawlExecutor = recorder
    try:
        digest = hashlib.sha256()
        _nights(tracker, clock, world, recorder, 1, digest)
        # Every host dark for the next night only: the detector aborts
        # mid-run, and the following day's run resumes the remainder.
        plan.outage("*", kind="timeout", start=clock.now + DAY // 2,
                    end=clock.now + DAY + DAY // 2)
        clock.advance(DAY)
        apply_changes(world)
        result = tracker.run()
        assert result.aborted and tracker.checkpoint is not None
        _record(digest, tracker, result, recorder.results[-1])
        clock.advance(DAY)
        result = tracker.run()
        assert result.resumed_from is not None and not result.aborted
        _record(digest, tracker, result, recorder.results[-1])
        _nights(tracker, clock, world, recorder, 1, digest)
    finally:
        runner.CrawlExecutor = CrawlExecutor
    return digest.hexdigest()


def _all_digests():
    digests = {}
    for workers in (2, 3, 8):
        for seed in (0, 1, 7):
            digests[f"w{workers}-s{seed}"] = interleaving_digest(workers, seed)
    digests["pause-resume"] = pause_resume_digest()
    digests["abort-resume"] = abort_resume_digest()
    return digests


@pytest.mark.parametrize("workers", [2, 3, 8])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_seeded_interleaving_is_pinned(workers, seed):
    assert interleaving_digest(workers, seed) == GOLDEN[f"w{workers}-s{seed}"]


def test_pause_and_resume_interleaving_is_pinned():
    assert pause_resume_digest() == GOLDEN["pause-resume"]


def test_abort_and_resume_interleaving_is_pinned():
    assert abort_resume_digest() == GOLDEN["abort-resume"]


if __name__ == "__main__":
    for name, value in _all_digests().items():
        print(f'    "{name}": "{value}",')
