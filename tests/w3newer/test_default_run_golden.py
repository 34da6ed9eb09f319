"""Golden digests of default w3newer runs on the Section 7 world.

A ``W3Newer`` built without ``CrawlOptions`` runs the paper's unbudgeted
walk.  These digests pin what such runs produce over weeks of daily
runs: every run's Figure-1 report (sha256 of each report, chained into
one digest), the final status cache (sha256 of ``serialize()``), and
the HTTP spent (the tracker's own count and the wire log's).

The scenarios are the E7b personal deployment (three hotlist seeds,
250 URLs, 28 daily runs, the user reading 15 changed pages a day), the
same world with ``skip_failing_hosts`` while two hosts time out, and a
hotlist that bookmarks some pages twice.

The digests were first computed with the serial hotlist walk that the
one-worker crawl pipeline replaced; every scenario but ``duplicates``
still matches it exactly.  In ``duplicates`` a repeated hotlist entry
now shares its first entry's check instead of being checked a second
time: the reports and the status cache are unchanged, but it spends
less HTTP.  The serial walk's totals are kept beside the pinned ones.
"""

import hashlib

import pytest

from repro.aide.engine import Aide
from repro.core.w3newer.checker import CheckerFlags
from repro.core.w3newer.hotlist import Hotlist
from repro.core.w3newer.thresholds import parse_threshold_config
from repro.simclock import DAY
from repro.web.http import NetworkError
from repro.workloads.scenario import build_hotlist, build_web

GOLDEN = {
    "sec7-seed-1": {
        "reports":
            "a13d40c87a5724936efed1efba5a741c3960a659e293783a977f19f064fdc7af",
        "status_cache":
            "2e4f2486faf7e58e91126b8a821a3c61cbca0a0b1b993ab27cf5bfbfce800f0a",
        "http_requests": 1134,
        "wire_requests": 1554,
    },
    "sec7-seed-2": {
        "reports":
            "0e8627ef7ef7d7e79743e77fe1e57a4363fae8f90ad4661fbaa24550607475e3",
        "status_cache":
            "ba07919e3a23cd4dda7b6c0152fa6f5719238e0fbc1b4c13e055c0d8ab6a3e15",
        "http_requests": 1154,
        "wire_requests": 1574,
    },
    "sec7-seed-3": {
        "reports":
            "29bc15541ca796d68b25fbe1065db82bd3d4924c29767b8d97f22688be4cc1c5",
        "status_cache":
            "7d3fc605518a26bf7503eb874054c0da64645f6e9c64beb30903853f71dd9578",
        "http_requests": 1152,
        "wire_requests": 1572,
    },
    # On day 8 four pages the user read the day before sit on a host
    # that already failed; the ladder asks about the failed host before
    # the visit threshold, so they read ERROR, not NOT_CHECKED.
    "skip-failing-hosts": {
        "reports":
            "541e97127a329fac8482ad61b6a406550567c876c862b52224ebacb5a372d538",
        "status_cache":
            "b5dc42dc65b452753eefbca210b4672e1b597cf8f0793f65c54237e107cdfa61",
        "http_requests": 358,
        "wire_requests": 506,
    },
    # The serial walk checked each repeated entry again: same reports
    # and status cache, but 528 HTTP requests and 616 on the wire.
    "duplicates": {
        "reports":
            "ffb4be8cba13d76b3428988a73df3c68bb8fe7285498415662e1b11ff925d9e0",
        "status_cache":
            "29786f4eb297c761d14c06f9eaa347ecbcfeaa170b1d865246805000246aa255",
        "http_requests": 494,
        "wire_requests": 582,
    },
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_scenario(hotlist_seed=1, size=250, days=28, config=None,
                 flags=None, outage_hosts=(), duplicate_every=0):
    web = build_web(sites=40, pages_per_site=10, seed=250)
    for host in outage_hosts:
        web.network.plan.outage(host, kind="timeout",
                                start=8 * DAY, end=12 * DAY)
    aide = Aide(clock=web.clock, network=web.network)
    hotlist = build_hotlist(web, size=size, seed=hotlist_seed)
    if duplicate_every:
        entries = list(hotlist)
        hotlist = Hotlist()
        for index, entry in enumerate(entries):
            hotlist.add(entry.url, title=entry.title)
            if index % duplicate_every == 0:
                hotlist.add(entry.url, title="Again: " + entry.title)
    user = aide.add_user("douglis@research", hotlist, config=config,
                         flags=flags)
    reports = []
    http_requests = 0
    for day in range(1, days + 1):
        web.cron.run_until(day * DAY)
        run = user.tracker.run()
        reports.append(_sha256(run.report_html))
        http_requests += run.http_requests
        for outcome in run.changed[:15]:
            try:
                user.visit(outcome.url, aide.clock)
            except NetworkError:
                pass  # the browser cannot reach a host that is down
    return {
        "reports": _sha256("\n".join(reports)),
        "status_cache": _sha256(user.tracker.cache.serialize()),
        "http_requests": http_requests,
        "wire_requests": len(web.network.log),
    }


SCENARIOS = {
    "sec7-seed-1": dict(hotlist_seed=1),
    "sec7-seed-2": dict(hotlist_seed=2),
    "sec7-seed-3": dict(hotlist_seed=3),
    "skip-failing-hosts": dict(
        hotlist_seed=4, size=120, days=14,
        flags=CheckerFlags(skip_failing_hosts=True),
        outage_hosts=("www.site11.com", "www.site23.com"),
    ),
    # A zero threshold HEADs every page on every run, so a second
    # check of the same page is never free.
    "duplicates": dict(hotlist_seed=5, size=60, days=7, duplicate_every=7,
                       config=parse_threshold_config("Default 0\n")),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_default_run_matches_golden(name):
    assert run_scenario(**SCENARIOS[name]) == GOLDEN[name]
