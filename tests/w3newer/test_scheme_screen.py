"""Screening's ``file:`` test reads the canonical URL, not a new parse.

``build_schedule`` decides "one local stat" by ``canonical_url(u)``
starting with ``file:``.  That must agree exactly with
``parse_url(u).scheme == "file"`` (what the checker tests), for every
href a crawl can meet: the crawl world's URLs, every HREF in the
hostile corpus, and edge strings built to confuse a prefix test.
"""

import re

from repro.core.w3newer.history import BrowserHistory
from repro.core.w3newer.hotlist import Hotlist
from repro.core.w3newer.scheduler import build_schedule
from repro.core.w3newer.statuscache import StatusCache
from repro.core.w3newer.thresholds import parse_threshold_config
from repro.simclock import DAY
from repro.web.url import canonical_url, parse_url
from repro.workloads import build_crawl_world
from repro.workloads.hostileworld import hostile_corpus

EDGES = [
    " FILE:x", "file:", "//file:x", "a/file:x", "FILE:///etc/passwd",
    "File://host/path", "file", "file:/", "file://", " file:x ",
    "\tfile:x\n", "filex:y", "files:y", "xfile:y", "file+x:y",
    "?file:x", "#file:x", "/file:x", "./file:x", "file:?q", "file:#f",
    "http://file:80/", "http://host/file:x", "file:http://x", ":file:x",
    "", " ", "FiLe:C:/autoexec.bat", "mailto:file:x",
]

_HREF = re.compile(r"""HREF\s*=\s*(?:"([^"]*)"|'([^']*)'|([^\s>]*))""",
                   re.IGNORECASE)


def corpus_hrefs():
    hrefs = list(build_crawl_world(urls=300, hosts=12, seed=3).urls)
    for doc in hostile_corpus(80, seed=5):
        for match in _HREF.finditer(doc.body[:200_000]):
            hrefs.append(next(g for g in match.groups() if g is not None))
    return hrefs


def test_canonical_prefix_matches_the_parsed_scheme():
    hrefs = corpus_hrefs() + EDGES
    hrefs += [prefix + href for href in EDGES
              for prefix in ("file:", "FILE:", " ", "http://h/")]
    assert len(hrefs) > 500
    files = 0
    for href in hrefs:
        is_file = parse_url(href).scheme == "file"
        assert canonical_url(href).startswith("file:") is is_file, href
        files += is_file
    assert files > 20


def test_screening_frees_exactly_the_file_urls():
    # One hotlist entry per page, so no entry is coalesced onto another.
    pages = {}
    for href in EDGES + ["file:" + edge for edge in EDGES]:
        pages.setdefault(canonical_url(href), href)
    hotlist = Hotlist()
    for href in pages.values():
        hotlist.add(href)
    sched = build_schedule(
        list(hotlist), now=100 * DAY,
        config=parse_threshold_config("Default 2d\n"),
        history=BrowserHistory(), cache=StatusCache(),
    )
    free = {url for url, decision in sched.decisions.items()
            if decision.reason == "file: URL, one local stat"}
    assert free == {url for url in pages.values()
                    if parse_url(url).scheme == "file"}
    assert len(free) > 10
