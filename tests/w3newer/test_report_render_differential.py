"""The one-pass Figure 1 report, against the report it replaced.

``reference_render_report`` is the earlier renderer, kept here as the
oracle: it sorts with a per-outcome key function, counts the header's
states in separate passes and encodes each row's URL for its links on
every call.  ``render_report`` walks the outcomes once and takes each
URL's query encoding from a map that a ``W3Newer`` keeps for as long as
its hotlist's URLs stay the same.  Both must produce the same bytes for
any outcomes, hostile URLs, titles and users included.
"""

import random

import pytest

from repro.core.w3newer.errors import CheckOutcome, UrlState
from repro.core.w3newer.hotlist import Hotlist, HotlistEntry
from repro.core.w3newer.report import (
    _GROUP_ORDER,
    _STATE_LABELS,
    ReportOptions,
    _render_summary,
    render_report,
)
from repro.core.w3newer.runner import W3Newer
from repro.html.entities import encode_entities
from repro.simclock import DAY, format_timestamp
from repro.web.cgi import encode_query_string
from repro.web.client import UserAgent
from repro.workloads.scenario import build_web


# ----------------------------------------------------------------------
# The reference renderer
# ----------------------------------------------------------------------
def _aide_links(url, options, user_query):
    head = f'<A HREF="{options.snapshot_base}?action='
    tail = f'&{encode_query_string({"url": url})}&{user_query}">'
    return (f"{head}remember{tail}[Remember]</A> "
            f"{head}diff{tail}[Diff]</A> "
            f"{head}history{tail}[History]</A>")


def _sort_key(outcome, options):
    group = _GROUP_ORDER.get(outcome.state, 6)
    priority = options.priority(outcome.url) if options.priority else 0.0
    recency = outcome.modification_date or 0
    return (group, -priority, -recency, outcome.url)


def reference_render_report(outcomes, entries, options=None, now=None,
                            aborted="", summary=None):
    options = options or ReportOptions()
    titles = {entry.url: entry.display_title() for entry in entries}
    user_query = encode_query_string({"user": options.user})

    rows = []
    for outcome in sorted(outcomes, key=lambda o: _sort_key(o, options)):
        title = encode_entities(titles.get(outcome.url, outcome.url))
        label = _STATE_LABELS.get(outcome.state, outcome.state.value)
        detail = ""
        if outcome.modification_date is not None and outcome.is_new_to_user:
            detail = f" &#183; modified {format_timestamp(outcome.modification_date)}"
        if outcome.state is UrlState.ERROR:
            detail = f" &#183; {encode_entities(outcome.error)}"
            if outcome.error_count > 1:
                detail += f" ({outcome.error_count} consecutive errors)"
        if outcome.state is UrlState.STALE:
            detail = " &#183; <I>host unreachable; showing last known state"
            if outcome.modification_date is not None:
                detail += (f" (modified "
                           f"{format_timestamp(outcome.modification_date)})")
            detail += "</I>"
        if outcome.state is UrlState.QUARANTINED:
            detail = f" &#183; <I>{encode_entities(outcome.error)}"
            if outcome.error_count > 1:
                detail += f" ({outcome.error_count} guard trips)"
            detail += "; in backoff</I>"
        if outcome.moved_to:
            moved_to = encode_entities(outcome.moved_to, quote=True)
            detail += (
                f' &#183; moved to <A HREF="{moved_to}">{moved_to}</A>'
            )
        strong_open, strong_close = (("<B>", "</B>") if outcome.is_new_to_user
                                     else ("", ""))
        href = encode_entities(outcome.url, quote=True)
        rows.append(
            f'<LI>{strong_open}<A HREF="{href}">{title}</A>{strong_close} '
            f"&#151; {label}{detail}<BR>"
            f"{_aide_links(outcome.url, options, user_query)}"
        )

    changed = sum(1 for o in outcomes if o.is_new_to_user)
    errors = sum(1 for o in outcomes if o.state is UrlState.ERROR)
    stale = sum(1 for o in outcomes if o.state is UrlState.STALE)
    quarantined = sum(
        1 for o in outcomes if o.state is UrlState.QUARANTINED
    )
    header_bits = [f"{len(outcomes)} URLs", f"{changed} changed"]
    if errors:
        header_bits.append(f"{errors} errors")
    if stale:
        header_bits.append(f"{stale} stale")
    if quarantined:
        header_bits.append(f"{quarantined} quarantined")
    status_line = ", ".join(header_bits)
    abort_html = (
        f'<P><B>Run aborted early:</B> {encode_entities(aborted)}</P>'
        if aborted
        else ""
    )
    generated = format_timestamp(now) if now is not None else ""
    summary_html = _render_summary(summary) if summary else ""
    return (
        "<HTML><HEAD><TITLE>"
        f"{encode_entities(options.title)}</TITLE></HEAD><BODY>"
        f"<H1>{encode_entities(options.title)}</H1>"
        f"<P>{status_line}. Generated {generated} for "
        f"{encode_entities(options.user)}.</P>{abort_html}<HR><UL>"
        + "\n".join(rows)
        + f"</UL>{summary_html}</BODY></HTML>"
    )


# ----------------------------------------------------------------------
# Seeded outcomes
# ----------------------------------------------------------------------
HOSTILE = [
    "",
    "http://site.com/page.html",
    "http://site.com/a b?x=1&y=2+3#frag",
    "http://site.com/100%25/%zz/%",
    'http://evil.example/x"><SCRIPT>alert(1)</SCRIPT>',
    "http://xn--caf-dma.example/café/中\U0001f600",
    "file:///home/user/notes.html",
]
ALPHABET = ' %&+="<>#?/:;@~._-\'azAZ09é中\U0001f600'


def hostile_text(rng):
    if rng.random() < 0.3:
        return rng.choice(HOSTILE)
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(0, 20)))


def seeded_case(seed, count=80):
    """(outcomes, entries): every state, hostile URLs and titles,
    repeated URLs, and outcomes whose URL has no hotlist entry."""
    rng = random.Random(seed)
    urls = [f"http://host{rng.randrange(6)}.example/p{i}" for i in range(count)]
    for i in range(0, count, 5):
        urls[i] = hostile_text(rng)
    for i in range(3, count, 11):
        urls[i] = urls[i - 3]  # the same page bookmarked twice
    states = list(UrlState)
    outcomes = []
    for i, url in enumerate(urls):
        state = states[i % len(states)] if i < 2 * len(states) \
            else rng.choice(states)
        outcomes.append(CheckOutcome(
            url=url,
            state=state,
            modification_date=rng.choice(
                [None, 0, rng.randrange(10 ** 9), 817_000_000]),
            error=(hostile_text(rng)
                   if state in (UrlState.ERROR, UrlState.QUARANTINED,
                                UrlState.STALE) else ""),
            error_count=rng.randrange(0, 4),
            moved_to=(hostile_text(rng) or "&<>\"%"
                      if state is UrlState.MOVED or rng.random() < 0.05
                      else ""),
        ))
    entries = [HotlistEntry(url=url, title=rng.choice(
                   ["", hostile_text(rng), "Café & <Bar> \"%\""]))
               for url in urls if rng.random() < 0.8]
    return outcomes, entries


def priority(url):
    return (len(url) % 7) / 7.0


SUMMARY = {"urls": 3, "changed": 1, "errors": 0, "aborted": "",
           "note": "<B>&\"%é"}


@pytest.mark.parametrize("seed", range(12))
def test_render_matches_the_reference(seed):
    outcomes, entries = seeded_case(seed)
    assert {o.state for o in outcomes} == set(UrlState)
    user = ["user@host", 'fred & "wilma" <x>%@att.com', "", "é中"][
        seed % 4]
    cases = [
        dict(),
        dict(options=ReportOptions(user=user, priority=priority)),
        dict(options=ReportOptions(user=user, snapshot_base="/s",
                                   title="<T> & \"t\""),
             now=817_000_000, aborted="3 hosts down <&>"),
        dict(summary=SUMMARY, now=0),
    ]
    for kwargs in cases:
        for rows_entries in (entries, []):
            expected = reference_render_report(outcomes, rows_entries,
                                               **kwargs)
            assert render_report(outcomes, rows_entries, **kwargs) == expected
            # A shared map, pre-filled by an earlier report, changes
            # nothing.
            encoded = {}
            render_report(outcomes[::2], rows_entries, encoded_urls=encoded,
                          **kwargs)
            assert render_report(outcomes, rows_entries,
                                 encoded_urls=encoded, **kwargs) == expected
            assert set(encoded) == {o.url for o in outcomes}


def test_empty_reports_match_the_reference():
    for kwargs in (dict(), dict(aborted="stopped", summary=SUMMARY, now=5)):
        assert render_report([], [], **kwargs) == \
            reference_render_report([], [], **kwargs)


# ----------------------------------------------------------------------
# A tracker across hotlist edits
# ----------------------------------------------------------------------
def twin_worlds():
    """Two identical webs, so two trackers can run side by side."""
    webs = [build_web(sites=4, pages_per_site=5, seed=2303) for _ in (0, 1)]
    return [(web, UserAgent(web.network, web.clock)) for web in webs]


EDITS = [
    ("as built", lambda hotlist: None),
    ("add", lambda hotlist: hotlist.add(
        'http://www.site1.com/x"><B>&%zz', title="<I>hostile</I> & co")),
    ("remove", lambda hotlist: hotlist.entries.pop(2)),
    ("retitle", lambda hotlist: hotlist.entries.__setitem__(
        0, HotlistEntry(url=hotlist.entries[0].url, title="Renamed é"))),
    ("duplicate", lambda hotlist: hotlist.add(
        hotlist.entries[1].url, title="Again")),
    ("user", lambda hotlist: None),
    ("unchanged", lambda hotlist: None),
]


def test_tracker_reports_match_a_fresh_trackers_across_edits():
    (web, agent), (fresh_web, fresh_agent) = twin_worlds()
    hotlist = Hotlist()
    for url in web.urls[:12]:
        hotlist.add(url, title=f"Page {url}")
    fresh_hotlist = Hotlist(entries=list(hotlist.entries))
    tracker = W3Newer(web.clock, agent, hotlist)
    fresh = None
    for day, (name, edit) in enumerate(EDITS, start=1):
        edit(hotlist)
        edit(fresh_hotlist)
        if name == "user":
            tracker.report_options = ReportOptions(user='new & "other" user')
        for each in (web, fresh_web):
            each.cron.run_until(day * DAY)
        # A new tracker per night, inheriting only the user's history
        # and status cache: it starts with no encoded URLs.
        fresh = W3Newer(
            fresh_web.clock, fresh_agent, fresh_hotlist,
            history=fresh.history if fresh else None,
            cache=fresh.cache if fresh else None,
            report_options=tracker.report_options,
        )
        result = tracker.run()
        expected = fresh.run()
        assert result.report_html == expected.report_html, name
        assert result.report_html == reference_render_report(
            result.outcomes, list(hotlist), tracker.report_options,
            now=web.clock.now, aborted=result.aborted), name
        assert set(tracker._encoded_urls) == set(hotlist.urls()), name
        for outcome in result.outcomes[:3]:
            tracker.mark_page_viewed(outcome.url)
            fresh.mark_page_viewed(outcome.url)
