"""Hostile URLs cannot inject markup into served snapshot pages.

An archived page's URL is written into ``<BASE HREF="...">`` on every
view and date view, into the Remember page's link back to the page,
into the hosted tracker's report rows, into the web-aware diff's
"Changes beyond this page" addendum and into the fixed-page collection's
What's New report.  Each must reach the page entity-escaped, so a
crafted URL can neither close the attribute nor open an element.
"""

import pytest

from repro.aide.fixedpages import FixedPageCollection
from repro.aide.hosted import HostedTrackerService
from repro.core.htmldiff.webaware import WebAwareDiffer
from repro.core.snapshot.service import SnapshotService
from repro.core.snapshot.store import SnapshotStore, add_base_directive
from repro.core.w3newer.thresholds import parse_threshold_config
from repro.html.lexer import Tag, tokenize_html
from repro.serve import DiffServer
from repro.simclock import DAY, SimClock
from repro.web.cgi import encode_query_string
from repro.web.client import UserAgent
from repro.web.http import Request
from repro.web.network import Network
from repro.web.url import parse_url

EVIL = 'http://evil.example/x"><SCRIPT>alert(1)</SCRIPT>'
ESCAPED = "&quot;&gt;&lt;SCRIPT&gt;alert(1)&lt;/SCRIPT&gt;"
# An archived page's own links cannot carry "<" or ">" (the lexer ends
# the tag there), but a single-quoted HREF can carry a double quote.
EVIL_ATTR = 'http://evil.example/x"onmouseover="alert(1)'
EVIL_ATTR_ESCAPED = "http://evil.example/x&quot;onmouseover=&quot;alert(1)"


def tags(html):
    return [node for node in tokenize_html(html) if isinstance(node, Tag)]


def tag_names(html):
    return {tag.name for tag in tags(html)}


def request(params):
    return Request("GET", "http://aide.example.com/cgi-bin/snapshot?"
                   + encode_query_string(params))


@pytest.fixture
def world():
    clock = SimClock()
    network = Network(clock)
    network.create_server("evil.example").set_page(
        parse_url(EVIL).path,
        "<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY><P>hello</P></BODY></HTML>")
    return clock, UserAgent(network, clock)


def assert_inert(html):
    assert "<SCRIPT>" not in html
    assert "SCRIPT" not in tag_names(html)


def test_base_directive_escapes_the_url():
    out = add_base_directive("<P>x</P>", 'http://a/b"><I>&c')
    assert out == '<BASE HREF="http://a/b&quot;&gt;&lt;I&gt;&amp;c"><P>x</P>'
    assert "I" not in tag_names(out)


def test_plain_url_base_directive_is_unchanged():
    assert (add_base_directive("<P>x</P>", "http://a/b?c=d")
            == '<BASE HREF="http://a/b?c=d"><P>x</P>')


@pytest.mark.parametrize("server_kind", ["service", "diff-server"])
def test_views_and_remember_page_are_inert(world, server_kind):
    clock, agent = world
    if server_kind == "service":
        server = SnapshotService(SnapshotStore(clock, agent))
    else:
        server = DiffServer(clock, agent, shards=2)
    remembered = server(request({"action": "remember", "url": EVIL,
                                 "user": "fred@att.com"}), clock.now)
    assert remembered.status == 200
    assert_inert(remembered.body)
    assert f'<A HREF="http://evil.example/x{ESCAPED}">' in remembered.body

    for params in ({"action": "view", "url": EVIL},
                   {"action": "view", "url": EVIL, "rev": "1.1"},
                   {"action": "view", "url": EVIL, "date": str(clock.now)}):
        response = server(request(params), clock.now)
        assert response.status == 200, params
        assert_inert(response.body)
        bases = [tag for tag in tags(response.body) if tag.name == "BASE"]
        assert len(bases) == 1
        assert bases[0].attr("HREF") == f"http://evil.example/x{ESCAPED}"


def test_history_page_is_inert(world):
    clock, agent = world
    service = SnapshotService(SnapshotStore(clock, agent))
    service(request({"action": "remember", "url": EVIL,
                     "user": '"><SCRIPT>x</SCRIPT>'}), clock.now)
    page = service(request({"action": "history", "url": EVIL,
                            "user": '"><SCRIPT>x</SCRIPT>'}), clock.now)
    assert page.status == 200
    assert_inert(page.body)


def test_hosted_report_row_is_inert(world):
    clock, agent = world
    service = HostedTrackerService(
        clock, agent, config=parse_threshold_config("Default 0\n"))
    service.upload_hotlist("fred", EVIL + " Evil page\n")
    service.check_cycle()
    html = service.report_html("fred")
    assert_inert(html)
    assert f'<A HREF="http://evil.example/x{ESCAPED}">' in html


def test_hosted_upload_and_error_pages_are_inert(world):
    clock, agent = world
    service = HostedTrackerService(
        clock, agent, config=parse_threshold_config("Default 0\n"))
    user = '"><SCRIPT>x</SCRIPT>'
    uploaded = service(Request(
        "POST", "http://aide.att.com/cgi-bin/w3newer",
        body=encode_query_string({"action": "upload", "user": user,
                                  "hotlist": "http://site.com/p.html"})),
        clock.now)
    assert uploaded.status == 200
    assert_inert(uploaded.body)
    unknown = service(request({"action": "<SCRIPT>x</SCRIPT>",
                               "user": "fred"}), clock.now)
    assert unknown.status == 400
    assert_inert(unknown.body)


@pytest.fixture
def archived_evil_page():
    """EVIL_ATTR archived at two revisions, then changed again."""
    clock = SimClock()
    network = Network(clock)
    server = network.create_server("evil.example")
    path = parse_url(EVIL_ATTR).path
    agent = UserAgent(network, clock)
    store = SnapshotStore(clock, agent)
    for text in ("first version of the page.", "second version, rewritten."):
        server.set_page(path, f"<P>{text}</P>")
        store.remember("u", EVIL_ATTR)
        clock.advance(DAY)
    return clock, agent, store, lambda: server.set_page(path, "<P>third.</P>")


def assert_attribute_inert(html, names):
    for tag in tags(html):
        assert tag.attr("ONMOUSEOVER") is None, tag.raw
    hrefs = [tag.attr("SRC") or tag.attr("HREF") for tag in tags(html)
             if tag.name in names and not tag.closing]
    assert hrefs and all(href == EVIL_ATTR_ESCAPED for href in hrefs)


def test_webaware_addendum_is_inert(archived_evil_page):
    clock, agent, store, change_page = archived_evil_page
    parent = f"<P><A HREF='{EVIL_ATTR}'>it</A> <IMG SRC='{EVIL_ATTR}'></P>"
    differ = WebAwareDiffer(agent, snapshot_store=store)
    differ.prime_entities(parent, "http://hub.org/")
    change_page()
    result = differ.diff(parent, parent, "http://hub.org/")
    assert result.entity_changes and result.nested
    addendum = result.html.split("Changes beyond this page", 1)[1]
    assert_attribute_inert(addendum, ("A", "IMG"))


def test_whats_new_page_is_inert(archived_evil_page):
    clock, agent, store, change_page = archived_evil_page
    collection = FixedPageCollection(store, clock)
    collection.add_url(EVIL_ATTR)
    collection.poll()
    clock.advance(DAY)
    change_page()
    collection.poll()
    page = collection.whats_new_page()
    rows = page.split("<LI>", 1)[1]
    assert_attribute_inert(rows.split(" &#183; ", 1)[0], ("A",))
    assert all(tag.attr("ONMOUSEOVER") is None for tag in tags(page))
