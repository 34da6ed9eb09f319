"""Hostile URLs cannot inject markup into the Figure 1 report.

A row's own URL comes from the hotlist and its "moved to" target from
a server's ``Location`` header; both land inside ``HREF="..."`` and in
link text.  Each must reach the page entity-escaped, so a crafted URL
can neither close the attribute nor open an element.
"""

from repro.core.w3newer.errors import CheckOutcome, UrlState
from repro.core.w3newer.hotlist import Hotlist
from repro.core.w3newer.report import render_all_dates_report, render_report
from repro.core.w3newer.runner import W3Newer
from repro.core.w3newer.thresholds import parse_threshold_config
from repro.html.lexer import Tag, tokenize_html
from repro.simclock import DAY, SimClock
from repro.web.client import UserAgent
from repro.web.network import Network
from repro.web.url import parse_url

EVIL = 'http://evil.example/new"><SCRIPT>alert(1)</SCRIPT>'


def tags(html):
    return [node for node in tokenize_html(html) if isinstance(node, Tag)]


def tag_names(html):
    return {tag.name for tag in tags(html)}


def test_redirect_location_cannot_inject_a_script():
    clock = SimClock()
    network = Network(clock)
    server = network.create_server("site.com")
    server.add_redirect("/page", EVIL)
    network.create_server("evil.example").set_page(
        parse_url(EVIL).path, "<P>the new home</P>")
    tracker = W3Newer(
        clock, UserAgent(network, clock),
        Hotlist.from_lines("http://site.com/page Moved page\n"),
        config=parse_threshold_config("Default 0\n"),
    )
    clock.advance(3 * DAY)
    result = tracker.run()
    assert result.outcomes[0].moved_to == EVIL
    html = result.report_html
    assert "<SCRIPT>" not in html
    assert "SCRIPT" not in tag_names(html)
    assert ' &#183; moved to <A HREF="http://evil.example/new&quot;&gt;' in html
    assert "&lt;SCRIPT&gt;alert(1)&lt;/SCRIPT&gt;</A>" in html


def test_row_url_is_escaped_in_both_reports():
    url = 'http://site.com/a"onmouseover="x()&b=<I>'
    outcomes = [CheckOutcome(url=url, state=UrlState.NEVER_SEEN,
                             modification_date=5, moved_to=url)]
    for html in (render_report(outcomes, []),
                 render_all_dates_report(outcomes, [])):
        assert "<I>" not in html
        assert "I" not in tag_names(html)
        # Every attribute the lexer sees is a whole HREF: the row's URL
        # (entity-escaped) or a snapshot link.
        for tag in tags(html):
            for name, value in tag.attrs:
                assert name.upper() == "HREF"
                assert value in (
                    "http://site.com/a&quot;onmouseover=&quot;x()&amp;b="
                    "&lt;I&gt;",
                ) or "/cgi-bin/snapshot?" in value


def test_plain_urls_render_unchanged():
    url = "http://site.com/dir/page.html"
    outcomes = [CheckOutcome(url=url, state=UrlState.SEEN,
                             moved_to="http://site.com/new.html")]
    html = render_report(outcomes, [])
    assert f'<A HREF="{url}">{url}</A>' in html
    assert ('moved to <A HREF="http://site.com/new.html">'
            'http://site.com/new.html</A>') in html
