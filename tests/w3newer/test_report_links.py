"""The report's Remember/Diff/History links, against a reference.

The reference is the earlier builder, kept here as the oracle: one
``encode_query_string`` call per link over ``action``, ``url`` and
``user``.  The report now encodes the user once per report and the
URL once per row; the links of a rendered report must come out
byte-identical for any URL and any user, hostile ones included.
"""

import random

from repro.core.w3newer.errors import CheckOutcome, UrlState
from repro.core.w3newer.report import ReportOptions, render_report
from repro.web.cgi import encode_query_string, parse_query_string

#: Characters that exercise every escaping rule: reserved, ``+``/space,
#: ``%``, quotes and markup, non-ASCII (two-, three- and four-byte
#: UTF-8), controls, and the unreserved set.
ALPHABET = (
    ' %&+="<>#?/:;@~._-'
    "'\t\n\x00\x7f"
    "azAZ09"
    "\u00e9\u00fc\u4e2d\U0001f600"
)

FIXED = [
    "",
    " ",
    "http://site.com/page.html",
    "http://site.com/a b?x=1&y=2+3#frag",
    "http://site.com/100%25/%zz/%",
    'http://evil.example/new"><SCRIPT>alert(1)</SCRIPT>',
    "http://xn--caf-dma.example/caf\u00e9",
    "file:///home/user/notes.html",
]


def reference_links(url, options):
    pieces = []
    for action in ("remember", "diff", "history"):
        query = encode_query_string(
            {"action": action, "url": url, "user": options.user}
        )
        label = action.capitalize()
        pieces.append(f'<A HREF="{options.snapshot_base}?{query}">[{label}]</A>')
    return " ".join(pieces)


def hostile_strings(seed, count):
    rng = random.Random(seed)
    out = list(FIXED)
    for _ in range(count):
        out.append("".join(rng.choice(ALPHABET)
                           for _ in range(rng.randrange(0, 24))))
    return out


def links(url, options):
    """The links of a one-row report: everything after the row's
    ``<BR>`` (the row's own URL is entity-escaped, so it cannot hold
    one)."""
    html = render_report([CheckOutcome(url=url, state=UrlState.SEEN)], [],
                         options)
    return html.split("<BR>", 1)[1].rsplit("</UL>", 1)[0]


def test_links_match_the_reference_builder():
    urls = hostile_strings(seed=20, count=400)
    users = hostile_strings(seed=21, count=40)
    bases = ["http://aide.research.att.com/cgi-bin/snapshot", "", "/s"]
    compared = 0
    for i, user in enumerate(users):
        options = ReportOptions(user=user, snapshot_base=bases[i % 3])
        for url in urls:
            assert links(url, options) == reference_links(url, options), (
                url, user)
            compared += 1
    assert compared == len(urls) * len(users)


def test_links_round_trip_through_the_cgi_decoder():
    options = ReportOptions(user="fred & wilma@att.com")
    for url in hostile_strings(seed=22, count=100):
        html = links(url, options)
        for action in ("remember", "diff", "history"):
            start = html.index(f"?action={action}&") + 1
            query = html[start:html.index('"', start)]
            assert parse_query_string(query) == {
                "action": action, "url": url, "user": options.user}
