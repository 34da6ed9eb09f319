"""Differential tests for the served pages' short cuts.

* ``add_base_directive`` lexes a page only when its lowercase text
  contains ``base``; it must answer exactly as the version that always
  lexes, over hostile documents and hand-made edge cases.  It finds
  ``<HEAD`` in the page itself, never in its lowercase copy, whose
  length can differ: the BASE lands right after the lexer's HEAD tag.
* The history page formats its links directly, escaping the URL and
  user once per page; it must be byte-identical to the page built one
  ``SnapshotService._link`` call per link, for hostile URLs and users.
"""

import random
import re

import pytest

from repro.core.snapshot.service import SnapshotService
from repro.core.snapshot.store import SnapshotStore, add_base_directive
from repro.html.entities import encode_entities
from repro.html.lexer import Tag, tokenize_html
from repro.simclock import SimClock
from repro.web.http import make_response
from repro.workloads.hostileworld import hostile_corpus
from repro.workloads.pagegen import PageGenerator


def lexer_only_base_directive(html: str, original_url: str) -> str:
    """``add_base_directive`` without the screen: always lexes."""
    for node in tokenize_html(html):
        if isinstance(node, Tag) and node.name == "BASE" and not node.closing:
            return html
    base = f'<BASE HREF="{encode_entities(original_url, quote=True)}">'
    idx = re.search("<head", html, re.IGNORECASE | re.ASCII)
    idx = idx.start() if idx else -1
    if idx != -1:
        end = html.find(">", idx)
        if end != -1:
            return html[: end + 1] + base + html[end + 1:]
    return base + html


EDGE_CASES = [
    "",
    "<P>no directive</P>",
    '< base href="http://x/">',
    '<base href="http://x/">',
    "<BaSe>",
    "<BASE>",
    "</BASE>",
    "<HEAD></BASE></HEAD><P>closing only</P>",
    "<!-- <BASE HREF=http://x/> --><P>in a comment</P>",
    "<HEAD><!-- <base> --></HEAD>",
    "<P>the database is down</P>",
    "<HEAD><TITLE>DATABASE</TITLE></HEAD>",
    "<P>x</P><BASE",
    "<HEAD><BASE HREF=http://x/",
    "<BASEFONT SIZE=3><P>not a base</P>",
    "<HEAD><BASE/></HEAD>",
    '<HEAD id="base"></HEAD>',
    "<HEAD><BASE\nHREF='http://x/'></HEAD>",
    "<HEAD><İ><BASE HREF=x></HEAD>",
    "<P>İstanbul <HEAD> base</P>",
    "<P>ſ base</P><BAſE>",
]

#: Text whose lowercase is longer than itself ("İ" lowers to two code
#: points) before the HEAD tag: an index into ``html.lower()`` would
#: point past the tag in ``html``.
LENGTH_CHANGING = [
    "İ" * 8 + "<HEAD>rest>more",
    "<P>İİİ</P><head lang=tr>x</head>",
    "<TITLE>İSTANBUL İZMİR</TITLE><HeAd>y",
    "<!-- İ --><HEAD><P>İ>",
    "İ<P>\u212a ſ İ</P><hEaD\n>z",
    "İ" * 40 + "<HEAD><TITLE>database</TITLE></HEAD>",
]
EDGE_CASES += LENGTH_CHANGING


def hostile_documents():
    docs = [doc.body for doc in hostile_corpus(90, seed=2217)]
    rng = random.Random(2217)
    pages = PageGenerator(seed=2217)
    for index in range(40):
        page = pages.page(paragraphs=rng.randrange(1, 5),
                          links=rng.randrange(0, 4))
        cut = rng.randrange(len(page) + 1)
        # Half the pages get a BASE (in a random case, sometimes
        # closing, sometimes inside a comment) spliced in at random.
        if index % 2:
            tag = rng.choice(["<BASE HREF=http://b/>", "<base>", "<bAsE x>",
                              "</BASE>", "<!-- <BASE> -->", "<BASE"])
            page = page[:cut] + tag + page[cut:]
        docs.append(page)
    return docs


@pytest.mark.parametrize("url", [
    "http://site.com/p.html",
    'http://evil.example/x"><SCRIPT>alert(1)</SCRIPT>&y=1',
])
def test_screened_base_directive_matches_the_lexer(url):
    documents = EDGE_CASES + hostile_documents()
    assert any("base" in doc.lower() for doc in documents)
    assert any("base" not in doc.lower() for doc in documents)
    for html in documents:
        assert add_base_directive(html, url) == \
            lexer_only_base_directive(html, url), html[:80]


def test_base_lands_right_after_the_lexers_head_tag():
    url = 'http://evil.example/x"><SCRIPT>&y=1'
    base = f'<BASE HREF="{encode_entities(url, quote=True)}">'
    for html in LENGTH_CHANGING:
        head = next(node for node in tokenize_html(html)
                    if isinstance(node, Tag) and node.name == "HEAD")
        end = html.index(head.raw) + len(head.raw)
        assert add_base_directive(html, url) == html[:end] + base + html[end:]


# ----------------------------------------------------------------------
# History pages
# ----------------------------------------------------------------------
def link_built_history(service: SnapshotService, user: str, url: str):
    """The history page as built with one ``_link`` call per link."""
    padding = service.keepalive.padding(service.costs.cheap)
    rows = []
    history = service.store.history(user, url)
    for info, seen_by_user in reversed(history):
        view_link = service._link(
            {"action": "view", "url": url, "rev": info.number},
            f"view {info.number}",
        )
        marker = " &#183; <B>seen by you</B>" if seen_by_user else ""
        rows.append(
            f"<LI>{info.number} &#183; {info.date_string} &#183; "
            f"{encode_entities(info.author)}{marker} &#183; {view_link}")
    numbers = [info.number for info, _ in history]
    pair_links = [
        service._link({"action": "diff", "url": url, "user": user,
                       "r1": older, "r2": newer},
                      f"diff {older} &rarr; {newer}")
        for older, newer in zip(numbers, numbers[1:])
    ]
    pairs_html = (
        "<P>Compare: " + " | ".join(pair_links) + "</P>" if pair_links else ""
    )
    body = (
        "<HTML><HEAD><TITLE>History</TITLE></HEAD><BODY>"
        f"<H1>Versions of {encode_entities(url)}</H1>"
        f"<UL>{''.join(rows)}</UL>{pairs_html}</BODY></HTML>"
    )
    return make_response(200, padding + body)


PIECES = ["a", "Z", "9", "&", "%", "%41", "%zz", "+", " ", '"', "<", ">",
          "=", "?", "#", "/", "é", "€", "\U0001f600", "İ", "~", ";"]


def seeded_values(rng: random.Random, count: int):
    return ["".join(rng.choice(PIECES) for _ in range(rng.randrange(0, 7)))
            for _ in range(count)]


def test_history_page_matches_the_link_built_page():
    rng = random.Random(5309)
    clock = SimClock()
    store = SnapshotStore(clock, agent=None)
    service = SnapshotService(store)
    users = ["", "fred@att.com", "a&b", "100%", "Jürgen", '"><I>'] \
        + seeded_values(rng, 10)
    urls = ["http://site.com/p.html", "http://site.com/a&b?c=%41",
            "http://site.com/%zz/é", 'http://evil.example/"><I>x</I>'] \
        + ["http://site.com/" + path for path in seeded_values(rng, 16)]
    compared = 0
    for url in urls:
        for version in range(rng.randrange(1, 5)):
            store.checkin_content(rng.choice(users), url,
                                  f"<P>{url} version {version}</P>")
            clock.advance(rng.randrange(1, 5000))
        for user in users:
            expected = link_built_history(service, user, url)
            got = service._history(user, url)
            assert got.status == expected.status == 200
            assert got.body == expected.body, (url, user)
            compared += 1
    assert compared == len(urls) * len(users)
