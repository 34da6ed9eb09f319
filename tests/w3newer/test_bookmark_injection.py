"""Bookmark exports must not let a hostile URL or title inject markup.

A hotlist entry's URL and title come from wherever the bookmark came
from, and a SmartMarks row adds a server's error text and a page's
bulletin.  ``Hotlist.to_netscape_html`` and ``SmartMarks.render`` write
them entity-escaped (``quote=True`` inside attributes), so the export
holds no element its author did not write, and a flat hotlist still
round-trips through ``Hotlist.from_netscape_html``.
"""

from repro.baselines.smartmarks import SmartMarkRow, SmartMarks, extract_bulletin
from repro.core.w3newer.hotlist import Hotlist
from repro.html.lexer import Tag, tokenize_html

EVIL_URL = 'http://evil.example/x"><SCRIPT>alert(1)</SCRIPT>'
EVIL_TITLE = "<SCRIPT>alert(2)</SCRIPT> & friends"

HOSTILE_PAIRS = [
    (EVIL_URL, EVIL_TITLE),
    ("http://site.com/a?x=1&y=2&amp;z=3", 'Quotes " and <angles> & amps'),
    ("http://site.com/100%25/%zz/", "Percent % and &lt; literal"),
    ("http://xn--caf-dma.example/café/中", "Café 中文 \U0001f600"),
    ("http://site.com/'single'", "it's &#60;fine&#62;"),
]


def tag_names(html):
    return [node.name for node in tokenize_html(html) if isinstance(node, Tag)]


def test_hostile_bookmark_exports_no_script_element():
    hotlist = Hotlist()
    hotlist.add(EVIL_URL, title=EVIL_TITLE)
    hotlist.add(EVIL_URL)  # no title: the URL is the displayed title
    html = hotlist.to_netscape_html(title="<SCRIPT>alert(3)</SCRIPT>")
    assert "SCRIPT" not in tag_names(html)
    assert set(tag_names(html)) <= {"!DOCTYPE", "TITLE", "H1", "DL", "P",
                                    "DT", "A"}


def test_hostile_flat_hotlist_round_trips():
    hotlist = Hotlist()
    for index, (url, title) in enumerate(HOSTILE_PAIRS):
        hotlist.add(url, title=title, added=800_000_000 + index)
    again = Hotlist.from_netscape_html(hotlist.to_netscape_html())
    assert again.urls() == [url for url, _ in HOSTILE_PAIRS]
    assert [entry.title for entry in again] == [t for _, t in HOSTILE_PAIRS]
    assert [entry.added for entry in again] == [
        800_000_000 + index for index in range(len(HOSTILE_PAIRS))]


def test_smartmarks_render_escapes_every_field():
    rows = [
        SmartMarkRow(url=EVIL_URL, title=EVIL_TITLE, changed=True,
                     modification_date=1,
                     bulletin="<SCRIPT>alert(4)</SCRIPT>"),
        SmartMarkRow(url="http://down.example/", title="Down", changed=False,
                     modification_date=None,
                     error="<SCRIPT>alert(5)</SCRIPT>"),
    ]
    html = SmartMarks(None, None, Hotlist()).render(rows)
    assert "SCRIPT" not in tag_names(html)
    anchors = [node for node in tokenize_html(html)
               if isinstance(node, Tag) and node.name == "A"
               and not node.closing]
    assert len(anchors) == 2


def test_bulletin_entities_are_decoded_once():
    page = '<HEAD><META NAME="bulletin" CONTENT="AT&amp;T &lt;news&gt;"></HEAD>'
    bulletin = extract_bulletin(page)
    assert bulletin == "AT&T <news>"
    row = SmartMarkRow(url="http://a/", title="A", changed=True,
                       modification_date=1, bulletin=bulletin)
    html = SmartMarks(None, None, Hotlist()).render([row])
    assert "<I>AT&amp;T &lt;news&gt;</I>" in html
