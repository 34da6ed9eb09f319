"""The w3newer report: Figure 1's HTML page.

"w3newer... generates an HTML document indicating which pages have
changed", with each hotlist entry carrying three links into the
snapshot facility:

* **Remember** — save a copy of the page;
* **Diff** — HtmlDiff against the user's last-saved version;
* **History** — the full version log.

Rows are grouped: changed pages first (most recently modified first,
the paper's sort), then errors (so the user can prune dead URLs), then
skipped/seen pages.  Section 7's "information overload" lesson is
addressed by an optional priority function (see
:mod:`repro.aide.prioritize`).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ...html.entities import encode_entities
from ...simclock import format_timestamp
from ...web.cgi import encode_query_string
from .errors import CheckOutcome, UrlState
from .hotlist import HotlistEntry

__all__ = ["ReportOptions", "render_report", "render_all_dates_report",
           "render_report_text"]


@dataclass
class ReportOptions:
    """Where the snapshot facility lives and who is asking."""

    snapshot_base: str = "http://aide.research.att.com/cgi-bin/snapshot"
    user: str = "user@host"
    title: str = "w3newer: what's new on your hotlist"
    #: Optional priority: higher floats sort first within their group.
    priority: Optional[Callable[[str], float]] = None
    #: Append the run-summary block (per-run cost totals) to the
    #: report.  Off by default because it changes the report's bytes —
    #: the observability differential tests compare reports with the
    #: telemetry layer on and off and require them identical.
    run_summary: bool = False
    #: Build the HTML at all.  A 100k-URL run renders a ~100k-row
    #: report; fleet-scale benchmark runs turn this off and keep only
    #: the outcome list.
    render: bool = True


_STATE_LABELS: Dict[UrlState, str] = {
    UrlState.CHANGED: "changed",
    UrlState.NEVER_SEEN: "changed (never seen)",
    UrlState.SEEN: "seen",
    UrlState.NOT_CHECKED: "not checked",
    UrlState.NEVER_CHECK: "never checked",
    UrlState.DEFERRED: "deferred (fetch budget)",
    UrlState.ROBOT_FORBIDDEN: "robots.txt forbids checking",
    UrlState.MOVED: "moved",
    UrlState.ERROR: "error",
    UrlState.STALE: "stale (last known state)",
    UrlState.QUARANTINED: "quarantined (hostile content)",
}

_GROUP_ORDER = {
    UrlState.CHANGED: 0,
    UrlState.NEVER_SEEN: 0,
    UrlState.MOVED: 1,
    UrlState.ERROR: 1,
    UrlState.QUARANTINED: 2,
    UrlState.STALE: 2,
    UrlState.ROBOT_FORBIDDEN: 3,
    UrlState.SEEN: 4,
    UrlState.NOT_CHECKED: 5,
    UrlState.NEVER_CHECK: 5,
    UrlState.DEFERRED: 5,
}


#: Per state: (sort group, label, shown bold as new to the user).
_ROW_STYLE: Dict[UrlState, Tuple[int, str, bool]] = {
    state: (_GROUP_ORDER[state], _STATE_LABELS[state],
            state in (UrlState.CHANGED, UrlState.NEVER_SEEN))
    for state in UrlState
}


def render_report(
    outcomes: Sequence[CheckOutcome],
    entries: Sequence[HotlistEntry],
    options: Optional[ReportOptions] = None,
    now: Optional[int] = None,
    aborted: str = "",
    summary: Optional[Dict[str, object]] = None,
    encoded_urls: Optional[Dict[str, str]] = None,
) -> str:
    """The Figure 1 HTML report (plus an optional run-summary block).

    One walk over the outcomes builds the sort keys and the header's
    counts.  Each row's Remember / Diff / History links (Section 6)
    share the row URL's query encoding, looked up in ``encoded_urls``
    (``url`` → ``url=...``) and added there when missing: a tracker
    passes one map per hotlist, so a URL is encoded once while it
    stays bookmarked rather than once per report.
    """
    options = options or ReportOptions()
    if encoded_urls is None:
        encoded_urls = {}
    titles = {entry.url: entry.display_title() for entry in entries}
    priority = options.priority
    keyed = []
    changed = errors = stale = quarantined = 0
    for outcome in outcomes:
        state = outcome.state
        style = _ROW_STYLE[state]
        if style[2]:
            changed += 1
        elif state is UrlState.ERROR:
            errors += 1
        elif state is UrlState.STALE:
            stale += 1
        elif state is UrlState.QUARANTINED:
            quarantined += 1
        url = outcome.url
        keyed.append(((style[0], -priority(url) if priority else 0.0,
                       -(outcome.modification_date or 0), url),
                      outcome, style))
    keyed.sort(key=itemgetter(0))

    # The actions need no escaping and the user is encoded once per
    # report, so a link is head + action + the row's middle + tail.
    head = f'<A HREF="{options.snapshot_base}?action='
    tail = f'&{encode_query_string({"user": options.user})}">'
    rows: List[str] = []
    for _key, outcome, (_group, label, new) in keyed:
        url = outcome.url
        state = outcome.state
        detail = ""
        if outcome.modification_date is not None and new:
            detail = f" &#183; modified {format_timestamp(outcome.modification_date)}"
        if state is UrlState.ERROR:
            detail = f" &#183; {encode_entities(outcome.error)}"
            if outcome.error_count > 1:
                detail += f" ({outcome.error_count} consecutive errors)"
        elif state is UrlState.STALE:
            # Degraded mode: the verdict is the status cache's last
            # word; say so, and show how old that word is.
            detail = " &#183; <I>host unreachable; showing last known state"
            if outcome.modification_date is not None:
                detail += (f" (modified "
                           f"{format_timestamp(outcome.modification_date)})")
            detail += "</I>"
        elif state is UrlState.QUARANTINED:
            # The guard's verdict plus how many fetches have tripped —
            # the operator's cue for `aide quarantine list/retry`.
            detail = f" &#183; <I>{encode_entities(outcome.error)}"
            if outcome.error_count > 1:
                detail += f" ({outcome.error_count} guard trips)"
            detail += "; in backoff</I>"
        if outcome.moved_to:
            # A server's Location header: hostile until escaped.
            moved_to = encode_entities(outcome.moved_to, quote=True)
            detail += (
                f' &#183; moved to <A HREF="{moved_to}">{moved_to}</A>'
            )
        query = encoded_urls.get(url)
        if query is None:
            query = encoded_urls[url] = encode_query_string({"url": url})
        middle = f"&{query}{tail}"
        title = encode_entities(titles.get(url, url))
        href = encode_entities(url, quote=True)
        row = f'<A HREF="{href}">{title}</A>'
        if new:
            row = f"<B>{row}</B>"
        rows.append(
            f"<LI>{row} &#151; {label}{detail}<BR>"
            f"{head}remember{middle}[Remember]</A> "
            f"{head}diff{middle}[Diff]</A> "
            f"{head}history{middle}[History]</A>"
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


def _render_summary(summary: Dict[str, object]) -> str:
    """The run-summary block: what this invocation cost, in the
    spirit of Table 1's per-URL accounting.  Keys render in the order
    supplied (the runner passes a stable order)."""
    items = "".join(
        f"<DT>{encode_entities(str(key))}</DT>"
        f"<DD>{encode_entities(str(value))}</DD>"
        for key, value in summary.items()
        if value not in (None, "")
    )
    return f"<HR><H2>Run summary</H2><DL>{items}</DL>"


def render_all_dates_report(
    outcomes: Sequence[CheckOutcome],
    entries: Sequence[HotlistEntry],
) -> str:
    """The other 1995 report style (§2.1): "a sorted list of all
    modification times", newest first, regardless of what the user has
    or hasn't seen.  Included for comparison with the personalized
    report — this is the presentation w3newer improves upon.
    """
    titles = {entry.url: entry.display_title() for entry in entries}
    dated = [o for o in outcomes if o.modification_date is not None]
    undated = [o for o in outcomes if o.modification_date is None]
    rows = []
    for outcome in sorted(dated, key=lambda o: -o.modification_date):
        title = encode_entities(titles.get(outcome.url, outcome.url))
        rows.append(
            f'<LI>{format_timestamp(outcome.modification_date)} &#183; '
            f'<A HREF="{encode_entities(outcome.url, quote=True)}">{title}</A>'
        )
    for outcome in undated:
        title = encode_entities(titles.get(outcome.url, outcome.url))
        rows.append(
            f'<LI>(no modification date) &#183; '
            f'<A HREF="{encode_entities(outcome.url, quote=True)}">{title}</A>'
        )
    return (
        "<HTML><HEAD><TITLE>All modification times</TITLE></HEAD><BODY>"
        "<H1>Hotlist by modification time</H1><UL>"
        + "\n".join(rows)
        + "</UL></BODY></HTML>"
    )


def render_report_text(outcomes: Sequence[CheckOutcome]) -> str:
    """One-line-per-URL plain text summary (for logs and tests)."""
    lines = []
    for outcome in outcomes:
        label = _STATE_LABELS.get(outcome.state, outcome.state.value)
        lines.append(f"{label:28s} {outcome.url}")
    return "\n".join(lines)
