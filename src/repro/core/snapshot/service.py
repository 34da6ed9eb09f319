"""The snapshot CGI: AIDE's HTTP face.

One CGI script (``/cgi-bin/snapshot``) dispatches on ``action``:

* ``remember`` — save a copy of a page for a user;
* ``diff`` — marked-up differences since the user last saved it (or
  between two explicit revisions ``r1``/``r2``);
* ``history`` — "a full log of versions of this page, with the ability
  to run HtmlDiff on any pair of versions or to view a particular
  version directly";
* ``view`` — one stored version, BASE-rewritten;
* no action — the registration form ("Pages can be registered with the
  service via an HTML form").

The identifier is an email address, unauthenticated — Section 4.2's
security discussion applies verbatim and deliberately.

Long operations go through :class:`~repro.core.snapshot.keepalive.KeepAlive`;
surviving responses carry the child's padding spaces, timed-out ones
become 504s (what the browser saw when the trick was disabled).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ...html.entities import encode_entities
from ...memento.endpoints import (
    MEMENTO_ACTIONS,
    MementoEndpoints,
    MementoHttpError,
)
from ...obs import to_json, to_prometheus
from ...web.cgi import encode_query_string, request_params
from ...web.http import Request, Response, make_response
from .keepalive import CgiTimeout, KeepAlive
from .persistence import verify_store
from .store import ContentQuarantined, SnapshotError, SnapshotStore

__all__ = ["SnapshotService", "OperationCosts", "stats_page_html",
           "fsck_page_html"]


def _render_stats_value(value) -> str:
    if isinstance(value, dict):
        items = "".join(
            f"<DT>{encode_entities(str(key))}</DT>"
            f"<DD>{_render_stats_value(val)}</DD>"
            for key, val in value.items()
        )
        return f"<DL>{items}</DL>"
    if isinstance(value, float):
        return f"{value:.3f}"
    return encode_entities(str(value))


def stats_page_html(stats: dict) -> str:
    """The ``action=stats`` operator page for any layered stats dict
    (shared by the CGI service and the sharded diff server)."""
    return (
        "<HTML><HEAD><TITLE>Snapshot store statistics</TITLE></HEAD>"
        "<BODY><H1>Snapshot store statistics</H1>"
        f"{_render_stats_value(stats)}</BODY></HTML>"
    )


def fsck_page_html(report) -> str:
    """The ``action=fsck`` page body for any verification report with
    the ``ok``/``summary()``/``problems``/``notes``/``repaired``/
    ``to_dict()`` surface (plain or sharded)."""
    verdict = "consistent" if report.ok else "INCONSISTENT"

    def listing(title: str, items) -> str:
        if not items:
            return ""
        rows = "".join(f"<LI>{encode_entities(item)}</LI>" for item in items)
        return f"<H2>{title}</H2><UL>{rows}</UL>"

    return (
        "<HTML><HEAD><TITLE>Repository check</TITLE></HEAD><BODY>"
        f"<H1>Repository check: {verdict}</H1>"
        f"<P>{encode_entities(report.summary())}</P>"
        f"{listing('Problems', report.problems)}"
        f"{listing('Notes', report.notes)}"
        f"{listing('Repairs applied', report.repaired)}"
        f"<PRE>{encode_entities(json.dumps(report.to_dict(), indent=2))}"
        "</PRE></BODY></HTML>"
    )


@dataclass
class OperationCosts:
    """Simulated wall-clock cost of the expensive steps (seconds).

    The paper's problem case: "the script might have to retrieve a page
    over the Internet and then do a time-consuming comparison against
    an archived version."
    """

    fetch: int = 20
    htmldiff: int = 30
    cheap: int = 1


class SnapshotService:
    """The CGI wrapper around a :class:`SnapshotStore`."""

    def __init__(
        self,
        store: SnapshotStore,
        keepalive: Optional[KeepAlive] = None,
        costs: Optional[OperationCosts] = None,
        script_path: str = "/cgi-bin/snapshot",
        repository_dir: Optional[str] = None,
    ) -> None:
        self.store = store
        self.keepalive = keepalive or KeepAlive()
        self.costs = costs or OperationCosts()
        self.script_path = script_path
        #: On-disk repository for the ``fsck`` action; None disables it.
        self.repository_dir = repository_dir
        self._memento_endpoints: Optional[MementoEndpoints] = None

    @property
    def memento(self) -> MementoEndpoints:
        """The Memento endpoints bound to this service's store."""
        if self._memento_endpoints is None:
            self._memento_endpoints = MementoEndpoints(
                self.store, self.script_path
            )
        return self._memento_endpoints

    # ------------------------------------------------------------------
    # CGI entry point
    # ------------------------------------------------------------------
    def __call__(self, request: Request, now: int,
                 params: Optional[Dict[str, str]] = None) -> Response:
        """Serve one CGI request.  ``params`` are the request's already
        parsed parameters, when the caller (the diff server) has them."""
        if params is None:
            params = request_params(request)
        action = params.get("action", "")
        url = params.get("url", "")
        user = params.get("user", "")
        try:
            if not action:
                return make_response(200, self._form_page())
            if action == "stats":
                return self._stats()
            if action == "metrics":
                return self._metrics(params.get("format", "text"))
            if action == "fsck":
                return self._fsck(repair=params.get("repair") == "1")
            if not url:
                return self._error_page(400, "missing the url parameter")
            if action == "remember":
                return self._remember(user, url)
            if action == "diff":
                return self._diff(user, url, params.get("r1"), params.get("r2"))
            if action == "history":
                return self._history(user, url)
            if action == "view":
                return self._view(url, params.get("rev"), params.get("date"))
            if action in MEMENTO_ACTIONS:
                return self._memento(action, url, request, params)
            return self._error_page(400, f"unknown action {action!r}")
        except MementoHttpError as exc:
            return self._error_page(exc.status, exc.message)
        except ContentQuarantined as exc:
            # A guard refusal is a verdict, not a failure: 422 with the
            # guard's reason, deterministically, instead of a 500.
            return self._error_page(422, str(exc))
        except SnapshotError as exc:
            return self._error_page(404, str(exc))
        except CgiTimeout as exc:
            return make_response(
                504, f"<P>httpd timed out the snapshot script: "
                     f"{encode_entities(str(exc))}</P>"
            )

    # ------------------------------------------------------------------
    def _run_guarded(self, duration: int, op: Callable) -> Tuple[str, object]:
        """Run a long operation under the keep-alive guard.

        On a legacy store this is exactly the historical behaviour (a
        doomed operation raises before starting).  On a transactional
        store the timeout is delivered at the commit barrier instead,
        so the operation rolls back rather than leaving partial state;
        if the operation ends without crossing a barrier, the armed
        verdict still stands — httpd closed the connection either way.
        """
        padding = self.keepalive.guard(self.store, duration)
        try:
            result = op()
        finally:
            if self.keepalive.unguard(self.store):
                raise CgiTimeout(
                    f"no output for {duration}s exceeds httpd's "
                    f"{self.keepalive.httpd_timeout}s timeout"
                )
        return padding, result

    def _remember(self, user: str, url: str) -> Response:
        if not user:
            return self._error_page(400, "an identifier (email) is required")
        padding, result = self._run_guarded(
            self.costs.fetch, lambda: self.store.remember(user, url)
        )
        verdict = (
            f"saved as revision {result.revision}"
            if result.changed
            else f"unchanged; you are marked as having seen revision "
                 f"{result.revision}"
        )
        links = self._action_links(url, user)
        body = (
            "<HTML><HEAD><TITLE>Remembered</TITLE></HEAD><BODY>"
            f"<H1>Snapshot taken</H1>"
            f"<P><A HREF=\"{encode_entities(url, quote=True)}\">"
            f"{encode_entities(url)}</A>: {verdict} "
            f"({result.fetched_bytes} bytes retrieved).</P>{links}"
            "</BODY></HTML>"
        )
        return make_response(200, padding + body)

    def _diff(
        self, user: str, url: str, r1: Optional[str], r2: Optional[str]
    ) -> Response:
        if not user and r1 is None:
            return self._error_page(
                400, "a user (for 'since I last saved') or explicit "
                     "revisions are required"
            )
        padding, result = self._run_guarded(
            self.costs.fetch + self.costs.htmldiff,
            lambda: self.store.diff(user, url, rev_old=r1, rev_new=r2),
        )
        return make_response(200, padding + result.html)

    def _history(self, user: str, url: str) -> Response:
        padding = self.keepalive.padding(self.costs.cheap)
        history = self.store.history(user, url)
        # _link's bytes with the URL and user escaped once per page;
        # revision numbers are dotted decimals and need no escaping.
        script = self.script_path
        query_url = encode_query_string({"url": url})
        query_user = "&" + encode_query_string({"user": user}) if user else ""
        rows = []
        for info, seen_by_user in reversed(history):
            number = info.number
            marker = " &#183; <B>seen by you</B>" if seen_by_user else ""
            rows.append(
                f"<LI>{number} &#183; {info.date_string} &#183; "
                f"{encode_entities(info.author)}{marker} &#183; "
                f'<A HREF="{script}?action=view&{query_url}&rev={number}">'
                f"[view {number}]</A>"
            )
        # Pairwise diff links between consecutive revisions.
        numbers = [info.number for info, _ in history]
        pair_links = [
            f'<A HREF="{script}?action=diff&{query_url}{query_user}'
            f'&r1={older}&r2={newer}">[diff {older} &rarr; {newer}]</A>'
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

    def _view(self, url: str, revision: Optional[str],
              date: Optional[str] = None) -> Response:
        padding = self.keepalive.padding(self.costs.cheap)
        if date is not None and revision is None:
            # §2.2's time travel: the page as it existed at a date.
            try:
                when = int(date)
            except ValueError:
                return self._error_page(400, f"unparseable date {date!r}")
            text = self.store.view_at(url, when)
        else:
            text = self.store.view(url, revision)
        return make_response(200, padding + text)

    def _memento(self, action: str, url: str, request: Request,
                 params: dict) -> Response:
        """RFC 7089 actions.  The URI-M body is padded through the same
        keep-alive path as ``action=view`` so a TimeGate redirect is
        byte-identical to the ``view``/``view_at`` it negotiates for;
        the 302 and the link-format TimeMap are machine-readable and
        stay unpadded."""
        if action == "timegate":
            return self.memento.timegate(
                url, request, policy=params.get("policy")
            )
        if action == "timemap":
            return self.memento.timemap(url, params.get("format", "link"))
        padding = self.keepalive.padding(self.costs.cheap)
        return self.memento.memento(url, params.get("rev"), padding=padding)

    def _stats(self) -> Response:
        """Operator page: every storage layer's counters in one table
        (``store.stats()`` rendered as nested definition lists)."""
        padding = self.keepalive.padding(self.costs.cheap)
        return make_response(200, padding + stats_page_html(self.store.stats()))

    def _metrics(self, fmt: str) -> Response:
        """Scrape endpoint (``action=metrics``): the store's metrics
        registry in Prometheus text exposition format, or as a JSON
        object with ``format=json``.  Collectors (the legacy ``stats()``
        dicts) are polled at scrape time, so the page is current even
        when no instrumented code path has run."""
        snapshot = self.store.obs.snapshot()
        if fmt == "json":
            return make_response(200, to_json(snapshot),
                                 content_type="application/json")
        if fmt != "text":
            return self._error_page(400, f"unknown metrics format {fmt!r}")
        return make_response(200, to_prometheus(snapshot),
                             content_type="text/plain")

    def _fsck(self, repair: bool = False) -> Response:
        """Operator page: cross-file consistency check of the on-disk
        repository (``action=fsck``, ``&repair=1`` to fix what is
        fixable).  The page carries the structured report as JSON so
        scripts can consume the same endpoint."""
        if self.repository_dir is None:
            return self._error_page(
                400, "fsck requires an on-disk repository directory"
            )
        padding = self.keepalive.padding(self.costs.cheap)
        report = verify_store(self.repository_dir, repair=repair)
        return make_response(200 if report.ok else 500,
                             padding + fsck_page_html(report))

    # ------------------------------------------------------------------
    def _link(self, params: dict, label: str) -> str:
        query = encode_query_string({k: v for k, v in params.items() if v})
        return f'<A HREF="{self.script_path}?{query}">[{label}]</A>'

    def _action_links(self, url: str, user: str) -> str:
        return "<P>" + " ".join(
            self._link({"action": action, "url": url, "user": user},
                       action.capitalize())
            for action in ("remember", "diff", "history")
        ) + "</P>"

    def _form_page(self) -> str:
        return (
            "<HTML><HEAD><TITLE>AIDE snapshot service</TITLE></HEAD><BODY>"
            "<H1>AT&amp;T Internet Difference Engine</H1>"
            f'<FORM METHOD=GET ACTION="{self.script_path}">'
            "<P>URL: <INPUT NAME=url SIZE=60></P>"
            "<P>Your email: <INPUT NAME=user SIZE=30></P>"
            "<P>Action: <SELECT NAME=action>"
            "<OPTION VALUE=remember>Remember"
            "<OPTION VALUE=diff>Diff"
            "<OPTION VALUE=history>History"
            "</SELECT></P>"
            "<P><INPUT TYPE=submit VALUE=Go></P>"
            "</FORM></BODY></HTML>"
        )

    def _error_page(self, status: int, message: str) -> Response:
        return make_response(
            status,
            "<HTML><HEAD><TITLE>Snapshot error</TITLE></HEAD><BODY>"
            f"<H1>Snapshot error</H1><P>{encode_entities(message)}</P>"
            "</BODY></HTML>",
        )
