"""The snapshot store: RCS archives per URL, plus user bookkeeping.

The paper's "external service" design (Section 4.1): the store is
neither the content provider nor the client; anyone can register a page
and later retrieve differences.  Responsibilities:

* **remember** — fetch the live page, check it into the URL's RCS
  archive (a no-op when unchanged), stamp the user's control file;
* **diff** — HtmlDiff between the user's last-saved version and the
  newest stored version (or any explicit pair), with output caching and
  simultaneous-request coalescing;
* **history** — the version log annotated with the user's seen set;
* **view** — any stored version, BASE-rewritten so relative links still
  resolve against the original site.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple, TYPE_CHECKING

from ...html.entities import encode_entities
from ...html.lexer import Tag, tokenize_html
from ...lru import LruCache
from ...obs import NOOP as NOOP_OBS
from ...rcs.archive import RcsArchive, RevisionInfo, UnknownRevision
from ...simclock import SimClock
from ...web.client import UserAgent
from ...web.guards import ContentGuard, ContentGuardError
from ...web.http import NetworkError
from ...web.url import canonical_url
from ..htmldiff.api import html_diff
from ..htmldiff.options import HtmlDiffOptions
from ..htmldiff.tokenizer import TokenStream, tokenize_document
from .locking import LockManager, RequestCoalescer
from .options import StoreOptions
from .usercontrol import UserControl

if TYPE_CHECKING:
    from .sched import Failpoints
    from .wal import Transaction, WriteAheadLog

__all__ = ["SnapshotStore", "RememberResult", "DiffPage", "SnapshotError",
           "ContentQuarantined", "StoreOptions", "add_base_directive",
           "diff_cache_key"]


class SnapshotError(Exception):
    """A snapshot operation could not be completed (message is
    user-facing; the CGI layer turns it into an HTML error page)."""


class ContentQuarantined(SnapshotError):
    """The content guard refused a fetched or supplied body.

    Raised *inside* the check-in transaction, so the WAL rolls the
    whole operation back and the archive never records the hostile
    bytes.  The CGI layer renders this as a deterministic 422 verdict
    rather than a 500 — the refusal is the service working, not the
    service failing."""

    def __init__(self, url: str, guard: str, detail: str) -> None:
        super().__init__(f"refused {url}: {guard}: {detail}")
        self.url = url
        self.guard = guard
        self.detail = detail


@dataclass
class RememberResult:
    """Outcome of a remember (check-in) request."""

    url: str
    revision: str
    changed: bool
    fetched_bytes: int
    when: int


class DiffPage(NamedTuple):
    """What :meth:`SnapshotStore.diff` serves and caches: the page and
    its statistics, plain data the cyclic GC need not walk (unlike
    :func:`html_diff`'s ``HtmlDiffResult`` and its token graph)."""

    html: str
    identical: bool
    difference_count: int
    change_density: float
    degraded: bool


#: ``<head`` in any ASCII case (a tag name is ASCII).
_HEAD_OPEN = re.compile("<head", re.IGNORECASE | re.ASCII)


def add_base_directive(html: str, original_url: str) -> str:
    """Insert ``<BASE HREF=...>`` so relative links resolve.

    "HTML supports a BASE directive that makes relative links relative
    to a different URL, which mostly addresses this problem."  The
    directive goes right after ``<HEAD>`` when present, else at the
    front.  An existing BASE is left alone — the page author knew
    better.  The URL is entity-escaped, so a hostile one cannot close
    the attribute and inject markup.
    """
    # A tag name is ASCII, so a page whose lowercase text has no "base"
    # has no BASE tag and need not be lexed.
    if "base" in html.lower():
        for node in tokenize_html(html):
            if (isinstance(node, Tag) and node.name == "BASE"
                    and not node.closing):
                return html
    base = f'<BASE HREF="{encode_entities(original_url, quote=True)}">'
    # Searched in the page itself: lowercasing can change its length
    # ("İ" becomes two code points), so an index into html.lower()
    # may not point into html.
    head = _HEAD_OPEN.search(html)
    if head is not None:
        end = html.find(">", head.start())
        if end != -1:
            return html[: end + 1] + base + html[end + 1:]
    return base + html


def diff_cache_key(url: str, rev_old: str, rev_new: str,
                   options: Optional[HtmlDiffOptions]) -> Tuple:
    """The identity of one diff request in the store's diff cache.

    Revisions are stringified (the store resolves them from several
    sources) and the options are flattened to a tuple, so equal
    configurations hit regardless of object identity while two
    presentation modes never share an entry.
    """
    options_key = options.cache_key() if options is not None else ()
    return (url, str(rev_old), str(rev_new), options_key)


class SnapshotStore:
    """One snapshot service instance (the AIDE server's heart)."""

    def __init__(
        self,
        clock: SimClock,
        agent: UserAgent,
        diff_options: Optional[HtmlDiffOptions] = None,
        diff_cache_ttl: int = 3600,
        diff_cache_size: int = 256,
        options: Optional[StoreOptions] = None,
        obs=None,
        guard: Optional[ContentGuard] = None,
        quarantine=None,
    ) -> None:
        self.clock = clock
        self.agent = agent
        self.diff_options = diff_options
        self.options = options if options is not None else StoreOptions()
        self.obs = obs if obs is not None else NOOP_OBS
        #: Optional hostile-content guard; when attached, every fetched
        #: or caller-supplied body must be admitted before it can reach
        #: an archive, and diffs run under the guard's work budget.
        self.guard = guard
        #: Optional dead-letter journal (:class:`QuarantineJournal`)
        #: holding refused bytes for ``aide quarantine list/retry``.
        self.quarantine = quarantine
        self.archives: Dict[str, RcsArchive] = {}
        self.users = UserControl()
        self.locks = LockManager()
        self.coalescer = RequestCoalescer(clock, ttl=diff_cache_ttl)
        #: Diffs of stored revision pairs are immutable, so they are
        #: shared across users and across time, not just across the
        #: coalescer's same-instant window (Section 8.3: many users who
        #: have seen versions N and N+1 share one HtmlDiff run).  Keyed
        #: by :func:`diff_cache_key`; ``diff_cache_size=0`` disables it.
        self.diff_cache: LruCache[DiffPage] = LruCache(diff_cache_size)
        #: Checked-out revision texts are immutable too; this cache,
        #: keyed ``(url, revision)``, sits under the diff cache so a Diff
        #: link checks out each endpoint once, shared with
        #: view/view_at/time travel.
        self.checkout_cache: LruCache[str] = LruCache(
            self.options.checkout_cache_size
        )
        #: Per archive, ``(revision, caps, stream)``: the HtmlDiff
        #: :class:`TokenStream` (tokens, source text, checkpoints) of the
        #: newest revision an unpinned Diff compared.  A user who then
        #: Remembers makes that revision their next "old", so their next
        #: Diff does not tokenize it again, and tokenizes the new head
        #: only where its text differs from the kept one.  ``caps`` are
        #: the guard's tokenizer caps (``None`` without a guard); a
        #: stream is reused only under the same caps.
        self.token_cache: LruCache[Tuple] = LruCache(
            self.options.checkout_cache_size
        )
        #: Local cached copy of the most recent fetch per URL (the
        #: paper's "locally cached copy of the HTML document").
        self.page_cache: Dict[str, str] = {}
        #: url → number of revisions already on disk (compacted ,v base
        #: plus journal records); maintained by the persistence layer.
        self.persisted_revisions: Dict[str, int] = {}
        #: Set when memory holds a change no journal record expresses (a
        #: dropped archive, or a compaction a crash interrupted): the
        #: next ``append_store`` compacts instead of appending.
        self.compact_on_sync = False
        self.htmldiff_invocations = 0
        #: Optional transaction manager (``attach_wal``).  Without one,
        #: every mutating path behaves exactly as before — the
        #: write-ahead machinery is overhead-only and opt-in.
        self.wal: Optional["WriteAheadLog"] = None
        #: Optional crash-point hub (``attach_failpoints``); ``None``
        #: makes every ``_step`` a no-op.
        self.failpoints: Optional["Failpoints"] = None
        #: Optional crawl-stats provider (``attach_crawl_stats``): the
        #: w3newer tracker's scheduling/estimator/governor counters,
        #: surfaced under ``crawl`` in :meth:`stats`.
        self._crawl_stats = None
        # Observability: the aggregated stats() dict doubles as the
        # registry collector for every storage layer, and the lock
        # manager records wait histograms through the same handle.
        self.obs.register_stats("snapshot.store", self.stats)
        self.locks.attach_obs(self.obs)
        self._c_remembers = self.obs.counter("snapshot.remember.requests")
        self._c_diffs = self.obs.counter("snapshot.diff.requests")
        self._c_views = self.obs.counter("snapshot.view.requests")
        self._c_checkins = self.obs.counter("snapshot.checkin.revisions")
        self._c_fetch_bytes = self.obs.counter("snapshot.fetch.bytes")
        self._c_wal_commits = self.obs.counter("snapshot.wal.commits")
        self._c_wal_rollbacks = self.obs.counter("snapshot.wal.rollbacks")
        self._c_quarantined = self.obs.counter("snapshot.quarantined")

    # ------------------------------------------------------------------
    def attach_wal(self, wal: "WriteAheadLog") -> None:
        """Make remember / check-in / batch operations transactional:
        intent + effect records through ``wal``'s journal, rollback on
        abort, recovery-driven rollback after a crash."""
        self.wal = wal

    def attach_failpoints(self, failpoints: "Failpoints") -> None:
        """Thread the named crash points through this store's
        mutating operations."""
        self.failpoints = failpoints

    def attach_crawl_stats(self, provider) -> None:
        """Surface a crawl tracker's stats under ``crawl`` in
        :meth:`stats` (and therefore the CGI ``action=stats`` page).
        ``provider`` is a zero-argument callable returning a dict —
        typically ``W3Newer.crawl_stats``."""
        self._crawl_stats = provider

    def _step(self, point: str) -> None:
        if self.failpoints is not None:
            self.failpoints.step(point)

    # ------------------------------------------------------------------
    def archive_for(self, url: str) -> RcsArchive:
        key = canonical_url(url)
        archive = self.archives.get(key)
        if archive is None:
            archive = RcsArchive(
                name=key, keyframe_interval=self.options.keyframe_interval
            )
            self.archives[key] = archive
        return archive

    def drop_archive(self, key: str) -> None:
        """Forget ``key``'s archive and everything derived from it (a
        replica rebuilding a diverged copy).  The journal can only add
        revisions, so the next sync compacts."""
        del self.archives[key]
        self.checkout_cache.invalidate(lambda cached: cached[0] == key)
        self.token_cache.discard(key)
        self.diff_cache.invalidate(lambda cached: cached[0] == key)
        self.compact_on_sync = True

    # ------------------------------------------------------------------
    # remember
    # ------------------------------------------------------------------
    def remember(self, user: str, url: str) -> RememberResult:
        """Fetch the live page and check it in for ``user``.  (The
        check-in transaction is bracketed by a ``snapshot.remember``
        span; see :mod:`repro.obs`.)"""
        with self.obs.span("snapshot.remember", url=canonical_url(url),
                           user=user) as span:
            self._c_remembers.inc()
            result = self._remember_impl(user, url)
            span.set(revision=result.revision, changed=result.changed,
                     fetched_bytes=result.fetched_bytes)
            self._c_fetch_bytes.inc(result.fetched_bytes)
            if result.changed:
                self._c_checkins.inc()
            return result

    def _remember_impl(self, user: str, url: str) -> RememberResult:
        """Fetch the live page and check it in for ``user``.

        "Though the page is retrieved, the RCS ci command ensures that
        it is not saved if it is unchanged from the previous time it
        was stored away."  Either way the user's control file records
        that they have now seen the head revision.

        With ``options.coalesce_checkins``, concurrent remembers of the
        same URL (same simulated instant) share one fetch *and* one RCS
        check-in under a single URL-lock acquisition — the second user
        "would just wait for the page and then return, rather than
        repeating the work" (Section 4.2) — and each requester's
        control file is still stamped individually.
        """
        key = canonical_url(url)
        if self.locks.scheduler is not None:
            return self._remember_queued(user, key)
        if not self.options.coalesce_checkins:
            txn = self._begin("remember", key, user, (user,))
            try:
                with self.locks.acquire(f"url:{key}"), \
                        self.locks.acquire(f"user:{user}"):
                    body = self.coalescer.do(
                        f"fetch:{key}:{self.clock.now}",
                        lambda: self._fetch(key),
                    )
                    self._step("remember.fetched")
                    result = self._checkin(user, key, body, txn)
                return self._commit(txn, result)
            except Exception:
                self._rollback(txn)
                raise
        # Coalesced: the fetch runs lock-free (it has no effects to
        # protect), the winner's check-in takes the URL lock inside the
        # coalescer, and the control-file stamp takes the user lock —
        # per-URL strictly before per-user, never nested the other way.
        txn = self._begin("remember", key, user, (user,))
        try:
            body = self.coalescer.do(
                f"fetch:{key}:{self.clock.now}", lambda: self._fetch(key)
            )
            self._step("remember.fetched")
            revision, changed, nbytes = self._coalesced_checkin(
                user, key, body, txn
            )
            with self.locks.acquire(f"user:{user}"):
                self._stamp(txn, user, key, revision)
            return self._commit(txn, RememberResult(
                url=key, revision=revision, changed=changed,
                fetched_bytes=nbytes, when=self.clock.now,
            ))
        except Exception:
            self._rollback(txn)
            raise

    def _remember_queued(self, user: str, key: str) -> RememberResult:
        """Remember under a scheduler: the fetch happens *inside* the
        URL lock, so a second simultaneous request for the same page
        parks on the queue and, once woken, joins the winner's work
        through the coalescer — "the second snapshot process would just
        wait for the page and then return" (§4.2)."""
        txn = self._begin("remember", key, user, (user,))
        try:
            with self.locks.acquire(f"url:{key}"):
                self._step("remember.url-locked")
                body = self.coalescer.do(
                    f"fetch:{key}:{self.clock.now}", lambda: self._fetch(key)
                )
                self._step("remember.fetched")
                mine: List[Tuple[str, bool, int]] = []

                def do_checkin():
                    outcome = self._checkin_archive(user, key, body)
                    mine.append(outcome)
                    self._log_rev(txn, key, outcome, body, user)
                    return outcome

                revision, changed, nbytes = self.coalescer.do(
                    f"checkin:{key}:{self.clock.now}:{len(body)}:{hash(body)}",
                    do_checkin,
                )
                if not mine:
                    changed = False
            with self.locks.acquire(f"user:{user}"):
                self._stamp(txn, user, key, revision)
            return self._commit(txn, RememberResult(
                url=key, revision=revision, changed=changed,
                fetched_bytes=nbytes, when=self.clock.now,
            ))
        except Exception:
            self._rollback(txn)
            raise

    # ------------------------------------------------------------------
    # transaction plumbing (no-ops without an attached WAL)
    # ------------------------------------------------------------------
    def _begin(self, op: str, key: str, author: str,
               users: Tuple[str, ...]) -> Optional["Transaction"]:
        if self.wal is None:
            return None
        txn = self.wal.begin(op, key, author, users)
        self.obs.event("snapshot.txn.begin", op=op, url=key, txn=txn.txn)
        self._step("txn.intent-appended")
        return txn

    def _log_rev(self, txn: Optional["Transaction"], key: str,
                 outcome: Tuple[str, bool, int], body: str,
                 author: str) -> None:
        """Journal a just-made archive check-in and refresh the local
        cached copy — the two on-disk effects beyond the control file."""
        revision, changed, _nbytes = outcome
        if txn is None or not changed:
            return
        txn.log_rev(key, revision, f"snapshot by {author}")
        self._step("txn.rev-appended")
        txn.write_cache(key, body)
        self._step("txn.cache-written")

    def _stamp(self, txn: Optional["Transaction"], user: str, key: str,
               revision: str) -> None:
        """Record a seen-version stamp (caller holds the user lock)."""
        prior = self.users.record(user, key, revision, self.clock.now)
        if txn is not None:
            txn.log_seen(user, key, revision, self.clock.now, prior)
            self._step("txn.seen-appended")

    def _commit(self, txn: Optional["Transaction"], result):
        """The atomic point.  ``txn.commit`` barrier first: an armed
        CGI timeout fires here, so an operation that outlived httpd
        never commits — it unwinds through :meth:`_rollback` instead."""
        self._step("txn.commit")
        if txn is not None:
            txn.commit()
            self._c_wal_commits.inc()
            self.obs.event("snapshot.txn.commit", txn=txn.txn)
            self._step("txn.committed")
        return result

    def _rollback(self, txn: Optional["Transaction"]) -> None:
        if txn is not None and txn.state == "open":
            txn.abort()
            self._c_wal_rollbacks.inc()
            self.obs.event("snapshot.txn.rollback", txn=txn.txn)

    def remember_batch(self, users: List[str], url: str) -> List[RememberResult]:
        """One fetch + one check-in serving many users at once.

        The shape `CentralTracker.poll` and multi-user w3newer sweeps
        generate: the page is retrieved once "regardless of the number
        of users who track it", the archive is touched under one URL
        lock, and the new head is fanned out to every requesting user's
        control file.
        """
        key = canonical_url(url)
        body = self.coalescer.do(
            f"fetch:{key}:{self.clock.now}", lambda: self._fetch(key)
        )
        return self.checkin_content_batch(users, key, body)

    def checkin_content(self, user: str, url: str, body: str) -> RememberResult:
        """Check in content the caller already fetched.

        The centralized tracker and the fixed-page archiver poll pages
        themselves (once per page, for everyone); re-fetching inside
        remember() would double the request count the Section 8.3
        economy-of-scale argument is about.
        """
        key = canonical_url(url)
        txn = self._begin("checkin", key, user, (user,))
        try:
            body = self._admit_supplied(key, body)
            with self.locks.acquire(f"url:{key}"), \
                    self.locks.acquire(f"user:{user}"):
                result = self._checkin(user, key, body, txn)
            return self._commit(txn, result)
        except Exception:
            self._rollback(txn)
            raise

    def checkin_content_batch(
        self, users: List[str], url: str, body: str
    ) -> List[RememberResult]:
        """Batched form of :meth:`checkin_content`: one archive
        check-in under one URL lock, then one control-file stamp per
        user.  Result order matches ``users``; only the first requester
        reports ``changed`` (exactly what N sequential check-ins of the
        same body would have reported)."""
        key = canonical_url(url)
        author = users[0] if users else "aide"
        with self.obs.span("snapshot.checkin_batch", url=key,
                           users=len(users)):
            return self._checkin_batch_impl(users, key, body, author)

    def _checkin_batch_impl(
        self, users: List[str], key: str, body: str, author: str
    ) -> List[RememberResult]:
        txn = self._begin("checkin-batch", key, author, tuple(users))
        try:
            body = self._admit_supplied(key, body)
            if self.options.coalesce_checkins:
                revision, changed, _ = self._coalesced_checkin(
                    author, key, body, txn
                )
            else:
                with self.locks.acquire(f"url:{key}"):
                    outcome = self._checkin_archive(author, key, body)
                    self._log_rev(txn, key, outcome, body, author)
                    revision, changed, _ = outcome
            results = []
            for index, user in enumerate(users):
                with self.locks.acquire(f"user:{user}"):
                    self._stamp(txn, user, key, revision)
                self._step("batch.user-stamped")
                results.append(RememberResult(
                    url=key, revision=revision,
                    changed=changed and index == 0,
                    fetched_bytes=len(body), when=self.clock.now,
                ))
            return self._commit(txn, results)
        except Exception:
            self._rollback(txn)
            raise

    def _coalesced_checkin(
        self,
        author: str,
        key: str,
        body: str,
        txn: Optional["Transaction"] = None,
    ) -> Tuple[str, bool, int]:
        """Run (or join) this instant's check-in of ``body`` for ``key``.

        The coalescer key carries a body fingerprint, so only check-ins
        of the *same* content share work.  Joiners see ``changed=False``
        — exactly what their own check-in of the now-identical body
        would have returned on the reference path.  Only the winner's
        transaction journals the revision; a joiner's transaction
        carries just its own control-file stamp.
        """
        mine: List[Tuple[str, bool, int]] = []

        def do_checkin():
            with self.locks.acquire(f"url:{key}"):
                outcome = self._checkin_archive(author, key, body)
                self._log_rev(txn, key, outcome, body, author)
            mine.append(outcome)
            return outcome

        revision, changed, nbytes = self.coalescer.do(
            f"checkin:{key}:{self.clock.now}:{len(body)}:{hash(body)}",
            do_checkin,
        )
        if not mine:
            changed = False
        return revision, changed, nbytes

    def _checkin(
        self,
        user: str,
        key: str,
        body: str,
        txn: Optional["Transaction"] = None,
    ) -> RememberResult:
        """The shared check-in tail (callers hold the locks)."""
        outcome = self._checkin_archive(user, key, body)
        self._log_rev(txn, key, outcome, body, user)
        revision, changed, nbytes = outcome
        self._stamp(txn, user, key, revision)
        return RememberResult(
            url=key, revision=revision, changed=changed,
            fetched_bytes=nbytes, when=self.clock.now,
        )

    def _checkin_archive(
        self, author: str, key: str, body: str
    ) -> Tuple[str, bool, int]:
        """Archive mutation alone: (revision, changed, body bytes)."""
        archive = self.archive_for(key)
        revision, changed = archive.checkin(
            body, date=self.clock.now, author=author,
            log=f"snapshot by {author}",
        )
        if changed:
            # New head: cached diffs of existing pairs stay valid; new
            # pairs simply get their own cache entries.
            self.page_cache[key] = body
        return revision, changed, len(body)

    def _fetch(self, url: str) -> str:
        try:
            result = self.agent.get(url)
        except NetworkError as exc:
            raise SnapshotError(f"could not retrieve {url}: {exc}")
        if not result.response.ok:
            raise SnapshotError(
                f"could not retrieve {url}: HTTP {result.response.status} "
                f"{result.response.reason}"
            )
        if self.guard is None:
            return result.response.body
        try:
            return self.guard.admit(url, result.response)
        except ContentGuardError as exc:
            self._refuse(url, exc, result.response.body,
                         result.response.content_type)

    def _admit_supplied(self, key: str, body: str,
                        content_type: str = "text/html") -> str:
        """Guard a body the caller fetched themselves (checkin_content
        paths): same admission rule as :meth:`_fetch`, minus headers."""
        if self.guard is None:
            return body
        try:
            return self.guard.admit_body(key, body, content_type)
        except ContentGuardError as exc:
            self._refuse(key, exc, body, content_type)

    def _refuse(self, url: str, exc: ContentGuardError, body: str,
                content_type: str) -> None:
        """Journal the evidence, then raise the 422 verdict.  Callers
        inside a transaction unwind through :meth:`_rollback`, so the
        archive and control files never see the bytes."""
        self._c_quarantined.inc()
        self.obs.event("snapshot.quarantine", url=url, guard=exc.guard)
        if self.quarantine is not None:
            self.quarantine.record(url, exc.guard, exc.detail, body,
                                   at=self.clock.now,
                                   content_type=content_type)
        raise ContentQuarantined(url, exc.guard, exc.detail)

    # ------------------------------------------------------------------
    # diff
    # ------------------------------------------------------------------
    def diff(
        self,
        user: str,
        url: str,
        rev_old: Optional[str] = None,
        rev_new: Optional[str] = None,
    ) -> DiffPage:
        """HtmlDiff between two stored versions, as the served page.

        Defaults reproduce the report's Diff link: old = the user's
        last-saved version, new = the newest stored version.  Output is
        cached so "many users who have seen versions N and N+1 of a
        page could retrieve HtmlDiff(pageN, pageN+1) with a single
        invocation".

        Returns a :class:`DiffPage`, not :func:`html_diff`'s full
        ``HtmlDiffResult``: the classified entries are dropped once the
        page is rendered, so callers that need them run ``html_diff``.
        """
        key = canonical_url(url)
        with self.obs.span("snapshot.diff", url=key, user=user) as span:
            self._c_diffs.inc()
            result = self._diff_impl(user, key, rev_old, rev_new)
            span.set(identical=result.identical,
                     differences=result.difference_count)
            return result

    def _diff_impl(
        self,
        user: str,
        key: str,
        rev_old: Optional[str],
        rev_new: Optional[str],
    ) -> DiffPage:
        archive = self.archives.get(key)
        if archive is None or archive.revision_count == 0:
            raise SnapshotError(f"no snapshots of {key} — Remember it first")
        if rev_old is None:
            seen = self.users.last_seen_version(user, key)
            if seen is None:
                raise SnapshotError(
                    f"{user} has no saved version of {key} — Remember it first"
                )
            rev_old = seen.revision
        unpinned = rev_new is None
        if unpinned:
            # The report's Diff link compares against the page as it is
            # NOW: fetch the live copy and archive it (once, for every
            # user) before diffing.  If the site is unreachable, fall
            # back to the newest stored version.
            try:
                body = self.coalescer.do(
                    f"fetch:{key}:{self.clock.now}", lambda: self._fetch(key)
                )
                self.checkin_content("aide-snapshot", key, body)
                self._step("diff.checked-in")
            except SnapshotError:
                pass
            rev_new = archive.head_revision
        shared_key = diff_cache_key(key, rev_old, rev_new, self.diff_options)
        cached = self.diff_cache.get(shared_key)
        if cached is not None:
            return cached
        cache_key = f"diff:{key}:{rev_old}:{rev_new}"
        with self.locks.acquire(f"url:{key}"):
            result = self.coalescer.do(
                cache_key,
                lambda: self._run_htmldiff(archive, rev_old, rev_new, unpinned),
            )
            self.diff_cache.put(shared_key, result)
            return result

    def _run_htmldiff(
        self, archive: RcsArchive, rev_old: str, rev_new: str,
        keep_new: bool,
    ) -> DiffPage:
        key = archive.name
        try:
            old_text = self._checkout_text(key, archive, rev_old)
            new_text = self._checkout_text(key, archive, rev_new)
        except UnknownRevision as exc:
            raise SnapshotError(f"no such revision of {key}: {exc}")
        self.htmldiff_invocations += 1
        if self.guard is None:
            budget = caps = None
        else:
            budget = self.guard.html_budget(key)
            caps = (budget.max_tokens, budget.max_depth,
                    budget.max_attrs_per_tag)
        old = self._tokens(key, rev_old, old_text, budget, caps)
        # The new revision differs from the old one where the diff will
        # find differences: tokenize only there.  A reference store
        # (no token cache) tokenizes both texts whole.
        new = self._tokens(key, rev_new, new_text, budget, caps,
                           old if self.token_cache.capacity else None)
        if keep_new:
            # Only an unpinned Diff's head becomes a user's next "old";
            # a pinned pair would evict that stream for one never reused.
            self.token_cache.put(key, (rev_new, caps, new))
        result = html_diff(old_text, new_text, options=self.diff_options,
                           obs=self.obs, budget=budget,
                           old_tokens=old.tokens, new_tokens=new.tokens)
        return DiffPage(result.html, result.identical,
                        result.difference_count, result.change_density,
                        result.degraded)

    def _tokens(self, key: str, revision: str, text: str, budget,
                caps: Optional[Tuple],
                base: Optional[TokenStream] = None) -> TokenStream:
        """``text``'s token stream: the kept one when it is of this
        revision under the same caps, else tokenized under a fresh
        fork of ``budget`` (markup bombs raise here) where it differs
        from ``base``, or from the kept stream of another revision
        under the same caps."""
        kept = self.token_cache.get(key)
        if kept is not None and kept[1] == caps:
            if kept[0] == revision:
                return kept[2]
            if base is None:
                base = kept[2]
        stream = TokenStream()
        tokenize_document(
            text, budget=budget.fork() if budget is not None else None,
            kept=base, stream=stream)
        return stream

    def _checkout_text(
        self, key: str, archive: RcsArchive, revision: Optional[str] = None
    ) -> str:
        """Checkout through the shared LRU cache.

        Revision texts are immutable once checked in, so entries never
        need invalidation — a new check-in is a new key."""
        number = revision if revision is not None else archive.head_revision
        if number is not None:
            cached = self.checkout_cache.get((key, number))
            if cached is not None:
                return cached
        text = archive.checkout(number)
        if number is not None:
            self.checkout_cache.put((key, number), text)
        return text

    # ------------------------------------------------------------------
    # history / view
    # ------------------------------------------------------------------
    def history(self, user: str, url: str) -> List[Tuple[RevisionInfo, bool]]:
        """(revision, seen-by-this-user) pairs, oldest first.

        "present the user with a set of versions seen by that person
        regardless of what other versions are also stored."
        """
        key = canonical_url(url)
        archive = self.archives.get(key)
        if archive is None:
            raise SnapshotError(f"no snapshots of {key}")
        seen = {v.revision for v in self.users.versions_seen(user, key)}
        return [(info, info.number in seen) for info in archive.revisions()]

    def view(self, url: str, revision: Optional[str] = None,
             rewrite_base: bool = True) -> str:
        """A stored version's text, BASE-rewritten by default."""
        key = canonical_url(url)
        self._c_views.inc()
        archive = self.archives.get(key)
        if archive is None or archive.revision_count == 0:
            raise SnapshotError(f"no snapshots of {key}")
        try:
            text = self._checkout_text(key, archive, revision)
        except UnknownRevision as exc:
            raise SnapshotError(f"no such revision of {key}: {exc}")
        if rewrite_base:
            return add_base_directive(text, key)
        return text

    def view_at(self, url: str, date: int, rewrite_base: bool = True) -> str:
        """The page as it existed at a particular time (§2.2).

        "A CGI interface to RCS allows a user to request a URL at a
        particular date... similar in spirit to the 'time travel'
        capability of file systems such as 3DFS."  Raises when nothing
        that old is archived.
        """
        key = canonical_url(url)
        self._c_views.inc()
        archive = self.archives.get(key)
        if archive is None or archive.revision_count == 0:
            raise SnapshotError(f"no snapshots of {key}")
        # Resolve the date first (bisect over monotone datestamps), then
        # go through the shared checkout cache — time-travel requests
        # for the same epoch hit the same (url, revision) entry.
        info = archive.revision_at(date)
        if info is None:
            raise SnapshotError(
                f"nothing archived for {key} as early as {date}"
            )
        text = self._checkout_text(key, archive, info.number)
        if rewrite_base:
            return add_base_directive(text, key)
        return text

    # ------------------------------------------------------------------
    # accounting (Section 7 disk-usage experiment)
    # ------------------------------------------------------------------
    def total_bytes(self) -> int:
        return sum(archive.size_bytes() for archive in self.archives.values())

    def url_count(self) -> int:
        return len(self.archives)

    def bytes_by_url(self) -> Dict[str, int]:
        return {
            url: archive.size_bytes() for url, archive in self.archives.items()
        }

    def full_copy_bytes(self) -> int:
        """What storage would cost with a full copy per revision — the
        baseline the RCS design is measured against.  One backward walk
        per archive (O(revisions)), not one checkout per revision."""
        total = 0
        for archive in self.archives.values():
            for _info, text in archive.iter_texts():
                total += len(text)
        return total

    def stats(self) -> Dict[str, object]:
        """One dict with every layer's counters: the diff cache, the
        checkout cache, the request coalescer, the lock manager, and
        the archives' chain-walk instrumentation."""
        archives = list(self.archives.values())
        checkouts = sum(a.checkouts for a in archives)
        delta_applications = sum(a.delta_applications for a in archives)
        out: Dict[str, object] = {
            "diff_cache": self.diff_cache.stats(),
            "checkout_cache": self.checkout_cache.stats(),
            "coalescer": {
                "executions": self.coalescer.executions,
                "coalesced": self.coalescer.coalesced,
            },
            "locks": self.locks.stats(),
            "archives": {
                "count": len(archives),
                "revisions": sum(a.revision_count for a in archives),
                "checkouts": checkouts,
                "delta_applications": delta_applications,
                "mean_chain_length": (
                    delta_applications / checkouts if checkouts else 0.0
                ),
                "keyframe_interval": self.options.keyframe_interval,
                "keyframe_starts": sum(a.keyframe_starts for a in archives),
                "keyframes": sum(a.keyframe_count() for a in archives),
                "keyframe_bytes": sum(a.keyframe_bytes() for a in archives),
            },
            "htmldiff_invocations": self.htmldiff_invocations,
        }
        # "locking" mirrors "locks" under the name the CGI stats page
        # documents; "wal" and "sched" are always present so the
        # action=stats surface shows whether those layers are attached.
        out["locking"] = out["locks"]
        if self.guard is not None:
            out["guards"] = dict(self.guard.stats(), attached=True)
        else:
            out["guards"] = {"attached": False}
        if self.quarantine is not None:
            out["quarantine"] = self.quarantine.stats()
        if self.wal is not None:
            out["wal"] = dict(self.wal.stats(), attached=True)
        else:
            out["wal"] = {
                "attached": False, "begun": 0, "committed": 0, "aborted": 0,
            }
        if self.locks.scheduler is not None:
            out["sched"] = dict(self.locks.scheduler.stats(), attached=True)
        else:
            out["sched"] = {"attached": False}
        if self.failpoints is not None:
            out["failpoints"] = self.failpoints.stats()
        # "crawl" is always present, like "wal"/"sched": the stats page
        # shows whether a crawl tracker is wired to this store.
        if self._crawl_stats is not None:
            out["crawl"] = dict(self._crawl_stats())
        else:
            out["crawl"] = {"attached": False}
        # When the agent is a ResilientAgent its retry/breaker counters
        # belong in the same picture (remember() rides its retry loop).
        agent_stats = getattr(self.agent, "stats", None)
        if callable(agent_stats):
            out["resilience"] = agent_stats()
        return out
