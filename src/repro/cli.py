"""Command-line interface.

Two pieces of AIDE are immediately useful outside the simulation:
HtmlDiff over real files, and the RCS-style versioning over real ``,v``
archives — so the CLI provides both:

    aide htmldiff old.html new.html -o merged.html
    aide htmldiff old.html new.html --mode only-differences
    aide tokenize page.html
    aide thresholds config.txt http://www.yahoo.com/x http://a.com/
    aide ci page.html -m "weekly snapshot"     # check into page.html,v
    aide co page.html -r 1.1                   # print an old revision
    aide rlog page.html                        # revision history
    aide rcsdiff page.html -r 1.1 -r 1.3       # diff two revisions
    aide fsck /var/aide/repo --repair          # repository consistency
    aide quarantine list dead.log              # poison-document journal
    aide serve --shards 4 --users 1000         # sharded diff server demo

``aide htmldiff``/``rcsdiff`` exit 0 when identical and 1 when
differences were found (the ``diff``/``cmp`` convention), 2 on usage
errors.  ``aide ci`` exits 0 on a new revision and 1 when the file was
unchanged (mirroring real ``ci``'s warning).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from .core.htmldiff.api import html_diff
from .core.htmldiff.options import HtmlDiffOptions, PresentationMode
from .core.htmldiff.tokenizer import tokenize_document
from .core.htmldiff.tokens import BreakToken
from .core.w3newer.thresholds import parse_threshold_config
from .diffcore.textdiff import unified_diff
from .rcs.archive import RcsArchive, UnknownRevision
from .rcs.rcsfile import RcsParseError, parse_rcsfile, serialize_rcsfile
from .rcs.rlog import rlog_text
from .simclock import NEVER, format_duration

__all__ = ["main"]


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        return handle.read()


def _now_timestamp() -> int:
    """Wall-clock time as a simulation timestamp (seconds since the
    1 Sep 1995 epoch), so CLI check-ins carry real, ordered dates."""
    from datetime import datetime, timezone

    epoch = datetime(1995, 9, 1, tzinfo=timezone.utc).timestamp()
    return max(0, int(time.time() - epoch))


def _archive_path(path: str) -> str:
    return path + ",v"


def _load_archive(path: str) -> RcsArchive:
    archive_path = _archive_path(path)
    if os.path.exists(archive_path):
        with open(archive_path, "r", encoding="utf-8") as handle:
            return parse_rcsfile(handle.read())
    return RcsArchive(name=os.path.basename(path))


def _cmd_htmldiff(args: argparse.Namespace) -> int:
    old_html = _read(args.old)
    new_html = _read(args.new)
    options = HtmlDiffOptions(
        mode=PresentationMode(args.mode),
        match_threshold=args.match_threshold,
        length_ratio=args.length_ratio,
        density_threshold=args.density_threshold,
        refine_matched_sentences=not args.no_refine,
    )
    result = html_diff(old_html, new_html, options)
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(result.html)
    else:
        sys.stdout.write(result.html)
        if not result.html.endswith("\n"):
            sys.stdout.write("\n")
    if not args.quiet:
        noun = "difference" if result.difference_count == 1 else "differences"
        print(
            f"htmldiff: {result.difference_count} {noun}, "
            f"density {result.change_density:.0%}"
            + (" (merge suppressed: too pervasive)"
               if result.density_suppressed else ""),
            file=sys.stderr,
        )
    return 0 if result.identical else 1


def _cmd_tokenize(args: argparse.Namespace) -> int:
    source = _read(args.file)
    for token in tokenize_document(source):
        kind = "BREAK   " if isinstance(token, BreakToken) else "SENTENCE"
        text = str(token)
        if len(text) > args.width:
            text = text[: args.width - 3] + "..."
        print(f"{kind} {text}")
    return 0


def _cmd_thresholds(args: argparse.Namespace) -> int:
    config = parse_threshold_config(_read(args.config))
    for url in args.urls:
        threshold = config.threshold_for(url)
        rule = config.rule_for(url)
        label = format_duration(threshold) if threshold != NEVER else "never"
        source = rule.pattern if rule else "(default)"
        print(f"{label:8s} {url}  <- {source}")
    return 0


def _cmd_ci(args: argparse.Namespace) -> int:
    contents = _read(args.file)
    archive = _load_archive(args.file)
    author = args.author or os.environ.get("USER", "aide")
    revision, changed = archive.checkin(
        contents, date=_now_timestamp(), author=author, log=args.message
    )
    with open(_archive_path(args.file), "w", encoding="utf-8") as handle:
        handle.write(serialize_rcsfile(archive))
    if changed:
        print(f"ci: {args.file} -> revision {revision}", file=sys.stderr)
        return 0
    print(f"ci: {args.file} unchanged since revision {revision}",
          file=sys.stderr)
    return 1


def _cmd_co(args: argparse.Namespace) -> int:
    archive = _load_archive(args.file)
    if archive.revision_count == 0:
        print(f"aide: no archive for {args.file}", file=sys.stderr)
        return 2
    try:
        text = archive.checkout(args.revision)
    except UnknownRevision as exc:
        print(f"aide: no such revision: {exc}", file=sys.stderr)
        return 2
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    return 0


def _cmd_rlog(args: argparse.Namespace) -> int:
    archive = _load_archive(args.file)
    if archive.revision_count == 0:
        print(f"aide: no archive for {args.file}", file=sys.stderr)
        return 2
    sys.stdout.write(rlog_text(archive))
    return 0


def _cmd_rcsdiff(args: argparse.Namespace) -> int:
    archive = _load_archive(args.file)
    if archive.revision_count == 0:
        print(f"aide: no archive for {args.file}", file=sys.stderr)
        return 2
    revisions = args.revision or []
    try:
        if len(revisions) >= 2:
            old_text = archive.checkout(revisions[0])
            new_text = archive.checkout(revisions[1])
            new_label = revisions[1]
        else:
            # Like rcsdiff: stored revision vs the working file.
            rev = revisions[0] if revisions else archive.head_revision
            old_text = archive.checkout(rev)
            new_text = _read(args.file)
            new_label = "working file"
    except UnknownRevision as exc:
        print(f"aide: no such revision: {exc}", file=sys.stderr)
        return 2
    if args.html:
        result = html_diff(old_text, new_text)
        sys.stdout.write(result.html + "\n")
        return 0 if result.identical else 1
    out = unified_diff(
        old_text.split("\n"), new_text.split("\n"),
        old_label=f"{args.file} {revisions[0] if revisions else archive.head_revision}",
        new_label=f"{args.file} {new_label}",
    )
    sys.stdout.write(out)
    return 0 if not out else 1


def _cmd_fsck(args: argparse.Namespace) -> int:
    """Cross-file consistency check of an on-disk snapshot repository.

    Exit 0 when consistent, 1 when problems remain (after repair, if
    ``--repair`` was given), 2 when the directory does not exist.

    A repository with a ``SHARDS`` manifest (written by the sharded
    store's ``save_sharded``) is checked shard by shard and the reports
    folded into one.
    """
    from .core.snapshot.persistence import verify_store
    from .core.snapshot.sharding import read_shard_count, verify_sharded

    if not os.path.isdir(args.directory):
        print(f"aide: no repository at {args.directory}", file=sys.stderr)
        return 2
    if read_shard_count(args.directory) is not None:
        report = verify_sharded(args.directory, repair=args.repair)
    else:
        report = verify_store(args.directory, repair=args.repair)
    if args.json:
        import json

        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.summary())
        rollup = getattr(report, "summary_dict", None)
        if rollup is not None:
            counts = rollup()
            if counts["failed_shards"]:
                print("failed shards: "
                      + ", ".join(counts["failed_shards"]))
            for shard, repairs in sorted(
                    counts["repairs_by_shard"].items()):
                print(f"repairs[{shard}]: {repairs}")
        for problem in report.problems:
            print(f"problem: {problem}")
        for note in report.notes:
            print(f"note: {note}")
        for fix in report.repaired:
            print(f"repaired: {fix}")
    return 0 if report.ok else 1


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Render a saved metrics snapshot (``metrics.json`` from
    ``Observability.save``, or the run directory holding one) as
    Prometheus text or pretty JSON.

    Exit 0 on success, 2 when the file is missing or unparseable.
    """
    import json

    from .obs import to_json, to_prometheus

    path = args.path
    if os.path.isdir(path):
        path = os.path.join(path, "metrics.json")
    with open(path, "r", encoding="utf-8") as handle:
        snapshot = json.load(handle)
    if not isinstance(snapshot, dict):
        print(f"aide: {path} is not a metrics snapshot", file=sys.stderr)
        return 2
    if args.format == "json":
        sys.stdout.write(to_json(snapshot))
    else:
        sys.stdout.write(to_prometheus(snapshot))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Print a saved event journal (``events.jsonl``) as a span tree.

    Spans nest under their parents; non-span events print inline at
    their position in the sequence.  Exit 2 when the journal is
    missing or unparseable.
    """
    import json

    path = args.run
    if os.path.isdir(path):
        path = os.path.join(path, "events.jsonl")
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))

    spans = [r for r in records if r.get("kind") == "span"]
    events = [r for r in records if r.get("kind") != "span"]
    children: dict = {}
    by_id = {}
    for record in spans:
        by_id[record["span"]] = record
        children.setdefault(record.get("parent", ""), []).append(record)

    def fmt(record) -> str:
        attrs = record.get("attrs") or {}
        extra = " ".join(f"{k}={v}" for k, v in attrs.items())
        window = f"[{record.get('start', '?')}..{record.get('end', '?')}]"
        error = record.get("error") or ""
        tail = f" ERROR {error}" if error else ""
        return f"{record['name']} {window} {extra}".rstrip() + tail

    def walk(parent: str, depth: int) -> None:
        for record in children.get(parent, []):
            print("  " * depth + fmt(record))
            walk(record["span"], depth + 1)

    roots = [r for r in spans
             if r.get("parent", "") not in by_id or not r.get("parent")]
    if not spans and not events:
        print("aide: empty journal", file=sys.stderr)
        return 0
    walk("", 0)
    # Orphaned parents (shouldn't happen, but don't lose spans).
    for record in roots:
        if record.get("parent"):
            print(fmt(record))
            walk(record["span"], 1)
    if events and not args.spans_only:
        print(f"-- {len(events)} events --")
        for record in events:
            fields = {k: v for k, v in record.items()
                      if k not in ("kind", "seq", "t")}
            extra = " ".join(f"{k}={v}" for k, v in sorted(fields.items()))
            print(f"t={record.get('t', '?')} {record['kind']} {extra}".rstrip())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Stand up the sharded diff server in a simulated world, seed it,
    and drive a closed-loop load against it; print the service report.

    Everything runs in virtual time on a seeded clock, so two
    invocations with the same arguments print identical numbers.  With
    ``--save DIR`` the seeded archives are written out per shard (plus
    the ``SHARDS`` manifest), ready for ``aide fsck``.
    """
    import json

    from .core.snapshot.sharding import save_sharded
    from .serve import (
        ClosedLoopLoad,
        DiffServer,
        ShardFaultPlan,
        build_world,
        seed_world,
    )

    fault_plan = None
    if args.kill_shard or args.kill_each_once:
        fault_plan = ShardFaultPlan()
        for spec in args.kill_shard or []:
            fields = spec.split(":")
            if len(fields) not in (3, 4):
                print(f"aide: bad --kill-shard spec {spec!r} "
                      f"(want SHARD:AT:RECOVER_AT[:torn])", file=sys.stderr)
                return 2
            fault_plan.crash(int(fields[0]), int(fields[1]), int(fields[2]),
                             torn_tail=len(fields) == 4
                             and fields[3] == "torn")
        if args.kill_each_once:
            fields = args.kill_each_once.split(":")
            if len(fields) not in (2, 3):
                print(f"aide: bad --kill-each-once spec "
                      f"{args.kill_each_once!r} (want START:DOWNTIME"
                      f"[:SPACING])", file=sys.stderr)
                return 2
            staggered = ShardFaultPlan.kill_each_once(
                args.shards, int(fields[0]), int(fields[1]),
                spacing=int(fields[2]) if len(fields) == 3 else None,
            )
            fault_plan.faults.extend(staggered.faults)
    world = build_world(args.seed, pages=args.pages)
    server = DiffServer(
        world.clock, world.agent, shards=args.shards,
        workers_per_shard=args.workers, queue_limit=args.queue_limit,
        replication=args.replication, fault_plan=fault_plan,
        scrub_interval=args.scrub_interval,
    )
    revisions = seed_world(server, world, seed=args.seed, rounds=args.rounds)
    print(f"# seeded {len(world.urls)} pages x {args.rounds} revisions "
          f"across {args.shards} shard(s), replication "
          f"{args.replication}", file=sys.stderr)
    load = ClosedLoopLoad(
        args.seed, world.urls, revisions, users=args.users,
        requests_per_user=args.requests_per_user,
        mutation_rate=args.mutation_rate,
    )
    report = load.run(server, start=world.clock.now)
    payload = {"load": report.to_dict(), "server": server.stats()}
    if args.save:
        save_sharded(server.store, args.save,
                     replication=args.replication)
        payload["repository"] = args.save
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0 if report.completed == report.requests else 1


def _cmd_newer(args: argparse.Namespace) -> int:
    """Run the budgeted concurrent tracker over a seeded crawl world.

    Builds a deterministic world of ``--urls`` pages across ``--hosts``
    hosts (the hot/warm/cool/dead change mixture), marks every page
    visited, then runs one w3newer crawl per simulated day under the
    chosen ``--policy``, ``--budget``, and ``--workers``.  Everything
    derives from ``--seed``: two invocations with the same arguments
    print identical numbers.  With ``--explain URL`` the per-URL
    scheduling rationale (estimated change rate, probability, last
    decision) is included in the JSON output.
    """
    import json

    from .core.w3newer import (
        BrowserHistory,
        ChangeRateEstimator,
        CrawlOptions,
        ReportOptions,
        SchedulePolicy,
        W3Newer,
    )
    from .simclock import DAY, SimClock
    from .web import Network, PolitenessLog, UserAgent
    from .workloads import (
        apply_changes,
        build_crawl_hotlist,
        build_crawl_world,
        seed_estimator,
    )

    policy = SchedulePolicy.parse(args.policy)
    clock = SimClock()
    clock.advance(100 * DAY)  # a plausible 1995 epoch, not t=0
    network = Network(clock)
    world = build_crawl_world(
        urls=args.urls, hosts=args.hosts, seed=args.seed,
        clock=clock, network=network,
    )
    politeness = PolitenessLog()
    agent = UserAgent(network, clock, politeness=politeness)
    history = BrowserHistory()
    for url in world.urls:
        history.visit(url, clock.now)
    estimator = ChangeRateEstimator()
    if policy is SchedulePolicy.ADAPTIVE:
        seed_estimator(world, estimator)
    tracker = W3Newer(
        clock, agent, build_crawl_hotlist(world), history=history,
        crawl=CrawlOptions(
            workers=args.workers, budget=args.budget,
            policy=policy, seed=args.seed,
        ),
        estimator=estimator,
        report_options=ReportOptions(render=False),
    )
    days = []
    for _ in range(args.days):
        clock.advance(DAY)
        apply_changes(world)
        result = tracker.run()
        governor = tracker.last_crawl["governor"]
        days.append({
            "changed": len(result.changed),
            "http_requests": result.http_requests,
            "deferred": result.deferred,
            "makespan": governor["makespan"],
            "max_inflight": governor["max_inflight"],
        })
        for outcome in result.changed:
            tracker.mark_page_viewed(outcome.url)
    payload = {
        "world": {
            "urls": len(world.urls), "hosts": args.hosts,
            "seed": args.seed,
        },
        "policy": policy.value,
        "budget": args.budget,
        "workers": args.workers,
        "days": days,
        "crawl": tracker.crawl_stats(),
        "politeness": politeness.stats(),
    }
    if args.explain:
        payload["explain"] = tracker.explain(args.explain)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    """A zero-setup tour: simulated site, tracker run, merged diff."""
    from .aide.engine import Aide
    from .core.w3newer.hotlist import Hotlist
    from .simclock import DAY

    aide = Aide()
    server = aide.network.create_server("www.example.com")
    server.set_page(
        "/news.html",
        "<HTML><HEAD><TITLE>Example news</TITLE></HEAD><BODY>\n"
        "<H1>Example news</H1>\n"
        "<P>The committee will meet in October. Agenda to follow.</P>\n"
        "<P>Contact the secretary with questions.</P>\n"
        "</BODY></HTML>\n",
    )
    user = aide.add_user(
        "you@example.com",
        Hotlist.from_lines("http://www.example.com/news.html Example news"),
    )
    user.visit("http://www.example.com/news.html", aide.clock)
    aide.remember("you@example.com", "http://www.example.com/news.html")

    aide.clock.advance(3 * DAY)
    server.set_page(
        "/news.html",
        "<HTML><HEAD><TITLE>Example news</TITLE></HEAD><BODY>\n"
        "<H1>Example news</H1>\n"
        "<P>The committee met early. Minutes are now available.</P>\n"
        "<P>Contact the secretary with questions.</P>\n"
        "</BODY></HTML>\n",
    )
    aide.clock.advance(3 * DAY)

    run = aide.run_w3newer("you@example.com")
    print("# One simulated week later, w3newer reports:")
    print(f"#   {len(run.changed)} of {len(run.outcomes)} pages changed, "
          f"{run.http_requests} HTTP requests spent")
    diff = aide.diff("you@example.com", "http://www.example.com/news.html")
    print("#\n# The Diff link returns this merged page:\n")
    print(diff.body.strip())
    return 0


def _cmd_timemap(args: argparse.Namespace) -> int:
    """Print a local ``,v`` archive's Memento TimeMap.

    The original resource defaults to the file path; give ``--url``
    when the archive tracks a web page.  Output is RFC 7089
    ``application/link-format`` (the wire shape), or structured JSON
    with ``--json``.  Exit 2 when there is no archive.
    """
    import json

    from .memento.core import (
        Memento,
        TimeMap,
        format_timemap,
        memento_uri,
        timegate_uri,
        timemap_uri,
    )

    archive = _load_archive(args.file)
    if archive.revision_count == 0:
        print(f"aide: no archive for {args.file}", file=sys.stderr)
        return 2
    original = args.url or args.file
    script = "/cgi-bin/snapshot"
    timemap = TimeMap(
        original=original,
        timegate=timegate_uri(script, original),
        timemap=timemap_uri(script, original),
        mementos=sorted(
            Memento(datetime=info.date,
                    uri=memento_uri(script, original, info.number),
                    revision=info.number)
            for info in archive.revisions()
        ),
    )
    if args.json:
        print(json.dumps({
            "original": timemap.original,
            "mementos": [
                {"revision": m.revision, "datetime": m.datetime,
                 "datetime_http": m.datetime_string}
                for m in timemap.mementos
            ],
        }, indent=2, sort_keys=True))
    else:
        sys.stdout.write(format_timemap(timemap))
    return 0


def _cmd_memento(args: argparse.Namespace) -> int:
    """Datetime negotiation over a local ``,v`` archive.

    ``--at`` takes an HTTP date (any of the three RFC formats) or a
    bare simulation timestamp; ``--policy`` selects the boundary
    semantics (``past``/``nearest``/``exact``).  Prints the selected
    revision's text (metadata on stderr), or metadata as JSON with
    ``--json``.  Exit 1 when the policy refuses (nothing archived that
    satisfies it), 2 on usage errors.
    """
    import json

    from .memento.core import NegotiationError
    from .memento.endpoints import parse_datetime_value

    archive = _load_archive(args.file)
    if archive.revision_count == 0:
        print(f"aide: no archive for {args.file}", file=sys.stderr)
        return 2
    target = parse_datetime_value(args.at)
    if target is None:
        print(f"aide: unparseable datetime {args.at!r} (want an HTTP "
              f"date or a simulation timestamp)", file=sys.stderr)
        return 2
    try:
        info = archive.revision_at(target, policy=args.policy)
    except NegotiationError as exc:
        print(f"aide: {exc}", file=sys.stderr)
        return 2
    if info is None:
        print(f"aide: no revision of {args.file} satisfies "
              f"{args.policy!r} negotiation for {args.at}",
              file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps({
            "revision": info.number,
            "datetime": info.date,
            "datetime_http": info.date_string,
            "author": info.author,
            "policy": args.policy,
            "target": target,
        }, indent=2, sort_keys=True))
        return 0
    text = archive.checkout(info.number)
    print(f"memento: revision {info.number} ({info.date_string})",
          file=sys.stderr)
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")
    return 0


def _cmd_timetravel(args: argparse.Namespace) -> int:
    """Browse a seeded archive pinned to one instant, in virtual time.

    Builds a deterministic linked world, seeds ``--rounds`` revisions
    of every page through the snapshot CGI, then walks ``--follows``
    links starting from page 0 with every navigation negotiated
    through the TimeGate at the pinned datetime — so nothing served is
    ever newer than the pin (under the default ``past`` policy).
    Prints the trail; same arguments, same bytes.
    """
    import json

    from .aide.browser import TimeTravelSession
    from .core.snapshot.service import SnapshotService
    from .core.snapshot.store import SnapshotStore
    from .memento.endpoints import parse_datetime_value
    from .serve import build_world, seed_world
    from .web.client import UserAgent

    world = build_world(args.seed, pages=args.pages, linked=True)
    store = SnapshotStore(world.clock, world.agent)
    service = SnapshotService(store)
    gate_host = world.network.create_server("aide.example.com")
    gate_host.register_cgi("/cgi-bin/snapshot", service)
    seed_world(service, world, seed=args.seed, rounds=args.rounds)

    if args.at is not None:
        pin = parse_datetime_value(args.at)
        if pin is None:
            print(f"aide: unparseable datetime {args.at!r}",
                  file=sys.stderr)
            return 2
    else:
        # Default pin: mid-history, so both older and newer revisions
        # exist on every page and the pin visibly matters.
        pin = world.clock.now // 2

    browser_agent = UserAgent(world.network, world.clock,
                              agent_name="Mozilla/1.1N")
    session = TimeTravelSession(
        browser_agent, "http://aide.example.com/cgi-bin/snapshot",
        pin=pin, policy=args.policy,
    )
    session.browse(world.urls[0])
    for step in range(args.follows):
        if session.current is None or not session.current.served:
            break
        session.follow(step)
    trail = [
        {"url": page.url, "served": page.served,
         "memento_datetime": page.datetime,
         "links": len(page.links)}
        for page in session.trail
    ]
    served = [p for p in session.trail if p.served]
    payload = {
        "pin": pin,
        "pin_http": session.pin_string,
        "policy": args.policy,
        "pages_visited": len(session.trail),
        "served": len(served),
        "misses": len(session.trail) - len(served),
        "newest_served": max((p.datetime for p in served), default=None),
        "trail": trail,
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    violations = [p for p in served
                  if p.datetime is not None and p.datetime > pin]
    return 0 if not violations else 1


def _cmd_quarantine(args: argparse.Namespace) -> int:
    """Inspect the poison-document journal: list entries, retry them
    against (possibly loosened) guard limits, or purge them."""
    from .core.quarantine import QuarantineJournal
    from .web.guards import GuardLimits

    journal = QuarantineJournal(args.journal)
    if args.quarantine_cmd == "list":
        if not len(journal):
            print("quarantine journal is empty")
            return 0
        for entry in journal.entries():
            print(f"{entry.url}")
            print(f"  guard:    {entry.guard}")
            print(f"  detail:   {entry.detail}")
            print(f"  attempts: {entry.attempts}")
            print(f"  bytes:    {len(entry.body)}")
        stats = journal.stats()
        print(f"{stats['entries']} entries, "
              f"{stats['attempts']} guard trips total")
        return 0
    if args.quarantine_cmd == "retry":
        limits = GuardLimits()
        overrides = {}
        if args.max_body_bytes is not None:
            overrides["max_body_bytes"] = args.max_body_bytes
        if args.max_nesting_depth is not None:
            overrides["max_nesting_depth"] = args.max_nesting_depth
        if args.max_tokens is not None:
            overrides["max_tokens"] = args.max_tokens
        if overrides:
            import dataclasses
            limits = dataclasses.replace(limits, **overrides)
        released, still_bad = journal.retry(url=args.url, limits=limits)
        for entry in released:
            print(f"released  {entry.url}")
        for entry, verdict in still_bad:
            print(f"still bad {entry.url}: {verdict}")
        return 0 if not still_bad else 1
    if args.quarantine_cmd == "purge":
        dropped = journal.purge(args.url)
        print(f"purged {dropped} entr{'y' if dropped == 1 else 'ies'}")
        return 0
    return 2



def build_parser() -> argparse.ArgumentParser:
    """The aide argument parser (exposed for shell-completion tools)."""
    parser = argparse.ArgumentParser(
        prog="aide",
        description="AIDE: the AT&T Internet Difference Engine (reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    diff = sub.add_parser(
        "htmldiff", help="compare two HTML files; emit a marked-up page"
    )
    diff.add_argument("old", help="older HTML file (or - for stdin)")
    diff.add_argument("new", help="newer HTML file")
    diff.add_argument("-o", "--output", help="write the page here (default stdout)")
    diff.add_argument(
        "--mode",
        choices=[mode.value for mode in PresentationMode],
        default=PresentationMode.MERGED.value,
        help="presentation mode (default: merged)",
    )
    diff.add_argument("--match-threshold", type=float, default=0.5,
                      help="2W/L ratio for sentences to match (default 0.5)")
    diff.add_argument("--length-ratio", type=float, default=0.5,
                      help="length pre-filter ratio (default 0.5)")
    diff.add_argument("--density-threshold", type=float, default=0.75,
                      help="change density above which merging is suppressed")
    diff.add_argument("--no-refine", action="store_true",
                      help="disable word-level refinement of fuzzy matches")
    diff.add_argument("-q", "--quiet", action="store_true",
                      help="suppress the summary line on stderr")
    diff.set_defaults(func=_cmd_htmldiff)

    tokenize = sub.add_parser(
        "tokenize", help="show a document's HtmlDiff token stream"
    )
    tokenize.add_argument("file", help="HTML file (or - for stdin)")
    tokenize.add_argument("--width", type=int, default=100,
                          help="truncate token display at this width")
    tokenize.set_defaults(func=_cmd_tokenize)

    thresholds = sub.add_parser(
        "thresholds", help="evaluate a w3newer threshold config against URLs"
    )
    thresholds.add_argument("config", help="threshold configuration file")
    thresholds.add_argument("urls", nargs="+", help="URLs to classify")
    thresholds.set_defaults(func=_cmd_thresholds)

    ci = sub.add_parser("ci", help="check a file into its ,v archive")
    ci.add_argument("file")
    ci.add_argument("-m", "--message", default="", help="log message")
    ci.add_argument("--author", default="", help="author (default: $USER)")
    ci.set_defaults(func=_cmd_ci)

    co = sub.add_parser("co", help="check a revision out of a ,v archive")
    co.add_argument("file")
    co.add_argument("-r", "--revision", help="revision (default: head)")
    co.add_argument("-o", "--output", help="write here instead of stdout")
    co.set_defaults(func=_cmd_co)

    rlog = sub.add_parser("rlog", help="show a ,v archive's history")
    rlog.add_argument("file")
    rlog.set_defaults(func=_cmd_rlog)

    rcsdiff = sub.add_parser(
        "rcsdiff", help="diff two revisions (or a revision vs the file)"
    )
    rcsdiff.add_argument("file")
    rcsdiff.add_argument("-r", "--revision", action="append",
                         help="revision; give twice for a pair")
    rcsdiff.add_argument("--html", action="store_true",
                         help="render with HtmlDiff instead of unified text")
    rcsdiff.set_defaults(func=_cmd_rcsdiff)

    fsck = sub.add_parser(
        "fsck",
        help="check an on-disk snapshot repository for cross-file "
             "damage (archives vs control files vs cache vs journal)",
    )
    fsck.add_argument("directory", help="repository directory")
    fsck.add_argument(
        "--repair", action="store_true",
        help="fix what is fixable: rewrite stale cache files, drop "
             "dangling control-file stamps, compact rolled-back "
             "transactions out of the journal",
    )
    fsck.add_argument(
        "--json", action="store_true",
        help="print the structured report as JSON",
    )
    fsck.set_defaults(func=_cmd_fsck)

    metrics = sub.add_parser(
        "metrics",
        help="render a saved metrics snapshot (metrics.json or a run "
             "directory) as Prometheus text or JSON",
    )
    metrics.add_argument("path", help="metrics.json file or run directory")
    metrics.add_argument("--format", choices=["text", "json"],
                         default="text", help="output format (default text)")
    metrics.set_defaults(func=_cmd_metrics)

    trace = sub.add_parser(
        "trace",
        help="print a saved event journal (events.jsonl or a run "
             "directory) as a nested span tree",
    )
    trace.add_argument("run", help="events.jsonl file or run directory")
    trace.add_argument("--spans-only", action="store_true",
                       help="omit the non-span event listing")
    trace.set_defaults(func=_cmd_trace)

    serve = sub.add_parser(
        "serve",
        help="run the sharded diff server under a seeded closed-loop "
             "load (virtual time) and print the service report",
    )
    serve.add_argument("--shards", type=int, default=4,
                       help="store shards / worker pools (default 4)")
    serve.add_argument("--workers", type=int, default=8,
                       help="workers per shard (default 8)")
    serve.add_argument("--queue-limit", type=int, default=256,
                       help="admission queue depth per shard (default 256)")
    serve.add_argument("--users", type=int, default=1000,
                       help="closed-loop simulated users (default 1000)")
    serve.add_argument("--requests-per-user", type=int, default=2,
                       help="requests each user issues (default 2)")
    serve.add_argument("--pages", type=int, default=64,
                       help="tracked origin pages (default 64)")
    serve.add_argument("--rounds", type=int, default=3,
                       help="revisions seeded per page (default 3)")
    serve.add_argument("--seed", type=int, default=0,
                       help="determinism seed (default 0)")
    serve.add_argument("--save", metavar="DIR",
                       help="write the seeded archives to DIR per shard")
    serve.add_argument("--replication", type=int, default=1,
                       help="replicas per URL (default 1: unreplicated)")
    serve.add_argument("--scrub-interval", type=int, default=0,
                       help="anti-entropy scrub period in virtual seconds "
                            "(default 0: off)")
    serve.add_argument("--mutation-rate", type=float, default=0.0,
                       help="fraction of load requests that are remember "
                            "re-saves (default 0.0: read-only)")
    serve.add_argument("--kill-shard", action="append", metavar="SPEC",
                       help="schedule a shard crash as "
                            "SHARD:AT:RECOVER_AT[:torn]; repeatable")
    serve.add_argument("--kill-each-once", metavar="SPEC",
                       help="kill every shard once, staggered: "
                            "START:DOWNTIME[:SPACING]")
    serve.set_defaults(func=_cmd_serve)

    newer = sub.add_parser(
        "newer",
        help="run the budgeted concurrent change tracker over a seeded "
             "crawl world (virtual time) and print the crawl report",
    )
    newer.add_argument("--urls", type=int, default=2000,
                       help="pages in the crawl world (default 2000)")
    newer.add_argument("--hosts", type=int, default=50,
                       help="virtual hosts the pages spread over (default 50)")
    newer.add_argument("--days", type=int, default=3,
                       help="simulated daily runs (default 3)")
    newer.add_argument("--budget", type=int, default=300,
                       help="fetch budget per run (default 300)")
    newer.add_argument("--workers", type=int, default=8,
                       help="concurrent crawl workers (default 8)")
    newer.add_argument("--policy", choices=["static", "adaptive"],
                       default="adaptive",
                       help="revisit policy (default adaptive)")
    newer.add_argument("--seed", type=int, default=0,
                       help="determinism seed (default 0)")
    newer.add_argument("--explain", metavar="URL",
                       help="include this URL's scheduling rationale")
    newer.set_defaults(func=_cmd_newer)

    quarantine = sub.add_parser(
        "quarantine",
        help="inspect the poison-document journal (list / retry / purge)",
    )
    qsub = quarantine.add_subparsers(dest="quarantine_cmd", required=True)
    qlist = qsub.add_parser("list", help="show quarantined URLs")
    qlist.add_argument("journal", help="path to the quarantine journal file")
    qretry = qsub.add_parser(
        "retry", help="re-validate stored bytes and release survivors"
    )
    qretry.add_argument("journal", help="path to the quarantine journal file")
    qretry.add_argument("--url", help="retry only this URL")
    qretry.add_argument("--max-body-bytes", type=int, dest="max_body_bytes",
                        help="loosen the body-size cap before retrying")
    qretry.add_argument("--max-nesting-depth", type=int,
                        dest="max_nesting_depth",
                        help="loosen the markup-depth cap before retrying")
    qretry.add_argument("--max-tokens", type=int, dest="max_tokens",
                        help="loosen the token-count cap before retrying")
    qretry.set_defaults(func=_cmd_quarantine)
    qpurge = qsub.add_parser("purge", help="drop journal entries")
    qpurge.add_argument("journal", help="path to the quarantine journal file")
    qpurge.add_argument("--url", help="purge only this URL (default: all)")
    qpurge.set_defaults(func=_cmd_quarantine)
    qlist.set_defaults(func=_cmd_quarantine)
    quarantine.set_defaults(func=_cmd_quarantine)

    timemap = sub.add_parser(
        "timemap",
        help="print a ,v archive's Memento TimeMap "
             "(application/link-format)",
    )
    timemap.add_argument("file", help="working file (its ,v archive is read)")
    timemap.add_argument("--url", help="original URL the archive tracks "
                                       "(default: the file path)")
    timemap.add_argument("--json", action="store_true",
                         help="structured JSON instead of link-format")
    timemap.set_defaults(func=_cmd_timemap)

    memento = sub.add_parser(
        "memento",
        help="datetime negotiation over a ,v archive: the revision as "
             "of --at",
    )
    memento.add_argument("file", help="working file (its ,v archive is read)")
    memento.add_argument("--at", required=True,
                         help="target datetime: an HTTP date or a "
                              "simulation timestamp")
    memento.add_argument("--policy", choices=["past", "nearest", "exact"],
                         default="past",
                         help="boundary semantics (default past)")
    memento.add_argument("--json", action="store_true",
                         help="print revision metadata as JSON instead "
                              "of the text")
    memento.set_defaults(func=_cmd_memento)

    timetravel = sub.add_parser(
        "timetravel",
        help="browse a seeded archive pinned to one datetime; every "
             "followed link resolves through the TimeGate",
    )
    timetravel.add_argument("--at", help="pinned datetime (HTTP date or "
                                         "simulation timestamp; default: "
                                         "mid-history)")
    timetravel.add_argument("--policy", choices=["past", "nearest"],
                            default="past",
                            help="negotiation policy (default past: "
                                 "never newer than the pin)")
    timetravel.add_argument("--pages", type=int, default=16,
                            help="pages in the seeded world (default 16)")
    timetravel.add_argument("--rounds", type=int, default=3,
                            help="revisions seeded per page (default 3)")
    timetravel.add_argument("--follows", type=int, default=10,
                            help="links to follow (default 10)")
    timetravel.add_argument("--seed", type=int, default=0,
                            help="determinism seed (default 0)")
    timetravel.set_defaults(func=_cmd_timetravel)

    demo = sub.add_parser(
        "demo", help="run a self-contained track-and-diff tour"
    )
    demo.set_defaults(func=_cmd_demo)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; preserve that for callers.
        return int(exc.code or 0)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"aide: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RcsParseError) as exc:
        print(f"aide: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
