"""Differential test: reusing a revision's token stream is output-neutral.

A default store keeps, per archive, the token stream of the head its
last unpinned Diff compared, and the next Diff of that archive uses it
as the old document's stream.  ``StoreOptions().reference()`` keeps
none.  The same seeded Diff-then-Remember sequence over changing pages
runs on both, in three presentation modes, and every served page must
be byte-identical.  The rest pins when a stream may be kept or reused:
never from a pinned diff, never under other guard caps, and a markup
bomb that misses still raises.
"""

import random
import sys

import pytest

import repro.core.snapshot.store as store_module
from repro.core.htmldiff import HtmlDiffOptions, PresentationMode, html_diff
from repro.core.htmldiff.tokens import SentenceToken
from repro.core.snapshot.store import SnapshotStore, StoreOptions
from repro.simclock import HOUR, SimClock
from repro.web.client import UserAgent
from repro.web.guards import ContentGuard, ContentGuardError, GuardLimits
from repro.web.network import Network
from repro.workloads.mutate import MUTATORS
from repro.workloads.pagegen import PageGenerator

from ..htmldiff.test_tokenizer_reference import (
    ref_tokenize_document,
    token_view,
)

ORIGIN = "tracked.example.com"
PAGES = 3
ROUNDS = 5
USER = "fred@att.com"
#: Every mutation operator but ``rewrite``, whose unrelated pages make
#: each diff slow without exercising anything else here.
OPERATORS = sorted(name for name in MUTATORS if name != "rewrite")


def url(index):
    return f"http://{ORIGIN}/page{index}.html"


def page_history(seed):
    """versions[round][page]; page 0 is left unchanged every other
    round, so some Diffs compare a revision with itself."""
    rng = random.Random(seed)
    pages = [PageGenerator(seed=seed + i).page(paragraphs=12 + 4 * i,
                                               links=5, with_pre=i == 2)
             for i in range(PAGES)]
    versions = [pages]
    for round_no in range(ROUNDS):
        bodies = []
        for index, body in enumerate(versions[-1]):
            if index == 0 and round_no % 2:
                bodies.append(body)
            else:
                bodies.append(MUTATORS[rng.choice(OPERATORS)](body, rng))
        versions.append(bodies)
    return versions


class World:
    """One store behind its own clock, network and origin server."""

    def __init__(self, options, diff_options=None, guard=None):
        self.clock = SimClock()
        network = Network(self.clock)
        self.origin = network.create_server(ORIGIN)
        self.store = SnapshotStore(
            self.clock, UserAgent(network, self.clock),
            diff_options=diff_options, options=options, guard=guard)

    def publish(self, bodies):
        for index, body in enumerate(bodies):
            self.origin.set_page(f"/page{index}.html", body)
        self.clock.advance(HOUR)


@pytest.fixture
def tokenize_calls(monkeypatch):
    """Counts the store's tokenizer runs (one per document tokenized)."""
    calls = []
    real = store_module.tokenize_document

    def counting(source, budget=None, **splice):
        calls.append(source)
        return real(source, budget=budget, **splice)

    monkeypatch.setattr(store_module, "tokenize_document", counting)
    return calls


def kept(store, index):
    return store.token_cache.get(url(index))


@pytest.mark.parametrize("mode", [PresentationMode.MERGED,
                                  PresentationMode.MERGED_REVERSED,
                                  PresentationMode.ONLY_DIFFERENCES])
def test_diff_then_remember_matches_reference(mode, tokenize_calls):
    versions = page_history(seed=41)
    options = HtmlDiffOptions(mode=mode)
    fast = World(StoreOptions(), options)
    reference = World(StoreOptions().reference(), options)
    for world in (fast, reference):
        world.publish(versions[0])
        for index in range(PAGES):
            world.store.remember(USER, url(index))
    for round_no in range(1, ROUNDS + 1):
        for world in (fast, reference):
            world.publish(versions[round_no])
        for index in range(PAGES):
            old_rev = fast.store.users.last_seen_version(
                USER, url(index)).revision
            before = len(tokenize_calls)
            fast_page = fast.store.diff(USER, url(index))
            fast_runs = len(tokenize_calls) - before
            reference_page = reference.store.diff(USER, url(index))
            assert fast_page == reference_page, (round_no, index)
            # Both stores hand html_diff token streams; it must serve
            # what it serves when it tokenizes the texts itself.
            archive = fast.store.archives[url(index)]
            assert fast_page.html == html_diff(
                archive.checkout(old_rev),
                archive.checkout(archive.head_revision), options).html
            # The old revision is the head the previous round's Diff
            # kept; only the new head is tokenized (nothing at all when
            # the page did not change).
            if round_no > 1:
                changed = versions[round_no][index] != \
                    versions[round_no - 1][index]
                assert fast_runs == (1 if changed else 0), (round_no, index)
            for world in (fast, reference):
                world.store.remember(USER, url(index))
    assert len(reference.store.token_cache) == 0
    for index in range(PAGES):
        revision, caps, stream = kept(fast.store, index)
        tokens = stream.tokens
        archive = fast.store.archives[url(index)]
        assert revision == archive.head_revision
        assert caps is None
        text = archive.checkout(revision)
        assert [token_view(t) for t in tokens] == \
            [token_view(t) for t in ref_tokenize_document(text)]
        # The kept stream holds each distinct word once.
        assert all(sys.intern(item) is item
                   for token in tokens if type(token) is SentenceToken
                   for item in token.items if type(item) is str)


def test_pinned_diff_keeps_no_stream():
    versions = page_history(seed=43)
    world = World(StoreOptions())
    for bodies in versions[:3]:
        world.publish(bodies)
        world.store.remember(USER, url(1))
    world.store.diff(USER, url(1), rev_old="1.1", rev_new="1.3")
    assert kept(world.store, 1) is None
    world.publish(versions[3])
    world.store.diff(USER, url(1))
    entry = kept(world.store, 1)
    assert entry[0] == "1.4"
    world.store.diff(USER, url(1), rev_old="1.1", rev_new="1.2")
    assert kept(world.store, 1) is entry


def test_other_guard_caps_do_not_reuse(tokenize_calls):
    versions = page_history(seed=47)
    world = World(StoreOptions(), guard=ContentGuard(GuardLimits()))
    reference = World(StoreOptions().reference(),
                      guard=ContentGuard(GuardLimits(max_tokens=150_000)))
    for bodies in versions[:2]:
        for each in (world, reference):
            each.publish(bodies)
            each.store.remember(USER, url(1))
    world.store.diff(USER, url(1))
    limits = GuardLimits()
    assert kept(world.store, 1)[1] == (limits.max_tokens,
                                       limits.max_nesting_depth,
                                       limits.max_attrs_per_tag)
    world.store.remember(USER, url(1))
    reference.store.remember(USER, url(1))
    for each in (world, reference):
        each.publish(versions[2])
    world.store.guard = reference.store.guard
    before = len(tokenize_calls)
    assert world.store.diff(USER, url(1)) == reference.store.diff(USER, url(1))
    # Both revisions tokenized afresh for the fast store, and both for
    # the reference store.
    assert len(tokenize_calls) - before == 4
    assert kept(world.store, 1)[1][0] == 150_000


def test_markup_bomb_raises_on_a_miss():
    world = World(StoreOptions())
    world.origin.set_page("/page0.html", "<P>calm page</P>")
    world.store.remember(USER, url(0))
    world.clock.advance(HOUR)
    world.origin.set_page("/page0.html", "<DIV>" * 200 + "boom")
    # No guard yet: the bomb is archived and its stream kept uncapped.
    world.store.diff(USER, url(0))
    assert kept(world.store, 0)[:2] == ("1.2", None)
    world.store.guard = ContentGuard(GuardLimits(max_nesting_depth=64))
    with pytest.raises(ContentGuardError):
        world.store.diff(USER, url(0), rev_old="1.2", rev_new="1.2")


def shared_ends(before, after):
    """How many leading and trailing tokens ``after`` shares (the same
    objects) with ``before``."""
    head = 0
    while (head < min(len(before), len(after))
           and after[head] is before[head]):
        head += 1
    tail = 0
    while (tail < min(len(before), len(after)) - head
           and after[-1 - tail] is before[-1 - tail]):
        tail += 1
    return head, tail


def one_sentence_edit(body):
    at = body.index(". ", len(body) // 2) + 2
    return body[:at] + "A sentence nobody wrote before. " + body[at:]


def test_one_sentence_edit_reuses_the_kept_tokens():
    world = World(StoreOptions())
    body = PageGenerator(seed=53).page(paragraphs=30, links=5)
    world.origin.set_page("/page0.html", body)
    world.store.remember(USER, url(0))
    for _ in range(2):
        world.clock.advance(HOUR)
        body = one_sentence_edit(body)
        world.origin.set_page("/page0.html", body)
        previous = kept(world.store, 0)
        world.store.diff(USER, url(0))
        world.store.remember(USER, url(0))
    before, after = previous[2].tokens, kept(world.store, 0)[2].tokens
    head, tail = shared_ends(before, after)
    assert head > len(before) // 3 and tail > len(before) // 3
    # Only the edited paragraph's tokens are new objects.
    assert head + tail >= len(after) - 10
    text = world.store.archives[url(0)].checkout(kept(world.store, 0)[0])
    assert [token_view(t) for t in after] == \
        [token_view(t) for t in ref_tokenize_document(text)]


def test_guarded_store_splices_and_a_bomb_in_the_window_raises():
    limits = GuardLimits(max_nesting_depth=64)
    world = World(StoreOptions(), guard=ContentGuard(limits))
    reference = World(StoreOptions().reference(),
                      guard=ContentGuard(limits))
    body = PageGenerator(seed=59).page(paragraphs=20, links=5)
    for each in (world, reference):
        each.origin.set_page("/page0.html", body)
        each.store.remember(USER, url(0))
    for _ in range(2):
        body = one_sentence_edit(body)
        previous = kept(world.store, 0)
        for each in (world, reference):
            each.clock.advance(HOUR)
            each.origin.set_page("/page0.html", body)
        assert world.store.diff(USER, url(0)) == \
            reference.store.diff(USER, url(0))
        for each in (world, reference):
            each.store.remember(USER, url(0))
    entry = kept(world.store, 0)
    assert entry[1] == (limits.max_tokens, limits.max_nesting_depth,
                        limits.max_attrs_per_tag)
    head, tail = shared_ends(previous[2].tokens, entry[2].tokens)
    assert head > 0 and tail > 0
    # Archive a tag bomb in the middle of the page with the guard off,
    # then diff it against the kept revision under the same caps.
    at = body.index("<P>", len(body) // 2)
    world.store.guard = None
    world.clock.advance(HOUR)
    world.origin.set_page("/page0.html",
                          body[:at] + "<DIV>" * 100 + "boom" + body[at:])
    world.store.remember(USER, url(0))
    world.store.guard = ContentGuard(limits)
    assert kept(world.store, 0) is entry
    with pytest.raises(ContentGuardError) as raised:
        world.store.diff(USER, url(0), rev_old=entry[0],
                         rev_new=world.store.archives[url(0)].head_revision)
    assert raised.value.guard == "nesting-depth"
