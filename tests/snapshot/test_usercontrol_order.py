"""``UserControl`` keeps each <user, URL> history as an ordered dict.

The reference below is the list of ``SeenVersion`` entries the control
file held before, with its linear scans.  Long seeded histories of
``record`` / ``undo_record`` / ``forget`` must leave both with the same
versions in the same order, the same last seen version, the same
``pending`` stamps and the same ``users.ctl`` bytes.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.snapshot.usercontrol import SeenVersion, UserControl


class ListControl:
    """Per <user, URL> lists of seen versions, scanned linearly."""

    def __init__(self):
        self.seen = {}
        self.pending = {}

    def record(self, user, url, revision, when):
        if self.pending is not None:
            self.pending[(user, url, revision)] = when
        versions = self.seen.setdefault(user, {}).setdefault(url, [])
        for index, seen in enumerate(versions):
            if seen.revision == revision:
                versions[index] = SeenVersion(revision, when)
                return seen
        versions.append(SeenVersion(revision, when))
        return None

    def undo_record(self, user, url, revision, prior):
        versions = self.seen.get(user, {}).get(url)
        if not versions:
            return
        if prior is None:
            if versions[-1].revision == revision:
                versions.pop()
            if not versions:
                self.forget(user, url)
            return
        for index, seen in enumerate(versions):
            if seen.revision == revision:
                versions[index] = prior
                if self.pending is not None:
                    self.pending[(user, url, revision)] = prior.when
                return

    def forget(self, user, url, revision=None):
        per_user = self.seen.get(user)
        if per_user is None or url not in per_user:
            return
        versions = per_user[url]
        if any(revision in (None, seen.revision) for seen in versions):
            self.pending = None
        if revision is None:
            del per_user[url]
        else:
            per_user[url] = [s for s in versions if s.revision != revision]
            if not per_user[url]:
                del per_user[url]
        if not per_user:
            del self.seen[user]

    def serialize(self):
        return "\n".join(
            f"{user}|{url}|" + ",".join(
                f"{s.revision}@{s.when}" for s in self.seen[user][url])
            for user in sorted(self.seen) for url in sorted(self.seen[user]))


USERS = ["fred@att.com", "tom@att.com"]
URLS = ["http://a.com/x", "http://b.com/y"]


def run(ops):
    """Apply ``ops`` to both controls, checking them after every step."""
    control, model = UserControl(), ListControl()
    priors = []
    for op, user, url, revision, when in ops:
        if op == "record":
            prior = control.record(user, url, revision, when)
            assert prior == model.record(user, url, revision, when)
            priors.append((user, url, revision, prior))
        elif op == "undo" and priors:
            args = priors.pop()
            control.undo_record(*args)
            model.undo_record(*args)
        elif op == "forget":
            control.forget(user, url, revision)
            model.forget(user, url, revision)
        elif op == "sync" and control.pending is not None:
            control.pending, model.pending = {}, {}
        for u in USERS:
            for v in URLS:
                expected = model.seen.get(u, {}).get(v, [])
                assert control.versions_seen(u, v) == expected
                assert control.last_seen_version(u, v) == (
                    expected[-1] if expected else None)
        assert control.pending == model.pending
        assert control.serialize() == model.serialize()
    text = control.serialize()
    assert UserControl.deserialize(text).serialize() == text
    return control


def random_ops(rng, count, revisions=40):
    ops = []
    for when in range(count):
        op = rng.choices(["record", "undo", "forget", "sync"],
                         weights=[80, 10, 3, 7])[0]
        revision = f"1.{rng.randrange(1, revisions)}"
        if op == "forget" and rng.random() < 0.3:
            revision = None
        ops.append((op, rng.choice(USERS), rng.choice(URLS), revision, when))
    return ops


class TestOrderSemantics:
    def test_long_seeded_histories(self):
        for seed in range(6):
            run(random_ops(random.Random(seed), 1500))

    def test_growing_history_keeps_check_in_order(self):
        ops = [("record", USERS[0], URLS[0], f"1.{n}", n)
               for n in range(1, 400)]
        # Re-stamp old revisions: each keeps its place.
        ops += [("record", USERS[0], URLS[0], f"1.{n}", 1000 + n)
                for n in range(1, 400, 7)]
        control = run(ops)
        # The last entry is still the last revision checked in; a
        # re-stamped one kept its place with its new time.
        assert control.last_seen_version(USERS[0], URLS[0]) == SeenVersion(
            "1.399", 399)
        assert control.versions_seen(USERS[0], URLS[0])[7] == SeenVersion(
            "1.8", 1008)

    @given(st.lists(st.tuples(
        st.sampled_from(["record", "record", "undo", "forget", "sync"]),
        st.sampled_from(USERS), st.sampled_from(URLS),
        st.sampled_from(["1.1", "1.2", "1.3", None]),
        st.integers(0, 50)), max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_random_operation_sequences(self, ops):
        run([(op, user, url, revision or "1.1" if op != "forget"
              else revision, when)
             for op, user, url, revision, when in ops])
