"""The windowed ``make_edit_script`` and ``invert_edit_script``.

``make_edit_script`` runs the candidate chain only on the window between
the common line prefix and suffix.  The reference below is the
whole-sequence construction it replaced: the LCS pairs of both full
sequences (affixes trimmed one comparison at a time, as
:func:`~repro.diffcore.lcs.trim_common_affixes` does), walked pair by
pair.  Both must give the same script.  ``invert_edit_script`` must turn
a reverse delta back into a script that rebuilds the newer text.
"""

import operator
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diffcore.huntmcilroy import _candidate_chain
from repro.diffcore.lcs import trim_common_affixes
from repro.diffcore.textdiff import (
    EditCommand,
    apply_edit_script,
    format_edit_script,
    invert_edit_script,
    make_edit_script,
    parse_edit_script,
)
from repro.workloads.mutate import MUTATORS
from repro.workloads.pagegen import PageGenerator

#: Lines that stress the edges: empty lines, ``@`` (RCS's quote
#: character), a carriage return, and repeats.
AWKWARD = ["alpha", "beta", "", "@", "@@ x", "line\r", "\r", "beta"]

line_lists = st.lists(st.sampled_from(AWKWARD), max_size=30)


def whole_sequence_pairs(a, b):
    n, m = len(a), len(b)
    prefix, suffix = trim_common_affixes(a, b, operator.eq)
    core = _candidate_chain(a[prefix:n - suffix], b[prefix:m - suffix])
    return ([(i, i) for i in range(prefix)]
            + [(i + prefix, j + prefix) for i, j in core]
            + [(n - suffix + k, m - suffix + k) for k in range(suffix)])


def reference_script(old, new):
    script = []
    ai = bi = 0
    for pi, pj in whole_sequence_pairs(old, new) + [(len(old), len(new))]:
        if pi > ai:
            script.append(EditCommand("d", ai + 1, pi - ai))
        if pj > bi:
            script.append(EditCommand("a", pi, pj - bi, tuple(new[bi:pj])))
        ai, bi = pi + 1, pj + 1
    return script


def churn_pairs(count=60, seed=77):
    """(old, new) line lists of seeded realistic page edits, as a
    check-in sees them (text split on newlines, so each list ends with
    the empty line after a trailing newline)."""
    rng = random.Random(seed)
    names = sorted(set(MUTATORS) - {"rewrite"})
    pairs = []
    page = PageGenerator(seed).page(paragraphs=30, links=10)
    for _ in range(count):
        new = MUTATORS[rng.choice(names)](page, rng)
        if rng.random() < 0.2:
            new = new + "\n" if not new.endswith("\n") else new[:-1]
        pairs.append((page.split("\n"), new.split("\n")))
        page = new
    return pairs


def check_script(old, new):
    script = make_edit_script(old, new)
    assert script == reference_script(old, new)
    assert apply_edit_script(old, script) == new
    reverse = make_edit_script(new, old)
    forward = invert_edit_script(reverse, new)
    assert apply_edit_script(old, forward) == new
    assert parse_edit_script(format_edit_script(forward)) == forward


class TestWindowedScriptEqualsWholeSequence:
    @given(line_lists, line_lists)
    @settings(max_examples=300, deadline=None)
    def test_random_line_lists(self, old, new):
        check_script(old, new)

    @given(line_lists, line_lists, line_lists)
    @settings(max_examples=200, deadline=None)
    def test_shared_ends(self, head, middle, tail):
        # Edits at both ends, and a long shared middle.
        check_script(head + middle, middle + tail)
        check_script(middle + head, tail + middle)

    def test_seeded_churn_pairs(self):
        for old, new in churn_pairs():
            check_script(old, new)

    def test_edges(self):
        for old, new in [
            ([], []), ([], [""]), ([""], []), ([""], [""]),
            (["a", ""], ["a"]), (["a"], ["a", ""]),
            (["x", "a", "a"], ["a", "a", "x"]),
            (["a"] * 5, ["a"] * 3), (["@"], ["@@"]), (["a\r"], ["a"]),
        ]:
            check_script(old, new)


class TestInvert:
    def test_first_revision_from_empty(self):
        lines = ["<P>one</P>", ""]
        reverse = make_edit_script(lines, [])
        assert invert_edit_script(reverse, lines) == [
            EditCommand("a", 0, 2, tuple(lines))]

    def test_one_changed_stretch_deletes_then_appends(self):
        old, new = ["a", "b", "c"], ["a", "X", "Y", "c"]
        forward = invert_edit_script(make_edit_script(new, old), new)
        assert forward == [EditCommand("d", 2, 1),
                           EditCommand("a", 2, 2, ("X", "Y"))]

    def test_cost_is_the_script_not_the_page(self):
        # Only the deleted lines of ``source`` are read.
        class Guarded(list):
            def __getitem__(self, index):
                assert isinstance(index, slice) and index.start >= 500
                return list.__getitem__(self, index)

        new = [f"line {i}" for i in range(1000)]
        old = new[:500] + ["changed"] + new[501:]
        forward = invert_edit_script(make_edit_script(new, old),
                                     Guarded(new))
        assert apply_edit_script(old, forward) == new
