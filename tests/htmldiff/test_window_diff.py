"""Differential test: HtmlDiff's windowed fast lane equals the reference.

On the exact fast lane ``html_diff`` interns, solves, classifies and
walks only the window between the streams' common prefix and suffix,
and renders the runs around it from each token's own ``html``.  Over
spliced token streams (as the snapshot store makes them), every
presentation mode must give what ``HtmlDiffOptions().reference()``
gives on the texts: the same page bytes, difference count, change
density and identity verdict, and the same entries once materialized
(class, token keys, weight).  The cases aim at the trimming and the
canonicalization: a key-equal prefix that runs past the splice, suffix
pairs that slide into the window, edits at either end, degenerate
documents, and the density fallback.
"""

import random
from dataclasses import replace

import pytest

from repro.core.htmldiff import HtmlDiffOptions, PresentationMode, html_diff
from repro.core.htmldiff.matcher import TokenMatcher, _common_affixes
from repro.core.htmldiff.tokenizer import TokenStream, tokenize_document
from repro.workloads.mutate import MUTATORS
from repro.workloads.pagegen import PageGenerator


def spliced(old, new, kept=None):
    """(old stream, new stream): the new text spliced into the old
    text's stream, as the store tokenizes a Diff's new revision."""
    if kept is None:
        kept = TokenStream()
        tokenize_document(old, stream=kept)
    stream = TokenStream()
    tokenize_document(new, kept=kept, stream=stream)
    return kept, stream


def entry_view(entry):
    def key(token):
        return None if token is None else (type(token).__name__, token.key)
    return (entry.cls, key(entry.old_token), key(entry.new_token),
            entry.weight)


def reference(options):
    return options.reference()


def whole_streams(options):
    """The fast path's solvers on the whole streams, without the
    window: on repetitive toy documents the anchor heuristic may pick
    another alignment than the reference (at the parent as well), so
    these compare against the same solvers instead."""
    return replace(options, use_exact_fast_lane=False)


def assert_same(old, new, old_tokens, new_tokens, oracle=reference):
    """Every mode, fast on the given streams against ``oracle``'s
    options on the texts; returns the fast MERGED result."""
    results = {}
    for mode in PresentationMode:
        fast = html_diff(old, new, HtmlDiffOptions(mode=mode),
                         old_tokens=old_tokens, new_tokens=new_tokens)
        reference = html_diff(old, new, oracle(HtmlDiffOptions(mode=mode)))
        assert fast.html == reference.html, mode
        assert fast.difference_count == reference.difference_count, mode
        assert fast.change_density == reference.change_density, mode
        assert fast.identical == reference.identical, mode
        assert fast.density_suppressed == reference.density_suppressed, mode
        assert [entry_view(e) for e in fast.diff.entries] == \
            [entry_view(e) for e in reference.diff.entries], mode
        results[mode] = fast
    return results[PresentationMode.MERGED]


def shared_prefix(before, after):
    """How many leading tokens are the same objects."""
    head = 0
    while (head < min(len(before), len(after))
           and after[head] is before[head]):
        head += 1
    return head


def slides(old_tokens, new_tokens):
    """How many trimmed suffix pairs canonicalization moved into the
    window."""
    _prefix, suffix = _common_affixes(old_tokens, new_tokens)
    return suffix - TokenMatcher().match_runs(old_tokens, new_tokens)[2]


@pytest.mark.parametrize("operator", sorted(MUTATORS))
def test_seeded_chains_of_every_operator(operator):
    for seed in range(3):
        rng = random.Random(seed)
        body = PageGenerator(seed=seed).page(paragraphs=10, links=4,
                                             with_pre=seed == 2)
        kept = None
        for _ in range(3):
            new = MUTATORS[operator](body, rng)
            kept, stream = spliced(body, new, kept)
            assert_same(body, new, kept.tokens, stream.tokens)
            body, kept = new, stream


def test_a_one_sentence_edit_is_diffed_in_a_small_window():
    body = PageGenerator(seed=7).page(paragraphs=30, links=5)
    at = body.index(". ", len(body) // 2) + 2
    new = body[:at] + "A sentence nobody wrote before. " + body[at:]
    kept, stream = spliced(body, new)
    result = assert_same(body, new, kept.tokens, stream.tokens)
    diff = result.diff
    assert diff.prefix > len(stream.tokens) // 3
    assert diff.suffix > len(stream.tokens) // 3
    assert len(diff.window) <= 5
    assert diff.total_entries == len(diff.entries)


def test_key_equal_prefix_runs_past_the_splice():
    body = PageGenerator(seed=11).page(paragraphs=12, links=4)
    ends = [at for at in range(len(body)) if body.startswith(".</P>", at)]
    past = 0
    for end in ends:
        # Edit a paragraph's last sentence and paste a copy of the
        # paragraph after it.  The splice tokenizes from the last
        # checkpoint, a break tag, before the edit: the paragraph's
        # earlier sentences are new objects with the old keys, so the
        # key-equal prefix runs past the shared objects.
        after = body.find("<P>", end)
        if after == -1:
            continue
        following = body[after:body.find("\n", after) + 1]
        new = (body[:end] + " indeed" + body[end:after] + following
               + body[after:])
        kept, stream = spliced(body, new)
        prefix, _suffix = _common_affixes(kept.tokens, stream.tokens)
        past += prefix > shared_prefix(kept.tokens, stream.tokens)
        result = assert_same(body, new, kept.tokens, stream.tokens)
        assert result.diff.prefix == prefix
    assert past >= 3


def test_inserted_or_deleted_item_next_to_an_equal_suffix_token():
    body = PageGenerator(seed=5).page(paragraphs=8, links=4)
    items = [at for at in range(len(body)) if body.startswith("<LI>", at)]
    moved = 0
    for at in items:
        for tag in ("<P>", "<LI>"):
            inserted = body[:at] + tag + body[at:]
            for old, new in ((body, inserted), (inserted, body)):
                kept, stream = spliced(old, new)
                moved += slides(kept.tokens, stream.tokens) > 0
                assert_same(old, new, kept.tokens, stream.tokens)
    assert moved > 0


def test_edits_at_the_first_token_and_at_the_end():
    body = PageGenerator(seed=13).page(paragraphs=6, links=3)
    edits = [
        "<P>A new first paragraph.</P>" + body,
        body[body.index(">") + 1:],
        "<HR>" + body,
        body + "<P>Trailing words at the very end.",
        body + "<HR>",
        body[:body.rindex("<")],
        body[:-10],
    ]
    for new in edits:
        for old, changed in ((body, new), (new, body)):
            kept, stream = spliced(old, changed)
            assert_same(old, changed, kept.tokens, stream.tokens)


def test_identical_empty_and_one_sided_documents():
    body = PageGenerator(seed=17).page(paragraphs=5, links=3)
    kept, stream = spliced(body, body)
    for old_tokens, new_tokens in ((kept.tokens, stream.tokens),
                                   (kept.tokens, kept.tokens)):
        result = assert_same(body, body, old_tokens, new_tokens)
        assert result.identical
        assert result.diff.window == []
    for old, new in (("", ""), ("", body), (body, ""), ("", "<P>"),
                     ("<P>", "")):
        kept, stream = spliced(old, new)
        assert_same(old, new, kept.tokens, stream.tokens)


def test_density_fallback_pair():
    rng = random.Random(2)
    body = PageGenerator(seed=2).page(paragraphs=20, links=3)
    new = MUTATORS["rewrite"](body, rng)
    kept, stream = spliced(body, new)
    result = assert_same(body, new, kept.tokens, stream.tokens)
    assert result.density_suppressed


#: Fragments with many repeated tokens, so matches tie and slide.
FRAGMENTS = ["<P>", "<LI>", "<HR>", "<BR>", "one two.", "one two three.",
             "three four five.", "six."]


def test_random_repetitive_documents():
    rng = random.Random(23)
    moved = 0
    for _ in range(250):
        old = "".join(rng.choice(FRAGMENTS) for _ in range(rng.randint(0, 9)))
        new = "".join(rng.choice(FRAGMENTS) for _ in range(rng.randint(0, 9)))
        kept, stream = spliced(old, new)
        moved += slides(kept.tokens, stream.tokens) > 0
        assert_same(old, new, kept.tokens, stream.tokens,
                    oracle=whole_streams)
    assert moved > 10
