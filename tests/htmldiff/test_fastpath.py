"""Differential tests: the fast path must change nothing but speed.

The three optimization layers (exact fast lane + interning, bag-of-items
upper-bound pruning, anchor decomposition) are all required to be
output-neutral: ``html_diff`` with ``HtmlDiffOptions()`` must render
byte-identical pages to ``HtmlDiffOptions().reference()`` across the
synthetic revision workloads.  Canonicalization (matches of repeated
tokens slide to their earliest occurrences) is what makes this exact
rather than merely equal-weight.
"""

import random

import pytest

from repro.core.htmldiff.api import html_diff
from repro.core.htmldiff.matcher import TokenMatcher, match_tokens
from repro.core.htmldiff.options import HtmlDiffOptions
from repro.core.htmldiff.tokenizer import tokenize_document
from repro.workloads.mutate import MUTATORS, MutationMix
from repro.workloads.pagegen import PageGenerator

FAST = HtmlDiffOptions()
REFERENCE = FAST.reference()


def total_weight(pairs):
    return sum(w for _i, _j, w in pairs)


class TestOptionsPlumbing:
    def test_reference_turns_all_layers_off(self):
        assert REFERENCE.use_anchors is False
        assert REFERENCE.use_upper_bound_prefilter is False
        assert REFERENCE.use_exact_fast_lane is False
        # Unrelated knobs are untouched.
        assert REFERENCE.match_threshold == FAST.match_threshold

    def test_defaults_are_fast(self):
        assert FAST.use_anchors and FAST.use_upper_bound_prefilter
        assert FAST.use_exact_fast_lane

    def test_cache_key_distinguishes_paths(self):
        assert FAST.cache_key() != REFERENCE.cache_key()
        assert FAST.cache_key() == HtmlDiffOptions().cache_key()


class TestByteIdentity:
    @pytest.mark.parametrize("op_name", sorted(MUTATORS))
    def test_every_operator(self, op_name):
        op = MUTATORS[op_name]
        for seed in range(5):
            rng = random.Random(seed)
            old = PageGenerator(seed=seed).page(paragraphs=8, links=6)
            new = op(old, rng)
            fast = html_diff(old, new, options=FAST)
            ref = html_diff(old, new, options=REFERENCE)
            assert fast.html == ref.html, f"{op_name} seed {seed}"

    def test_typical_mix_chains(self):
        for seed in range(8):
            mix = MutationMix.typical(seed=seed)
            page = PageGenerator(seed=seed).page(paragraphs=10, links=8)
            for _step in range(3):
                new = mix.apply(page)
                fast = html_diff(page, new, options=FAST)
                ref = html_diff(page, new, options=REFERENCE)
                assert fast.html == ref.html
                page = new

    def test_single_layer_ablations(self):
        """Each layer alone is also output-neutral, not just the trio."""
        old = PageGenerator(seed=3).page(paragraphs=8, links=6)
        mix = MutationMix.typical(seed=3)
        new = mix.apply(mix.apply(old))
        ref = html_diff(old, new, options=REFERENCE)
        for layer in ("use_anchors", "use_upper_bound_prefilter",
                      "use_exact_fast_lane"):
            options = REFERENCE.__class__(**{
                **{f: getattr(REFERENCE, f)
                   for f in REFERENCE.__dataclass_fields__},
                layer: True,
            })
            assert html_diff(old, new, options=options).html == ref.html, layer


class TestMatchWeightEquality:
    def test_match_tokens_same_weight_across_workload(self):
        """The ISSUE-level property: anchored matching carries exactly
        the reference optimum's weight on randomized revisions."""
        for seed in range(6):
            mix = MutationMix.typical(seed=seed)
            old_html = PageGenerator(seed=seed).page(paragraphs=9, links=7)
            new_html = mix.apply(old_html)
            old = tokenize_document(old_html)
            new = tokenize_document(new_html)
            fast_pairs = match_tokens(old, new, options=FAST)
            ref_pairs = match_tokens(old, new, options=REFERENCE)
            assert total_weight(fast_pairs) == pytest.approx(
                total_weight(ref_pairs)
            )
            assert fast_pairs == ref_pairs  # canonical forms agree


class TestMatcherStats:
    def test_stats_exposed_through_api(self):
        old = PageGenerator(seed=1).page(paragraphs=6, links=5)
        new = MUTATORS["edit_sentence"](old, random.Random(1))
        result = html_diff(old, new)
        stats = result.matcher_stats
        assert set(stats) == {"cache_size", "prefilter_rejections",
                              "upper_bound_rejections", "inner_lcs_runs",
                              "exact_lane_hits"}

    def test_memo_lives_for_one_match_call(self):
        big = PageGenerator(seed=5).page(paragraphs=10, links=6)
        a = tokenize_document(big)
        b = tokenize_document(MutationMix.typical(seed=5).apply(big))
        small = tokenize_document("<P>alpha beta gamma.</P>")
        matcher = TokenMatcher(HtmlDiffOptions())
        matcher.match(a, b)
        assert matcher.stats()["cache_size"] > 0
        matcher.match(small, small)
        assert matcher.stats()["cache_size"] == 0

    def test_upper_bound_rejections_counted(self):
        old = "<P>alpha beta gamma delta.</P>"
        new = "<P>epsilon zeta eta theta.</P>"
        matcher = TokenMatcher(HtmlDiffOptions(use_length_prefilter=False))
        html_diff(old, new, matcher=matcher)
        assert matcher.upper_bound_rejections >= 1
        assert matcher.inner_lcs_runs == 0  # the bound made the LCS moot

    def test_exact_lane_counts_identical_sentences(self):
        # Without interning the exact lane lives in the sentence-weight
        # computation; equal-key pairs must resolve there.
        doc = "<P>same sentence here.</P><P>and a second one.</P>"
        matcher = TokenMatcher(REFERENCE)
        result = html_diff(doc, doc, options=REFERENCE, matcher=matcher)
        assert result.identical
        assert matcher.exact_lane_hits >= 1
        assert matcher.inner_lcs_runs == 0

    def test_upper_bound_never_changes_weights(self):
        """The bound only skips LCS runs that could not have mattered."""
        for seed in range(4):
            old = PageGenerator(seed=seed).page(paragraphs=5, links=4)
            new = MutationMix.typical(seed=seed).apply(old)
            with_bound = TokenMatcher(HtmlDiffOptions())
            without = TokenMatcher(HtmlDiffOptions(
                use_upper_bound_prefilter=False))
            a, b = tokenize_document(old), tokenize_document(new)
            assert with_bound.match(a, b) == without.match(a, b)
