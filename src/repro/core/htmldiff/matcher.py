"""Token matching: the weighted LCS of Section 5.1.

Two token kinds, two matching rules:

* **Sentence-breaking markups** match only identical (normalized)
  sentence-breaking markups, with weight 1.
* **Sentences** match fuzzily in two steps — a cheap length pre-filter,
  then a word-level LCS whose ``2W/L`` ratio must clear the threshold;
  a successful match has weight ``W`` (the number of words and
  content-defining markups in the common subsequence).

Per-pair weights are memoized on sentence keys: the Hirschberg driver
evaluates the same pair many times across recursion levels, and the
inner sentence LCS is the expensive part.  Each :meth:`match` call
starts from an empty memo, so it never outgrows one comparison.

The paper says the LCS runs "with several speed optimizations"; beyond
the affix trimming in :mod:`repro.diffcore.lcs`, this module layers
three more (each toggleable via :class:`HtmlDiffOptions`, all
output-neutral — the differential tests prove it):

* **exact fast lane** — tokens are interned to small ids keyed on
  their normalized form, so the per-DP-cell weight callback is an
  integer compare (identical pair → precomputed exact weight; break
  tokens never reach the sentence machinery) plus an int-pair memo;
* **upper-bound pruning** — before the inner word-level LCS, the
  multiset intersection of the two sentences' content items bounds
  ``W`` from above; a pair that cannot clear ``match_threshold`` even
  at that bound is rejected without running the LCS;
* **anchor decomposition** — tokens unique in both streams pin the
  alignment and the quadratic core runs only between them
  (:func:`repro.diffcore.anchor.anchored_lcs_pairs`).
"""

from __future__ import annotations

from collections import Counter
from itertools import compress, count, islice
from operator import is_not
from typing import Dict, List, Sequence, Tuple

from ...diffcore.anchor import anchored_lcs_pairs
from ...diffcore.lcs import canonicalize_pairs, weighted_lcs_pairs
from .options import HtmlDiffOptions
from .tokens import BreakToken, SentenceToken, Token

__all__ = ["TokenMatcher", "exact_weight", "match_tokens"]

#: A window's runs: (common prefix length, the matches between the runs
#: as (old_index, new_index, weight), common suffix length).
Runs = Tuple[int, List[Tuple[int, int, float]], int]

#: Small enough that no realistic number of presentational-markup
#: matches (< 1e6 per sentence) outweighs one content match.
_PRESENTATION_EPSILON = 1e-6


def exact_weight(token: Token) -> float:
    """The weight of a token matched with an equal-key token."""
    if token.__class__ is BreakToken:
        return 1.0
    return float(token.length) or 0.5


def _same_key(x: Token, y: Token) -> bool:
    """Equal interning keys: what the solvers' affix trimming compares."""
    return x.__class__ is y.__class__ and (
        x.normalized == y.normalized if x.__class__ is BreakToken
        else x.key == y.key)


def _common_affixes(a: Sequence[Token], b: Sequence[Token]) -> Tuple[int, int]:
    """``trim_common_affixes(a, b, _same_key)``, faster on spliced
    streams: runs of shared token objects pass at C speed, and keys are
    compared only where the objects differ."""
    n, m = len(a), len(b)
    prefix = min(n, m)
    for i in compress(count(), map(is_not, a, b)):
        if not _same_key(a[i], b[i]):
            prefix = i
            break
    suffix = bound = min(n, m) - prefix
    for k in compress(count(), map(is_not, islice(reversed(a), bound),
                                   reversed(b))):
        if not _same_key(a[n - 1 - k], b[m - 1 - k]):
            suffix = k
            break
    return prefix, suffix


def _item_weight(x, y) -> float:
    """Sentence-item weight: exact equality, content items dominant."""
    if x != y:
        return 0.0
    if type(x) is str or x.content_defining:
        return 1.0
    return _PRESENTATION_EPSILON


class TokenMatcher:
    """Weight function over tokens, with memoization."""

    def __init__(self, options: HtmlDiffOptions = None) -> None:
        self.options = options or HtmlDiffOptions()
        self.options.validate()
        self._cache: Dict[Tuple, float] = {}
        self._bags: Dict[Tuple, Counter] = {}
        #: Instrumentation for the S4 ablation: how many sentence pairs
        #: were rejected by the length pre-filter alone (each one an
        #: inner LCS avoided).
        self.prefilter_rejections = 0
        #: Pairs rejected by the bag-of-items bound (each also an inner
        #: LCS avoided, at the cost of two Counter intersections).
        self.upper_bound_rejections = 0
        self.inner_lcs_runs = 0
        #: Identical-key pairs resolved without any item comparison.
        self.exact_lane_hits = 0
        #: Tokens the exact fast lane interned: the changed window's.
        self.interned_tokens = 0

    # ------------------------------------------------------------------
    def weight(self, a: Token, b: Token) -> float:
        """Non-negative match weight; 0 means "do not match"."""
        a_is_break = isinstance(a, BreakToken)
        b_is_break = isinstance(b, BreakToken)
        if a_is_break != b_is_break:
            return 0.0  # sentences only match sentences, breaks breaks
        if a_is_break:
            return 1.0 if a.normalized == b.normalized else 0.0
        return self._sentence_weight(a, b)

    def stats(self) -> Dict[str, int]:
        """Instrumentation snapshot for the api layer."""
        return {
            "cache_size": len(self._cache),
            "prefilter_rejections": self.prefilter_rejections,
            "upper_bound_rejections": self.upper_bound_rejections,
            "inner_lcs_runs": self.inner_lcs_runs,
            "exact_lane_hits": self.exact_lane_hits,
        }

    # ------------------------------------------------------------------
    def _sentence_weight(self, a: SentenceToken, b: SentenceToken) -> float:
        key = (a.key, b.key)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        weight = self._compute_sentence_weight(a, b)
        self._cache[key] = weight
        self._cache[(b.key, a.key)] = weight  # symmetry
        return weight

    def _content_bag(self, sentence: SentenceToken) -> Counter:
        """Multiset of the sentence's content-item identities."""
        key = sentence.key
        bag = self._bags.get(key)
        if bag is None:
            bag = Counter(
                item if type(item) is str else item.normalized
                for item in sentence.items
                if type(item) is str or item.content_defining
            )
            self._bags[key] = bag
        return bag

    def _compute_sentence_weight(self, a: SentenceToken, b: SentenceToken) -> float:
        la, lb = a.length, b.length
        if la == 0 and lb == 0:
            # Content-free sentences (only <B>-class markups): match
            # only when literally identical; tiny weight so a sea of
            # them never outweighs real content.
            return 0.5 if a.key == b.key else 0.0
        if a.key == b.key:
            # Identical items: the LCS is the whole sentence, W = la.
            self.exact_lane_hits += 1
            return float(la)
        # Step 1: the length pre-filter.
        if self.options.use_length_prefilter:
            if min(la, lb) < self.options.length_ratio * max(la, lb):
                self.prefilter_rejections += 1
                return 0.0
        total = la + lb
        # Step 1b: the bag-of-items bound.  The word-level LCS can never
        # contain more content items than the multiset intersection, so
        # W <= upper; if even 2*upper/total misses the threshold the
        # inner LCS cannot change the verdict.
        if self.options.use_upper_bound_prefilter:
            bag_a = self._content_bag(a)
            bag_b = self._content_bag(b)
            if len(bag_b) < len(bag_a):
                bag_a, bag_b = bag_b, bag_a
            upper = sum(
                count if count <= bag_b[item] else bag_b[item]
                for item, count in bag_a.items()
                if item in bag_b
            )
            if 2.0 * upper / total < self.options.match_threshold:
                self.upper_bound_rejections += 1
                return 0.0
        # Step 2: LCS of the item sequences.  Content items (words and
        # content-defining markups) weigh 1; presentational markups get
        # an epsilon so they align when convenient but can never steal
        # an alignment from content.  (With uniform weights, "<B></B>
        # <IMG>" vs "<B><IMG></B>" could tie-break toward matching the
        # </B> pair instead of the IMG, making W direction-dependent.)
        self.inner_lcs_runs += 1
        common = weighted_lcs_pairs(a.items, b.items, _item_weight)
        w = sum(1 for _i, _j, weight in common if weight == 1.0)
        if 2.0 * w / total < self.options.match_threshold:
            return 0.0
        return float(w)

    # ------------------------------------------------------------------
    # The stream-level drivers
    # ------------------------------------------------------------------
    def match(
        self, old_tokens: Sequence[Token], new_tokens: Sequence[Token]
    ) -> List[Tuple[int, int, float]]:
        """The heaviest common subsequence of two token streams.

        Whatever solver runs, the result is canonicalized — matches of
        repeated tokens slide to their earliest occurrences — so the
        alignment is a function of the inputs alone, not of which
        solver (or which speed optimization) produced it.
        """
        prefix, pairs, suffix = self.match_runs(old_tokens, new_tokens)
        n, m = len(old_tokens), len(new_tokens)
        head = [(i, i, exact_weight(new_tokens[i])) for i in range(prefix)]
        tail = [(n - suffix + k, m - suffix + k,
                 exact_weight(new_tokens[m - suffix + k]))
                for k in range(suffix)]
        return head + pairs + tail

    def match_runs(
        self, old_tokens: Sequence[Token], new_tokens: Sequence[Token]
    ) -> Runs:
        """:meth:`match` as runs: ``(prefix, pairs, suffix)``.

        The first ``prefix`` tokens of the streams match pairwise, and
        so do the last ``suffix``; ``pairs`` are the matches between,
        with indices into the whole streams.  The fast lane reports the
        runs it never had to look at; the reference path reports none.
        """
        self._cache = {}
        self._bags = {}
        if self.options.use_exact_fast_lane:
            return self._match_interned(old_tokens, new_tokens)
        old_list, new_list = list(old_tokens), list(new_tokens)
        if self.options.use_anchors:
            pairs = anchored_lcs_pairs(
                old_list, new_list, self.weight, key=_token_identity,
                min_anchor_weight=1.0,
            )
        else:
            pairs = weighted_lcs_pairs(old_list, new_list, self.weight)
        return 0, canonicalize_pairs(old_list, new_list, pairs,
                                     key=_token_identity), 0

    def _match_interned(
        self, old_tokens: Sequence[Token], new_tokens: Sequence[Token]
    ) -> Runs:
        """Run the LCS over interned token ids, in the changed window.

        Weight depends only on a token's normalized form (the memo has
        always been keyed that way), so equal-key tokens are
        interchangeable: mapping each distinct key to a small int makes
        the DP's equality test an int compare, the exact-match weight an
        array lookup, and the fuzzy-pair memo an int-pair dict.

        Only the window is interned and solved.  The equal-key prefix
        and suffix are trimmed first, exactly as the solvers trim them
        (prefix first, suffix bounded by what the prefix left), so the
        solvers see the core they would see in the whole streams and
        return the same pairs.  Canonicalizing then cannot move a
        prefix pair, moves a core pair only left within the core, and
        moves a suffix pair only until one stays put: every later one
        is the next position on both sides and stays too.  So only the
        core and a doubling stretch of the suffix are canonicalized.
        """
        n, m = len(old_tokens), len(new_tokens)
        prefix, suffix = _common_affixes(old_tokens, new_tokens)
        old_end, new_end = n - suffix, m - suffix
        # A break is keyed by its normalized string and a sentence by its
        # key tuple, so the two kinds never share an id.
        index: Dict[object, int] = {}
        reps: List[Token] = []
        is_break: List[bool] = []
        exact_w: List[float] = []

        def intern(tokens: Sequence[Token]) -> List[int]:
            self.interned_tokens += len(tokens)
            ids = []
            for token in tokens:
                brk = token.__class__ is BreakToken
                key = token.normalized if brk else token.key
                token_id = index.get(key)
                if token_id is None:
                    token_id = index[key] = len(reps)
                    reps.append(token)
                    is_break.append(brk)
                    exact_w.append(exact_weight(token))
                ids.append(token_id)
            return ids

        a_ids = intern(old_tokens[prefix:old_end])
        b_ids = intern(new_tokens[prefix:new_end])

        pair_cache: Dict[Tuple[int, int], float] = {}

        def pair_weight(ia: int, ib: int) -> float:
            if ia == ib:
                return exact_w[ia]
            if is_break[ia] or is_break[ib]:
                return 0.0  # distinct breaks, or break vs sentence
            pair = (ia, ib) if ia < ib else (ib, ia)
            w = pair_cache.get(pair)
            if w is None:
                w = self._sentence_weight(reps[ia], reps[ib])
                pair_cache[pair] = w
            return w

        if self.options.use_anchors:
            core = anchored_lcs_pairs(a_ids, b_ids, pair_weight,
                                      min_anchor_weight=1.0)
        else:
            core = weighted_lcs_pairs(a_ids, b_ids, pair_weight)
        # Ids are their own keys, so canonicalization needs no key fn.
        # Suffix pairs are equal-key, so one id list serves both sides.
        stretch = min(suffix, 1)
        tail_ids = intern(new_tokens[new_end:new_end + stretch])
        while True:
            tail = [(len(a_ids) + k, len(b_ids) + k, exact_w[tail_ids[k]])
                    for k in range(stretch)]
            pairs = canonicalize_pairs(a_ids + tail_ids, b_ids + tail_ids,
                                       core + tail)
            if stretch == suffix or pairs[-1] == tail[-1]:
                break
            grown = min(suffix, 2 * stretch)
            tail_ids += intern(new_tokens[new_end + stretch:new_end + grown])
            stretch = grown
        # The suffix pairs that stayed put are a tail of the stretch;
        # the rest of the suffix stays put too.
        stayed = 0
        while stayed < stretch and pairs[-1 - stayed] == tail[-1 - stayed]:
            stayed += 1
        window = [(prefix + i, prefix + j, w)
                  for i, j, w in pairs[:len(pairs) - stayed]]
        return prefix, window, suffix - stretch + stayed


def _token_identity(token: Token) -> Tuple:
    """The hashable identity weights are keyed on.  The leading kind
    flag keeps a break markup distinct from a one-item sentence whose
    decoded text happens to equal the break's normalized form."""
    return (isinstance(token, BreakToken), token.key)


def match_tokens(
    old_tokens: Sequence[Token],
    new_tokens: Sequence[Token],
    options: HtmlDiffOptions = None,
    matcher: TokenMatcher = None,
) -> List[Tuple[int, int, float]]:
    """The heaviest common subsequence of two token streams.

    Returns (old_index, new_index, weight) triples in increasing order.
    """
    if matcher is None:
        matcher = TokenMatcher(options)
    return matcher.match(old_tokens, new_tokens)
