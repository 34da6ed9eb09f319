"""Longest common subsequence solvers.

HtmlDiff (paper Section 5.1) applies "Hirshberg's solution to the longest
common subsequence (LCS) problem (with several speed optimizations)" to
token sequences, with a *weighted* notion of matching: sentence-breaking
markups match identically with weight 1, while sentences match fuzzily
with weight equal to the size of their word-level LCS.

This module provides:

* :func:`lcs_pairs` — classic unweighted LCS over hashable tokens, in
  linear space (Hirschberg's divide and conquer).
* :func:`weighted_lcs_pairs` — the generalized weighted variant used by
  HtmlDiff, also linear-space.
* :func:`lcs_length` / :func:`similarity_ratio` — cheap scalar metrics
  used by the two-step sentence matcher.

The "several speed optimizations" the paper alludes to are reproduced as:
common prefix/suffix trimming before the quadratic core, an early exit
for equal or disjoint sequences, and the linear-space score rows.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple, TypeVar

__all__ = [
    "Match",
    "lcs_pairs",
    "lcs_length",
    "weighted_lcs_pairs",
    "weighted_lcs_score",
    "similarity_ratio",
    "trim_common_affixes",
    "canonicalize_pairs",
]

T = TypeVar("T")

#: A single correspondence: (index in A, index in B, match weight).
Match = Tuple[int, int, float]

WeightFn = Callable[[T, T], float]


def trim_common_affixes(
    a: Sequence[T], b: Sequence[T], equal: Callable[[T, T], bool]
) -> Tuple[int, int]:
    """Return (prefix_len, suffix_len) shared by ``a`` and ``b``.

    Trimming the guaranteed-common ends before running the quadratic LCS
    core is the cheapest and most effective of the speed optimizations:
    successive page versions usually share large head and tail regions.
    The suffix never overlaps the prefix.
    """
    n, m = len(a), len(b)
    prefix = 0
    limit = min(n, m)
    while prefix < limit and equal(a[prefix], b[prefix]):
        prefix += 1
    suffix = 0
    while (
        suffix < limit - prefix
        and equal(a[n - 1 - suffix], b[m - 1 - suffix])
    ):
        suffix += 1
    return prefix, suffix


def _equal_weight(x: T, y: T) -> float:
    return 1.0 if x == y else 0.0


def lcs_length(a: Sequence[T], b: Sequence[T]) -> int:
    """Length of the LCS of two sequences, in O(min(n,m)) space.

    Used by the sentence matcher, where only the *size* of the word-level
    common subsequence matters (the ``W`` in the paper's ``2W/L`` rule).
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return 0
    prefix, suffix = trim_common_affixes(a, b, lambda x, y: x == y)
    core_a = a[prefix:len(a) - suffix]
    core_b = b[prefix:len(b) - suffix]
    if not core_a or not core_b:
        return prefix + suffix
    prev = [0] * (len(core_b) + 1)
    for item_a in core_a:
        cur = [0] * (len(core_b) + 1)
        for j, item_b in enumerate(core_b, start=1):
            if item_a == item_b:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = cur[j - 1] if cur[j - 1] >= prev[j] else prev[j]
        prev = cur
    return prefix + suffix + prev[-1]


def similarity_ratio(a: Sequence[T], b: Sequence[T]) -> float:
    """The paper's ``2W / L`` measure.

    ``W`` is the LCS length of the two sequences and ``L`` the sum of
    their lengths.  1.0 means identical, 0.0 means nothing in common.
    Two empty sequences are defined as identical.
    """
    total = len(a) + len(b)
    if total == 0:
        return 1.0
    return 2.0 * lcs_length(a, b) / total


def _forward_scores(
    a: Sequence[T], b: Sequence[T], weight: WeightFn
) -> List[float]:
    """Last row of the weighted-LCS DP table for ``a`` vs ``b``.

    The inner loop is the hottest code in HtmlDiff, so it avoids
    per-row list allocation (two reused buffers) and per-cell index
    arithmetic (the diagonal and left cells ride along as locals);
    the ``weight`` callback is the remaining per-cell cost, which the
    token matcher keeps cheap via id interning and its exact-equality
    fast lane.
    """
    m = len(b)
    prev = [0.0] * (m + 1)
    if not a:
        return prev
    cur = [0.0] * (m + 1)
    for item_a in a:
        diag = prev[0]
        left = 0.0
        j = 0
        for item_b in b:
            j += 1
            up = prev[j]
            best = up if up >= left else left
            w = weight(item_a, item_b)
            if w > 0.0:
                cand = diag + w
                if cand > best:
                    best = cand
            cur[j] = best
            diag = up
            left = best
        prev, cur = cur, prev
    return prev


def weighted_lcs_score(
    a: Sequence[T], b: Sequence[T], weight: WeightFn
) -> float:
    """Total weight of the heaviest common subsequence."""
    if not a or not b:
        return 0.0
    return _forward_scores(a, b, weight)[-1]


def _best_single_row(
    a_item: T, b: Sequence[T], weight: WeightFn
) -> List[Match]:
    """Base case: one token of A against all of B — pick the heaviest."""
    best_j = -1
    best_w = 0.0
    for j, item_b in enumerate(b):
        w = weight(a_item, item_b)
        if w > best_w:
            best_w = w
            best_j = j
    if best_j < 0:
        return []
    return [(0, best_j, best_w)]


def _hirschberg(
    a: Sequence[T],
    b: Sequence[T],
    weight: WeightFn,
    a_off: int,
    b_off: int,
    out: List[Match],
) -> None:
    """Linear-space divide-and-conquer weighted LCS (Hirschberg 1977)."""
    if not a or not b:
        return
    if len(a) == 1:
        for i, j, w in _best_single_row(a[0], b, weight):
            out.append((a_off + i, b_off + j, w))
        return
    mid = len(a) // 2
    forward = _forward_scores(a[:mid], b, weight)
    backward = _forward_scores(a[mid:][::-1], b[::-1], weight)
    # Choose the split of B maximizing forward[k] + backward[m-k].
    m = len(b)
    best_k = 0
    best_score = float("-inf")
    for k in range(m + 1):
        score = forward[k] + backward[m - k]
        if score > best_score:
            best_score = score
            best_k = k
    _hirschberg(a[:mid], b[:best_k], weight, a_off, b_off, out)
    _hirschberg(a[mid:], b[best_k:], weight, a_off + mid, b_off + best_k, out)


def weighted_lcs_pairs(
    a: Sequence[T], b: Sequence[T], weight: WeightFn
) -> List[Match]:
    """Heaviest common subsequence as explicit (i, j, weight) matches.

    ``weight(x, y)`` must return a non-negative weight; 0 means the
    tokens do not match.  Matches are returned in increasing order of
    both indices.  Runs in O(n*m) time and O(min over recursion) space.

    Precondition for the affix-trimming optimization: an identical token
    pair must score at least as high as any other pairing of either
    token (``weight(x, x) >= weight(x, y)`` for all ``y``).  HtmlDiff's
    weights satisfy this — an identical sentence match has weight equal
    to the sentence's full length, the ceiling for any fuzzy match — and
    under it trimming is provably lossless (exchange argument).
    """
    out: List[Match] = []
    if not a or not b:
        return out
    # Speed optimization: peel identical ends with full weight.
    prefix, suffix = trim_common_affixes(a, b, lambda x, y: weight(x, y) > 0.0 and x == y)
    for i in range(prefix):
        out.append((i, i, weight(a[i], b[i])))
    core_a = a[prefix:len(a) - suffix]
    core_b = b[prefix:len(b) - suffix]
    _hirschberg(core_a, core_b, weight, prefix, prefix, out)
    # The core matches carry A-offsets starting at ``prefix`` and the
    # same for B (the prefix lengths are equal by construction).
    for k in range(suffix):
        i = len(a) - suffix + k
        j = len(b) - suffix + k
        out.append((i, j, weight(a[i], b[j])))
    out.sort()
    return out


def canonicalize_pairs(
    a: Sequence[T],
    b: Sequence[T],
    pairs: Sequence[Match],
    key: Optional[Callable[[T], Hashable]] = None,
) -> List[Match]:
    """Slide every match to the earliest equal-key occurrences.

    A heaviest common subsequence is rarely unique: pages are full of
    repeated tokens (``<P>``, ``</LI>``, ...), and any solver breaks
    the resulting ties by accidents of its recursion order.  Two exact
    algorithms — or one algorithm with and without a decomposition
    speedup — can then return different, equally-heavy alignments.

    This pass quotients those accidents away.  Scanning the matches in
    order, each pair is moved to the first positions (after the
    previous pair) holding the *same keys* as the matched items.  Keys
    determine weights, so the result is a common subsequence of the
    same total weight; and any two solutions that pair the same key
    sequence — differing only in *which* occurrence of a repeated
    token they picked — canonicalize to the same alignment.  O((n + m)
    + k log n) with per-key position lists and bisection.
    """
    if not pairs:
        return list(pairs)
    if key is not None:
        a = [key(x) for x in a]
        b = [key(y) for y in b]
    pos_a: Dict[Hashable, List[int]] = {}
    for i, x in enumerate(a):
        pos_a.setdefault(x, []).append(i)
    pos_b: Dict[Hashable, List[int]] = {}
    for j, y in enumerate(b):
        pos_b.setdefault(y, []).append(j)
    out: List[Match] = []
    prev_i = prev_j = -1
    for i, j, w in pairs:
        occ_a = pos_a[a[i]]
        occ_b = pos_b[b[j]]
        # First occurrence after the previous pair; (i, j) itself
        # qualifies, so the bisect always lands on an index <= it.
        ci = occ_a[bisect_left(occ_a, prev_i + 1)]
        cj = occ_b[bisect_left(occ_b, prev_j + 1)]
        out.append((ci, cj, w))
        prev_i, prev_j = ci, cj
    return out


def lcs_pairs(a: Sequence[T], b: Sequence[T]) -> List[Match]:
    """Unweighted LCS as (i, j, 1.0) matches (equality-based)."""
    return weighted_lcs_pairs(a, b, _equal_weight)
