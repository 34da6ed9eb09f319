"""Hunt–McIlroy differential file comparison.

The paper cites Hunt & McIlroy (Bell Labs CSTR #41, 1975) as the
algorithm behind UNIX ``diff``, which AIDE uses in two places: RCS
stores reverse deltas computed by ``diff``, and the ``rcsdiff`` CGI
falls back to plain text diffs for non-HTML files.  The algorithm is
also the baseline HtmlDiff is contrasted with ("line-based comparison
utilities such as UNIX diff clearly are ill-suited...").

The classic formulation finds the LCS of two line sequences by
considering only *candidate* matches: for each line of A, the positions
in B holding an equal line, processed so that a longest chain of
strictly increasing (i, j) pairs emerges.  Complexity is
O((R + N) log N) where R is the number of matching pairs — fast on
typical text where most lines are unique.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress, count, islice
from operator import ne
from typing import Dict, Hashable, List, Sequence, Tuple

__all__ = ["hunt_mcilroy_pairs", "hunt_mcilroy_length", "hunt_mcilroy_window"]


def _candidate_chain(
    a: Sequence[Hashable], b: Sequence[Hashable]
) -> List[Tuple[int, int]]:
    """Longest chain of matching (i, j) pairs via patience-style LIS.

    For each position ``i`` in A we enumerate the positions of equal
    lines in B in *decreasing* order; a longest strictly-increasing
    subsequence over the j-values then yields the LCS.  This is the
    Hunt–Szymanski refinement of Hunt–McIlroy and has the same output.
    """
    occurrences: Dict[Hashable, List[int]] = {}
    for j, line in enumerate(b):
        occurrences.setdefault(line, []).append(j)

    # tails[k] = smallest j ending an increasing chain of length k+1
    tails: List[int] = []
    # For reconstruction: choice[k] holds (i, j, parent_index_in_links)
    links: List[Tuple[int, int, int]] = []
    tail_link: List[int] = []  # index into links for each tails slot

    for i, line in enumerate(a):
        positions = occurrences.get(line)
        if not positions:
            continue
        for j in reversed(positions):
            k = bisect_left(tails, j)
            parent = tail_link[k - 1] if k > 0 else -1
            links.append((i, j, parent))
            if k == len(tails):
                tails.append(j)
                tail_link.append(len(links) - 1)
            else:
                tails[k] = j
                tail_link[k] = len(links) - 1

    if not tails:
        return []
    chain: List[Tuple[int, int]] = []
    cursor = tail_link[-1]
    while cursor != -1:
        i, j, parent = links[cursor]
        chain.append((i, j))
        cursor = parent
    chain.reverse()
    return chain


def _common_affixes(a: Sequence[Hashable],
                    b: Sequence[Hashable]) -> Tuple[int, int]:
    """(prefix, suffix) lengths of equal lines shared by ``a`` and
    ``b``, found at C speed; the suffix never overlaps the prefix."""
    limit = min(len(a), len(b))
    prefix = next(compress(count(), map(ne, a, b)), limit)
    bound = limit - prefix
    suffix = next(compress(count(), map(
        ne, islice(reversed(a), bound), reversed(b))), bound)
    return prefix, suffix


def hunt_mcilroy_window(
    a: Sequence[Hashable], b: Sequence[Hashable]
) -> Tuple[int, int, List[Tuple[int, int]]]:
    """``(prefix, suffix, core)``: the common-affix lengths, and the LCS
    pairs of the window between them (absolute indices).  Successive
    versions share most of their head and tail, so only the window
    pays for the candidate chain."""
    n, m = len(a), len(b)
    prefix, suffix = _common_affixes(a, b)
    if prefix + suffix == min(n, m):
        return prefix, suffix, []  # one side's window is empty
    core = _candidate_chain(a[prefix:n - suffix], b[prefix:m - suffix])
    if prefix:
        core = [(i + prefix, j + prefix) for i, j in core]
    return prefix, suffix, core


def hunt_mcilroy_pairs(
    a: Sequence[Hashable], b: Sequence[Hashable]
) -> List[Tuple[int, int]]:
    """Matched (index_in_a, index_in_b) pairs of an LCS of ``a`` and ``b``."""
    n, m = len(a), len(b)
    prefix, suffix, core = hunt_mcilroy_window(a, b)
    pairs = [(i, i) for i in range(prefix)]
    pairs.extend(core)
    pairs.extend(
        (n - suffix + k, m - suffix + k) for k in range(suffix)
    )
    return pairs


def hunt_mcilroy_length(a: Sequence[Hashable], b: Sequence[Hashable]) -> int:
    """LCS length via the candidate-chain method."""
    return len(hunt_mcilroy_pairs(a, b))
