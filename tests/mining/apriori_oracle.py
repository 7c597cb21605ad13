"""The tuple-join Apriori: the oracle the array-native miner is pinned to.

This is the level-wise search as the engine first ran it -- frequent
itemsets as sorted tuples, a Python join on the shared ``k-1`` prefix,
a frozenset prune, and one ``BitmapIndex.support_counts`` pass per
level from level 2 on. ``repro.mining.apriori`` must return exactly the
same dict (keys, order, and float supports); the miner ablation bench
times the two against each other.
"""

from __future__ import annotations

import numpy as np

from repro.data.transactions import BitmapIndex


def _generate_candidates(
    frequent_k: list[tuple[int, ...]], frequent_set: set[frozenset[int]]
) -> list[tuple[int, ...]]:
    """Join step + prune step of Apriori candidate generation.

    ``frequent_k`` holds the frequent k-itemsets as sorted tuples; two are
    joined when they share their first ``k-1`` items. A candidate
    survives only if every k-subset is frequent.
    """
    candidates: list[tuple[int, ...]] = []
    frequent_sorted = sorted(frequent_k)
    n = len(frequent_sorted)
    for i in range(n):
        a = frequent_sorted[i]
        prefix = a[:-1]
        for j in range(i + 1, n):
            b = frequent_sorted[j]
            if b[:-1] != prefix:
                break  # sorted order: no further joins share this prefix
            candidate = a + (b[-1],)
            # Prune: all k-subsets must be frequent. Subsets missing the
            # last one or two items are the joined pair, already known.
            if all(
                frozenset(candidate[:m] + candidate[m + 1 :]) in frequent_set
                for m in range(len(candidate) - 2)
            ):
                candidates.append(candidate)
    return candidates


def apriori_tuple_join(
    index: BitmapIndex, min_support: float, max_len: int | None = None
) -> dict[frozenset[int], float]:
    """Oracle: ``apriori_from_index`` by tuple join and batched gathers."""
    n = index.n_transactions
    if n == 0:
        return {}
    min_count = max(int(np.ceil(min_support * n)), 1)
    level = {
        frozenset((item,)): int(c)
        for item, c in enumerate(index.item_support_counts())
        if c >= min_count
    }
    result_counts = dict(level)
    k = 1
    while level and (max_len is None or k < max_len):
        frequent_k = [tuple(sorted(s)) for s in level]
        candidates = _generate_candidates(frequent_k, set(level))
        level = {}
        if candidates:
            counts = index.support_counts(candidates)
            level = {
                frozenset(candidate): int(count)
                for candidate, count in zip(candidates, counts)
                if count >= min_count
            }
        result_counts.update(level)
        k += 1
    return {s: c / n for s, c in result_counts.items()}
