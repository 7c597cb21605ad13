"""The Apriori frequent-itemset miner (Agrawal & Srikant, VLDB 1994).

This is the algorithm the paper uses to compute lits-models
(Section 6.1.1: "We used the Apriori algorithm [5] to compute the set of
frequent itemsets"). Level-wise search: frequent ``k``-itemsets are
joined on their ``(k-1)``-prefix to form candidates, candidates with any
infrequent subset are pruned, and the survivors are counted against the
dataset's bitmap index -- one batched support-counting pass per level.
"""

from __future__ import annotations

import numpy as np

from repro.data.transactions import BitmapIndex, TransactionDataset
from repro.errors import InvalidParameterError


def _frequent_singletons(
    index: BitmapIndex, min_count: int
) -> dict[frozenset[int], int]:
    """Counts of all single items meeting the support threshold."""
    counts = index.item_support_counts()
    return {
        frozenset((item,)): int(c)
        for item, c in enumerate(counts)
        if c >= min_count
    }


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


def apriori(
    dataset: TransactionDataset,
    min_support: float,
    max_len: int | None = None,
) -> dict[frozenset[int], float]:
    """Mine all itemsets with support >= ``min_support``.

    Parameters
    ----------
    dataset:
        The transaction dataset (anything exposing ``len`` and a bitmap
        ``index`` -- an immutable :class:`TransactionDataset` or a
        growing :class:`repro.stream.chunks.TransactionLog`).
    min_support:
        Relative minimum support in ``(0, 1]`` (the paper's ``ms``).
    max_len:
        Optional cap on itemset size (``None`` = unbounded).

    Returns
    -------
    dict
        Mapping itemset -> relative support. Empty for an empty dataset.
    """
    if len(dataset) == 0:
        if not 0.0 < min_support <= 1.0:
            raise InvalidParameterError(
                f"min_support must be in (0, 1], got {min_support}"
            )
        return {}
    return apriori_from_index(dataset.index, min_support, max_len=max_len)


def apriori_from_index(
    index: BitmapIndex,
    min_support: float,
    max_len: int | None = None,
) -> dict[frozenset[int], float]:
    """Level-wise mining straight off a (possibly incremental) index.

    The streaming layer keeps one :class:`BitmapIndex` alive and
    appends to it as rows arrive; re-mining after an append runs over
    the extended stripes without any rebuild, so this entry point takes
    the index itself rather than a dataset.
    """
    if not 0.0 < min_support <= 1.0:
        raise InvalidParameterError(
            f"min_support must be in (0, 1], got {min_support}"
        )
    n = index.n_transactions
    if n == 0:
        return {}
    # A set is frequent iff count/n >= min_support, i.e. count >= ceil(ms*n).
    min_count = int(np.ceil(min_support * n))
    min_count = max(min_count, 1)

    result_counts: dict[frozenset[int], int] = {}
    level = _frequent_singletons(index, min_count)
    result_counts.update(level)

    k = 1
    while level and (max_len is None or k < max_len):
        frequent_k = [tuple(sorted(s)) for s in level]
        frequent_set = set(level)
        candidates = _generate_candidates(frequent_k, frequent_set)
        level = {}
        if candidates:
            # one batched support-counting pass per level
            counts = index.support_counts(candidates)
            level = {
                frozenset(candidate): int(count)
                for candidate, count in zip(candidates, counts)
                if count >= min_count
            }
        result_counts.update(level)
        k += 1

    return {s: c / n for s, c in result_counts.items()}
