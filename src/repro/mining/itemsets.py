"""Itemset utilities shared by the miner, the lits-models, and the tests.

An itemset is represented as a ``frozenset[int]`` throughout the library;
this module adds canonical ordering helpers, a brute-force support oracle
(used by the test-suite to validate Apriori and the bitmap index), and
bulk support counting against a :class:`~repro.data.transactions.TransactionDataset`.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from repro.data.transactions import TransactionDataset

Itemset = frozenset


def canonical(items: Iterable[int]) -> frozenset[int]:
    """The canonical frozenset form of an itemset."""
    return frozenset(int(i) for i in items)


def sort_itemsets(itemsets: Iterable[frozenset[int]]) -> list[frozenset[int]]:
    """Deterministic ordering: by size, then lexicographic on sorted items."""
    return sorted(itemsets, key=lambda s: (len(s), tuple(sorted(s))))


def support_counts(
    dataset: TransactionDataset, itemsets: Sequence[frozenset[int]]
) -> np.ndarray:
    """Absolute support counts of ``itemsets`` in one batched index pass."""
    return dataset.index.support_counts(itemsets)


def frequent_items(dataset: TransactionDataset, min_count: int) -> dict[int, int]:
    """Items meeting ``min_count``, from one vectorised popcount pass."""
    counts = dataset.index.item_support_counts()
    return {
        item: int(c) for item, c in enumerate(counts) if c >= min_count
    }


def supports(
    dataset: TransactionDataset, itemsets: Sequence[frozenset[int]]
) -> np.ndarray:
    """Relative supports (selectivities) of ``itemsets``."""
    n = len(dataset)
    counts = support_counts(dataset, itemsets)
    if n == 0:
        return np.zeros(len(itemsets))
    return counts / n


def brute_force_support_count(
    dataset: TransactionDataset, items: Iterable[int]
) -> int:
    """Reference implementation: subset test per transaction."""
    target = set(items)
    return sum(1 for t in dataset if target <= set(t))


def brute_force_frequent(
    dataset: TransactionDataset, min_support: float, max_len: int | None = None
) -> dict[frozenset[int], float]:
    """Reference frequent-itemset miner by exhaustive enumeration.

    Only feasible for tiny item universes; the tests use it as the oracle
    against which Apriori is checked.
    """
    n = len(dataset)
    if n == 0:
        return {}
    present = sorted({i for t in dataset for i in t})
    limit = max_len if max_len is not None else len(present)
    out: dict[frozenset[int], float] = {}
    for k in range(1, limit + 1):
        found_any = False
        for combo in combinations(present, k):
            count = brute_force_support_count(dataset, combo)
            support = count / n
            if support >= min_support:
                out[frozenset(combo)] = support
                found_any = True
        if not found_any:
            break
    return out
