"""The Apriori frequent-itemset miner (Agrawal & Srikant, VLDB 1994).

This is the algorithm the paper uses to compute lits-models
(Section 6.1.1: "We used the Apriori algorithm [5] to compute the set of
frequent itemsets"). Level-wise search, every level on integer arrays
against the dataset's bitmap index:

* **level 1** -- one popcount pass over every item stripe
  (:meth:`~repro.data.transactions.BitmapIndex.item_support_counts`);
* **level 2** -- every pair of frequent items at once: the supports are
  the entries of ``XᵀX`` for the 0/1 rows x frequent-items matrix ``X``,
  one row-blocked float32 Gram product
  (:meth:`~repro.data.transactions.BitmapIndex.gram_counts`), exact
  because no block holds 2**24 rows;
* **level k >= 3** -- frequent ``(k-1)``-itemsets, held as a
  lexicographically sorted id matrix, are joined on their shared prefix
  run, candidates with an infrequent subset are pruned by ``searchsorted``
  against the encoded frequent itemsets of each size, and the survivors
  are counted by one batched stripe gather
  (:meth:`~repro.data.transactions.BitmapIndex.itemset_counts`).

Each level comes out in lexicographic order, so the result is in
canonical order (size, then lexicographic) and
:meth:`~repro.core.lits.LitsModel.mine` builds its model without a
re-sort.
"""

from __future__ import annotations

import numpy as np

from repro.data.transactions import BitmapIndex, TransactionDataset
from repro.errors import InvalidParameterError


class _Levels:
    """The frequent itemsets of each size as sorted id arrays.

    Level ``k`` holds an ``(m, k)`` item-id matrix in lexicographic row
    order plus each row's code ``prefix_row * n_items + last_item``,
    where ``prefix_row`` is the row of its ``(k-1)``-prefix in level
    ``k-1`` (for ``k = 1``, the item's own row). Codes ascend with the
    rows, so membership of any itemset is one ``searchsorted`` per item,
    and codes never exceed ``rows * n_items``, far inside int64.
    """

    def __init__(self, n_items: int, items: np.ndarray) -> None:
        self.n_items = n_items
        self.items = items
        self.ids: list[np.ndarray] = [items[:, None]]
        self.codes: list[np.ndarray] = [np.arange(items.size, dtype=np.int64)]

    def add(self, ids: np.ndarray, prefix_rows: np.ndarray) -> None:
        self.ids.append(ids)
        self.codes.append(prefix_rows * self.n_items + ids[:, -1])

    def contains(self, sets: np.ndarray) -> np.ndarray:
        """Which rows of the ``(q, k)`` matrix ``sets`` are frequent.

        Every item of ``sets`` must be a frequent item (true of any
        subset of a joined candidate).
        """
        row = np.searchsorted(self.items, sets[:, 0])
        found = np.ones(sets.shape[0], dtype=bool)
        for column in range(1, sets.shape[1]):
            codes = self.codes[column]
            code = row * self.n_items + sets[:, column]
            row = np.minimum(np.searchsorted(codes, code), codes.size - 1)
            found &= codes[row] == code
        return found

    def candidates(self) -> tuple[np.ndarray, np.ndarray]:
        """Join + prune on the top level: ``(candidate ids, prefix rows)``.

        Rows sharing a ``(k-1)``-prefix form a contiguous run (the rows
        are sorted), and each pair of rows ``a < b`` in a run joins into
        ``a + (b[-1],)`` -- generated ``a``-major, hence again in
        lexicographic order. A candidate survives only if every
        ``k``-subset is frequent; the subsets dropping one of the last
        two items are the joined pair, already known.
        """
        ids, codes = self.ids[-1], self.codes[-1]
        m, k = ids.shape
        prefix = codes // self.n_items
        width = np.searchsorted(prefix, prefix, side="right") - np.arange(m) - 1
        first = np.repeat(np.arange(m), width)
        offset = np.arange(first.size) - np.repeat(np.cumsum(width) - width, width)
        candidates = np.concatenate(
            (ids[first], ids[first + 1 + offset, -1:]), axis=1
        )
        keep = np.ones(first.size, dtype=bool)
        for drop in range(k - 1):
            keep &= self.contains(np.delete(candidates, drop, axis=1))
        return candidates[keep], first[keep]


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
        Mapping itemset -> relative support, in canonical order (size,
        then lexicographic). Empty for an empty dataset.
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
    ids, counts = apriori_levels(index, min_support, max_len)
    result: dict[frozenset[int], float] = {}
    for level_ids, level_counts in zip(ids, counts):
        result.update(zip(
            map(frozenset, level_ids.tolist()),
            (level_counts / index.n_transactions).tolist(),
        ))
    return result


def apriori_levels(
    index: BitmapIndex,
    min_support: float,
    max_len: int | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """:func:`apriori_from_index` as arrays: per itemset length, the
    ``(m, length)`` item matrix of the frequent itemsets in
    lexicographic row order and their int64 counts. End to end, the
    levels are in canonical order."""
    if not 0.0 < min_support <= 1.0:
        raise InvalidParameterError(
            f"min_support must be in (0, 1], got {min_support}"
        )
    n = index.n_transactions
    if n == 0:
        return [], []
    # A set is frequent iff count/n >= min_support, i.e. count >= ceil(ms*n).
    min_count = max(int(np.ceil(min_support * n)), 1)

    singles = index.item_support_counts()
    items = np.flatnonzero(singles >= min_count)
    levels = _Levels(index.n_items, items)
    counts = [singles[items]]
    if items.size > 1 and (max_len is None or max_len > 1):
        gram = index.gram_counts(items)
        first, second = np.nonzero(np.triu(gram >= min_count, 1))
        levels.add(np.stack((items[first], items[second]), axis=1), first)
        counts.append(gram[first, second])
    while counts[-1].size and (max_len is None or len(counts) < max_len):
        candidates, prefix_rows = levels.candidates()
        if not candidates.size:
            break
        found = index.itemset_counts(candidates)
        frequent = found >= min_count
        levels.add(candidates[frequent], prefix_rows[frequent])
        counts.append(found[frequent])
    return levels.ids, counts
