"""FP-growth frequent-itemset mining (Han, Pei & Yin, SIGMOD 2000).

A second, candidate-generation-free miner, kept as a test oracle: it
shares no code with the array-native Apriori of
:mod:`repro.mining.apriori` beyond the level-1 item counts, so equal
models from the two are an independent check on both. The tests and
the miner ablation bench import it from here, as they import
``apriori_oracle``; it is 35-85x slower than the array Apriori on a
fleet of stores, so no engine path uses it.

Implementation: a standard FP-tree with header-table node links;
conditional pattern bases are mined recursively, with the usual
single-path shortcut (a chain tree yields all subsets directly).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from repro.data.transactions import TransactionDataset
from repro.errors import InvalidParameterError
from repro.mining.itemsets import frequent_items


@dataclass
class _FPNode:
    """One FP-tree node: an item with a count and tree/header links."""

    item: int
    count: int = 0
    parent: "_FPNode | None" = None
    children: dict[int, "_FPNode"] = field(default_factory=dict)
    next_link: "_FPNode | None" = None  # header-table chain


class _FPTree:
    """An FP-tree over (ordered) item lists with a header table."""

    def __init__(self) -> None:
        self.root = _FPNode(item=-1)
        self.header: dict[int, _FPNode] = {}
        self.counts: dict[int, int] = {}

    def insert(self, items: list[int], count: int) -> None:
        node = self.root
        for item in items:
            child = node.children.get(item)
            if child is None:
                child = _FPNode(item=item, parent=node)
                node.children[item] = child
                # Push onto the header chain for this item.
                child.next_link = self.header.get(item)
                self.header[item] = child
            child.count += count
            node = child
        for item in items:
            self.counts[item] = self.counts.get(item, 0) + count

    def node_chain(self, item: int):
        node = self.header.get(item)
        while node is not None:
            yield node
            node = node.next_link

    def is_single_path(self) -> tuple[bool, list[tuple[int, int]]]:
        """Whether the tree is one chain; if so, its (item, count) path."""
        path: list[tuple[int, int]] = []
        node = self.root
        while node.children:
            if len(node.children) > 1:
                return False, []
            node = next(iter(node.children.values()))
            path.append((node.item, node.count))
        return True, path


def _build_tree(
    item_lists: list[tuple[list[int], int]],
) -> _FPTree:
    tree = _FPTree()
    for items, count in item_lists:
        if items:
            tree.insert(items, count)
    return tree


def _mine_tree(
    tree: _FPTree,
    suffix: tuple[int, ...],
    min_count: int,
    max_len: int | None,
    out: dict[frozenset[int], int],
) -> None:
    single, path = tree.is_single_path()
    if single:
        # Every subset of the path, combined with the suffix, is frequent
        # with the minimum count along the chosen items.
        eligible = [(item, count) for item, count in path if count >= min_count]
        limit = len(eligible)
        if max_len is not None:
            limit = min(limit, max_len - len(suffix))
        for k in range(1, limit + 1):
            for combo in combinations(eligible, k):
                count = min(c for _, c in combo)
                if count >= min_count:
                    itemset = frozenset(suffix) | {i for i, _ in combo}
                    out[itemset] = count
        return

    # General case: mine each header item (ascending frequency order).
    items = sorted(tree.counts, key=lambda i: (tree.counts[i], i))
    for item in items:
        support = tree.counts[item]
        if support < min_count:
            continue
        itemset = frozenset(suffix) | {item}
        out[itemset] = support
        if max_len is not None and len(itemset) >= max_len:
            continue
        # Conditional pattern base: prefix paths of every node for `item`.
        conditional: list[tuple[list[int], int]] = []
        for node in tree.node_chain(item):
            prefix: list[int] = []
            parent = node.parent
            while parent is not None and parent.item != -1:
                prefix.append(parent.item)
                parent = parent.parent
            if prefix:
                conditional.append((list(reversed(prefix)), node.count))
        if not conditional:
            continue
        # Keep only items frequent within the conditional base.
        cond_counts: dict[int, int] = {}
        for prefix, count in conditional:
            for i in prefix:
                cond_counts[i] = cond_counts.get(i, 0) + count
        keep = {i for i, c in cond_counts.items() if c >= min_count}
        filtered = [
            ([i for i in prefix if i in keep], count)
            for prefix, count in conditional
        ]
        filtered = [(p, c) for p, c in filtered if p]
        if not filtered:
            continue
        subtree = _build_tree(filtered)
        _mine_tree(subtree, tuple(itemset), min_count, max_len, out)


def fpgrowth(
    dataset: TransactionDataset,
    min_support: float,
    max_len: int | None = None,
) -> dict[frozenset[int], float]:
    """Mine all itemsets with support >= ``min_support`` via FP-growth.

    Drop-in equivalent of :func:`repro.mining.apriori.apriori`: same
    arguments, same result mapping (itemset -> relative support).
    """
    if not 0.0 < min_support <= 1.0:
        raise InvalidParameterError(
            f"min_support must be in (0, 1], got {min_support}"
        )
    n = len(dataset)
    if n == 0:
        return {}
    min_count = max(int(np.ceil(min_support * n)), 1)

    # Pass 1: frequent single items (shared batched pass with Apriori),
    # in descending frequency order.
    frequent = frequent_items(dataset, min_count)
    if not frequent:
        return {}
    order = {
        item: rank
        for rank, item in enumerate(
            sorted(frequent, key=lambda i: (-frequent[i], i))
        )
    }

    # Pass 2: insert ordered, filtered transactions.
    item_lists = [
        (sorted((i for i in txn if i in frequent), key=order.__getitem__), 1)
        for txn in dataset
    ]
    tree = _build_tree(item_lists)

    out: dict[frozenset[int], int] = {}
    _mine_tree(tree, (), min_count, max_len, out)
    return {itemset: count / n for itemset, count in out.items()}
