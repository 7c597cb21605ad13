"""Property tests: the batched support counter against the seed loop.

The batched engine (stacked ``bitwise_and`` stripe reductions + one
popcount pass) must return byte-for-byte identical counts to the seed
per-itemset Python loop, kept as :meth:`BitmapIndex.support_counts_loop`,
for every dataset shape -- including empty itemsets, empty datasets, and
transaction counts that are not a multiple of 8.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.transactions import BitmapIndex, TransactionDataset

items = st.integers(min_value=0, max_value=11)
transactions = st.lists(st.frozensets(items, max_size=6), min_size=0, max_size=41)
itemset_lists = st.lists(st.frozensets(items, max_size=5), min_size=0, max_size=30)


@settings(deadline=None, max_examples=120)
@given(transactions=transactions, itemsets=itemset_lists)
def test_batched_counts_equal_seed_loop(transactions, itemsets):
    index = BitmapIndex([tuple(sorted(t)) for t in transactions], n_items=12)
    batched = index.support_counts(itemsets)
    loop = index.support_counts_loop(itemsets)
    assert batched.dtype == loop.dtype == np.int64
    assert batched.tolist() == loop.tolist()


class TestEdgeShapes:
    def test_empty_itemset_collection(self, small_transactions):
        assert small_transactions.index.support_counts([]).tolist() == []

    def test_empty_itemsets_count_every_transaction(self, small_transactions):
        counts = small_transactions.index.support_counts([(), frozenset()])
        assert counts.tolist() == [10, 10]

    def test_empty_dataset(self):
        index = BitmapIndex([], n_items=4)
        counts = index.support_counts([(), (0,), (1, 2)])
        assert counts.tolist() == [0, 0, 0]

    def test_non_multiple_of_eight_transaction_counts(self):
        for n in (1, 7, 9, 15, 17, 23):
            d = TransactionDataset([*([(0, 1)] * n), (1,)], n_items=3)
            counts = d.index.support_counts([(), (0,), (1,), (0, 1), (2,)])
            assert counts.tolist() == [n + 1, n, n + 1, n, 0]

    def test_duplicate_items_within_itemset(self, small_transactions):
        batched = small_transactions.index.support_counts([(0, 0, 1)])
        assert batched.tolist() == [small_transactions.support_count({0, 1})]
