"""Hypothesis properties: shard-merge and incremental-append correctness.

The two invariants the whole streaming layer rests on:

* **merge**: for ANY partition of a transaction bag into shards
  (including empty shards), the sum of per-shard sketches equals the
  single-scan counts over the whole bag -- with the empty itemset
  (support = everything) tracked too;
* **append**: a BitmapIndex grown by arbitrary appends answers every
  support query exactly like one built from the full data at once.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from wide_executors import WideSerial

from repro.data.transactions import BitmapIndex, TransactionDataset
from repro.stream.executor import sharded_support_sketch
from repro.stream.sketch import SupportSketch

N_ITEMS = 12

transactions_strategy = st.lists(
    st.lists(
        st.integers(min_value=0, max_value=N_ITEMS - 1), max_size=6
    ),
    max_size=60,
)

itemsets_strategy = st.lists(
    st.lists(
        st.integers(min_value=0, max_value=N_ITEMS - 1), max_size=4
    ),
    min_size=1,
    max_size=15,
).map(lambda sets: [*sets, []])  # always include the empty itemset


@st.composite
def partitioned_transactions(draw):
    """A transaction bag plus an arbitrary partition into shards."""
    txns = draw(transactions_strategy)
    n_shards = draw(st.integers(min_value=1, max_value=6))
    assignment = draw(
        st.lists(
            st.integers(min_value=0, max_value=n_shards - 1),
            min_size=len(txns),
            max_size=len(txns),
        )
    )
    shards: list[list] = [[] for _ in range(n_shards)]
    for txn, shard in zip(txns, assignment):
        shards[shard].append(txn)
    return txns, shards


class TestShardMergeProperty:
    @given(data=partitioned_transactions(), itemsets=itemsets_strategy)
    @settings(max_examples=60, deadline=None)
    def test_sum_of_shard_sketches_equals_single_scan(self, data, itemsets):
        txns, shards = data
        single = SupportSketch.from_transactions(txns, itemsets, N_ITEMS)
        merged = sum(
            (
                SupportSketch.from_transactions(s, itemsets, N_ITEMS)
                for s in shards
            ),
            SupportSketch.empty(itemsets, N_ITEMS),
        )
        assert merged == single
        # The empty itemset's count is the total transaction count.
        assert merged.count_of(()) == len(txns)

    @given(data=partitioned_transactions(), itemsets=itemsets_strategy)
    @settings(max_examples=30, deadline=None)
    def test_sharded_helper_equals_single_scan(self, data, itemsets):
        txns, _ = data
        # more workers than rows leaves trailing shards empty
        for workers in (1, 3, len(txns) + 1):
            merged = sharded_support_sketch(
                txns, itemsets, N_ITEMS, WideSerial(workers)
            )
            assert merged == SupportSketch.from_transactions(
                txns, itemsets, N_ITEMS
            )

    @given(data=partitioned_transactions(), itemsets=itemsets_strategy)
    @settings(max_examples=30, deadline=None)
    def test_prefix_subtraction_equals_suffix_scan(self, data, itemsets):
        """whole - prefix == suffix: the sliding-window retirement step."""
        txns, _ = data
        cut = len(txns) // 2
        whole = SupportSketch.from_transactions(txns, itemsets, N_ITEMS)
        prefix = SupportSketch.from_transactions(txns[:cut], itemsets, N_ITEMS)
        suffix = SupportSketch.from_transactions(txns[cut:], itemsets, N_ITEMS)
        assert whole - prefix == suffix


@st.composite
def chunked_transactions(draw):
    """A transaction bag plus an arbitrary chunking (in order)."""
    txns = draw(transactions_strategy)
    cuts = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(txns)),
            max_size=5,
        )
    )
    bounds = sorted(set(cuts) | {0, len(txns)})
    chunks = [
        txns[lo:hi] for lo, hi in zip(bounds, bounds[1:])
    ]
    return txns, chunks


class TestIncrementalAppendProperty:
    @given(data=chunked_transactions(), itemsets=itemsets_strategy)
    @settings(max_examples=60, deadline=None)
    def test_appended_index_equals_full_build(self, data, itemsets):
        txns, chunks = data
        canon = [tuple(sorted({int(i) for i in t})) for t in txns]
        full = BitmapIndex(canon, N_ITEMS)
        grown = BitmapIndex([], N_ITEMS)
        for chunk in chunks:
            grown.append(chunk)
        assert grown.n_transactions == full.n_transactions
        np.testing.assert_array_equal(
            grown.support_counts(itemsets), full.support_counts(itemsets)
        )
        np.testing.assert_array_equal(
            grown.item_support_counts(), full.item_support_counts()
        )

    @given(data=chunked_transactions())
    @settings(max_examples=30, deadline=None)
    def test_appended_index_agrees_with_brute_force(self, data):
        txns, chunks = data
        grown = BitmapIndex([], N_ITEMS)
        for chunk in chunks:
            grown.append(chunk)
        probes = [(0,), (1, 2), (0, 3, 5), ()]
        for probe in probes:
            brute = sum(1 for t in txns if set(probe) <= set(t))
            assert grown.support_count(probe) == brute

    @given(data=chunked_transactions(), itemsets=itemsets_strategy)
    @settings(max_examples=20, deadline=None)
    def test_transaction_log_tracks_dataset(self, data, itemsets):
        from repro.stream.chunks import TransactionLog

        txns, chunks = data
        log = TransactionLog(N_ITEMS)
        for chunk in chunks:
            log.append(chunk)
        dataset = TransactionDataset(txns, N_ITEMS)
        np.testing.assert_array_equal(
            log.index.support_counts(itemsets),
            dataset.index.support_counts(itemsets),
        )
        assert len(log) == len(dataset)
