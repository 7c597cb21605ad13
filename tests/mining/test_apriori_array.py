"""The array-native Apriori against the tuple-join oracle, bit for bit.

``apriori_from_index`` (popcount, Gram product, array join and prune)
must return exactly the dict the tuple-join oracle returns: the same
keys, in the same (canonical) order, with the same float supports --
over RAM, mmap and attached indexes, and through ``LitsModel.mine``.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from apriori_oracle import _generate_candidates, apriori_tuple_join
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lits import LitsModel
from repro.data.storage import MmapStripeStore
from repro.data.transactions import BitmapIndex, TransactionDataset
from repro.mining.apriori import _Levels, apriori, apriori_from_index

N_ITEMS = 9

#: rows as raw lists: duplicate and unsorted items are allowed
rows_strategy = st.lists(
    st.lists(st.integers(0, N_ITEMS - 1), max_size=7), max_size=60
)
supports = st.sampled_from([0.01, 0.05, 0.1, 0.2, 0.34, 0.5, 1.0])
lengths = st.sampled_from([1, 2, 3, None])


def _same(mined: dict, oracle: dict) -> None:
    assert list(mined) == list(oracle)  # keys and dict order
    assert [s.hex() for s in mined.values()] == [s.hex() for s in oracle.values()]


@settings(deadline=None, max_examples=150)
@given(rows=rows_strategy, min_support=supports, max_len=lengths)
def test_ram_index_matches_oracle(rows, min_support, max_len):
    index = BitmapIndex(rows, N_ITEMS)
    _same(
        apriori_from_index(index, min_support, max_len),
        apriori_tuple_join(index, min_support, max_len),
    )


@settings(deadline=None, max_examples=40)
@given(rows=rows_strategy, min_support=supports, max_len=lengths)
def test_mmap_and_attached_indexes_match_oracle(rows, min_support, max_len):
    oracle = apriori_tuple_join(BitmapIndex(rows, N_ITEMS), min_support, max_len)
    with tempfile.TemporaryDirectory() as tmp:
        owner = BitmapIndex(rows, N_ITEMS, store=MmapStripeStore(Path(tmp) / "s"))
        _same(apriori_from_index(owner, min_support, max_len), oracle)
        if owner.n_transactions:
            view = BitmapIndex.attach(owner.handle())
            _same(apriori_from_index(view, min_support, max_len), oracle)
        owner.store.close()


@settings(deadline=None, max_examples=60)
@given(rows=rows_strategy.filter(bool), min_support=supports, max_len=lengths)
def test_mined_model_is_unchanged(rows, min_support, max_len):
    """``LitsModel.mine`` skips the re-sort; the model must not notice."""
    dataset = TransactionDataset(rows, N_ITEMS)
    model = LitsModel.mine(dataset, min_support, max_len=max_len)
    oracle = apriori_tuple_join(dataset.index, min_support, max_len)
    resorted = LitsModel(oracle, min_support, N_ITEMS)
    assert model.itemsets == resorted.itemsets
    assert list(model.supports.items()) == list(resorted.supports.items())
    assert model == resorted


@settings(deadline=None, max_examples=40)
@given(
    rows=st.lists(
        st.lists(st.integers(0, 29), min_size=3, max_size=12), max_size=40
    ),
    max_len=st.sampled_from([3, 4, None]),
)
def test_dense_rows_reach_deep_levels(rows, max_len):
    """Long rows over a small universe: levels 3+ join and prune often."""
    index = BitmapIndex(rows, 30)
    _same(
        apriori_from_index(index, 0.1, max_len),
        apriori_tuple_join(index, 0.1, max_len),
    )


@settings(deadline=None, max_examples=60)
@given(
    rows=st.lists(
        st.lists(st.integers(0, 29), min_size=3, max_size=12), max_size=40
    ),
    min_support=st.sampled_from([0.05, 0.1, 0.2]),
)
def test_join_and_prune_equal_the_tuple_join(rows, min_support):
    """Every level's candidates, not just the final counts: a prune that
    keeps too much is invisible in the mined dict."""
    mined = apriori_from_index(BitmapIndex(rows, 30), min_support)
    by_len: dict[int, list[tuple[int, ...]]] = {}
    for itemset in mined:
        by_len.setdefault(len(itemset), []).append(tuple(sorted(itemset)))
    if not by_len:
        return
    levels = _Levels(30, np.array([t[0] for t in by_len[1]], dtype=np.int64))
    for k in range(1, max(by_len) + 1):
        if k > 1:
            ids = np.array(by_len[k], dtype=np.int64)
            row = {t: r for r, t in enumerate(by_len[k - 1])}
            levels.add(ids, np.array([row[t[:-1]] for t in by_len[k]]))
        candidates, prefix_rows = levels.candidates()
        frequent = by_len[k]
        oracle = _generate_candidates(frequent, set(map(frozenset, frequent)))
        assert [tuple(c) for c in candidates.tolist()] == oracle
        assert levels.ids[-1][prefix_rows].tolist() == candidates[:, :-1].tolist()


class TestEdgeShapes:
    @pytest.mark.parametrize("max_len", [1, 2, 3, None])
    def test_empty_store(self, max_len):
        assert apriori_from_index(BitmapIndex([], N_ITEMS), 0.5, max_len) == {}
        assert apriori(TransactionDataset([], N_ITEMS), 0.5, max_len) == {}

    def test_single_row(self):
        mined = apriori_from_index(BitmapIndex([(4, 1, 1, 7)], N_ITEMS), 1.0)
        _same(mined, apriori_tuple_join(BitmapIndex([(1, 4, 7)], N_ITEMS), 1.0))
        assert list(mined) == [
            frozenset({1}), frozenset({4}), frozenset({7}),
            frozenset({1, 4}), frozenset({1, 7}), frozenset({4, 7}),
            frozenset({1, 4, 7}),
        ]
        assert set(mined.values()) == {1.0}

    def test_zero_items(self):
        assert apriori_from_index(BitmapIndex([(), ()], 0), 0.5) == {}

    def test_one_item(self):
        index = BitmapIndex([(0,), (), (0, 0)], 1)
        mined = apriori_from_index(index, 0.5)
        assert mined == {frozenset({0}): 2 / 3}
        _same(mined, apriori_tuple_join(index, 0.5))

    def test_min_support_one(self):
        index = BitmapIndex([(0, 1, 2), (2, 1, 0), (0, 1)], 3)
        mined = apriori_from_index(index, 1.0)
        assert list(mined) == [frozenset({0}), frozenset({1}), frozenset({0, 1})]
        _same(mined, apriori_tuple_join(index, 1.0))

    def test_levels_stay_exact_past_one_byte(self):
        """Row counts that are not byte multiples, level by level."""
        rng = np.random.default_rng(7)
        rows = [tuple(rng.choice(12, size=5, replace=False)) for _ in range(203)]
        index = BitmapIndex(rows, 12)
        for max_len in (2, 3, None):
            _same(
                apriori_from_index(index, 0.05, max_len),
                apriori_tuple_join(index, 0.05, max_len),
            )
