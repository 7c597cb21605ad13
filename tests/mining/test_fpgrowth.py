"""Tests for FP-growth: equality with Apriori and brute force."""

from __future__ import annotations

import pytest
from fpgrowth_oracle import fpgrowth
from hypothesis import given, settings, strategies as st

from repro.data.quest_basket import generate_basket
from repro.data.transactions import TransactionDataset
from repro.errors import InvalidParameterError
from repro.mining.apriori import apriori
from repro.mining.itemsets import brute_force_frequent


class TestFpGrowth:
    def test_matches_brute_force_on_fixture(self, small_transactions):
        for ms in (0.1, 0.2, 0.3, 0.5):
            fast = fpgrowth(small_transactions, ms)
            slow = brute_force_frequent(small_transactions, ms)
            assert fast.keys() == slow.keys()
            for itemset in fast:
                assert fast[itemset] == pytest.approx(slow[itemset])

    def test_matches_apriori_on_generated_data(self):
        d = generate_basket(
            600, n_items=40, avg_transaction_len=6, n_patterns=30,
            avg_pattern_len=3, seed=19,
        )
        for ms in (0.02, 0.05, 0.1):
            a = apriori(d, ms)
            f = fpgrowth(d, ms)
            assert a.keys() == f.keys()
            for itemset in a:
                assert a[itemset] == pytest.approx(f[itemset])

    def test_max_len(self, small_transactions):
        result = fpgrowth(small_transactions, 0.1, max_len=2)
        assert all(len(s) <= 2 for s in result)
        unbounded = fpgrowth(small_transactions, 0.1)
        # max_len only removes the longer sets.
        assert result == {s: v for s, v in unbounded.items() if len(s) <= 2}

    def test_single_path_shortcut(self):
        """A dataset whose FP-tree is a chain exercises the subset fast path."""
        d = TransactionDataset(
            [(0, 1, 2)] * 5 + [(0, 1)] * 3 + [(0,)] * 2, n_items=3
        )
        result = fpgrowth(d, 0.2)
        expected = brute_force_frequent(d, 0.2)
        assert result.keys() == expected.keys()
        for itemset in result:
            assert result[itemset] == pytest.approx(expected[itemset])

    def test_empty_dataset(self):
        assert fpgrowth(TransactionDataset([], n_items=2), 0.5) == {}

    def test_no_frequent_items(self):
        d = TransactionDataset([(0,), (1,), (2,)], n_items=3)
        assert fpgrowth(d, 0.9) == {}

    def test_threshold_validation(self, small_transactions):
        with pytest.raises(InvalidParameterError):
            fpgrowth(small_transactions, 0.0)

    def test_usable_as_lits_model_backend(self, small_transactions):
        from repro.core.lits import LitsModel

        supports = fpgrowth(small_transactions, 0.2)
        model = LitsModel(supports, 0.2, small_transactions.n_items)
        mined = LitsModel.mine(small_transactions, 0.2)
        assert set(model.itemsets) == set(mined.itemsets)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True),
        min_size=5,
        max_size=30,
    ),
    st.sampled_from([0.15, 0.3, 0.5]),
)
def test_fpgrowth_equals_apriori_property(txns, min_support):
    d = TransactionDataset([tuple(t) for t in txns], n_items=6)
    a = apriori(d, min_support)
    f = fpgrowth(d, min_support)
    assert a.keys() == f.keys()
    for itemset in a:
        assert a[itemset] == pytest.approx(f[itemset])
