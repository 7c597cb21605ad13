"""Tests for the Apriori miner and itemset utilities."""

from __future__ import annotations

import pytest
from apriori_oracle import _generate_candidates

from repro.data.quest_basket import generate_basket
from repro.data.transactions import TransactionDataset
from repro.errors import InvalidParameterError
from repro.mining.apriori import apriori
from repro.mining.itemsets import (
    brute_force_frequent,
    canonical,
    sort_itemsets,
    supports,
)


class TestAprioriCorrectness:
    def test_matches_brute_force_on_fixture(self, small_transactions):
        for ms in (0.1, 0.2, 0.3, 0.5):
            fast = apriori(small_transactions, ms)
            slow = brute_force_frequent(small_transactions, ms)
            assert fast.keys() == slow.keys()
            for k in fast:
                assert fast[k] == pytest.approx(slow[k])

    def test_matches_brute_force_on_generated_data(self):
        d = generate_basket(
            300, n_items=12, avg_transaction_len=4, n_patterns=8,
            avg_pattern_len=3, seed=13,
        )
        fast = apriori(d, 0.1)
        slow = brute_force_frequent(d, 0.1)
        assert fast.keys() == slow.keys()

    def test_supports_are_relative(self, small_transactions):
        result = apriori(small_transactions, 0.2)
        assert all(0.2 <= s <= 1.0 for s in result.values())

    def test_downward_closure(self, small_transactions):
        """Every subset of a frequent itemset is frequent."""
        result = apriori(small_transactions, 0.1)
        for itemset in result:
            for item in itemset:
                subset = itemset - {item}
                if subset:
                    assert subset in result
                    assert result[subset] >= result[itemset]

    def test_max_len_caps_itemset_size(self, small_transactions):
        result = apriori(small_transactions, 0.05, max_len=1)
        assert all(len(s) == 1 for s in result)

    def test_empty_dataset(self):
        d = TransactionDataset([], n_items=3)
        assert apriori(d, 0.5) == {}

    def test_threshold_validation(self, small_transactions):
        with pytest.raises(InvalidParameterError):
            apriori(small_transactions, 0.0)
        with pytest.raises(InvalidParameterError):
            apriori(small_transactions, 1.5)

    def test_min_support_one(self):
        d = TransactionDataset([(0, 1), (0, 1), (0,)], n_items=2)
        result = apriori(d, 1.0)
        assert result == {frozenset({0}): 1.0}


class TestCandidateGeneration:
    def test_join_requires_shared_prefix(self):
        frequent = [(0, 1), (0, 2), (1, 2)]
        frequent_set = {frozenset(t) for t in frequent}
        candidates = _generate_candidates(frequent, frequent_set)
        assert candidates == [(0, 1, 2)]

    def test_prune_removes_unsupported_subsets(self):
        # {1,2} is missing, so (0,1,2) must be pruned.
        frequent = [(0, 1), (0, 2)]
        frequent_set = {frozenset(t) for t in frequent}
        assert _generate_candidates(frequent, frequent_set) == []

    def test_no_join_without_prefix_match(self):
        frequent = [(0, 1), (2, 3)]
        frequent_set = {frozenset(t) for t in frequent}
        assert _generate_candidates(frequent, frequent_set) == []


class TestItemsetUtilities:
    def test_canonical(self):
        assert canonical([3, 1, 3]) == frozenset({1, 3})

    def test_sort_itemsets_by_size_then_lex(self):
        sets = [frozenset({2}), frozenset({1, 2}), frozenset({1})]
        assert sort_itemsets(sets) == [
            frozenset({1}), frozenset({2}), frozenset({1, 2}),
        ]

    def test_supports_vector(self, small_transactions):
        vals = supports(small_transactions, [frozenset({0}), frozenset({9 % 5})])
        assert len(vals) == 2
        assert vals[0] == pytest.approx(0.6)
