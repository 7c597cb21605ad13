"""Tests for the deviation engine (delta_1, delta, and the result object)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.aggregate import MAX, SUM
from repro.core.deviation import (
    _counts_from_models,
    deviation,
    deviation_over_structure,
)
from repro.core.difference import ABSOLUTE, SCALED
from repro.core.dtree_model import DtModel
from repro.core.gcr import gcr
from repro.core.lits import LitsModel
from repro.core.model import LitsStructure
from repro.mining.tree.builder import TreeParams


class TestLitsDeviation:
    def test_self_deviation_is_zero(self, basket_pair):
        d1, _ = basket_pair
        m = LitsModel.mine(d1, 0.05)
        assert deviation(m, m, d1, d1).value == pytest.approx(0.0)

    def test_symmetry_under_fa(self, basket_pair):
        d1, d2 = basket_pair
        m1 = LitsModel.mine(d1, 0.05)
        m2 = LitsModel.mine(d2, 0.05)
        forward = deviation(m1, m2, d1, d2).value
        backward = deviation(m2, m1, d2, d1).value
        assert forward == pytest.approx(backward)

    def test_nonnegative(self, basket_pair):
        d1, d2 = basket_pair
        m1 = LitsModel.mine(d1, 0.05)
        m2 = LitsModel.mine(d2, 0.05)
        for f in (ABSOLUTE, SCALED):
            for g in (SUM, MAX):
                assert deviation(m1, m2, d1, d2, f=f, g=g).value >= 0.0

    def test_max_bounded_by_sum(self, basket_pair):
        d1, d2 = basket_pair
        m1 = LitsModel.mine(d1, 0.05)
        m2 = LitsModel.mine(d2, 0.05)
        d_sum = deviation(m1, m2, d1, d2, g=SUM).value
        d_max = deviation(m1, m2, d1, d2, g=MAX).value
        assert d_max <= d_sum + 1e-12

    def test_identical_structure_fast_path_matches_scan(self, basket_pair):
        """When both models share a structure, stored supports suffice."""
        d1, d2 = basket_pair
        m1 = LitsModel.mine(d1, 0.05)
        # Model over d2 with the same structural component as m1: measure
        # m1's itemsets against d2.
        structure = m1.structure
        sels = structure.selectivities(d2)
        m2 = LitsModel(
            dict(zip(structure.itemsets, sels)), 0.05, d2.n_items
        )
        fast = deviation(m1, m2, d1, d2).value
        slow = deviation_over_structure(structure, d1, d2).value
        assert fast == pytest.approx(slow, abs=1e-9)

    def test_result_breakdown_consistent(self, basket_pair):
        d1, d2 = basket_pair
        m1 = LitsModel.mine(d1, 0.05)
        m2 = LitsModel.mine(d2, 0.05)
        result = deviation(m1, m2, d1, d2)
        assert result.value == pytest.approx(result.per_region.sum())
        assert len(result.regions) == len(result.per_region)
        contributions = result.region_deviations()
        assert sum(rd.value for rd in contributions) == pytest.approx(result.value)

    def test_top_regions_sorted(self, basket_pair):
        d1, d2 = basket_pair
        m1 = LitsModel.mine(d1, 0.05)
        m2 = LitsModel.mine(d2, 0.05)
        tops = deviation(m1, m2, d1, d2).top_regions(5)
        values = [t.value for t in tops]
        assert values == sorted(values, reverse=True)

    def test_float_conversion(self, basket_pair):
        d1, d2 = basket_pair
        m1 = LitsModel.mine(d1, 0.05)
        m2 = LitsModel.mine(d2, 0.05)
        result = deviation(m1, m2, d1, d2)
        assert float(result) == result.value


class TestDtDeviation:
    @pytest.fixture
    def models(self, classify_pair):
        d1, d2 = classify_pair
        params = TreeParams(max_depth=4, min_leaf=30)
        return DtModel.fit(d1, params), DtModel.fit(d2, params), d1, d2

    def test_self_deviation_is_zero(self, models):
        m1, _, d1, _ = models
        assert deviation(m1, m1, d1, d1).value == pytest.approx(0.0)

    def test_symmetry_under_fa(self, models):
        m1, m2, d1, d2 = models
        assert deviation(m1, m2, d1, d2).value == pytest.approx(
            deviation(m2, m1, d2, d1).value
        )

    def test_sum_deviation_bounded_by_two(self, models):
        """With f_a/g_sum over a partition x classes, delta <= 2."""
        m1, m2, d1, d2 = models
        assert deviation(m1, m2, d1, d2).value <= 2.0 + 1e-9

    def test_same_process_smaller_than_cross_process(self, classify_pair, rng):
        """Deviation separates same- from different-process dataset pairs."""
        from repro.data.quest_classify import generate_classification

        d1, d2 = classify_pair
        d1b = generate_classification(1_200, function=1, seed=99)
        params = TreeParams(max_depth=4, min_leaf=30)
        m1 = DtModel.fit(d1, params)
        m1b = DtModel.fit(d1b, params)
        m2 = DtModel.fit(d2, params)
        same = deviation(m1, m1b, d1, d1b).value
        cross = deviation(m1, m2, d1, d2).value
        assert same < cross

    def test_deviation_over_structure_equals_gcr_when_identical(self, models):
        m1, _, d1, d2 = models
        via_structure = deviation_over_structure(m1.structure, d1, d2).value
        via_models = deviation(m1, m1, d1, d2).value
        assert via_structure == pytest.approx(via_models)


class TestDeviationOverStructure:
    def test_manual_counts(self, small_transactions):
        structure = LitsStructure([frozenset({0}), frozenset({1})])
        result = deviation_over_structure(
            structure, small_transactions, small_transactions
        )
        assert result.value == 0.0
        assert result.n1 == result.n2 == len(small_transactions)
        # supports: item 0 in 6/10, item 1 in 6/10.
        assert result.selectivities1.tolist() == [0.6, 0.6]


def loop_counts(model, itemsets, n):
    """The per-itemset lookup the support-vector path must equal."""
    return np.array(
        [round(model.supports[s] * n) for s in itemsets], dtype=np.int64
    )


@pytest.mark.parametrize("n1, n2", [(777, 1_237), (4_000, 3_999), (1, 2_001)])
class TestCountsFromModels:
    """The stored-measure counts of the identical-structure fast path."""

    @pytest.fixture
    def twins(self, basket_pair):
        """A mined model and one over its itemsets measured on the other
        dataset (a separately built canonical collection)."""
        d1, d2 = basket_pair
        m1 = LitsModel.mine(d1, 0.02)
        sels = m1.structure.selectivities(d2)
        m2 = LitsModel(dict(zip(m1.itemsets, sels)), 0.02, d2.n_items)
        return m1, m2

    def test_own_structures_equal_the_loop_bit_for_bit(self, twins, n1, n2):
        m1, m2 = twins
        structure = gcr(m1.structure, m2.structure)
        assert m2.itemsets is not structure.itemsets
        counts = _counts_from_models(m1, m2, structure, n1, n2)
        for got, model, n in zip(counts, twins, (n1, n2)):
            assert got.dtype == np.int64
            assert np.array_equal(got, loop_counts(model, structure.itemsets, n))

    def test_own_structures_read_the_support_vector(self, twins, n1, n2):
        """No per-itemset lookup: emptied ``supports`` dicts change
        nothing when the structure is both models' own."""
        m1, m2 = twins
        structure = m1.structure
        expected = _counts_from_models(m1, m2, structure, n1, n2)
        for model in twins:
            object.__setattr__(model, "supports", {})
        got = _counts_from_models(m1, m2, structure, n1, n2)
        assert all(map(np.array_equal, got, expected))

    def test_a_covering_model_is_looked_up(self, twins, basket_pair, n1, n2):
        """A model whose itemsets only cover the structure's takes the
        lookup; one that misses an itemset needs a scan."""
        m1, _ = twins
        d1, _ = basket_pair
        wide = LitsModel.mine(d1, 0.01)
        counts = _counts_from_models(m1, wide, m1.structure, n1, n2)
        assert counts is not None
        assert np.array_equal(counts[0], loop_counts(m1, m1.itemsets, n1))
        assert np.array_equal(counts[1], loop_counts(wide, m1.itemsets, n2))
        assert _counts_from_models(wide, m1, wide.structure, n1, n2) is None
