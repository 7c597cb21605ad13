"""Tests for the delta* upper bound (Definition 4.1, Theorem 4.2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.aggregate import MAX, SUM
from repro.core.deviation import deviation
from repro.core.embedding import upper_bound_matrix
from repro.core.lits import LitsModel
from repro.core.upper_bound import upper_bound_deviation
from repro.data.quest_basket import generate_basket
from repro.errors import IncompatibleModelsError, InvalidParameterError


@pytest.fixture(scope="module")
def three_models():
    """Three mined models (and datasets) from different processes."""
    out = []
    for seed, plen in ((1, 3), (2, 4), (3, 3)):
        d = generate_basket(
            600, n_items=30, avg_transaction_len=5, n_patterns=30,
            avg_pattern_len=plen, seed=seed,
        )
        out.append((LitsModel.mine(d, 0.05), d))
    return out


class TestUpperBoundProperty:
    def test_majorises_true_deviation_sum(self, three_models):
        (m1, d1), (m2, d2), _ = three_models
        ub = upper_bound_deviation(m1, m2, g=SUM).value
        true = deviation(m1, m2, d1, d2, g=SUM).value
        assert ub >= true - 1e-9

    def test_majorises_true_deviation_max(self, three_models):
        (m1, d1), (m2, d2), _ = three_models
        ub = upper_bound_deviation(m1, m2, g=MAX).value
        true = deviation(m1, m2, d1, d2, g=MAX).value
        assert ub >= true - 1e-9

    def test_triangle_inequality(self, three_models):
        (m1, _), (m2, _), (m3, _) = three_models
        for g in (SUM, MAX):
            d12 = upper_bound_deviation(m1, m2, g=g).value
            d23 = upper_bound_deviation(m2, m3, g=g).value
            d13 = upper_bound_deviation(m1, m3, g=g).value
            assert d13 <= d12 + d23 + 1e-9

    def test_symmetry(self, three_models):
        (m1, _), (m2, _), _ = three_models
        assert upper_bound_deviation(m1, m2).value == pytest.approx(
            upper_bound_deviation(m2, m1).value
        )

    def test_self_bound_is_zero(self, three_models):
        (m1, _), _, _ = three_models
        assert upper_bound_deviation(m1, m1).value == 0.0

    def test_no_dataset_needed(self, three_models):
        """delta* is computable from models alone -- the call signature proves
        it, but also check the breakdown covers exactly the union."""
        (m1, _), (m2, _), _ = three_models
        ub = upper_bound_deviation(m1, m2)
        assert set(ub.itemsets) == set(m1.itemsets) | set(m2.itemsets)
        assert len(ub.per_itemset) == len(ub.itemsets)

    def test_rejects_non_lits_models(self, three_models):
        (m1, _), _, _ = three_models
        with pytest.raises(IncompatibleModelsError, match="lits-models"):
            upper_bound_deviation(m1, object())

    def test_exact_when_structures_identical(self, three_models):
        """Both-frequent itemsets contribute the exact f_a term."""
        (m1, d1), _, _ = three_models
        sels = m1.structure.selectivities(d1)
        m1_copy = LitsModel(
            dict(zip(m1.structure.itemsets, sels)), 0.05, d1.n_items
        )
        ub = upper_bound_deviation(m1, m1_copy, g=SUM).value
        true = deviation(m1, m1_copy, d1, d1, g=SUM).value
        assert ub == pytest.approx(true, abs=1e-9)


# --------------------------------------------------------------------- #
# Property suite: delta* fleet matrices over random model fleets
# --------------------------------------------------------------------- #

N_ITEMS = 6
MIN_SUPPORT = 0.1


@st.composite
def lits_models(draw) -> LitsModel:
    """A random lits-model: itemsets over 6 items with supports >= ms."""
    universe = [
        frozenset(s)
        for s in draw(
            st.lists(
                st.sets(st.integers(0, N_ITEMS - 1), min_size=1, max_size=3),
                min_size=0, max_size=8,
            )
        )
    ]
    supports = {
        s: draw(st.floats(MIN_SUPPORT, 1.0, allow_nan=False))
        for s in universe
    }
    return LitsModel(supports, MIN_SUPPORT, N_ITEMS)


@st.composite
def model_fleets(draw, min_size: int = 2, max_size: int = 5):
    n = draw(st.integers(min_size, max_size))
    return [draw(lits_models()) for _ in range(n)]


class TestUpperBoundMatrixProperties:
    @settings(max_examples=50, deadline=None)
    @given(model_fleets())
    def test_matrix_is_symmetric_with_zero_diagonal(self, models):
        for g in (SUM, MAX):
            m = upper_bound_matrix(models, g=g)
            assert m.shape == (len(models), len(models))
            assert np.array_equal(m, m.T)
            assert np.allclose(np.diag(m), 0.0)
            assert (m >= 0.0).all()
            # every entry is the per-pair bound, bit for bit
            for i, mi in enumerate(models):
                for j, mj in enumerate(models):
                    if i != j:
                        value = upper_bound_deviation(mi, mj, g=g).value
                        assert m[i, j] == value, (g.name, i, j)

    @settings(max_examples=50, deadline=None)
    @given(model_fleets(min_size=3))
    def test_triangle_inequality_over_all_triples(self, models):
        """Theorem 4.2: delta* is a pseudo-metric over model fleets."""
        for g in (SUM, MAX):
            m = upper_bound_matrix(models, g=g)
            n = len(models)
            # vectorised check of m[i,k] <= m[i,j] + m[j,k] for all triples
            via = m[:, :, None] + m[None, :, :]  # (i, j, k)
            assert (m[:, None, :] <= via + 1e-9).all(), (g.name, n)


class TestUpperBoundMatrixValidation:
    def test_empty_fleet_message(self):
        with pytest.raises(InvalidParameterError, match="empty fleet"):
            upper_bound_matrix([])

    def test_single_model_message(self):
        d = generate_basket(60, n_items=10, avg_transaction_len=3, seed=5)
        with pytest.raises(InvalidParameterError, match="at least two"):
            upper_bound_matrix([LitsModel.mine(d, 0.2)])

    def test_non_lits_model_named(self):
        d = generate_basket(60, n_items=10, avg_transaction_len=3, seed=5)
        m = LitsModel.mine(d, 0.2)
        with pytest.raises(IncompatibleModelsError, match="model 1 is a int"):
            upper_bound_matrix([m, 3])
