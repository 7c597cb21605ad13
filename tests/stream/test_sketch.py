"""Unit tests for the mergeable sketches and their shared merge algebra."""

from __future__ import annotations

import operator

import numpy as np
import pytest

from repro.core.attribute import AttributeSpace, numeric
from repro.core.model import PartitionStructure
from repro.core.predicate import interval_constraint
from repro.data.tabular import TabularDataset
from repro.errors import IncompatibleModelsError, InvalidParameterError
from repro.stream.sketch import PartitionSketch, SupportSketch, canonical_itemsets

TXNS_A = [(0, 1), (0, 1, 2), (2,), (0,)]
TXNS_B = [(1, 2), (0, 1), (), (3,), (0, 1, 2)]
ITEMSETS = [(), (0,), (1,), (0, 1), (1, 2), (0, 1, 2)]


class TestCanonicalItemsets:
    def test_orders_by_size_then_lex(self):
        canon = canonical_itemsets([(2, 1), (0,), (), (1, 2)])
        assert canon == (
            frozenset(),
            frozenset({0}),
            frozenset({1, 2}),
        )

    def test_deduplicates(self):
        assert len(canonical_itemsets([(1, 2), (2, 1)])) == 1


class TestSupportSketch:
    def test_from_transactions_counts(self):
        sketch = SupportSketch.from_transactions(TXNS_A, ITEMSETS, 4)
        counts = sketch.as_dict()
        assert counts[frozenset()] == 4
        assert counts[frozenset({0})] == 3
        assert counts[frozenset({0, 1})] == 2
        assert counts[frozenset({0, 1, 2})] == 1

    def test_from_dataset_matches_from_transactions(self, small_transactions):
        a = SupportSketch.from_dataset(small_transactions, ITEMSETS)
        b = SupportSketch.from_transactions(
            list(small_transactions), ITEMSETS, small_transactions.n_items
        )
        assert a == b

    def test_add_equals_concatenated_scan(self):
        a = SupportSketch.from_transactions(TXNS_A, ITEMSETS, 4)
        b = SupportSketch.from_transactions(TXNS_B, ITEMSETS, 4)
        merged = a + b
        whole = SupportSketch.from_transactions(TXNS_A + TXNS_B, ITEMSETS, 4)
        assert merged == whole
        assert merged.n_transactions == len(TXNS_A) + len(TXNS_B)

    def test_sum_builtin_merges(self):
        shards = [TXNS_A, [], TXNS_B]
        sketches = [
            SupportSketch.from_transactions(s, ITEMSETS, 4) for s in shards
        ]
        assert sum(sketches) == SupportSketch.from_transactions(
            TXNS_A + TXNS_B, ITEMSETS, 4
        )

    def test_subtract_retires_a_chunk(self):
        whole = SupportSketch.from_transactions(TXNS_A + TXNS_B, ITEMSETS, 4)
        head = SupportSketch.from_transactions(TXNS_A, ITEMSETS, 4)
        assert whole - head == SupportSketch.from_transactions(
            TXNS_B, ITEMSETS, 4
        )

    def test_subtract_underflow_rejected(self):
        a = SupportSketch.from_transactions(TXNS_A, ITEMSETS, 4)
        whole = SupportSketch.from_transactions(TXNS_A + TXNS_B, ITEMSETS, 4)
        with pytest.raises(InvalidParameterError):
            a - whole

    def test_incompatible_itemsets_rejected(self):
        a = SupportSketch.from_transactions(TXNS_A, [(0,)], 4)
        b = SupportSketch.from_transactions(TXNS_B, [(1,)], 4)
        with pytest.raises(IncompatibleModelsError):
            a + b

    def test_incompatible_universe_rejected(self):
        a = SupportSketch.from_transactions(TXNS_A, [(0,)], 4)
        b = SupportSketch.from_transactions(TXNS_A, [(0,)], 5)
        with pytest.raises(IncompatibleModelsError):
            a + b

    def test_empty_is_additive_identity(self):
        a = SupportSketch.from_transactions(TXNS_A, ITEMSETS, 4)
        empty = SupportSketch.empty(ITEMSETS, 4)
        assert a + empty == a
        assert empty.n_transactions == 0
        assert not empty.counts.any()

    def test_supports_and_count_of(self):
        sketch = SupportSketch.from_transactions(TXNS_A, ITEMSETS, 4)
        assert sketch.count_of((0, 1)) == 2
        np.testing.assert_allclose(
            sketch.supports(),
            sketch.counts / len(TXNS_A),
        )
        with pytest.raises(InvalidParameterError):
            sketch.count_of((3,))

    def test_empty_sketch_supports_are_zero(self):
        empty = SupportSketch.empty(ITEMSETS, 4)
        assert not empty.supports().any()

    def test_misaligned_counts_rejected(self):
        with pytest.raises(InvalidParameterError):
            SupportSketch(ITEMSETS, np.zeros(2, dtype=np.int64), 0, 4)

    def test_alignment_matches_lits_structure(self):
        from repro.core.model import LitsStructure

        structure = LitsStructure([frozenset(s) for s in ITEMSETS if s])
        sketch = SupportSketch.from_transactions(
            TXNS_A, [s for s in ITEMSETS if s], 4
        )
        assert sketch.itemsets == structure.itemsets


AGES = AttributeSpace((numeric("age", 0, 100),))
LOW = interval_constraint("age", hi=50)
HIGH = interval_constraint("age", lo=50)


def _cell_low_first(dataset):
    return (dataset.column("age") >= 50).astype(np.int64)


def _cell_high_first(dataset):
    return (dataset.column("age") < 50).astype(np.int64)


AGE_SPLIT = PartitionStructure(cells=(LOW, HIGH), class_labels=(), assigner=_cell_low_first)
#: the same two regions, enumerated in the opposite order
AGE_SPLIT_SWAPPED = PartitionStructure(
    cells=(HIGH, LOW), class_labels=(), assigner=_cell_high_first
)


def _ages(*ages):
    return TabularDataset(AGES, np.asarray(ages, dtype=np.float64).reshape(-1, 1))


def _support_pair():
    return (
        SupportSketch.from_transactions(TXNS_A, ITEMSETS, 4),
        SupportSketch.from_transactions(TXNS_B, ITEMSETS, 4),
    )


def _partition_pair():
    return (
        PartitionSketch.from_dataset(_ages(10.0, 60.0, 70.0), AGE_SPLIT),
        PartitionSketch.from_dataset(_ages(20.0, 30.0), AGE_SPLIT),
    )


KINDS = pytest.mark.parametrize(
    "pair", [_support_pair, _partition_pair], ids=["support", "partition"]
)


class TestSharedAlgebra:
    """Both sketch kinds run on one merge algebra."""

    @pytest.mark.parametrize("op", [operator.add, operator.sub])
    def test_kinds_never_combine_in_either_order(self, op):
        lits, _ = _support_pair()
        part, _ = _partition_pair()
        for left, right in ((lits, part), (part, lits)):
            with pytest.raises(IncompatibleModelsError, match="cannot combine"):
                op(left, right)

    def test_equality_across_kinds_is_false(self):
        lits, _ = _support_pair()
        part, _ = _partition_pair()
        assert not lits == part
        assert not part == lits
        assert lits != part

    @KINDS
    def test_zero_start_and_builtin_sum(self, pair):
        a, b = pair()
        assert 0 + a is a
        assert a + 0 is a
        total = sum([a, b])
        assert total == a + b
        assert total.n_rows == a.n_rows + b.n_rows
        np.testing.assert_array_equal(total.counts, a.counts + b.counts)

    @KINDS
    def test_subtraction_inverts_addition(self, pair):
        a, b = pair()
        assert (a + b) - b == a
        with pytest.raises(InvalidParameterError, match="more rows"):
            a - (a + b)

    @KINDS
    def test_equal_sketches_hash_equal(self, pair):
        a, b = pair()
        merged, again = a + b, b + a
        assert merged is not again
        assert merged == again
        assert hash(merged) == hash(again)
        assert len({merged, again}) == 1

    @KINDS
    def test_selectivities_are_zero_over_zero_rows(self, pair):
        a, _ = pair()
        empty = a - a
        assert empty.n_rows == 0
        assert not empty.selectivities().any()
        np.testing.assert_allclose(a.selectivities(), a.counts / a.n_rows)

    def test_swapped_region_order_is_refused(self):
        rows = _ages(10.0, 60.0, 70.0)
        a = PartitionSketch.from_dataset(rows, AGE_SPLIT)
        b = PartitionSketch.from_dataset(rows, AGE_SPLIT_SWAPPED)
        assert AGE_SPLIT.key == AGE_SPLIT_SWAPPED.key
        assert (a.counts.tolist(), b.counts.tolist()) == ([1, 2], [2, 1])
        for left, right in ((a, b), (b, a)):
            with pytest.raises(IncompatibleModelsError, match="order"):
                left + right
            with pytest.raises(IncompatibleModelsError, match="order"):
                left - right
        assert a != b

    def test_structure_identity_fast_path_is_not_required(self):
        """Sketches over equal but distinct structure objects merge."""
        twin = PartitionStructure(
            cells=(LOW, HIGH), class_labels=(), assigner=_cell_low_first
        )
        a = PartitionSketch.from_dataset(_ages(10.0), AGE_SPLIT)
        b = PartitionSketch.from_dataset(_ages(60.0), twin)
        assert a.plan is not b.plan
        assert (a + b).counts.tolist() == [1, 1]
