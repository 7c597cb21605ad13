"""The compiled lits membership equals the per-itemset bit oracle.

Both lits resample plans read their per-row state off one compiled
gather per itemset length (``SupportCountingPlan.intersection_bits``).
The oracle is the index's own per-itemset ``intersection_bits``, one
call per itemset: the dense plan's ``lits_membership`` columns must
equal its unpacked bits and the packed plan's rows its packed bits,
with every bit past the last row zero. The data covers the empty
itemset, itemsets of three or more items, row counts that are not a
byte multiple, and an attached index snapshot whose owner appended rows
into the shared tail byte after the attach.
"""

from __future__ import annotations

import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import LitsStructure
from repro.data.storage import MmapStripeStore
from repro.data.transactions import BitmapIndex, _last_byte_mask
from repro.stats.resample_plan import (
    LitsResamplePlan,
    PackedLitsResamplePlan,
    lits_membership,
)

N_ITEMS = 8

rows_strategy = st.lists(
    st.lists(st.integers(min_value=0, max_value=N_ITEMS - 1), max_size=6),
    min_size=1,
    max_size=45,
)

# always the empty itemset and a long one; draws add lengths 0-5
itemsets_strategy = st.lists(
    st.lists(st.integers(min_value=0, max_value=N_ITEMS - 1), max_size=5),
    max_size=14,
).map(lambda sets: [*sets, [], [1, 2, 3], [0, 2, 4, 6]])


class Indexed:
    """The dataset face the plans compile from: ``len`` and ``.index``."""

    def __init__(self, index: BitmapIndex) -> None:
        self.index = index

    def __len__(self) -> int:
        return self.index.n_transactions


def oracle_bits(structure, index):
    """Per-itemset packed rows, bits past the last row cleared."""
    n = index.n_transactions
    packed = np.stack(
        [index.intersection_bits(s) for s in structure.itemsets]
    ).reshape(len(structure.itemsets), (n + 7) >> 3)
    if n & 7:
        packed[:, -1] &= np.uint8(_last_byte_mask(n))
    return packed


def assert_matches_oracle(structure, index):
    n = index.n_transactions
    packed = oracle_bits(structure, index)
    dense = lits_membership(structure, index)
    assert dense.dtype == np.float32 and dense.flags["C_CONTIGUOUS"]
    assert np.array_equal(dense, np.unpackbits(packed, axis=1, count=n).T)

    data = Indexed(index)
    dense_plan = LitsResamplePlan.from_datasets(structure, data, data)
    for part in dense_plan._parts:
        assert np.array_equal(part, dense)
    packed_plan = PackedLitsResamplePlan.from_datasets(structure, data, data)
    for part in packed_plan._packed_parts:
        assert np.array_equal(part, packed)
    # both plans count the same observed supports as the index itself
    supports = index.support_counts(structure.itemsets)
    for plan in (dense_plan, packed_plan):
        for counts in plan.observed_counts():
            assert np.array_equal(counts, supports)


@given(rows=rows_strategy, itemsets=itemsets_strategy)
@settings(max_examples=60, deadline=None)
def test_compiled_membership_equals_the_per_itemset_oracle(rows, itemsets):
    structure = LitsStructure([frozenset(s) for s in itemsets])
    assert_matches_oracle(structure, BitmapIndex(rows, N_ITEMS))


@given(
    rows=rows_strategy,
    appended=st.lists(
        st.lists(st.integers(min_value=0, max_value=N_ITEMS - 1),
                 min_size=1, max_size=6),
        min_size=1,
        max_size=7,
    ),
    itemsets=itemsets_strategy,
)
@settings(max_examples=40, deadline=None)
def test_attached_snapshot_ignores_rows_appended_after_the_attach(
    rows, appended, itemsets
):
    structure = LitsStructure([frozenset(s) for s in itemsets])
    with tempfile.TemporaryDirectory() as d:
        owner = BitmapIndex(rows, N_ITEMS, store=MmapStripeStore(d))
        view = BitmapIndex.attach(owner.handle())
        owner.append(appended)
        assert view.n_transactions == len(rows)
        assert_matches_oracle(structure, view)
        fresh = lits_membership(structure, BitmapIndex(rows, N_ITEMS))
        assert np.array_equal(lits_membership(structure, view), fresh)
        del view


def test_tail_byte_holds_owner_rows():
    """The fixture shape the property relies on: the owner's appended
    bits really land in the view's tail byte, and the membership drops
    them."""
    with tempfile.TemporaryDirectory() as d:
        owner = BitmapIndex([(0, 1)] * 5, N_ITEMS, store=MmapStripeStore(d))
        view = BitmapIndex.attach(owner.handle())
        owner.append([(0, 1)] * 2)
        assert view.intersection_bits([0, 1])[0] == 0b11111110
        structure = LitsStructure([frozenset([0, 1]), frozenset()])
        dense = lits_membership(structure, view)
        assert dense.shape == (5, 2) and (dense == 1).all()
        packed = PackedLitsResamplePlan.from_datasets(
            structure, Indexed(view), Indexed(view)
        )._packed_parts[0]
        assert packed[:, 0].tolist() == [0b11111000, 0b11111000]
        del view
