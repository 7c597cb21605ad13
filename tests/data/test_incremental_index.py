"""Incremental BitmapIndex growth and precompiled support counting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.transactions import BitmapIndex, SupportCountingPlan
from repro.errors import InvalidParameterError

TXNS = [
    (0, 1), (0, 1, 2), (0,), (1, 2), (2,), (0, 1), (3,), (0, 2, 3),
    (1,), (0, 1, 3),
]
PROBES = [(), (0,), (0, 1), (1, 2), (0, 1, 2), (3,), (0, 2, 3)]


class TestAppend:
    def test_append_equals_full_build(self):
        full = BitmapIndex(TXNS, 4)
        grown = BitmapIndex(TXNS[:3], 4)
        grown.append(TXNS[3:7])
        grown.append(TXNS[7:])
        assert grown.n_transactions == len(TXNS)
        np.testing.assert_array_equal(
            grown.support_counts(PROBES), full.support_counts(PROBES)
        )

    def test_append_to_empty_index(self):
        grown = BitmapIndex([], 4)
        grown.append(TXNS)
        np.testing.assert_array_equal(
            grown.support_counts(PROBES), BitmapIndex(TXNS, 4).support_counts(PROBES)
        )

    def test_append_nothing_is_noop(self):
        index = BitmapIndex(TXNS, 4)
        before = index.support_counts(PROBES).copy()
        index.append([])
        assert index.n_transactions == len(TXNS)
        np.testing.assert_array_equal(index.support_counts(PROBES), before)

    def test_capacity_doubles_not_rebuilds(self):
        """Appending R rows costs O(R) writes plus O(log R) reallocations."""
        index = BitmapIndex([], 4)
        capacities = set()
        for _start in range(0, 4_096, 64):
            index.append([(i % 4,) for i in range(64)])
            capacities.add(index._buf.shape[1])
        # 4096 rows = 512 bytes; doubling from 8 gives ~7 distinct widths,
        # far fewer than the 64 a rebuild-per-append would show.
        assert len(capacities) <= 8
        assert index.n_transactions == 4_096

    def test_padding_bits_stay_clean_across_appends(self):
        """Odd-sized appends never leak set bits past n_transactions."""
        index = BitmapIndex([], 3)
        for size in (1, 3, 5, 7, 2):
            index.append([(0, 1, 2)] * size)
        # every item is in every transaction: all supports == n
        assert index.support_count((0, 1, 2)) == index.n_transactions == 18
        assert index.support_count(()) == 18

    def test_out_of_universe_append_rejected(self):
        index = BitmapIndex(TXNS, 4)
        with pytest.raises(InvalidParameterError):
            index.append([(9,)])


class TestSupportCountingPlan:
    def test_plan_matches_support_counts(self):
        plan = SupportCountingPlan(PROBES)
        index = BitmapIndex(TXNS, 4)
        np.testing.assert_array_equal(
            plan.count(index), index.support_counts(PROBES)
        )

    def test_one_plan_many_indexes(self):
        """The streaming shape: a fixed plan over per-chunk indexes."""
        plan = SupportCountingPlan(PROBES)
        whole = BitmapIndex(TXNS, 4).support_counts(PROBES)
        partial = sum(
            plan.count(BitmapIndex(TXNS[i : i + 3], 4))
            for i in range(0, len(TXNS), 3)
        )
        np.testing.assert_array_equal(partial, whole)

    def test_plan_outside_universe_rejected(self):
        plan = SupportCountingPlan([(0, 7)])
        with pytest.raises(InvalidParameterError):
            plan.count(BitmapIndex(TXNS, 4))

    def test_plan_on_appended_index(self):
        plan = SupportCountingPlan(PROBES)
        index = BitmapIndex(TXNS[:4], 4)
        index.append(TXNS[4:])
        np.testing.assert_array_equal(
            plan.count(index), BitmapIndex(TXNS, 4).support_counts(PROBES)
        )

    def test_empty_collection_plan(self):
        plan = SupportCountingPlan([])
        assert plan.count(BitmapIndex(TXNS, 4)).shape == (0,)
