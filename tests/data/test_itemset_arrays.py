"""The array form of itemset collections, and the index's pair-count memo.

``itemset_arrays`` turns an itemset collection into ``(sizes, items)``
arrays; canonical order (``_Canonical.ordered``), the counting plan's
compile and the batched counts are all built from it. Each is pinned
here to the per-itemset Python it replaced:

* ``ordered`` returns the same objects in the order of
  ``sorted(key=(len, tuple(sorted(s))))``;
* a compiled plan's counts, membership bits and Gram-or-gather choice
  equal the per-itemset oracle, for itemsets given as unsorted lists
  with repeated items.

``BitmapIndex.pair_counts`` memoises one full-range Gram product per
index: a hit or a subset slice equals a fresh ``gram_counts``, an append
drops it, ranged counts never read it, and it never travels with a
pickled or attached index.
"""

from __future__ import annotations

import pickle
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import _Canonical
from repro.data.storage import MmapStripeStore
from repro.data.transactions import (
    _GRAM_MIN_ITEMS,
    _GRAM_PAIRS_RATIO,
    BitmapIndex,
    SupportCountingPlan,
    itemset_arrays,
    row_keys,
)
from repro.fleet.counting import count_lits_stores
from repro.obs import MetricsRegistry, use_registry
from repro.stream.executor import shipped_index_bytes

N_ITEMS = 14
items = st.integers(min_value=0, max_value=N_ITEMS - 1)
transactions = st.lists(st.lists(items, max_size=7), max_size=45)
#: itemsets as plain lists: unsorted, with repeated items
raw_itemsets = st.lists(items, max_size=5)
#: pair-heavy collections, so the plan's Gram rule fires on some
collections = st.one_of(
    st.lists(raw_itemsets, max_size=30),
    st.lists(st.lists(items, min_size=2, max_size=2), min_size=20, max_size=70),
)


def sort_oracle(itemsets):
    return sorted(itemsets, key=lambda s: (len(s), tuple(sorted(s))))


def canon_oracle(itemsets):
    return [tuple(sorted({int(i) for i in s})) for s in itemsets]


def counters(fn):
    registry = MetricsRegistry()
    with use_registry(registry):
        value = fn()
    return value, registry.snapshot()["counters"]


# --------------------------------------------------------------------- #
# itemset_arrays and canonical order
# --------------------------------------------------------------------- #


class TestItemsetArrays:
    @settings(deadline=None, max_examples=100)
    @given(itemsets=st.lists(raw_itemsets, max_size=30))
    def test_rows_sorted_and_deduplicated(self, itemsets):
        sizes, flat = itemset_arrays(itemsets)
        assert sizes.dtype == flat.dtype == np.int64
        canon = canon_oracle(itemsets)
        assert sizes.tolist() == [len(t) for t in canon]
        assert flat.tolist() == list(chain.from_iterable(canon))

    def test_unsized_collections_and_itemsets(self):
        sizes, flat = itemset_arrays(iter([[3, 1], iter([2, 2]), (), {5}]))
        assert sizes.tolist() == [2, 1, 0, 1]
        assert flat.tolist() == [1, 3, 2, 5]

    def test_empty_collection(self):
        sizes, flat = itemset_arrays([])
        assert sizes.shape == flat.shape == (0,)


frozen = st.frozensets(
    st.one_of(
        st.integers(0, 30),
        st.integers(2**40, 2**40 + 6),
        st.integers(2**62, 2**62 + 3),
    ),
    max_size=6,
)


class TestOrdered:
    @settings(deadline=None, max_examples=150)
    @given(unique=st.sets(frozen, max_size=40))
    def test_equals_sorted_oracle(self, unique):
        listed = list(unique)
        got = _Canonical.ordered(listed)
        want = sort_oracle(listed)
        assert isinstance(got, _Canonical)
        assert list(got) == want
        # the same objects, not equal copies
        assert all(a is b for a, b in zip(got, want))

    def test_mixed_lengths_empty_and_singletons(self):
        unique = [
            frozenset({9, 2}), frozenset(), frozenset({7}), frozenset({1, 2, 3}),
            frozenset({0}), frozenset({2, 10}), frozenset({64, 3}),
        ]
        assert list(_Canonical.ordered(unique)) == sort_oracle(unique)
        assert _Canonical.ordered(unique)[0] == frozenset()

    def test_equal_itemsets_keep_input_order(self):
        listed = [frozenset({4, 1}), frozenset({0}), frozenset({1, 4})]
        got = _Canonical.ordered(listed)
        assert [id(s) for s in got] == [id(s) for s in sort_oracle(listed)]
        assert got[1] is listed[0] and got[2] is listed[2]

    def test_empty_collection(self):
        assert _Canonical.ordered(set()) == ()

    @settings(deadline=None, max_examples=100)
    @given(unique=st.sets(frozen, max_size=40))
    def test_keeps_the_array_form_of_its_order(self, unique):
        got = _Canonical.ordered(list(unique))
        sizes, flat = itemset_arrays(got)
        assert not sizes.flags.writeable and not flat.flags.writeable
        assert sizes.tolist() == [len(s) for s in got]
        assert flat.tolist() == [i for s in got for i in sorted(s)]


class TestRowKeys:
    """Keys are equal iff rows are, and sort as rows sort, for any int64."""

    @settings(deadline=None, max_examples=150)
    @given(
        length=st.integers(0, 5),
        data=st.data(),
    )
    def test_key_order_is_row_order(self, length, data):
        rows = data.draw(st.lists(
            st.lists(
                st.one_of(
                    st.integers(-3, 3),
                    st.integers(-(2**63), -(2**63) + 2),
                    st.integers(2**63 - 3, 2**63 - 1),
                ),
                min_size=length, max_size=length,
            ),
            min_size=1, max_size=20,
        ))
        ids = np.array(rows, dtype=np.int64).reshape(len(rows), length)
        keys = row_keys(ids)
        assert keys.shape == (len(rows),)
        order = np.argsort(keys, kind="stable")
        assert order.tolist() == sorted(
            range(len(rows)), key=lambda k: tuple(rows[k])
        )
        for a in range(len(rows)):
            for b in range(len(rows)):
                assert (keys[a] == keys[b]) == (rows[a] == rows[b])


# --------------------------------------------------------------------- #
# The compiled plan against the per-itemset oracle
# --------------------------------------------------------------------- #


def gram_rule_oracle(itemsets) -> bool:
    pairs = [t for t in canon_oracle(itemsets) if len(t) == 2]
    k = len(set(chain.from_iterable(pairs)))
    return k >= _GRAM_MIN_ITEMS and k**2 <= _GRAM_PAIRS_RATIO * len(pairs)


class TestPlanOracle:
    @settings(deadline=None, max_examples=120)
    @given(rows=transactions, itemsets=collections)
    def test_count_bits_and_kernel_choice(self, rows, itemsets):
        index = BitmapIndex(rows, N_ITEMS)
        plan = SupportCountingPlan(itemsets)
        assert plan.n_itemsets == len(itemsets)
        assert plan.count(index).tolist() == (
            index.support_counts_loop(itemsets).tolist()
        )
        assert index.support_counts(itemsets).tolist() == (
            index.support_counts_loop(itemsets).tolist()
        )
        bits = plan.intersection_bits(index)
        for row, itemset in zip(bits, itemsets):
            assert np.array_equal(row, index.intersection_bits(itemset))
        assert (plan._gram is not None) is gram_rule_oracle(itemsets)
        if plan._gram is not None:
            positions, pair_items, local = plan._gram
            canon = canon_oracle(itemsets)
            pairs = [p for p, t in enumerate(canon) if len(t) == 2]
            assert positions.tolist() == pairs
            assert pair_items.tolist() == sorted({i for p in pairs for i in canon[p]})
            assert pair_items[local].tolist() == [list(canon[p]) for p in pairs]

    def test_max_item_and_empty_positions(self):
        plan = SupportCountingPlan([[5, 5, 2], [], (1,), frozenset()])
        assert plan.max_item == 5
        assert plan._empty.tolist() == [1, 3]


# --------------------------------------------------------------------- #
# The pair-count memo
# --------------------------------------------------------------------- #

#: 12 items, all 66 pairs: the plan counts its pair group off one Gram
#: product (k=12 >= 9, 144 <= 5 x 66)
PAIRS = [(a, b) for a in range(12) for b in range(a + 1, 12)]


@pytest.fixture
def rows():
    rng = np.random.default_rng(29)
    return [
        tuple(np.flatnonzero(rng.random(N_ITEMS) < 0.4).tolist())
        for _ in range(203)
    ]


class TestPairCountMemo:
    def test_plan_takes_the_gram_path(self):
        assert SupportCountingPlan(PAIRS)._gram is not None

    def test_hit_and_subset_slice_equal_a_fresh_product(self, rows):
        index = BitmapIndex(rows, N_ITEMS)
        items = np.arange(12)
        first, c1 = counters(lambda: index.pair_counts(items))
        again, c2 = counters(lambda: index.pair_counts(items))
        subset = np.array([1, 4, 5, 11])
        part, c3 = counters(lambda: index.pair_counts(subset))
        assert np.array_equal(first, index.gram_counts(items))
        assert again is first and not first.flags.writeable
        assert np.array_equal(part, index.gram_counts(subset))
        assert c1.get("bitmap.gram.memo_hits", 0) == 0 and c1["bitmap.gram.blocks"] == 1
        for c in (c2, c3):
            assert c["bitmap.gram.memo_hits"] == 1
            assert c.get("bitmap.gram.blocks", 0) == 0

    def test_a_superset_or_other_items_run_a_product(self, rows):
        index = BitmapIndex(rows, N_ITEMS)
        index.pair_counts(np.arange(4))
        for items in (np.arange(6), np.array([2, 3, 13])):
            got, c = counters(lambda items=items: index.pair_counts(items))
            assert np.array_equal(got, index.gram_counts(items))
            assert c.get("bitmap.gram.memo_hits", 0) == 0
            assert c["bitmap.gram.blocks"] == 1

    def test_plan_counts_twice_for_one_product(self, rows):
        index = BitmapIndex(rows, N_ITEMS)
        plan = SupportCountingPlan(PAIRS)

        def twice():
            return plan.count(index), SupportCountingPlan(PAIRS).count(index)

        (a, b), c = counters(twice)
        assert a.tolist() == b.tolist() == index.support_counts_loop(PAIRS).tolist()
        assert c["bitmap.gram.blocks"] == 1 and c["bitmap.gram.memo_hits"] == 1

    def test_append_drops_the_memo(self, rows):
        index = BitmapIndex(rows, N_ITEMS)
        plan = SupportCountingPlan(PAIRS)
        plan.count(index)
        index.append([(0, 1, 2), (0, 1)])
        assert index._gram_memo is None
        fresh = BitmapIndex([*rows, (0, 1, 2), (0, 1)], N_ITEMS)
        assert plan.count(index).tolist() == plan.count(fresh).tolist()

    def test_ranged_counts_never_hit(self, rows):
        index = BitmapIndex(rows, N_ITEMS)
        plan = SupportCountingPlan(PAIRS)
        plan.count(index)
        n = index.n_transactions

        def ranged():
            return (
                plan.count(index, start=0, stop=n),
                plan.count(index, start=5, stop=n - 3),
                index.scan_counts(plan, budget_bytes=64),
            )

        (whole, part, scanned), c = counters(ranged)
        assert c.get("bitmap.gram.memo_hits", 0) == 0
        assert whole.tolist() == scanned.tolist() == plan.count(index).tolist()
        fresh = BitmapIndex(rows[5 : n - 3], N_ITEMS)
        assert part.tolist() == plan.count(fresh).tolist()

    def test_pickle_carries_no_memo(self, rows):
        index = BitmapIndex(rows, N_ITEMS)
        before = len(pickle.dumps(index)), shipped_index_bytes([index])
        SupportCountingPlan(PAIRS).count(index)
        assert index._gram_memo is not None
        assert (len(pickle.dumps(index)), shipped_index_bytes([index])) == before
        assert pickle.loads(pickle.dumps(index))._gram_memo is None

    def test_attached_index_carries_no_memo(self, rows, tmp_path):
        owner = BitmapIndex(rows, N_ITEMS, store=MmapStripeStore(tmp_path / "s"))
        plan = SupportCountingPlan(PAIRS)
        plan.count(owner)
        view = BitmapIndex.attach(owner.handle())
        assert view._gram_memo is None
        assert pickle.loads(pickle.dumps(owner))._gram_memo is None
        assert shipped_index_bytes([owner, view]) == 0
        assert plan.count(view).tolist() == plan.count(owner).tolist()

    def test_threads_racing_on_one_memo(self, rows):
        """More threads than cores, switching often, over plans whose
        pair items hit, slice and replace one index's memo."""
        index = BitmapIndex(rows, N_ITEMS)
        plans = [
            SupportCountingPlan(PAIRS),  # 12 items
            SupportCountingPlan(PAIRS[:40]),  # the same 12 items
            SupportCountingPlan([p for p in PAIRS if 11 not in p]),  # a subset
            SupportCountingPlan([(a + 2, b + 2) for a, b in PAIRS]),  # others
        ]
        assert all(plan._gram is not None for plan in plans)
        want = [plan.count(BitmapIndex(rows, N_ITEMS)).tolist() for plan in plans]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [
                    (k % 4, pool.submit(plans[k % 4].count, index))
                    for k in range(200)
                ]
                for k, future in futures:
                    assert future.result(timeout=60).tolist() == want[k]
        finally:
            sys.setswitchinterval(interval)
        known, gram = index._gram_memo
        assert np.array_equal(gram, index.gram_counts(known))

    def test_thread_fan_counts_equal_serial(self, rows):
        def stores():
            return [BitmapIndex(rows[k::3], N_ITEMS) for k in range(3)]

        plan = SupportCountingPlan(PAIRS)
        serial = count_lits_stores(stores(), plan)
        shared = stores()
        for _ in range(2):  # a miss, then hits, from the pool's threads
            threaded = count_lits_stores(shared, plan, executor="thread")
            assert [c.tolist() for c in threaded] == [c.tolist() for c in serial]
