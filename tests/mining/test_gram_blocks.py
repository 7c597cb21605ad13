"""The blocked Gram kernel: exact across blocks, and within its budget.

``BitmapIndex.gram_counts`` unpacks the item stripes a row block at a
time, bounded by ``_MAX_STRIPE_BYTES`` and kept below 2**24 rows so each
float32 product is exact. Shrinking the budget makes a few hundred rows
span several blocks; every count must still equal the stripe-gather
path, for the miner and for ranged plan counts whose bounds are not
byte-aligned.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from apriori_oracle import apriori_tuple_join
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.data.transactions as tx
from repro.data.transactions import BitmapIndex, SupportCountingPlan
from repro.mining.apriori import apriori_from_index
from repro.obs import MetricsRegistry, use_registry

N_ITEMS = 10
BLOCK_ROWS = 64
#: a budget holding exactly 64 rows of all ten items
SMALL_BUDGET = BLOCK_ROWS * N_ITEMS * tx._GRAM_CELL_BYTES


@pytest.fixture
def rows():
    rng = np.random.default_rng(21)
    return [
        tuple(rng.choice(N_ITEMS, size=int(rng.integers(0, 7)), replace=False))
        for _ in range(301)
    ]


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(tx, "_MAX_STRIPE_BYTES", SMALL_BUDGET)
    assert tx._gram_block_rows(N_ITEMS) == BLOCK_ROWS


def _blocks(fn):
    registry = MetricsRegistry()
    with use_registry(registry):
        value = fn()
    return value, registry.snapshot()["counters"].get("bitmap.gram.blocks", 0)


def test_blocked_gram_equals_gather(rows, small_blocks):
    index = BitmapIndex(rows, N_ITEMS)
    items = np.arange(N_ITEMS)
    gram, blocks = _blocks(lambda: index.gram_counts(items))
    assert blocks == 5  # 301 rows in blocks of 64
    pairs = list(combinations(range(N_ITEMS), 2))
    loop = index.support_counts_loop(pairs)
    assert [gram[a, b] for a, b in pairs] == loop.tolist()
    assert np.diag(gram).tolist() == index.item_support_counts().tolist()


def test_blocked_miner_equals_oracle(rows, small_blocks):
    index = BitmapIndex(rows, N_ITEMS)
    for max_len in (2, 3, None):
        mined, blocks = _blocks(
            lambda m=max_len: apriori_from_index(index, 0.02, m)
        )
        assert blocks == 5
        oracle = apriori_tuple_join(index, 0.02, max_len)
        assert list(mined.items()) == list(oracle.items())


@pytest.mark.parametrize(
    ("start", "stop"), [(0, 301), (3, 298), (5, 70), (63, 129), (7, 7), (0, 1)]
)
def test_ranged_plan_counts_equal_fresh_index(rows, small_blocks, start, stop):
    pairs = list(combinations(range(N_ITEMS), 2))
    plan = SupportCountingPlan([(i,) for i in range(N_ITEMS)] + pairs)
    counts, blocks = _blocks(
        lambda: plan.count(BitmapIndex(rows, N_ITEMS), start=start, stop=stop)
    )
    assert blocks == -(-(stop - start) // BLOCK_ROWS)  # the Gram path ran
    fresh = BitmapIndex(rows[start:stop], N_ITEMS)
    expected = fresh.support_counts_loop([(i,) for i in range(N_ITEMS)] + pairs)
    assert counts.tolist() == expected.tolist()


def test_one_block_stays_within_the_budget(rows, small_blocks, monkeypatch):
    """Measure the unpacked block each Gram product is taken over."""
    seen: list[tuple[int, int, int]] = []
    unpackbits = np.unpackbits

    def spy(packed, *args, **kwargs):
        out = unpackbits(packed, *args, **kwargs)
        seen.append((packed.nbytes, out.shape[0], out.shape[1]))
        return out

    monkeypatch.setattr(tx.np, "unpackbits", spy)
    BitmapIndex(rows, N_ITEMS).gram_counts(np.arange(N_ITEMS), start=3)
    assert len(seen) == 5
    for packed_bytes, k, width in seen:
        # the unpacked bytes, their float32 copy, and the packed slice
        working_set = k * width * (1 + 4) + packed_bytes
        assert working_set <= SMALL_BUDGET
        assert width < 2**24


@settings(deadline=None, max_examples=200)
@given(
    k=st.integers(1, 1 << 22),
    budget=st.sampled_from([1 << 10, 1 << 25, 1 << 40, 1 << 60]),
)
def test_block_rows_are_bounded(k, budget):
    original = tx._MAX_STRIPE_BYTES
    tx._MAX_STRIPE_BYTES = budget
    try:
        rows = tx._gram_block_rows(k)
    finally:
        tx._MAX_STRIPE_BYTES = original
    assert 8 <= rows < 2**24
    assert rows % 8 == 0
    if rows > 8:  # beyond the 8-row floor the budget is honoured
        assert rows * k * tx._GRAM_CELL_BYTES <= budget


@pytest.mark.parametrize(
    ("k", "m", "gram"),
    [
        (3, 3, False),  # a small clique: k**2/m is 3.0, under the ratio
        (99, 2_234, True),  # the fleet vocabulary's shape: 4.39
    ],
)
def test_pair_group_kernel_rule(k, m, gram):
    """The rule gathers any group under ``_GRAM_MIN_ITEMS`` items, and
    counts are bit-identical on either kernel."""
    rng = np.random.default_rng(k)
    a, b = np.triu_indices(k, 1)
    pick = np.sort(rng.choice(a.size, size=m, replace=False))
    pairs = list(zip(a[pick].tolist(), b[pick].tolist()))
    assert len({i for p in pairs for i in p}) == k
    assert k**2 <= tx._GRAM_PAIRS_RATIO * m
    plan = SupportCountingPlan([(i,) for i in range(k)] + pairs)
    assert (plan._gram is not None) is gram
    index = BitmapIndex(
        [
            tuple(rng.choice(k, size=int(rng.integers(0, 4)), replace=False))
            for _ in range(300)
        ],
        k,
    )
    counts, blocks = _blocks(lambda: plan.count(index))
    assert (blocks > 0) is gram
    expected = index.support_counts_loop([(i,) for i in range(k)] + pairs)
    assert counts.tolist() == expected.tolist()
