"""An attached index is a snapshot: rows the owner appends later stay out.

``BitmapIndex.attach`` maps the owner's stripe files, so bits the owner
scatters after the attach land in the view's partial tail byte too. Every
counting method masks that byte to the view's committed row count. The
fixture: 13 rows in which items 0 and 1 occur together 5 times, then the
owner appends 2 more rows of ``(0, 1)`` -- still inside the 2-byte tail,
so the view shares the very bytes the owner writes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.storage import MmapStripeStore
from repro.data.transactions import BitmapIndex, SupportCountingPlan
from repro.mining.apriori import apriori_from_index

ROWS = [(0, 1)] * 5 + [(0,), (1,), (2,), (0, 2), (1, 2), (2,), (), (0,)]


@pytest.fixture
def view_and_fresh(tmp_path):
    owner = BitmapIndex(ROWS, 3, store=MmapStripeStore(tmp_path / "s"))
    view = BitmapIndex.attach(owner.handle())
    owner.append([(0, 1), (0, 1)])
    assert view.n_transactions == 13 and owner.n_transactions == 15
    # the owner's new bits really are visible through the view's mapping
    assert owner._bits.shape[1] == view._bits.shape[1] == 2
    return view, BitmapIndex(ROWS, 3)


def test_item_support_counts(view_and_fresh):
    view, fresh = view_and_fresh
    assert view.item_support_counts().tolist() == [8, 7, 4]
    assert view.item_support_counts().tolist() == (
        fresh.item_support_counts().tolist()
    )


def test_support_count(view_and_fresh):
    view, fresh = view_and_fresh
    for items in [(0,), (1,), (0, 1), (0, 2)]:
        assert view.support_count(items) == fresh.support_count(items)
    assert view.support_count((0, 1)) == 5


def test_support_counts(view_and_fresh):
    view, fresh = view_and_fresh
    itemsets = [(0,), (1,), (0, 1), (1, 2), ()]
    assert view.support_counts(itemsets).tolist() == [8, 7, 5, 1, 13]
    assert view.support_counts(itemsets).tolist() == (
        fresh.support_counts(itemsets).tolist()
    )


def test_plan_and_gram(view_and_fresh):
    view, fresh = view_and_fresh
    plan = SupportCountingPlan([(0,), (0, 1), (1, 2)])
    assert plan.count(view).tolist() == plan.count(fresh).tolist() == [8, 5, 1]
    assert np.array_equal(view.gram_counts([0, 1, 2]), fresh.gram_counts([0, 1, 2]))
    assert view.gram_counts([0, 1])[0, 1] == 5


def test_apriori(view_and_fresh):
    view, fresh = view_and_fresh
    mined = apriori_from_index(view, 0.3)
    assert mined[frozenset({0, 1})] == 5 / 13
    assert list(mined.items()) == list(apriori_from_index(fresh, 0.3).items())
