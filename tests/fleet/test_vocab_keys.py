"""The key-built vocabulary against the set-union oracle.

:class:`LitsVocabulary` numbers a fleet's itemsets from array keys: one
``np.unique`` per itemset length over the models' rows, one scatter,
and ``searchsorted`` lookups. The oracle is what it replaced, a few
lines: the set union of the models' itemsets put in canonical order
(``_Canonical.ordered(set().union(...))``, which keeps the first
model's object for a shared itemset), a dict from itemset to position,
and one dict lookup per model itemset.

Hypothesis draws fleets of one to four models whose itemsets come as a
dict (arrays computed on first use) or off the wire (arrays set by the
decoder), with empty models, the empty itemset, mixed lengths, and a
10**6-item universe with five-item itemsets, where a mixed-radix key
(10**30) would overflow int64. ``itemsets`` (the same objects in the
same order), ``member``, ``supports``, ``ids()`` (``-1`` for absent
itemsets) and ``remap()`` must equal the oracle's.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.lits import LitsModel
from repro.core.model import _Canonical
from repro.fleet import LitsVocabulary, probe_itemsets
from repro.wire import pack, unpack

#: small universes share itemsets across models; the large one has
#: items at both ends of a 10**6-item universe
UNIVERSES = {
    7: list(range(7)),
    10**6: [0, 1, 2, 3, 10**6 - 4, 10**6 - 3, 10**6 - 2, 10**6 - 1],
}


class Oracle:
    """The set-union vocabulary and its position dict."""

    def __init__(self, models):
        self.itemsets = _Canonical.ordered(
            set().union(*(model.itemsets for model in models))
        )
        self.position = {s: k for k, s in enumerate(self.itemsets)}
        shape = (len(models), len(self.itemsets))
        self.member = np.zeros(shape, dtype=bool)
        self.supports = np.zeros(shape)
        for i, model in enumerate(models):
            for itemset, support in model.supports.items():
                self.member[i, self.position[itemset]] = True
                self.supports[i, self.position[itemset]] = support

    def ids(self, itemsets):
        return np.array(
            [self.position.get(frozenset(s), -1) for s in itemsets],
            dtype=np.intp,
        )


@st.composite
def fleets(draw):
    n_items = draw(st.sampled_from(sorted(UNIVERSES)))
    itemsets = st.frozensets(
        st.sampled_from(UNIVERSES[n_items]), max_size=5
    )
    models = []
    for _ in range(draw(st.integers(1, 4))):
        supports = draw(
            st.dictionaries(
                itemsets, st.floats(0.0, 1.0), max_size=12
            )
        )
        model = LitsModel(supports, 0.1, n_items)
        if draw(st.booleans()):
            model = unpack(pack(model))  # arrays set by the decoder
        models.append(model)
    queries = draw(st.lists(itemsets, max_size=10))
    return models, queries


@settings(max_examples=150, deadline=None)
@given(fleets())
def test_vocabulary_equals_the_set_union_oracle(fleet):
    models, queries = fleet
    vocab = LitsVocabulary(models)
    oracle = Oracle(models)

    assert len(vocab.itemsets) == len(oracle.itemsets)
    assert all(a is b for a, b in zip(vocab.itemsets, oracle.itemsets))
    assert np.array_equal(vocab.member, oracle.member)
    assert np.array_equal(vocab.supports, oracle.supports)
    # probe_itemsets is the same union: the same objects, same order
    probes = probe_itemsets(models)
    assert all(a is b for a, b in zip(probes, oracle.itemsets))
    assert len(probes) == len(oracle.itemsets)

    mixed = [*queries, *vocab.itemsets[::2]]
    assert np.array_equal(vocab.ids(mixed), oracle.ids(mixed))
    assert np.array_equal(
        vocab.ids(vocab.itemsets), np.arange(len(vocab), dtype=np.intp)
    )


@settings(max_examples=100, deadline=None)
@given(fleets(), fleets())
def test_remap_equals_the_position_dict(before, after):
    models, _ = before
    previous = LitsVocabulary(models)
    rows = np.arange(2 * len(previous), dtype=np.int64).reshape(2, -1)
    # the second fleet's models replace some of the first's
    current = LitsVocabulary([*models[: len(models) // 2], *after[0]])
    ids = Oracle(models).ids(current.itemsets)
    expected = None if (ids < 0).any() else rows[:, ids]
    got = current.remap(previous, rows)
    if expected is None:
        assert got is None
    else:
        assert np.array_equal(got, expected)


def test_single_store_and_empty_models():
    only = LitsModel({frozenset({3}): 0.5, frozenset({1, 3}): 0.25}, 0.1, 7)
    empty = LitsModel({}, 0.1, 7)
    vocab = LitsVocabulary([only])
    assert vocab.itemsets == only.itemsets
    assert all(a is b for a, b in zip(vocab.itemsets, only.itemsets))
    assert vocab.supports.tolist() == [[0.5, 0.25]]

    vocab = LitsVocabulary([empty, only, empty])
    assert vocab.member.tolist() == [[False, False], [True, True], [False, False]]
    assert vocab.ids([frozenset({1, 3}), frozenset({2})]).tolist() == [1, -1]

    nothing = LitsVocabulary([empty])
    assert len(nothing) == 0 and nothing.member.shape == (1, 0)
    assert nothing.ids([frozenset({1})]).tolist() == [-1]


def test_long_itemsets_in_a_large_universe_get_exact_ids():
    """Five items in a 10**6-item universe: a mixed-radix key would need
    10**30 values, far past int64; the row keys order them exactly."""
    top = 10**6
    a = frozenset({0, 1, 2, 3, top - 1})
    b = frozenset({0, 1, 2, 3, top - 2})
    c = frozenset({top - 5, top - 4, top - 3, top - 2, top - 1})
    models = [
        LitsModel({a: 0.5, c: 0.25}, 0.1, top),
        LitsModel({b: 0.75, c: 0.5}, 0.1, top),
    ]
    vocab = LitsVocabulary(models)
    assert list(vocab.itemsets) == [b, a, c]
    assert vocab.supports.tolist() == [[0.0, 0.5, 0.25], [0.75, 0.0, 0.5]]
    assert vocab.ids([c, a, frozenset({0, 1, 2, 3, 4})]).tolist() == [2, 1, -1]
