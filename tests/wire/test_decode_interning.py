"""Decode interning: one frozenset per distinct itemset per decode call.

A :class:`~repro.wire.encoding.TableMemo` is one call's decode context.
Besides decoding each distinct table's bytes once, it interns itemsets
by key, so a table decode builds frozensets only for itemsets no earlier
table of the call held. The oracle is the memo-less decoder (public
``repro.wire.unpack``), which builds one frozenset per itemset of every
payload. Pinned here:

* a model table decoded after its probe table shares the probe table's
  objects, and the reverse order gives equal tables that share them too;
* ``wire.itemsets_materialised`` counts exactly the itemsets new to the
  call -- under Hypothesis, over random tables decoded in random order;
* a payload whose rows arrive unsorted decodes, with or without a memo,
  to the table its sorted twin decodes to: keys come from the sorted
  rows, not the raw items section;
* ``from_sketches`` over a fleet builds as many frozensets as its probe
  table holds.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.lits import LitsModel
from repro.data.transactions import TransactionDataset
from repro.fleet import FleetDeviationMatrix, probe_itemsets
from repro.obs import MetricsRegistry, use_registry
from repro.stream.sketch import SupportSketch, canonical_itemsets
from repro.wire import pack, pack_envelope, read_envelope, unpack
from repro.wire.encoding import (
    TableMemo,
    itemset_sections,
    itemset_table,
    pack_array,
    unpack_array,
)

N_ITEMS = 9
BUILT = "wire.itemsets_materialised"


def counted(fn):
    registry = MetricsRegistry()
    with use_registry(registry):
        value = fn()
    return value, registry.snapshot()["counters"].get(BUILT, 0)


def table(itemsets):
    return canonical_itemsets({frozenset(s) for s in itemsets})


def decode(itemsets, memo=None):
    return itemset_table(*itemset_sections(itemsets), N_ITEMS, memo)


PROBE = table([{0}, {1}, {2}, {5}, {0, 1}, {0, 2}, {1, 5}, {0, 1, 2}])
MODEL = table([{1}, {5}, {1, 5}, {0, 1, 2}])


def shares(subset, superset):
    """Does every itemset of ``subset`` reuse ``superset``'s object?"""
    objects = {s: s for s in superset}
    return all(s is objects[s] for s in subset)


def test_a_model_table_after_its_probe_table_shares_its_objects():
    memo = TableMemo()
    (probe, model), built = counted(lambda: (decode(PROBE, memo), decode(MODEL, memo)))
    assert probe == PROBE and model == MODEL
    assert shares(model, probe)
    assert built == len(PROBE)


def test_the_reverse_order_gives_equal_tables_that_share_too():
    memo = TableMemo()
    (model, probe), built = counted(lambda: (decode(MODEL, memo), decode(PROBE, memo)))
    assert probe == PROBE and model == MODEL
    assert shares(model, probe)
    assert built == len(PROBE)


def test_only_itemsets_new_to_the_call_are_built():
    memo = TableMemo()
    decode(MODEL, memo)
    wider = table([*MODEL, {3}, {3, 4}, {2, 3, 4}])
    decoded, built = counted(lambda: decode(wider, memo))
    assert decoded == wider
    assert built == 3
    # without a memo every itemset is built, on every decode
    _, built = counted(lambda: (unpack(pack(LitsModel(
        dict.fromkeys(MODEL, 0.5), 0.1, N_ITEMS
    )))))
    assert built == len(MODEL)


def _unsorted(payload):
    """``payload`` with the items of every row reversed, valid CRCs."""
    envelope = read_envelope(payload)
    sections = dict(envelope.sections)
    sizes = unpack_array(sections["sizes"], "sizes")
    flat = unpack_array(sections["items"], "items")
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    rows = [flat[a:b][::-1] for a, b in zip(bounds, bounds[1:])]
    items = pack_array(np.concatenate(rows))
    assert items != sections["items"]
    return pack_envelope(
        envelope.kind,
        [(name, items if name == "items" else body)
         for name, body in envelope.sections],
    )


def test_unsorted_rows_decode_to_the_sorted_table():
    model = LitsModel(
        {s: 0.25 + 0.05 * k for k, s in enumerate(PROBE)}, 0.1, N_ITEMS
    )
    payload = pack(model)
    reversed_rows = _unsorted(payload)
    assert unpack(reversed_rows) == unpack(payload) == model
    # through one memo: the unsorted twin is a separate table decode, and
    # its itemsets are the sorted table's objects, keyed by sorted rows
    memo = TableMemo()
    sections = dict(read_envelope(payload).sections)
    twin = dict(read_envelope(reversed_rows).sections)
    (first, second), built = counted(lambda: (
        itemset_table(sections["sizes"], sections["items"], N_ITEMS, memo),
        itemset_table(twin["sizes"], twin["items"], N_ITEMS, memo),
    ))
    assert first == second == PROBE
    assert first is not second
    assert all(a is b for a, b in zip(first, second))
    assert built == len(PROBE)


itemsets = st.frozensets(st.integers(0, N_ITEMS - 1), max_size=4)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sets(itemsets, max_size=12), min_size=1, max_size=5))
def test_one_frozenset_per_distinct_itemset(collections):
    tables = [table(c) for c in collections]
    memo = TableMemo()
    decoded, built = counted(lambda: [decode(t, memo) for t in tables])
    assert decoded == [decode(t) for t in tables] == tables
    assert built == len(set().union(*collections))
    interned = {}
    for t in decoded:
        for s in t:
            assert interned.setdefault(s, s) is s


def test_from_sketches_builds_one_frozenset_per_probe_itemset():
    rng = np.random.default_rng(11)
    datasets = [
        TransactionDataset(
            [tuple(rng.choice(N_ITEMS, 3, replace=False).tolist())
             for _ in range(40)],
            n_items=N_ITEMS,
        )
        for _ in range(4)
    ]
    models = [LitsModel.mine(d, 0.1, max_len=3) for d in datasets]
    probes = probe_itemsets(models)
    payloads = [
        (pack(m), pack(SupportSketch.from_dataset(d, probes)))
        for m, d in zip(models, datasets)
    ]
    fleet, built = counted(lambda: FleetDeviationMatrix.from_sketches(payloads))
    assert built == len(probes)
    for model in fleet.models:
        assert shares(model.itemsets, fleet.sketches[0].itemsets)
    assert np.array_equal(
        fleet.exhaustive().values,
        FleetDeviationMatrix(models, datasets).exhaustive().values,
    )
