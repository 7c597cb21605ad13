"""Decode once: the federated fleet against the per-payload decoder.

``FleetDeviationMatrix.from_sketches`` decodes each distinct itemset
table once per call: a memo keyed by the exact ``(sizes, items)``
section bytes hands later payloads the table the first one built. The
oracle is the public decoder run on every payload alone
(``repro.wire.unpack``), which never shares anything. For Hypothesis
fleets of one to four stores -- some sketching over the fleet's probe
collection, some over a larger collection of their own -- the fleet's
models and sketches must equal the oracle's, its matrix must be
bit-equal to the per-pair deviation over the oracle's objects and to the
row-level engine, and ``wire.itemset_tables_decoded`` must count exactly
the distinct tables. Stores shipping the same probe table share one
decoded object. A table one byte away from a memoised one is decoded
and validated on its own.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.deviation import deviation_from_counts
from repro.core.gcr import gcr
from repro.core.lits import LitsModel
from repro.data.transactions import TransactionDataset
from repro.errors import WireFormatError
from repro.fleet import FleetDeviationMatrix, probe_itemsets
from repro.obs import MetricsRegistry, use_registry
from repro.stream.sketch import SupportSketch
from repro.wire import pack, pack_envelope, read_envelope, unpack
from repro.wire.encoding import pack_array, pack_json, unpack_array

N_ITEMS = 6
MIN_SUPPORT = 0.25
DECODED = "wire.itemset_tables_decoded"


def rows(min_size: int = 4, max_size: int = 16):
    return st.lists(
        st.lists(
            st.integers(0, N_ITEMS - 1), min_size=1, max_size=4, unique=True
        ).map(tuple),
        min_size=min_size, max_size=max_size,
    )


extra_itemsets = st.sets(
    st.frozensets(st.integers(0, N_ITEMS - 1), min_size=1, max_size=3),
    min_size=1, max_size=4,
)


@st.composite
def shipments(draw):
    """``(models, datasets, payloads)``; some stores sketch a wider table."""
    n_stores = draw(st.integers(1, 4))
    datasets = [
        TransactionDataset(draw(rows()), n_items=N_ITEMS)
        for _ in range(n_stores)
    ]
    models = [LitsModel.mine(d, MIN_SUPPORT, max_len=2) for d in datasets]
    probes = probe_itemsets(models)
    payloads = []
    for model, dataset in zip(models, datasets):
        # a wider table still covers every GCR, so the pair stays exact
        table = (
            set(probes) | draw(extra_itemsets)
            if draw(st.booleans())
            else probes
        )
        sketch = SupportSketch.from_dataset(dataset, table)
        payloads.append((pack(model), pack(sketch)))
    return models, datasets, payloads


def oracle_values(models, sketches):
    """Every pair from the per-payload objects: GCR, counts, deviation."""
    n = len(models)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            structure = gcr(models[i].structure, models[j].structure)
            ci = dict(zip(sketches[i].itemsets, sketches[i].counts))
            cj = dict(zip(sketches[j].itemsets, sketches[j].counts))
            out[i, j] = out[j, i] = deviation_from_counts(
                structure,
                np.array([ci[s] for s in structure.itemsets], dtype=np.int64),
                np.array([cj[s] for s in structure.itemsets], dtype=np.int64),
                sketches[i].n_rows, sketches[j].n_rows,
            ).value
    return out


def distinct_tables(payloads):
    tables = set()
    for pair in payloads:
        for payload in pair:
            sections = dict(read_envelope(payload).sections)
            tables.add((sections["sizes"], sections["items"]))
    return len(tables)


@given(fleet=shipments())
@settings(max_examples=40, deadline=None)
def test_from_sketches_equals_the_per_payload_decoder(fleet):
    models, datasets, payloads = fleet
    registry = MetricsRegistry()
    with use_registry(registry):
        federated = FleetDeviationMatrix.from_sketches(payloads)
    decoded = registry.snapshot()["counters"][DECODED]

    oracle_models = [unpack(m) for m, _ in payloads]
    oracle_sketches = [unpack(s) for _, s in payloads]
    assert list(federated.models) == oracle_models == models
    assert list(federated.sketches) == oracle_sketches

    values = federated.exhaustive().values
    assert np.array_equal(values, oracle_values(oracle_models, oracle_sketches))
    assert np.array_equal(
        values, FleetDeviationMatrix(models, datasets).exhaustive().values
    )
    # one decode per distinct table, and byte-equal tables share one object
    assert decoded == distinct_tables(payloads)
    by_bytes = {}
    for (_, payload), sketch in zip(payloads, federated.sketches):
        key = read_envelope(payload).sections[2][1]
        assert by_bytes.setdefault(key, sketch.itemsets) is sketch.itemsets


# --------------------------------------------------------------------- #
# Shared itemsets, and near misses never served from the memo
# --------------------------------------------------------------------- #


@pytest.fixture()
def fleet3():
    """Three stores over 6 items, all sketching the shared probe table."""
    rng = np.random.default_rng(5)
    datasets = [
        TransactionDataset(
            [tuple(sorted(set(rng.integers(0, N_ITEMS, 3).tolist())))
             for _ in range(40)],
            n_items=N_ITEMS,
        )
        for _ in range(3)
    ]
    models = [LitsModel.mine(d, MIN_SUPPORT, max_len=2) for d in datasets]
    probes = probe_itemsets(models)
    payloads = [
        (pack(m), pack(SupportSketch.from_dataset(d, probes)))
        for m, d in zip(models, datasets)
    ]
    return models, datasets, payloads


def test_stores_share_one_decoded_probe_table(fleet3):
    models, datasets, payloads = fleet3
    registry = MetricsRegistry()
    with use_registry(registry):
        federated = FleetDeviationMatrix.from_sketches(payloads)
    assert registry.snapshot()["counters"][DECODED] == 4
    probe = federated.sketches[0].itemsets
    assert all(s.itemsets is probe for s in federated.sketches)
    assert list(federated.models) == models
    assert np.array_equal(
        federated.exhaustive().values,
        FleetDeviationMatrix(models, datasets).exhaustive().values,
    )


def _reframed(payload, **replace):
    """``payload`` with some sections swapped for new bytes, valid CRCs."""
    envelope = read_envelope(payload)
    return pack_envelope(
        envelope.kind,
        [(name, replace.get(name, body)) for name, body in envelope.sections],
    )


def _with_item(payload, position, value):
    """The sketch's items section with one item set to ``value``.

    Items are little-endian int64 below 256, so exactly one byte of the
    section changes.
    """
    flat = unpack_array(dict(read_envelope(payload).sections)["items"], "items")
    old = flat[position]
    flat[position] = value
    items = pack_array(flat)
    assert old != value and old < 256 and value < 256
    return items


def test_a_table_one_byte_away_is_decoded_on_its_own(fleet3):
    _, _, payloads = fleet3
    model, sketch = payloads[2]
    flat = unpack(sketch).itemsets
    last = sorted(flat[-1])
    # the last row's top item, one lower, keeps the table canonical
    assert last[-1] - 1 > last[-2]
    shifted = _reframed(sketch, items=_with_item(sketch, -1, last[-1] - 1))
    fleet_payloads = [payloads[0], payloads[1], (model, shifted)]
    registry = MetricsRegistry()
    with use_registry(registry):
        federated = FleetDeviationMatrix.from_sketches(fleet_payloads)
    # 3 model tables, the shared probe table and the near miss
    assert registry.snapshot()["counters"][DECODED] == 5
    near_miss = federated.sketches[2]
    assert near_miss == unpack(shifted)
    assert near_miss.itemsets is not federated.sketches[0].itemsets
    assert near_miss.itemsets != federated.sketches[0].itemsets


@pytest.mark.parametrize("position, value", [
    (-1, N_ITEMS),  # the last item, just past the universe
    (-2, 0),  # the last row drops below its predecessor
])
def test_a_broken_near_miss_is_validated_not_served(fleet3, position, value):
    _, _, payloads = fleet3
    model, sketch = payloads[2]
    broken = _reframed(sketch, items=_with_item(sketch, position, value))
    with pytest.raises(WireFormatError) as info:
        FleetDeviationMatrix.from_sketches(
            [payloads[0], payloads[1], (model, broken)]
        )
    assert info.value.section == "items"


def test_a_memo_hit_still_checks_its_own_universe(fleet3):
    """Byte-equal tables, but the third payload claims fewer items."""
    _, _, payloads = fleet3
    model, sketch = payloads[2]
    sketch_meta = unpack(sketch)
    assert max(max(s) for s in sketch_meta.itemsets) == N_ITEMS - 1
    narrow = _reframed(sketch, meta=pack_json({
        "n_items": N_ITEMS - 1,
        "n_transactions": sketch_meta.n_transactions,
    }))
    with pytest.raises(WireFormatError) as info:
        FleetDeviationMatrix.from_sketches(
            [payloads[0], payloads[1], (model, narrow)]
        )
    assert info.value.section == "items"


def test_a_nan_support_is_refused_before_it_reaches_delta_star(fleet3):
    """A NaN support would make delta* NaN and certify pairs falsely."""
    models, _, payloads = fleet3
    model, sketch = payloads[1]
    supports = np.array(
        [models[1].supports[s] for s in models[1].itemsets]
    )
    supports[0] = np.nan
    poisoned = _reframed(model, supports=pack_array(supports))
    with pytest.raises(WireFormatError) as info:
        FleetDeviationMatrix.from_sketches(
            [payloads[0], (poisoned, sketch), payloads[2]]
        )
    assert info.value.section == "supports"
