"""Federated fleet comparison: payloads in, oracle decisions out.

``FleetDeviationMatrix.from_sketches`` receives only wire payloads --
no dataset, no index, no row is reachable from the comparer -- and must
still reproduce the row-level engine exactly:

* ``exhaustive()`` values **bit-equal** to the row-level oracle (same
  integer counts, same ``deviation_from_counts`` arithmetic);
* ``pruned(t)`` agreeing with the oracle on every ``<= t`` decision;
* ``qualify()`` equal to the counts-bootstrap a site could run locally
  (partition fleets, disjoint regions), and refusing for lits fleets
  where only the certified delta* bound is sound;
* kilobyte-scale accounting: every store's shipment measured and small.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.aggregate import MAX
from repro.core.difference import SCALED
from repro.core.dtree_model import DtModel
from repro.core.lits import LitsModel
from repro.data.quest_basket import build_pattern_pool, generate_basket
from repro.data.quest_classify import generate_classification
from repro.errors import (
    IncompatibleModelsError,
    InvalidParameterError,
    WireFormatError,
)
from repro.fleet import FleetDeviationMatrix, probe_itemsets
from repro.fleet.federated import SketchFleet
from repro.mining.tree.builder import TreeParams
from repro.stats.resample_plan import CountsResamplePlan
from repro.stream.sketch import PartitionSketch, SupportSketch
from repro.wire import pack

N_STORES = 6


@pytest.fixture(scope="module")
def lits_setup():
    """Six stores from two buying processes, plus their shipments."""
    rng = np.random.default_rng(13)
    pool_a = build_pattern_pool(rng, n_items=40, n_patterns=25,
                                avg_pattern_len=3)
    pool_b = build_pattern_pool(rng, n_items=40, n_patterns=25,
                                avg_pattern_len=5)
    datasets = [
        generate_basket(400, n_items=40, avg_transaction_len=6, rng=rng,
                        pool=pool)
        for pool in (pool_a, pool_a, pool_a, pool_b, pool_b, pool_b)
    ]
    models = [LitsModel.mine(d, 0.05, max_len=2) for d in datasets]
    # the federated protocol: models travel first, then every site
    # sketches the fleet-wide probe collection
    probes = probe_itemsets(models)
    sketches = [SupportSketch.from_dataset(d, probes) for d in datasets]
    payloads = [
        (pack(m), pack(s)) for m, s in zip(models, sketches)
    ]
    return models, datasets, payloads


@pytest.fixture(scope="module")
def partition_setup():
    """Four stores sketched over one fleet-shared reference structure."""
    datasets = [
        generate_classification(400, function=fn, seed=60 + i)
        for i, fn in enumerate((1, 1, 2, 3))
    ]
    ref = DtModel.fit(datasets[0], TreeParams(max_depth=4, min_leaf=25))
    sketches = [
        PartitionSketch.from_dataset(d, ref.structure) for d in datasets
    ]
    payloads = [pack(s, model=ref) for s in sketches]
    return ref, datasets, sketches, payloads


class TestExhaustiveOracleAgreement:
    def test_lits_values_bit_equal_to_row_level_engine(self, lits_setup):
        models, datasets, payloads = lits_setup
        oracle = FleetDeviationMatrix(models, datasets).exhaustive()
        fleet = FleetDeviationMatrix.from_sketches(payloads)
        result = fleet.exhaustive()
        # bit-equal, not merely close: identical counts, identical
        # arithmetic
        assert np.array_equal(result.values, oracle.values)
        assert result.exact_mask.all()
        assert result.n_sketch_exact == result.n_pairs == 15
        assert result.n_scanned == 0

    def test_partition_values_bit_equal_to_row_level_engine(
        self, partition_setup
    ):
        ref, datasets, _, payloads = partition_setup
        oracle = FleetDeviationMatrix(
            [ref] * len(datasets), datasets
        ).exhaustive()
        result = FleetDeviationMatrix.from_sketches(payloads).exhaustive()
        assert np.array_equal(result.values, oracle.values)
        assert result.kind == "partition"

    def test_non_default_f_g_agree_with_oracle(self, lits_setup):
        models, datasets, payloads = lits_setup
        oracle = FleetDeviationMatrix(
            models, datasets, f=SCALED, g=MAX
        ).exhaustive()
        result = FleetDeviationMatrix.from_sketches(
            payloads, f=SCALED, g=MAX
        ).exhaustive()
        assert np.array_equal(result.values, oracle.values)
        assert result.f_name == SCALED.name
        assert result.g_name == MAX.name

    def test_pair_lookup_by_name(self, lits_setup):
        _, _, payloads = lits_setup
        names = [f"shop-{i}" for i in range(N_STORES)]
        fleet = FleetDeviationMatrix.from_sketches(payloads, names=names)
        values = fleet.exhaustive().values
        assert fleet.pair("shop-0", "shop-3") == values[0, 3]
        assert fleet.pair(2, 2) == 0.0


class TestPairMemo:
    def test_memo_answers_like_a_fresh_engine(self, lits_setup):
        """pruned(), then exhaustive(), then pair() on one fleet return
        what fresh fleets return, and each pair is measured once."""
        _, _, payloads = lits_setup
        fleet = FleetDeviationMatrix.from_sketches(payloads)
        bounds = fleet.bound_matrix()
        off = bounds[np.triu_indices(N_STORES, k=1)]
        t = float(np.median(off))
        n_above = int((off > t).sum())
        assert 0 < n_above < len(off)

        def fresh():
            return FleetDeviationMatrix.from_sketches(payloads)

        pruned = fleet.pruned(t)
        assert fleet.n_pair_computations == n_above
        exhaustive = fleet.exhaustive()
        assert fleet.n_pair_computations == len(off)
        value = fleet.pair(4, 1)
        assert fleet.n_pair_computations == len(off)
        for got, want in (
            (pruned, fresh().pruned(t)),
            (exhaustive, fresh().exhaustive()),
        ):
            assert np.array_equal(got.values, want.values)
            assert np.array_equal(got.exact_mask, want.exact_mask)
            assert dict(got.metrics) == dict(want.metrics)
        assert value == fresh().pair(1, 4) == exhaustive.values[1, 4]


class TestPrunedDecisionAgreement:
    def test_every_threshold_decision_matches_oracle(self, lits_setup):
        models, datasets, payloads = lits_setup
        oracle = FleetDeviationMatrix(models, datasets).exhaustive().values
        fleet = FleetDeviationMatrix.from_sketches(payloads)
        bounds = fleet.bound_matrix()
        off = bounds[np.triu_indices(N_STORES, k=1)]
        for t in (float(np.min(off)), float(np.median(off)),
                  float(np.max(off))):
            result = fleet.pruned(t)
            # pruned entries are bounds: they majorise the oracle and
            # sit at or below t, so every <= t decision is the oracle's
            assert (result.values >= oracle - 1e-9).all()
            assert (result.values[~result.exact_mask] <= t + 1e-12).all()
            assert ((result.values <= t) == (oracle <= t)).all()
            assert np.allclose(
                result.values[result.exact_mask], oracle[result.exact_mask]
            )
            assert result.n_sketch_exact + result.n_pruned == result.n_pairs

    def test_bounds_only_fallback_never_touches_sketches(self, lits_setup):
        models, datasets, payloads = lits_setup
        fleet = FleetDeviationMatrix.from_sketches(payloads)
        bounds = fleet.bound_matrix()
        t = float(np.max(bounds))  # certifies every pair
        result = fleet.pruned(t)
        assert result.n_pruned == result.n_pairs
        assert result.n_sketch_exact == 0
        off_diag = ~np.eye(N_STORES, dtype=bool)
        assert np.array_equal(result.values[off_diag], bounds[off_diag])
        # groups from the all-pruned matrix equal the oracle's groups
        oracle = FleetDeviationMatrix(models, datasets).exhaustive()
        assert result.components() == oracle.components(t)

    def test_pruned_is_lits_only(self, partition_setup):
        _, _, _, payloads = partition_setup
        fleet = FleetDeviationMatrix.from_sketches(payloads)
        with pytest.raises(IncompatibleModelsError, match="lits"):
            fleet.pruned(1.0)

    def test_pruned_requires_majorisable_f_g(self, lits_setup):
        _, _, payloads = lits_setup
        fleet = FleetDeviationMatrix.from_sketches(payloads, f=SCALED)
        with pytest.raises(InvalidParameterError, match="f_a"):
            fleet.pruned(1.0)


class TestQualification:
    def test_qualify_equals_local_counts_bootstrap(self, partition_setup):
        _, _, sketches, payloads = partition_setup
        fleet = FleetDeviationMatrix.from_sketches(payloads)
        local = CountsResamplePlan.from_sketches(
            sketches[0], sketches[2]
        ).significance(300, seed=5)
        federated = fleet.qualify(0, 2, n_boot=300, seed=5)
        assert federated.p_value == local.p_value
        assert federated.observed == local.observed

    def test_qualify_separates_same_from_drifted(self, partition_setup):
        _, _, _, payloads = partition_setup
        fleet = FleetDeviationMatrix.from_sketches(payloads)
        same = fleet.qualify(0, 1, n_boot=300, seed=1).p_value
        drifted = fleet.qualify(0, 2, n_boot=300, seed=1).p_value
        assert drifted < 0.05 < same

    def test_qualify_is_partition_only(self, lits_setup):
        _, _, payloads = lits_setup
        fleet = FleetDeviationMatrix.from_sketches(payloads)
        # lits itemset regions overlap: no counts-only bootstrap exists,
        # the certified delta* bound is the qualification mechanism
        with pytest.raises(InvalidParameterError, match="delta\\*"):
            fleet.qualify(0, 1)

    def test_from_sketches_plan_requires_shared_structure(
        self, partition_setup
    ):
        ref, datasets, sketches, _ = partition_setup
        other = DtModel.fit(datasets[2], TreeParams(max_depth=3, min_leaf=40))
        foreign = PartitionSketch.from_dataset(datasets[2], other.structure)
        with pytest.raises(IncompatibleModelsError):
            CountsResamplePlan.from_sketches(sketches[0], foreign)
        with pytest.raises(InvalidParameterError, match="PartitionSketch"):
            CountsResamplePlan.from_sketches(sketches[0], object())


class TestShipmentAccounting:
    def test_payloads_are_kilobyte_scale(self, lits_setup, partition_setup):
        _, _, lits_payloads = lits_setup
        _, _, _, partition_payloads = partition_setup
        for model_payload, sketch_payload in lits_payloads:
            assert len(model_payload) + len(sketch_payload) < 64 * 1024
        for payload in partition_payloads:
            assert len(payload) < 8 * 1024

    def test_bytes_shipped_counter_and_per_store_sizes(self, lits_setup):
        from repro.obs import MetricsRegistry, use_registry

        _, _, payloads = lits_setup
        registry = MetricsRegistry()
        with use_registry(registry):
            fleet = FleetDeviationMatrix.from_sketches(payloads)
        expected = tuple(len(m) + len(s) for m, s in payloads)
        assert fleet.payload_bytes == expected
        counters = registry.snapshot()["counters"]
        assert counters["wire.bytes_shipped"] == sum(expected)
        # every payload was CRC-verified on the way in
        assert counters["wire.payloads_unpacked"] >= 2 * N_STORES


class TestValidation:
    def test_coverage_gap_names_the_cure(self, lits_setup):
        models, datasets, payloads = lits_setup
        # store 0 sketches only its own itemsets, not the fleet's probes
        narrow = SupportSketch.from_dataset(datasets[0], models[0].itemsets)
        broken = [(pack(models[0]), pack(narrow)), *payloads[1:]]
        fleet = FleetDeviationMatrix.from_sketches(broken)
        with pytest.raises(
            IncompatibleModelsError, match="probe_itemsets"
        ):
            fleet.exhaustive()

    def test_different_partition_structures_rejected(self, partition_setup):
        ref, datasets, _, payloads = partition_setup
        other = DtModel.fit(datasets[1], TreeParams(max_depth=3, min_leaf=40))
        foreign = pack(
            PartitionSketch.from_dataset(datasets[1], other.structure),
            model=other,
        )
        with pytest.raises(
            IncompatibleModelsError, match="fleet-shared"
        ):
            FleetDeviationMatrix.from_sketches([payloads[0], foreign])

    def test_mixed_kinds_rejected(self, lits_setup, partition_setup):
        _, _, lits_payloads = lits_setup
        _, _, _, partition_payloads = partition_setup
        with pytest.raises(IncompatibleModelsError, match="one model kind"):
            FleetDeviationMatrix.from_sketches(
                [lits_payloads[0], partition_payloads[0]]
            )

    def test_wrong_payload_kind_in_pair(self, lits_setup):
        _, _, payloads = lits_setup
        model_payload, sketch_payload = payloads[0]
        with pytest.raises(InvalidParameterError, match="lits-model"):
            SketchFleet([(sketch_payload, sketch_payload)])
        with pytest.raises(InvalidParameterError, match="support-sketch"):
            SketchFleet([(model_payload, model_payload)])
        with pytest.raises(
            InvalidParameterError, match="partition-sketch"
        ):
            SketchFleet([model_payload])

    def test_corrupted_payload_rejected_before_construction(
        self, lits_setup
    ):
        _, _, payloads = lits_setup
        model_payload, sketch_payload = payloads[0]
        mangled = bytearray(sketch_payload)
        mangled[-5] ^= 0x10
        with pytest.raises(WireFormatError, match="checksum"):
            FleetDeviationMatrix.from_sketches(
                [(model_payload, bytes(mangled))]
            )

    def test_empty_and_misnamed_fleets(self, lits_setup):
        _, _, payloads = lits_setup
        with pytest.raises(InvalidParameterError, match="zero payloads"):
            FleetDeviationMatrix.from_sketches([])
        with pytest.raises(InvalidParameterError, match="unique"):
            FleetDeviationMatrix.from_sketches(
                payloads[:2], names=["a", "a"]
            )
        with pytest.raises(InvalidParameterError, match="align"):
            FleetDeviationMatrix.from_sketches(payloads[:2], names=["a"])


class TestReporting:
    def test_report_carries_sketch_exact_and_payload_sizes(self, lits_setup):
        import json

        _, _, payloads = lits_setup
        fleet = FleetDeviationMatrix.from_sketches(payloads)
        result = fleet.exhaustive()
        report = json.loads(json.dumps(result.to_report()))
        assert report["pruning"]["n_sketch_exact"] == 15
        assert report["pruning"]["n_scanned"] == 0
        assert len(report["matrix"]) == N_STORES
