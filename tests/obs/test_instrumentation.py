"""Engine instrumentation: backend-invariant counters, one source of truth.

The acceptance pin for the observability layer: running the same
sharded workload under the serial, thread, and process executors
produces **identical** counter and histogram snapshots — per-shard
registries merged in shard order equal serial collection exactly. Plus
smoke coverage that each wired subsystem (windows, monitor, fleet,
bootstrap) actually emits, and that the legacy attributes
(``rows_sketched``, ``n_pruned``) are views of the same counters.
"""

from __future__ import annotations

import numpy as np
import pytest
from wide_executors import wide

from repro.core.dtree_model import DtModel
from repro.core.lits import LitsModel
from repro.data.quest_basket import generate_basket
from repro.data.quest_classify import generate_classification
from repro.mining.tree.builder import TreeParams
from repro.obs import MetricsRegistry, use_registry
from repro.stats.bootstrap import deviation_significance
from repro.stream.executor import (
    sharded_partition_sketch,
    sharded_support_sketch,
)

EXECUTORS = ("serial", "thread", "process")


def _comparable(snapshot):
    """The deterministic sections: everything except span timings.

    ``storage.bytes_shipped`` is excluded: it tallies *transport* cost,
    which is backend-dependent by design — only a process fan pays to
    ship rows or buffers across the pickle boundary (serial/thread
    share by reference). The equality pin covers the computation
    counters; the shipping counter has its own per-backend assertions
    in the out-of-core suites.
    """
    counters = dict(snapshot["counters"])
    counters.pop("storage.bytes_shipped", None)
    return {
        "counters": counters,
        "gauges": snapshot["gauges"],
        "histograms": snapshot["histograms"],
        "span_names": sorted(snapshot["spans"]),
    }


class TestExecutorSnapshotEquality:
    @pytest.fixture(scope="class")
    def transactions(self):
        return list(
            generate_basket(
                120, n_items=20, avg_transaction_len=5, n_patterns=15,
                avg_pattern_len=3, seed=5,
            )
        )

    @pytest.mark.parametrize("workers", [1, 3, 5])
    def test_support_sketch_counters_match_across_backends(
        self, transactions, workers
    ):
        itemsets = [(0,), (1,), (0, 1), ()]
        snapshots = {}
        sketches = {}
        for executor in EXECUTORS:
            registry = MetricsRegistry()
            with wide(executor, workers) as runner, use_registry(registry):
                sketches[executor] = sharded_support_sketch(
                    transactions, itemsets, 20, executor=runner
                )
            snapshots[executor] = registry.snapshot()
        base = _comparable(snapshots["serial"])
        assert base["counters"]["stream.shards.sketched"] == workers
        for executor in EXECUTORS[1:]:
            assert _comparable(snapshots[executor]) == base
            assert sketches[executor] == sketches["serial"]

    def test_empty_shards_still_merge_identically(self, transactions):
        # more shards than rows: trailing shards are empty, and their
        # (empty-row) observations must still merge in on every backend
        rows = transactions[:3]
        itemsets = [(0,), ()]
        snapshots = {}
        for executor in EXECUTORS:
            registry = MetricsRegistry()
            with wide(executor, 6) as runner, use_registry(registry):
                sharded_support_sketch(rows, itemsets, 20, executor=runner)
            snapshots[executor] = registry.snapshot()
        base = _comparable(snapshots["serial"])
        assert base["counters"]["stream.shards.sketched"] == 6
        hist = base["histograms"]["stream.shard.rows"]
        assert hist["count"] == 6
        # 3 empty shards observed rows=0.0 (first bucket of the default
        # power-of-ten edges holds values <= 1)
        assert hist["counts"][0] >= 3
        for executor in EXECUTORS[1:]:
            assert _comparable(snapshots[executor]) == base

    @pytest.mark.parametrize("workers", [1, 4])
    def test_partition_sketch_counters_match_across_backends(self, workers):
        dataset = generate_classification(200, function=1, seed=6)
        structure = DtModel.fit(
            dataset, TreeParams(max_depth=3, min_leaf=20)
        ).structure
        snapshots = {}
        # a tree plan pickles (the fleet engine's GCR overlays do not),
        # so every backend ships it
        for executor in EXECUTORS:
            registry = MetricsRegistry()
            with wide(executor, workers) as runner, use_registry(registry):
                sharded_partition_sketch(
                    dataset.slice_rows(0, len(dataset)), structure.plan, runner
                )
            snapshots[executor] = registry.snapshot()
        base = _comparable(snapshots["serial"])
        for executor in EXECUTORS[1:]:
            assert _comparable(snapshots[executor]) == base


class TestWindowCountersAreTheSourceOfTruth:
    def test_rows_sketched_attribute_and_counter_agree(self):
        from repro.stream.chunks import iter_chunks
        from repro.stream.windows import WindowManager

        txns = list(
            generate_basket(
                400, n_items=15, avg_transaction_len=4, n_patterns=10,
                avg_pattern_len=3, seed=7,
            )
        )
        registry = MetricsRegistry()
        with use_registry(registry):
            manager = WindowManager(
                [(0,), (1,)], 15, window_chunks=4, policy="sliding"
            )
            windows = list(manager.push_many(iter_chunks(txns, 100)))
        assert manager.rows_sketched == 400
        assert manager.windows_emitted == len(windows)
        counters = registry.snapshot()["counters"]
        # the legacy attributes are views of the same obs counters
        assert counters["stream.windows.rows_sketched"] == 400
        assert counters["stream.windows.emitted"] == len(windows)

    def test_attributes_work_without_an_active_registry(self):
        from repro.stream.windows import WindowManager

        manager = WindowManager([(0,)], 5, window_chunks=2)
        manager.push([(0,), (1,)])
        assert manager.rows_sketched == 2


class TestMonitorInstrumentation:
    def test_observe_latency_and_qualification_path_counters(self):
        from repro.stream import OnlineChangeMonitor

        txns = list(
            generate_basket(
                900, n_items=15, avg_transaction_len=4, n_patterns=10,
                avg_pattern_len=3, seed=8,
            )
        )

        def builder(d):
            return LitsModel.mine(d, 0.05, max_len=2)

        registry = MetricsRegistry()
        with use_registry(registry):
            monitor = OnlineChangeMonitor(
                builder, 15, window_size=300, n_boot=4,
                rng=np.random.default_rng(0),
            )
            observations = list(
                monitor.monitor_stream(
                    [txns[i : i + 300] for i in range(0, 900, 300)]
                )
            )
            monitor.close()
        snap = registry.snapshot()
        assert snap["counters"]["monitor.qualify.bootstrap"] == len(
            observations
        )
        assert snap["histograms"]["monitor.observe.latency_s"]["count"] == len(
            observations
        )
        assert "monitor.observe" in snap["spans"]
        # the bootstrap ran through the count-space engine (the monitor
        # compiles its plan from sketches, so the tell-tale counters are
        # the membership scans and the per-replicate GEMM tally)
        assert snap["counters"]["bootstrap.replicates.gemm"] >= 4

    def test_cheap_qualification_counts_separately(self):
        from repro.stream import OnlineChangeMonitor

        txns = list(
            generate_basket(
                600, n_items=15, avg_transaction_len=4, n_patterns=10,
                avg_pattern_len=3, seed=9,
            )
        )

        def builder(d):
            return LitsModel.mine(d, 0.05, max_len=2)

        registry = MetricsRegistry()
        with use_registry(registry):
            monitor = OnlineChangeMonitor(
                builder, 15, window_size=300, n_boot=0, delta_threshold=1e9
            )
            observations = list(
                monitor.monitor_stream(
                    [txns[i : i + 300] for i in range(0, 600, 300)]
                )
            )
            monitor.close()
        counters = registry.snapshot()["counters"]
        assert counters["monitor.qualify.cheap"] == len(observations)
        assert "monitor.qualify.bootstrap" not in counters


class TestFleetInstrumentation:
    @pytest.fixture(scope="class")
    def small_fleet(self):
        rng = np.random.default_rng(10)
        datasets = [
            generate_basket(
                150, n_items=20, avg_transaction_len=5, n_patterns=12,
                avg_pattern_len=3 + (i % 3), rng=rng,
            )
            for i in range(4)
        ]
        models = [LitsModel.mine(d, 0.05, max_len=2) for d in datasets]
        return models, datasets

    def test_matrix_attributes_view_the_obs_counters(self, small_fleet):
        from repro.fleet import FleetDeviationMatrix

        models, datasets = small_fleet
        registry = MetricsRegistry()
        with use_registry(registry):
            engine = FleetDeviationMatrix(models, datasets)
            matrix = engine.exhaustive()
        counters = registry.snapshot()["counters"]
        n_pairs = len(models) * (len(models) - 1) // 2
        assert matrix.n_scanned == n_pairs
        assert counters["fleet.pairs.scanned"] == matrix.n_scanned
        assert matrix.metrics["fleet.pairs.scanned"] == matrix.n_scanned
        assert counters["fleet.store.scans"] == len(models)
        report = matrix.to_report()
        assert report["metrics"]["fleet.pairs.scanned"] == matrix.n_scanned
        assert report["pruning"]["n_scanned"] == matrix.n_scanned

    def test_pruned_counter_matches_exact_mask(self, small_fleet):
        from repro.fleet import FleetDeviationMatrix

        models, datasets = small_fleet
        registry = MetricsRegistry()
        with use_registry(registry):
            engine = FleetDeviationMatrix(models, datasets)
            bounds = engine.bound_matrix()
            n = len(models)
            threshold = float(
                np.median(bounds[np.triu_indices(n, k=1)])
            )
            matrix = engine.pruned(threshold)
        counters = registry.snapshot()["counters"]
        off_diag = np.triu_indices(len(models), k=1)
        assert counters["fleet.pairs.pruned"] == matrix.n_pruned
        assert matrix.n_pruned == int((~matrix.exact_mask[off_diag]).sum())
        assert counters["fleet.bounds.filled"] == len(models) * (
            len(models) - 1
        ) // 2


class TestBootstrapInstrumentation:
    def test_one_pooled_scan_per_significance_call(self, basket_pair):
        d1, d2 = basket_pair

        def builder(d):
            return LitsModel.mine(d, 0.05, max_len=2)

        registry = MetricsRegistry()
        with use_registry(registry):
            deviation_significance(
                d1, d2, builder, n_boot=6, rng=np.random.default_rng(0)
            )
        counters = registry.snapshot()["counters"]
        assert counters["bootstrap.pooled_scans"] == 1
        assert counters["bootstrap.replicates.gemm"] >= 6
