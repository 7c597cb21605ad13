"""Public-API integration tests: __all__ resolves, end-to-end walkthrough."""

from __future__ import annotations

import numpy as np
import pytest

import repro

#: ``repro.__all__``, name for name and in order: the public surface a
#: refactor must keep byte-identical.
PUBLIC_ALL = [
    "ABSOLUTE",
    "AggregateFunction",
    "AttributeSpace",
    "BootstrapResult",
    "CountsResamplePlan",
    "LitsResamplePlan",
    "PartitionResamplePlan",
    "ResamplePlan",
    "compile_resample_plan",
    "BoxRegion",
    "ChangeMonitor",
    "ClusterModel",
    "DeviationResult",
    "DifferenceFunction",
    "DtModel",
    "EmptyRegionError",
    "FleetDeviationMatrix",
    "FleetMatrix",
    "FocusError",
    "IncompatibleModelsError",
    "InvalidParameterError",
    "ItemsetRegion",
    "LitsModel",
    "MAX",
    "MetricsRegistry",
    "NotFittedError",
    "OnlineChangeMonitor",
    "PartitionSketch",
    "Region",
    "SCALED",
    "SUM",
    "SchemaError",
    "SupportSketch",
    "TabularDataset",
    "TabularLog",
    "TransactionDataset",
    "TransactionLog",
    "WindowManager",
    "__version__",
    "agglomerate",
    "box_focus",
    "chi_squared_difference",
    "chi_squared_statistic",
    "chi_squared_statistics",
    "classical_mds",
    "deviation",
    "deviation_from_counts",
    "deviation_many",
    "deviation_matrix",
    "deviation_over_structure",
    "deviation_over_structure_many",
    "deviation_significance",
    "embed_models",
    "focussed_deviation",
    "gcr",
    "generate_basket",
    "generate_classification",
    "group_stores",
    "itemset_focus",
    "misclassification_error",
    "misclassification_error_via_focus",
    "misclassification_errors",
    "parse_predicate",
    "parse_region",
    "predicted_dataset",
    "rank",
    "rank_sum_test",
    "refines",
    "sample",
    "sharded_partition_sketch",
    "sharded_support_sketch",
    "significance_of_statistic",
    "structural_difference",
    "structural_intersection",
    "structural_union",
    "top_n",
    "upper_bound_deviation",
    "upper_bound_matrix",
    "use_registry",
]


class TestPublicSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_all_is_pinned(self):
        assert list(repro.__all__) == PUBLIC_ALL

    def test_subpackage_alls_resolve(self):
        import repro.core
        import repro.data
        import repro.experiments
        import repro.fleet
        import repro.mining
        import repro.obs
        import repro.resilience
        import repro.stats
        import repro.stream
        import repro.wire

        for module in (
            repro.core, repro.data, repro.fleet, repro.mining, repro.obs,
            repro.stats, repro.stream, repro.experiments, repro.resilience,
            repro.wire,
        ):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"

    def test_version(self):
        assert repro.__version__.count(".") == 2


class TestEndToEndWalkthrough:
    """The README quickstart, condensed, as a regression test."""

    def test_lits_pipeline(self):
        rng = np.random.default_rng(7)
        d1 = repro.generate_basket(
            1_000, n_items=60, avg_transaction_len=6, n_patterns=60,
            avg_pattern_len=3, rng=rng,
        )
        d2 = repro.generate_basket(
            1_000, n_items=60, avg_transaction_len=6, n_patterns=60,
            avg_pattern_len=5, rng=rng,
        )
        m1 = repro.LitsModel.mine(d1, 0.03, max_len=2)
        m2 = repro.LitsModel.mine(d2, 0.03, max_len=2)

        result = repro.deviation(m1, m2, d1, d2)
        bound = repro.upper_bound_deviation(m1, m2)
        assert 0 < result.value <= bound.value + 1e-9

        sig = repro.deviation_significance(
            d1, d2, lambda d: repro.LitsModel.mine(d, 0.03, max_len=2),
            n_boot=10, rng=rng,
        )
        assert sig.significance_percent >= 90.0

    def test_dt_pipeline(self):
        old = repro.generate_classification(1_500, function=1, seed=1)
        new = repro.generate_classification(1_500, function=2, seed=2)
        t_old = repro.DtModel.fit(old)
        t_new = repro.DtModel.fit(new)

        whole = repro.deviation(t_old, t_new, old, new).value
        focussed = repro.focussed_deviation(
            t_old, t_new, old, new, repro.box_focus(age=(None, 30))
        ).value
        assert 0 <= focussed <= whole

        me = repro.misclassification_error_via_focus(t_old, new)
        assert me == pytest.approx(repro.misclassification_error(t_old, new))

    def test_monitor_and_grouping_pipeline(self):
        datasets = [
            repro.generate_basket(
                500, n_items=50, avg_transaction_len=5, n_patterns=40,
                avg_pattern_len=plen, seed=s,
            )
            for s, plen in ((1, 3), (2, 3), (3, 5), (4, 5))
        ]
        models = [repro.LitsModel.mine(d, 0.05, max_len=2) for d in datasets]
        matrix = repro.upper_bound_matrix(models)
        groups = repro.group_stores(matrix, 2)
        assert len(groups) == 2

        coords = repro.classical_mds(matrix, k=2)
        assert coords.shape == (4, 2)

    def test_parse_region_in_pipeline(self):
        old = repro.generate_classification(800, function=1, seed=5)
        new = repro.generate_classification(800, function=2, seed=6)
        t_old, t_new = repro.DtModel.fit(old), repro.DtModel.fit(new)
        region = repro.parse_region("age < 40 and class = 0")
        value = repro.focussed_deviation(t_old, t_new, old, new, region).value
        assert value >= 0
