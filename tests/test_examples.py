"""Every example script runs end to end (at reduced sizes) and returns
the structured report its docstring promises."""

from __future__ import annotations

import sys
from pathlib import Path

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
sys.path.insert(0, str(EXAMPLES_DIR))


class TestExamples:
    def test_quickstart(self):
        import quickstart

        report = quickstart.main(n_transactions=800, n_boot=6, seed=7)
        assert report["upper_bound"] >= report["deviation"] - 1e-9
        assert 0 <= report["significance"] <= 100

    def test_retail_store_comparison(self):
        import retail_store_comparison

        report = retail_store_comparison.main(n_transactions=800, seed=42)
        assert set(report) == {"shoes", "clothes", "combined"}
        assert len(report["combined"]) <= 20
        # Department filters keep only that department's items.
        assert all(
            item < 75 for itemset in report["shoes"] for item in itemset
        )
        assert all(
            item >= 75 for itemset in report["clothes"] for item in itemset
        )

    def test_change_monitoring(self):
        import change_monitoring

        report = change_monitoring.main(
            n_train=1_500, n_week=500, n_boot=6, seed=3
        )
        assert len(report) == 3
        quiet_me = max(report[0]["me"], report[1]["me"])
        assert report[2]["me"] > quiet_me  # the drifted week stands out
        assert report[2]["chi2"] > max(report[0]["chi2"], report[1]["chi2"])

    def test_sample_size_selection(self):
        import sample_size_selection

        report = sample_size_selection.main(
            n_transactions=1_200, n_reps=3, seed=11
        )
        assert report["chosen"] in report["fractions"]
        # SD decreases from the smallest to the largest fraction.
        assert report["means"][-1] < report["means"][0]

    def test_cluster_drift(self):
        import cluster_drift

        report = cluster_drift.main(n_per_blob=150, seed=9)
        # The move happened outside downtown.
        assert report["downtown"] < report["deviation"] / 2

    def test_approximate_query(self):
        import approximate_query

        report = approximate_query.main(
            n_transactions=1_200, n_queries=50, seed=13
        )
        assert report["mean_error"] < 0.02
        assert report["exact_hits"] >= 0
        assert report["worst_shift"] > 0

    def test_store_fleet_analysis(self):
        import store_fleet_analysis

        report = store_fleet_analysis.main(n_transactions=900, seed=23)
        assert report["consistent"]
        assert len(report["groups"]) == 3

    def test_store_fleet_analysis_golden_groups(self):
        """Seed-pinned snapshot of the fleet grouping and pruning stats.

        The example is the paper's headline scenario; this pins its
        *output*, not just "it runs": exact group membership for
        (n=900, seed=23) plus how much work delta* pruning saved.
        A change here means the fleet pipeline's numbers moved.
        """
        import store_fleet_analysis

        report = store_fleet_analysis.main(n_transactions=900, seed=23)
        member_sets = sorted(
            tuple(sorted(ms)) for ms in report["groups"].values()
        )
        assert member_sets == [
            ("store-0 (north)", "store-1 (north)", "store-2 (north)"),
            ("store-3 (south)", "store-4 (south)", "store-5 (south)"),
            ("store-6 (coast)", "store-7 (coast)"),
        ]
        assert report["n_pairs"] == 28
        # the 7 within-region pairs are certified from their bounds alone
        assert report["n_pruned"] == 7

    def test_transaction_stream_windows(self):
        import transaction_stream_windows

        report = transaction_stream_windows.main(seed=29)
        assert report["detected"] == report["truth"]
        assert report["truth"] - 1 in report["change_points"]
