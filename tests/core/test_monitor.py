"""Tests for the snapshot ChangeMonitor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.lits import LitsModel
from repro.core.monitor import ChangeMonitor
from repro.data.quest_basket import build_pattern_pool, generate_basket
from repro.errors import InvalidParameterError, NotFittedError


def builder(dataset):
    return LitsModel.mine(dataset, 0.05, max_len=2)


@pytest.fixture(scope="module")
def snapshots():
    """Reference + two quiet snapshots + one drifted snapshot."""
    rng = np.random.default_rng(71)
    pool = build_pattern_pool(rng, n_items=60, n_patterns=40, avg_pattern_len=3)

    def quiet():
        return generate_basket(
            700, n_items=60, avg_transaction_len=5, rng=rng, pool=pool
        )

    drifted = generate_basket(
        700, n_items=60, avg_transaction_len=5, n_patterns=40,
        avg_pattern_len=5, rng=rng,
    )
    return quiet(), quiet(), quiet(), drifted


class TestChangeMonitor:
    def test_quiet_then_drift(self, snapshots):
        # n_boot=40: the quiet snapshots sit around the null's 70th
        # percentile, so the coarse 20-replicate grid can tick over the
        # 95% threshold on an unlucky draw; 40 replicates keep the
        # verdicts stable.
        reference, quiet_1, quiet_2, drifted = snapshots
        monitor = ChangeMonitor(
            builder, n_boot=40, rng=np.random.default_rng(1)
        ).fit(reference)

        assert not monitor.observe(quiet_1).drifted
        assert not monitor.observe(quiet_2).drifted
        alarm = monitor.observe(drifted)
        assert alarm.drifted
        assert monitor.drift_points() == [alarm.index]

    def test_history_and_indices(self, snapshots):
        reference, quiet_1, quiet_2, _ = snapshots
        monitor = ChangeMonitor(
            builder, n_boot=10, rng=np.random.default_rng(2)
        ).fit(reference)
        monitor.observe(quiet_1)
        monitor.observe(quiet_2)
        assert [obs.index for obs in monitor.history] == [1, 2]
        assert all(obs.reference_index == 0 for obs in monitor.history)

    def test_reset_on_drift_policy(self, snapshots):
        reference, quiet_1, _, drifted = snapshots
        monitor = ChangeMonitor(
            builder, n_boot=20, policy="reset_on_drift",
            rng=np.random.default_rng(3),
        ).fit(reference)
        alarm = monitor.observe(drifted)
        assert alarm.drifted
        # Reference moved: the next snapshot is compared to the drifted one.
        follow_up = monitor.observe(quiet_1)
        assert follow_up.reference_index == alarm.index

    def test_fixed_policy_keeps_reference(self, snapshots):
        reference, _, _, drifted = snapshots
        monitor = ChangeMonitor(
            builder, n_boot=20, policy="fixed", rng=np.random.default_rng(4)
        ).fit(reference)
        alarm = monitor.observe(drifted)
        assert alarm.reference_index == 0
        assert monitor.observe(drifted).reference_index == 0

    def test_observe_before_fit_rejected(self, snapshots):
        monitor = ChangeMonitor(
            builder, n_boot=5, rng=np.random.default_rng(0)
        )
        with pytest.raises(NotFittedError):
            monitor.observe(snapshots[0])

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            ChangeMonitor(builder, policy="nonsense")
        with pytest.raises(InvalidParameterError):
            ChangeMonitor(builder, threshold=150.0)
        with pytest.raises(InvalidParameterError):
            ChangeMonitor(builder, n_boot=-1)
        with pytest.raises(InvalidParameterError):
            ChangeMonitor(builder, n_boot=0)  # needs delta_threshold

    def test_describe(self, snapshots):
        reference, quiet_1, _, _ = snapshots
        monitor = ChangeMonitor(
            builder, n_boot=5, rng=np.random.default_rng(5)
        ).fit(reference)
        text = monitor.observe(quiet_1).describe()
        assert "snapshot 1" in text
        assert "delta=" in text


class TestDriftPointsEdges:
    """drift_points() must be stable under interleaving and loud when
    the monitor was never fitted."""

    def test_unfitted_monitor_raises_instead_of_empty_list(self):
        monitor = ChangeMonitor(
            builder, n_boot=5, rng=np.random.default_rng(0)
        )
        with pytest.raises(NotFittedError):
            monitor.drift_points()

    def test_observe_many_before_fit_rejected(self, snapshots):
        monitor = ChangeMonitor(
            builder, n_boot=5, rng=np.random.default_rng(0)
        )
        with pytest.raises(NotFittedError):
            monitor.observe_many([snapshots[1]])

    def test_fitted_but_quiet_monitor_returns_empty(self, snapshots):
        reference, quiet_1, _, _ = snapshots
        monitor = ChangeMonitor(
            builder, n_boot=10, rng=np.random.default_rng(6)
        ).fit(reference)
        monitor.observe(quiet_1)
        assert monitor.drift_points() == []

    def test_interleaved_observe_and_observe_many(self, snapshots):
        """Indices and drift points are identical whether snapshots come
        one at a time, batched, or interleaved."""
        reference, quiet_1, quiet_2, drifted = snapshots
        sequence = [quiet_1, quiet_2, drifted, quiet_1, drifted]

        sequential = ChangeMonitor(
            builder, n_boot=20, rng=np.random.default_rng(7)
        ).fit(reference)
        for snapshot in sequence:
            sequential.observe(snapshot)

        interleaved = ChangeMonitor(
            builder, n_boot=20, rng=np.random.default_rng(7)
        ).fit(reference)
        interleaved.observe(sequence[0])
        interleaved.observe_many(sequence[1:3])
        interleaved.observe(sequence[3])
        interleaved.observe_many(sequence[4:])

        assert [o.index for o in interleaved.history] == [1, 2, 3, 4, 5]
        assert interleaved.drift_points() == sequential.drift_points()
        assert interleaved.drift_points() == sorted(interleaved.drift_points())
        assert all(
            o.reference_index == 0 for o in interleaved.history
        )  # fixed policy: interleaving never moves the reference

    def test_single_element_observe_many_matches_observe(self, snapshots):
        reference, quiet_1, _, _ = snapshots
        a = ChangeMonitor(
            builder, n_boot=10, rng=np.random.default_rng(8)
        ).fit(reference)
        b = ChangeMonitor(
            builder, n_boot=10, rng=np.random.default_rng(8)
        ).fit(reference)
        obs_a = a.observe(quiet_1)
        [obs_b] = b.observe_many([quiet_1])
        assert obs_a == obs_b


class TestPrecomputedAndCheapMode:
    def test_observe_precomputed_before_fit_rejected(self, snapshots):
        monitor = ChangeMonitor(
            builder, n_boot=5, rng=np.random.default_rng(0)
        )
        with pytest.raises(NotFittedError):
            monitor.observe_precomputed(snapshots[0], 1.0)

    def test_observe_precomputed_records_given_delta(self, snapshots):
        reference, quiet_1, _, _ = snapshots
        monitor = ChangeMonitor(
            builder, n_boot=0, delta_threshold=5.0
        ).fit(reference)
        observation = monitor.observe_precomputed(quiet_1, 1.25)
        assert observation.deviation == 1.25
        assert not observation.drifted
        assert monitor.observe_precomputed(quiet_1, 7.5).drifted
        assert monitor.drift_points() == [2]

    def test_cheap_mode_significance_degenerates(self, snapshots):
        reference, quiet_1, _, _ = snapshots
        monitor = ChangeMonitor(
            builder, n_boot=0, delta_threshold=5.0
        ).fit(reference)
        assert monitor.observe_precomputed(quiet_1, 0.5).significance == 0.0
        assert monitor.observe_precomputed(quiet_1, 9.5).significance == 100.0

    def test_cheap_mode_observe_still_computes_delta(self, snapshots):
        """n_boot=0 works for plain observe() too: the deviation is
        computed as usual, only the bootstrap is skipped."""
        reference, quiet_1, _, drifted = snapshots
        monitor = ChangeMonitor(
            builder, n_boot=0, delta_threshold=3.0
        ).fit(reference)
        quiet_obs = monitor.observe(quiet_1)
        drift_obs = monitor.observe(drifted)
        assert quiet_obs.deviation < drift_obs.deviation
        assert not quiet_obs.drifted
        assert drift_obs.drifted

    def test_precomputed_reset_on_drift_uses_given_model(self, snapshots):
        reference, quiet_1, _, drifted = snapshots
        monitor = ChangeMonitor(
            builder, n_boot=0, delta_threshold=3.0, policy="reset_on_drift"
        ).fit(reference)
        drifted_model = builder(drifted)
        observation = monitor.observe_precomputed(
            drifted, 10.0, model=drifted_model
        )
        assert observation.drifted
        assert monitor.reference.model is drifted_model
        assert monitor.reference.index == observation.index


class TestUnseededWarning:
    def test_unseeded_bootstrap_monitor_warns(self):
        with pytest.warns(UserWarning, match="not reproducible"):
            ChangeMonitor(builder, n_boot=5)

    def test_seeded_or_cheap_monitors_stay_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ChangeMonitor(builder, n_boot=5, rng=np.random.default_rng(1))
            ChangeMonitor(builder, n_boot=0, delta_threshold=1.0)

    def test_resample_plan_with_refit_rejected(self, snapshots):
        """A precompiled fixed-structure plan contradicts the refit
        null; the monitor raises instead of silently using it."""
        from repro.core.gcr import gcr
        from repro.stats.resample_plan import compile_resample_plan

        reference, quiet_1, _, _ = snapshots
        monitor = ChangeMonitor(
            builder, n_boot=5, refit_models=True,
            rng=np.random.default_rng(2),
        ).fit(reference)
        model = builder(quiet_1)
        plan = compile_resample_plan(
            gcr(monitor.reference.model.structure, model.structure),
            reference, quiet_1,
        )
        with pytest.raises(InvalidParameterError, match="refit_models"):
            monitor.observe_precomputed(quiet_1, 1.0, resample_plan=plan)
