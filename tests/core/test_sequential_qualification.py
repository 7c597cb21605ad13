"""Sequential qualification (draw scheme 3): stop once a verdict is settled.

A monitor qualifies every snapshot from a child generator seeded by one
draw from its own, drawing replicates in blocks and stopping once so
many sit at or above the observed deviation that no completion of the
null could reach the threshold. These tests pin:

* the stop rule agrees with ``BootstrapResult.significance_percent``
  over all ``B`` for every completion of the null;
* a window draws at most two blocks: three fifths of ``B``, then the
  rest;
* the drawn null is a prefix of the child's full-``B`` null on every
  plan kind, and the verdict is the full null's;
* the batch path, the refit loop and the counters;
* a stream fanning its chunk sketches over serial, thread and process
  executors emits identical observations, fresh or resumed from a
  mid-stream checkpoint.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from wide_executors import wide

from repro.core.dtree_model import DtModel
from repro.core.gcr import gcr
from repro.core.lits import LitsModel
from repro.core.monitor import ChangeMonitor, _first_block, _settled
from repro.data.quest_basket import build_pattern_pool, generate_basket
from repro.data.quest_classify import generate_classification
from repro.mining.tree.builder import TreeParams
from repro.obs import MetricsRegistry, use_registry
from repro.stats.bootstrap import BootstrapResult, deviation_significance
from repro.stats.resample_plan import (
    CountsResamplePlan,
    LitsResamplePlan,
    PackedLitsResamplePlan,
    PartitionResamplePlan,
    compile_resample_plan,
)
from repro.stream.chunks import iter_chunks
from repro.stream.monitor import OnlineChangeMonitor

THRESHOLDS = (0.0, 50.0, 90.0, 95.0, 97.5, 99.0, 100.0)
N_ITEMS = 30


def child_of(seed: int) -> np.random.Generator:
    """The child generator a monitor seeded with ``seed`` gives its first
    qualification."""
    return np.random.default_rng(
        int(np.random.default_rng(seed).integers(0, 2**63))
    )


def lits_builder(dataset):
    return LitsModel.mine(dataset, 0.05, max_len=2)


class TestStopRule:
    def test_agrees_with_significance_percent_for_every_completion(self):
        observed = 0.5
        for n_boot in range(1, 65):
            # significance over all B with e exceedances; ties with the
            # observed value count as exceedances, as in sig(d)
            full = [
                BootstrapResult(
                    observed,
                    np.r_[np.zeros(n_boot - e), np.full(e, observed)],
                ).significance_percent
                for e in range(n_boot + 1)
            ]
            for threshold in THRESHOLDS:
                for exceeded in range(n_boot + 1):
                    # a completion only ever adds exceedances
                    settled = all(
                        full[e] < threshold
                        for e in range(exceeded, n_boot + 1)
                    )
                    assert _settled(exceeded, n_boot, threshold) is settled
                    if not settled:
                        continue
                    # a window stopped after k draws records a
                    # significance below the threshold too
                    for k in range(max(exceeded, 1), n_boot + 1):
                        drawn = np.r_[
                            np.zeros(k - exceeded), np.full(exceeded, 1.0)
                        ]
                        recorded = BootstrapResult(
                            observed, drawn
                        ).significance_percent
                        assert recorded < threshold

    def test_shares_the_significance_float_expression(self):
        # 100 * (18 / 20) and 1800 / 20 differ in the last bit for some
        # ratios; the stop rule must round exactly as sig(d) does
        null = np.r_[np.zeros(18), np.ones(2)]
        sig = BootstrapResult(0.5, null).significance_percent
        assert sig == 100 * (18 / 20)
        assert _settled(2, 20, sig) is False
        assert _settled(3, 20, sig) is True

    @pytest.mark.parametrize("n_boot", [1, 2, 7, 20, 64])
    def test_threshold_0_never_stops_early(self, n_boot):
        assert not any(_settled(e, n_boot, 0.0) for e in range(n_boot + 1))
        assert _first_block(n_boot, 0.0) == n_boot

    @pytest.mark.parametrize("n_boot", [1, 2, 7, 20, 64])
    def test_threshold_100_stops_at_the_first_exceedance(self, n_boot):
        assert not _settled(0, n_boot, 100.0)
        assert _settled(1, n_boot, 100.0)

    def test_first_block_is_three_fifths_and_can_settle(self):
        assert _first_block(20, 95.0) == 12
        assert _first_block(40, 95.0) == 24
        assert _first_block(8, 95.0) == 5
        assert _first_block(1, 95.0) == 1
        # 90% of B=20 exceedances settle a window only at 10%
        assert _first_block(20, 10.0) == 19
        for n_boot in range(1, 65):
            for threshold in THRESHOLDS[1:]:
                block = _first_block(n_boot, threshold)
                settling = min(
                    e for e in range(1, n_boot + 1)
                    if _settled(e, n_boot, threshold)
                )
                assert block == max(settling, -(-3 * n_boot // 5))
                assert block <= n_boot
                # the first block alone can settle a window
                assert _settled(block, n_boot, threshold)


# --------------------------------------------------------------------- #
# The drawn null is a prefix of the full one, on every plan kind
# --------------------------------------------------------------------- #


class _Spy:
    """A plan that records the null blocks the monitor draws from it."""

    def __init__(self, plan):
        self.plan = plan
        self.blocks: list[np.ndarray] = []

    def null_deviations(self, n_boot, rng, **kwargs):
        self.blocks.append(self.plan.null_deviations(n_boot, rng, **kwargs))
        return self.blocks[-1]


@pytest.fixture(scope="module")
def plans():
    baskets = generate_basket(
        600, n_items=N_ITEMS, avg_transaction_len=5, seed=3
    )
    d1 = baskets.take(np.arange(300))
    d2 = baskets.take(np.arange(300, 600))
    lits = gcr(lits_builder(d1).structure, lits_builder(d2).structure)
    table = generate_classification(400, function=2, seed=4)
    t1 = table.take(np.arange(250))
    t2 = table.take(np.arange(250, 400))
    partition = DtModel.fit(
        table, TreeParams(max_depth=3, min_leaf=10)
    ).structure
    built = {
        "lits": compile_resample_plan(lits, d1, d2),
        "packed-lits": PackedLitsResamplePlan.from_datasets(lits, d1, d2),
        "partition": compile_resample_plan(partition, t1, t2),
        "counts": CountsResamplePlan(
            partition,
            partition.counts(t1),
            partition.counts(t2),
            len(t1),
            len(t2),
        ),
    }
    kinds = {
        "lits": LitsResamplePlan,
        "packed-lits": PackedLitsResamplePlan,
        "partition": PartitionResamplePlan,
        "counts": CountsResamplePlan,
    }
    assert all(isinstance(built[k], kinds[k]) for k in kinds)
    return built


class TestPrefix:
    @given(
        kind=st.sampled_from(["lits", "packed-lits", "partition", "counts"]),
        n_boot=st.integers(min_value=1, max_value=40),
        threshold=st.sampled_from(THRESHOLDS),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        where=st.floats(min_value=-0.2, max_value=1.2),
    )
    @settings(max_examples=120, deadline=None)
    def test_stopped_null_is_a_prefix_of_the_full_null(
        self, plans, kind, n_boot, threshold, seed, where
    ):
        plan = plans[kind]
        full = plan.null_deviations(n_boot, child_of(seed))
        # an observed deviation anywhere across the null, past either
        # end, or tied with a replicate
        lo, hi = float(full.min()), float(full.max())
        delta = lo + where * (hi - lo) if hi > lo else lo + where - 0.5
        if 0.4 < where < 0.6:
            delta = float(full[int(where * 10 * n_boot) % n_boot])
        # the plan holds the pool: the reference is only cited
        monitor = ChangeMonitor(
            lambda dataset: None,
            n_boot=n_boot,
            threshold=threshold,
            rng=np.random.default_rng(seed),
        ).fit(None)
        spy = _Spy(plan)
        observation = monitor.observe_precomputed(
            None, delta, resample_plan=spy
        )
        drawn = np.concatenate(spy.blocks)
        assert np.array_equal(drawn, full[: len(drawn)])
        # the first block can already settle it; a second draws the rest
        sizes = [len(b) for b in spy.blocks]
        first = _first_block(n_boot, threshold)
        assert sizes == [first, n_boot - first][: len(sizes)]
        assert observation.significance == BootstrapResult(
            delta, drawn
        ).significance_percent
        full_sig = BootstrapResult(delta, full).significance_percent
        assert observation.drifted == (full_sig >= threshold)
        exceeded = int(np.count_nonzero(~(drawn < delta)))
        if len(drawn) < n_boot:
            # stopped at the first block that settled it, not later
            assert _settled(exceeded, n_boot, threshold)
            last = int(np.count_nonzero(~(spy.blocks[-1] < delta)))
            assert not _settled(exceeded - last, n_boot, threshold)
        else:
            assert observation.significance == full_sig


# --------------------------------------------------------------------- #
# The batch path, the refit loop and the counters
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def snapshots():
    rng = np.random.default_rng(71)
    pool = build_pattern_pool(
        rng, n_items=N_ITEMS, n_patterns=30, avg_pattern_len=3
    )
    quiet = [
        generate_basket(
            600, n_items=N_ITEMS, avg_transaction_len=5, rng=rng, pool=pool
        )
        for _ in range(3)
    ]
    drifted = generate_basket(
        600, n_items=N_ITEMS, avg_transaction_len=5, n_patterns=30,
        avg_pattern_len=5, rng=rng,
    )
    return quiet, drifted


class TestBatchPath:
    def test_observe_draws_a_prefix_of_the_compiled_plan(self, snapshots):
        """``observe`` compiles the count-space plan itself and draws it
        sequentially: the significance is over a prefix of the child's
        full null, and the verdict is the full null's."""
        (reference, quiet, _), drifted = snapshots
        for snapshot, seed in ((quiet, 5), (drifted, 6)):
            monitor = ChangeMonitor(
                lits_builder, n_boot=30, rng=np.random.default_rng(seed)
            ).fit(reference)
            observation = monitor.observe(snapshot)
            structure = gcr(
                monitor.reference.model.structure,
                lits_builder(snapshot).structure,
            )
            plan = compile_resample_plan(structure, reference, snapshot)
            full = plan.null_deviations(30, child_of(seed))
            delta = observation.deviation
            assert delta == plan.observed_deviation().value
            full_sig = BootstrapResult(delta, full).significance_percent
            assert observation.drifted == (full_sig >= 95.0)
            assert any(
                observation.significance
                == BootstrapResult(delta, full[:k]).significance_percent
                for k in range(1, 31)
            )
            if snapshot is drifted:
                # a drifted verdict is never settled early
                assert observation.drifted
                assert observation.significance == full_sig

    def test_refit_loop_draws_all_replicates_from_the_child(self, snapshots):
        (reference, quiet, _), _ = snapshots
        registry = MetricsRegistry()
        monitor = ChangeMonitor(
            lits_builder, n_boot=4, refit_models=True,
            rng=np.random.default_rng(8),
        ).fit(reference)
        with use_registry(registry):
            observation = monitor.observe(quiet)
        loop = deviation_significance(
            reference, quiet, lits_builder, n_boot=4, rng=child_of(8),
            refit_models=True,
        )
        assert observation.significance == loop.significance_percent
        assert registry.counter("monitor.qualify.replicates") == 4
        assert registry.counter("monitor.qualify.settled_early") == 0

    def test_counters_tally_replicates_and_early_stops(self, snapshots):
        (reference, quiet_1, quiet_2), drifted = snapshots
        registry = MetricsRegistry()
        monitor = ChangeMonitor(
            lits_builder, n_boot=20, rng=np.random.default_rng(9)
        ).fit(reference)
        drawn = []
        with use_registry(registry):
            for snapshot in (quiet_1, quiet_2, drifted):
                before = registry.counter("monitor.qualify.replicates")
                monitor.observe(snapshot)
                drawn.append(
                    registry.counter("monitor.qualify.replicates") - before
                )
        early = [n < 20 for n in drawn]
        assert registry.counter("monitor.qualify.settled_early") == sum(early)
        assert any(early)
        for observation, n in zip(monitor.history, drawn):
            # only a quiet verdict can settle early
            assert n == 20 or not observation.drifted
        assert monitor.history[2].drifted and drawn[2] == 20


# --------------------------------------------------------------------- #
# Differential: executors, fresh and resumed
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def drifting_chunks():
    rng = np.random.default_rng(23)
    pool = build_pattern_pool(
        rng, n_items=N_ITEMS, n_patterns=20, avg_pattern_len=3
    )
    quiet = generate_basket(
        1_600, n_items=N_ITEMS, avg_transaction_len=5, rng=rng, pool=pool
    )
    shifted = generate_basket(
        800, n_items=N_ITEMS, avg_transaction_len=5, n_patterns=20,
        avg_pattern_len=5, rng=rng,
    )
    return list(iter_chunks(list(quiet) + list(shifted), 150))


def _stream_monitor(executor) -> OnlineChangeMonitor:
    return OnlineChangeMonitor(
        lits_builder, N_ITEMS, window_size=400, step=200, n_boot=20,
        policy="reset_on_drift", rng=np.random.default_rng(31),
        executor=executor,
    )


@pytest.mark.parametrize("executor", ["serial", "thread", "process"])
def test_executors_fresh_and_resumed_emit_identical_observations(
    drifting_chunks, executor, tmp_path
):
    serial = _stream_monitor("serial")
    try:
        expected = [o for c in drifting_chunks for o in serial.push(c)]
    finally:
        serial.close()
    assert any(o.drifted for o in expected)
    assert any(not o.drifted for o in expected)

    half = len(drifting_chunks) // 2
    with wide(executor, 2) as runner:
        fresh = _stream_monitor(runner)
        for chunk in drifting_chunks[:half]:
            fresh.push(chunk)
        fresh.checkpoint(tmp_path)
        for chunk in drifting_chunks[half:]:
            fresh.push(chunk)
        assert fresh.history == expected

        resumed = _stream_monitor(runner)
        resumed.resume(tmp_path)
        for chunk in drifting_chunks[half:]:
            resumed.push(chunk)
        assert resumed.history == expected
