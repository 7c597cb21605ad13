"""SupervisedExecutor: retry, rebuild, degrade, quarantine -- typed and exact.

The fault-free contract (a supervised fan is bit-identical to a plain
one, at zero resilience-counter cost) plus every failure policy, driven
by deterministic :class:`FaultPlan` schedules. Real worker death and
cross-backend chaos live in ``test_chaos.py``.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    ExecutorError,
    FocusError,
    InvalidParameterError,
    ShardFailedError,
)
from repro.obs import MetricsRegistry, use_registry
from repro.resilience import (
    Fault,
    FaultPlan,
    SupervisedExecutor,
    backoff_delay,
)
from repro.stream.executor import get_executor, sharded_support_sketch
from repro.stream.sketch import SupportSketch

RESILIENCE = (
    "resilience.retries",
    "resilience.pool_rebuilds",
    "resilience.degraded_fans",
    "resilience.quarantined_shards",
)


def double(x):
    return 2 * x


def no_sleep(delay):
    """Backoff stub: the delays are still computed, just not waited out."""


def supervised(inner="serial", **kwargs):
    kwargs.setdefault("sleep", no_sleep)
    return SupervisedExecutor(inner, **kwargs)


def counted(runner, items):
    """``runner.map(double, items)`` under a fresh registry: the results,
    or the raised :class:`ShardFailedError`, and the counters."""
    registry = MetricsRegistry()
    with use_registry(registry):
        try:
            outcome = runner.map(double, items)
        except ShardFailedError as exc:
            outcome = exc
        finally:
            runner.close()
    counters = registry.snapshot()["counters"]
    return outcome, {name: counters.get(name, 0) for name in RESILIENCE}


class TestHappyPath:
    def test_map_matches_plain_executor(self):
        runner = supervised("serial")
        try:
            assert runner.map(double, [1, 2, 3]) == [2, 4, 6]
        finally:
            runner.close()

    def test_fault_free_report_is_all_zeros(self):
        runner = supervised("serial")
        results, counters = counted(runner, range(5))
        assert results == [0, 2, 4, 6, 8]
        assert counters == dict.fromkeys(RESILIENCE, 0)
        assert runner.backend == "serial"

    def test_fault_free_fan_leaves_counters_at_zero(self):
        _, counters = counted(supervised("thread"), range(8))
        assert counters == dict.fromkeys(RESILIENCE, 0)

    def test_get_executor_resolves_supervised(self):
        runner = get_executor("supervised")
        try:
            assert isinstance(runner, SupervisedExecutor)
            assert runner.backend == "process"
        finally:
            runner.close()


class TestValidation:
    def test_negative_retries_rejected(self):
        with pytest.raises(InvalidParameterError):
            SupervisedExecutor("serial", retries=-1)

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(InvalidParameterError):
            SupervisedExecutor("serial", shard_timeout=0)

    def test_unknown_policy_rejected(self):
        with pytest.raises(InvalidParameterError):
            SupervisedExecutor("serial", on_failure="shrug")

    def test_unknown_backend_rejected(self):
        with pytest.raises(InvalidParameterError):
            SupervisedExecutor("quantum")

    def test_custom_inner_must_expose_submit(self):
        with pytest.raises(InvalidParameterError):
            SupervisedExecutor(object())


class TestRetry:
    def test_transient_faults_are_retried_to_success(self):
        plan = FaultPlan({(0, 1): Fault("raise"), (2, 1): Fault("raise")})
        results, counters = counted(
            supervised("serial", retries=2, fault_plan=plan), [1, 2, 3]
        )
        assert results == [2, 4, 6]
        assert counters["resilience.retries"] == 2
        assert counters["resilience.quarantined_shards"] == 0

    def test_identical_runs_report_identically(self):
        plan = FaultPlan.seeded(6, seed=9, rate=0.5, kinds=("raise",))

        def run():
            delays = []
            runner = supervised(
                "serial", retries=3, fault_plan=plan, sleep=delays.append
            )
            return counted(runner, range(6)), delays

        first = run()
        assert first == run()
        assert first[0][0] == [2 * x for x in range(6)]
        assert first[0][1]["resilience.retries"] > 0

    def test_retries_are_counted_in_obs(self):
        plan = FaultPlan({(1, 1): Fault("raise")})
        registry = MetricsRegistry()
        with use_registry(registry):
            runner = supervised("serial", retries=1, fault_plan=plan)
            try:
                runner.map(double, [5, 6])
            finally:
                runner.close()
        assert registry.counter("resilience.retries") == 1


class TestQuarantine:
    def exhausted_plan(self, shard, budget):
        return FaultPlan(
            {(shard, a): Fault("raise") for a in range(1, budget + 1)}
        )

    def test_map_raises_typed_error_naming_the_shard(self):
        runner = supervised(
            "serial", retries=1, fault_plan=self.exhausted_plan(1, 2)
        )
        try:
            with pytest.raises(ShardFailedError) as excinfo:
                runner.map(double, [1, 2, 3])
        finally:
            runner.close()
        assert excinfo.value.shards == (1,)
        assert "1" in str(excinfo.value)
        assert isinstance(excinfo.value, FocusError)

    def test_quarantine_is_counted_and_names_the_last_cause(self):
        runner = supervised(
            "serial", retries=1, fault_plan=self.exhausted_plan(0, 2)
        )
        error, counters = counted(runner, [1, 2, 3])
        assert isinstance(error, ShardFailedError)
        assert error.shards == (0,)
        assert len(error.errors) == 1 and "InjectedFault" in error.errors[0]
        assert counters["resilience.quarantined_shards"] == 1
        assert counters["resilience.retries"] == 1


class TestDegrade:
    def test_thread_scoped_faults_degrade_to_serial(self):
        plan = FaultPlan(
            {
                (s, a): Fault("raise", backend="thread")
                for s in range(3)
                for a in (1, 2)
            }
        )
        runner = supervised(
            "thread", retries=1, on_failure="degrade", fault_plan=plan
        )
        results, counters = counted(runner, [1, 2, 3])
        assert results == [2, 4, 6]
        assert runner.backend == "serial"
        assert counters["resilience.degraded_fans"] == 1

    def test_exhausting_every_rung_still_fails_typed(self):
        plan = FaultPlan(
            {(0, a): Fault("raise") for a in (1, 2)}  # fires on every rung
        )
        runner = supervised(
            "thread", retries=1, on_failure="degrade", fault_plan=plan
        )
        try:
            with pytest.raises(ShardFailedError) as excinfo:
                runner.map(double, [1])
        finally:
            runner.close()
        assert excinfo.value.shards == (0,)


class TestTimeout:
    def test_stalled_shard_is_abandoned_and_retried(self):
        plan = FaultPlan({(0, 1): Fault("stall", seconds=1.0)})
        runner = supervised(
            "thread", retries=1, shard_timeout=0.2, fault_plan=plan
        )
        results, counters = counted(runner, [7, 8])
        assert results == [14, 16]
        assert counters["resilience.retries"] == 1

    def test_a_shard_that_always_stalls_names_the_timeout(self):
        plan = FaultPlan({(0, a): Fault("stall", seconds=0.5) for a in (1, 2)})
        runner = supervised(
            "thread", retries=1, shard_timeout=0.1, fault_plan=plan
        )
        error, _ = counted(runner, [7, 8])
        assert isinstance(error, ShardFailedError)
        assert error.shards == (0,)
        assert "stalled" in error.errors[0]


class TestLifecycle:
    def test_map_after_close_raises_typed(self):
        runner = supervised("serial")
        runner.close()
        with pytest.raises(ExecutorError):
            runner.map(double, [1])

    def test_shutdown_is_not_permanent(self):
        runner = supervised("serial")
        try:
            assert runner.map(double, [1]) == [2]
            runner.shutdown()
            assert runner.map(double, [2]) == [4]
        finally:
            runner.close()


class TestBackoffDeterminism:
    def test_same_cell_same_delay(self):
        assert backoff_delay(3, 2, jitter_seed=17) == backoff_delay(
            3, 2, jitter_seed=17
        )

    def test_cells_get_distinct_jitter(self):
        delays = {
            backoff_delay(s, a, jitter_seed=17)
            for s in range(4)
            for a in (1, 2)
        }
        assert len(delays) == 8

    def test_delay_is_bounded_by_the_jittered_cap(self):
        for attempt in range(1, 12):
            delay = backoff_delay(
                0, attempt, base=0.05, cap=2.0, jitter_seed=0
            )
            ceiling = min(2.0, 0.05 * 2 ** (attempt - 1))
            assert 0.5 * ceiling <= delay <= ceiling


TXNS = [
    (0, 1), (1, 2), (0, 2, 3), (3,), (0, 1, 2, 3), (2,), (1,), (0, 3),
] * 4
ITEMSETS = [(0,), (1, 2), (0, 3)]
N_ITEMS = 4


class TestSupervisedSketch:
    def test_complete_fan_equals_direct_sketch(self):
        runner = supervised("thread", max_workers=3)
        try:
            sketch = sharded_support_sketch(TXNS, ITEMSETS, N_ITEMS, runner)
        finally:
            runner.close()
        assert sketch == SupportSketch.from_transactions(TXNS, ITEMSETS, N_ITEMS)

    def test_a_dead_shard_fails_the_sketch_typed(self):
        plan = FaultPlan({(1, a): Fault("raise") for a in (1, 2)})
        runner = supervised("thread", retries=1, fault_plan=plan, max_workers=3)
        try:
            with pytest.raises(ShardFailedError) as excinfo:
                sharded_support_sketch(TXNS, ITEMSETS, N_ITEMS, runner)
        finally:
            runner.close()
        assert excinfo.value.shards == (1,)
