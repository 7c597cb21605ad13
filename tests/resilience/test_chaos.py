"""The chaos suite: every completed fan is bit-identical, or typed and loud.

Marked ``chaos``: CI runs these separately (``-m chaos``) with the
process backend, because they exercise *real* worker death
(``os._exit`` inside a pool worker breaking the ``ProcessPoolExecutor``)
on top of the injected exceptions and stalls the in-process backends
see. Everything is seeded -- a failing chaos run replays exactly.
"""

from __future__ import annotations

import pytest

from repro.errors import InvalidParameterError, ShardFailedError
from repro.obs import MetricsRegistry, use_registry
from repro.resilience import Fault, FaultPlan, InjectedFault, SupervisedExecutor

pytestmark = pytest.mark.chaos


def square(x):
    return x * x


def no_sleep(delay):
    """Chaos runs should replay fast; delays are computed, not waited."""


def run_counted(runner, items):
    """``runner.map(square, items)`` and the ``resilience.*`` counters
    it left in a fresh registry; the runner is closed either way."""
    registry = MetricsRegistry()
    with use_registry(registry):
        try:
            results = runner.map(square, items)
        finally:
            runner.close()
    counters = registry.snapshot()["counters"]
    return results, {
        name: value
        for name, value in counters.items()
        if name.startswith("resilience.")
    }


class TestFaultPrimitives:
    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidParameterError):
            Fault("meltdown")

    def test_raise_fault_raises_injected(self):
        with pytest.raises(InjectedFault):
            Fault("raise").fire(0, 1)

    def test_die_degrades_to_raise_in_process(self):
        # No parent process here, so a "die" cannot take a worker down;
        # it must surface as the injected exception instead of exiting
        # the test interpreter.
        with pytest.raises(InjectedFault):
            Fault("die").fire(0, 1)

    def test_seeded_plans_replay(self):
        a = FaultPlan.seeded(8, seed=3, rate=0.5, max_attempts=2)
        b = FaultPlan.seeded(8, seed=3, rate=0.5, max_attempts=2)
        assert a.faults == b.faults
        assert len(FaultPlan.seeded(8, seed=3, rate=0.0)) == 0

    def test_backend_scoped_faults_only_fire_there(self):
        plan = FaultPlan({(0, 1): Fault("raise", backend="process")})
        assert plan.fault_for(0, 1, backend="process") is not None
        assert plan.fault_for(0, 1, backend="serial") is None


class TestBitIdentity:
    """A fan that completes under faults equals the fault-free run."""

    ITEMS = list(range(10))

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_completed_fans_match_fault_free(self, backend):
        expected = [square(x) for x in self.ITEMS]
        plan = FaultPlan.seeded(
            len(self.ITEMS), seed=29, rate=0.4,
            kinds=("die", "raise"), max_attempts=2,
        )
        assert len(plan) > 0, "seed must inject something"
        runner = SupervisedExecutor(
            backend, retries=3, fault_plan=plan, sleep=no_sleep
        )
        results, counters = run_counted(runner, self.ITEMS)
        assert results == expected
        assert counters["resilience.retries"] >= 1
        assert "resilience.quarantined_shards" not in counters

    def test_real_worker_death_rebuilds_the_pool(self):
        plan = FaultPlan({(1, 1): Fault("die")})
        runner = SupervisedExecutor(
            "process", retries=2, fault_plan=plan, sleep=no_sleep,
            max_workers=2,
        )
        results, counters = run_counted(runner, self.ITEMS)
        assert results == [square(x) for x in self.ITEMS]
        assert counters["resilience.pool_rebuilds"] >= 1

    def test_stall_is_timed_out_and_recovered(self):
        plan = FaultPlan({(0, 1): Fault("stall", seconds=1.0)})
        runner = SupervisedExecutor(
            "thread", retries=1, shard_timeout=0.2, fault_plan=plan,
            sleep=no_sleep,
        )
        results, counters = run_counted(runner, [3, 4])
        assert results == [9, 16]
        assert counters["resilience.retries"] == 1


class TestTypedFailure:
    """A fan that cannot complete must fail loudly, naming the shard."""

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_persistent_death_raises_shard_failed(self, backend):
        budget = 2
        plan = FaultPlan(
            {(2, a): Fault("die") for a in range(1, budget + 1)}
        )
        runner = SupervisedExecutor(
            backend, retries=budget - 1, fault_plan=plan, sleep=no_sleep,
            max_workers=2,
        )
        try:
            with pytest.raises(ShardFailedError) as excinfo:
                runner.map(square, list(range(5)))
        finally:
            runner.close()
        assert 2 in excinfo.value.shards
        assert len(excinfo.value.errors) == len(excinfo.value.shards)

    def test_degraded_fan_survives_a_broken_rung(self):
        # Only the process rung is poisoned: a degradable fan must land
        # the work below and come back bit-identical.
        plan = FaultPlan(
            {
                (s, a): Fault("die", backend="process")
                for s in range(4)
                for a in (1, 2)
            }
        )
        runner = SupervisedExecutor(
            "process", retries=1, on_failure="degrade", fault_plan=plan,
            sleep=no_sleep, max_workers=2,
        )
        results, counters = run_counted(runner, list(range(4)))
        assert results == [0, 1, 4, 9]
        assert counters["resilience.degraded_fans"] == 1
        assert runner.backend in ("thread", "serial")


class TestChaosDeterminism:
    def test_chaotic_runs_replay_bit_identically(self):
        plan = FaultPlan.seeded(
            6, seed=101, rate=0.6, kinds=("raise",), max_attempts=3
        )

        def run():
            delays = []
            runner = SupervisedExecutor(
                "serial", retries=3, fault_plan=plan, sleep=delays.append
            )
            return run_counted(runner, list(range(6))), delays

        first, second = run(), run()
        assert first == second
        assert first[0][1]["resilience.retries"] > 0
