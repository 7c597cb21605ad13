"""Executor backends: identical merged sketches on every backend."""

from __future__ import annotations

import os

import pytest
from wide_executors import wide

from repro.errors import ExecutorError, InvalidParameterError
from repro.obs import MetricsRegistry, use_registry
from repro.stream.executor import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    fan_width,
    get_executor,
    process_backed,
    sharded_support_sketch,
)
from repro.stream.sketch import SupportSketch

TXNS = [
    (0, 1), (1, 2), (0, 2, 3), (3,), (0, 1, 2, 3), (2,), (1,), (0, 3),
] * 5
ITEMSETS = [(), (0,), (1, 2), (0, 3), (0, 1, 2)]


def sharded(rows, width):
    """The transaction fan over ``width`` in-process shards: its sketch
    and the per-shard row histogram it records."""
    registry = MetricsRegistry()
    with wide("serial", width) as runner, use_registry(registry):
        sketch = sharded_support_sketch(rows, ITEMSETS, 4, runner)
    assert registry.counter("stream.shards.sketched") == width
    return sketch, registry.snapshot()["histograms"]["stream.shard.rows"]


class TestShardTransactions:
    """The transaction fan cuts one near-even row range per worker."""

    def test_even_split_covers_everything(self):
        sketch, rows = sharded(TXNS, 3)
        assert rows["count"] == 3 and rows["sum"] == len(TXNS)
        assert sketch == SupportSketch.from_transactions(TXNS, ITEMSETS, 4)

    def test_more_shards_than_rows_gives_empty_shards(self):
        sketch, rows = sharded(TXNS[:2], 5)
        # two one-row shards and three empty ones, all in the first bucket
        assert rows["count"] == 5 and rows["sum"] == 2
        assert rows["counts"][0] == 5
        assert sketch == SupportSketch.from_transactions(TXNS[:2], ITEMSETS, 4)

    def test_invalid_shard_count(self):
        with pytest.raises(InvalidParameterError):
            sharded_support_sketch(
                TXNS, ITEMSETS, 4, ThreadExecutor(max_workers=0)
            )


class TestGetExecutor:
    def test_names_resolve(self):
        assert isinstance(get_executor("serial"), SerialExecutor)
        assert isinstance(get_executor("thread"), ThreadExecutor)
        assert isinstance(get_executor("process"), ProcessExecutor)

    def test_instance_passthrough(self):
        ex = ThreadExecutor(max_workers=2)
        assert get_executor(ex) is ex

    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidParameterError):
            get_executor("gpu")
        with pytest.raises(InvalidParameterError):
            get_executor(42)


class TestFanWidth:
    """A fan cuts one piece per worker; the executor says how many."""

    def test_serial_is_one(self):
        assert fan_width(SerialExecutor()) == 1
        assert fan_width("serial") == 1

    @pytest.mark.parametrize("pool", [ThreadExecutor, ProcessExecutor])
    def test_pool_width_is_max_workers_or_the_cpu_count(self, pool):
        assert fan_width(pool(max_workers=3)) == 3
        assert fan_width(pool()) == (os.cpu_count() or 1)
        assert fan_width(pool.name) == (os.cpu_count() or 1)

    def test_supervised_answers_for_its_current_rung(self):
        from repro.resilience import SupervisedExecutor

        runner = SupervisedExecutor("thread", max_workers=3, on_failure="degrade")
        try:
            assert fan_width(runner) == 3
            runner._rung += 1  # degraded to the serial rung
            assert fan_width(runner) == 1
        finally:
            runner.close()

    def test_custom_executor_without_a_width_is_one_worker(self):
        class Custom:
            def map(self, fn, items):
                return [fn(item) for item in items]

        assert fan_width(Custom()) == 1

    def test_no_workers_rejected(self):
        with pytest.raises(InvalidParameterError, match="at least one worker"):
            fan_width(ThreadExecutor(max_workers=0))
        with pytest.raises(InvalidParameterError, match="unknown executor"):
            fan_width("bogus")

    def test_process_backed_answers_for_names(self):
        assert process_backed("process")
        assert process_backed("supervised")  # its ladder starts at process
        assert not process_backed("thread")
        assert not process_backed("serial")


class TestBackendEquivalence:
    @pytest.fixture(scope="class")
    def single_scan(self):
        return SupportSketch.from_transactions(TXNS, ITEMSETS, 4)

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_backend_matches_single_scan(self, backend, single_scan):
        with wide(backend, 4) as runner:
            merged = sharded_support_sketch(TXNS, ITEMSETS, 4, runner)
        assert merged == single_scan

    @pytest.mark.slow
    def test_process_backend_matches_single_scan(self, single_scan):
        with wide("process", 2) as runner:
            merged = sharded_support_sketch(TXNS, ITEMSETS, 4, runner)
        assert merged == single_scan


def _boom(x):
    raise ValueError(f"worker bug on {x}")


class TestTypedLifecycleErrors:
    """Raw concurrent.futures states never leak: closed executors and
    broken pools surface as typed repro errors (PR 10)."""

    def test_serial_map_after_close_raises_typed(self):
        ex = SerialExecutor()
        ex.close()
        with pytest.raises(ExecutorError, match="closed"):
            ex.map(len, [(1, 2)])

    def test_serial_submit_after_close_raises_typed(self):
        ex = SerialExecutor()
        ex.close()
        with pytest.raises(ExecutorError, match="closed"):
            ex.submit(len, (1, 2))

    def test_thread_map_after_close_raises_typed(self):
        ex = ThreadExecutor(max_workers=1)
        ex.close()
        with pytest.raises(ExecutorError, match="closed"):
            ex.map(len, [(1, 2)])

    def test_shutdown_is_reusable_not_permanent(self):
        ex = ThreadExecutor(max_workers=1)
        try:
            assert ex.map(len, [(1, 2)]) == [2]
            ex.shutdown()
            assert ex.map(len, [(1, 2, 3)]) == [3]
        finally:
            ex.close()

    def test_serial_submit_settles_eagerly(self):
        ex = SerialExecutor()
        future = ex.submit(len, (1, 2, 3))
        assert future.done()
        assert future.result() == 3
        failed = ex.submit(_boom, 1)
        assert failed.done()
        with pytest.raises(ValueError, match="worker bug"):
            failed.result()

    def test_supervised_name_resolves(self):
        from repro.resilience import SupervisedExecutor

        runner = get_executor("supervised")
        try:
            assert isinstance(runner, SupervisedExecutor)
        finally:
            runner.close()
