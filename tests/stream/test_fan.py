"""The fan contract: one map primitive behind every shard-parallel count.

``repro.stream.executor.fan`` owns the runner lifecycle, the per-call
metric registries and the bytes-shipped accounting for every fan-out
site. These tests pin what callers rely on:

* results come back in payload order, and the merged counter,
  histogram and span snapshot is the same on every backend;
* a runner ``fan`` resolved from a name is released even when a worker
  raises, and the worker's error propagates unchanged;
* an executor instance passed in stays open for its owner;
* ``shard_ranges``, the one splitter, matches the near-even divmod
  split it always produced.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attribute import AttributeSpace, numeric
from repro.data.tabular import TabularDataset
from repro.errors import InvalidParameterError
from repro.obs import MetricsRegistry, metrics, use_registry
from repro.stream import executor as executor_module
from repro.stream.executor import (
    SerialExecutor,
    ThreadExecutor,
    fan,
    shard_dataset,
    shard_ranges,
)

BACKENDS = ("serial", "thread", "process", "supervised")

TABLE = TabularDataset(
    AttributeSpace(attributes=(numeric("x", 0, 40),), class_labels=(0, 1)),
    np.arange(40, dtype=np.float64).reshape(-1, 1),
    np.arange(40) % 2,
)


def _emit(payload: int) -> int:
    """A worker touching every metric kind (top-level: picklable)."""
    sink = metrics()
    with sink.span("test.fan.work"):
        value = payload * payload
    sink.inc("test.fan.calls")
    sink.observe("test.fan.payload", float(payload))
    return value


def _boom(payload: int) -> int:
    if payload == 2:
        raise ValueError(f"worker failed on {payload}")
    return payload


def _comparable(snapshot: dict) -> dict:
    """Everything but the span timings, which differ run to run."""
    return {
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
        "histograms": snapshot["histograms"],
        "spans": {
            name: stats["count"] for name, stats in snapshot["spans"].items()
        },
    }


class TestResultsAndSnapshots:
    PAYLOADS = (5, 0, 3, 11, 1, 7)

    def _run(self, executor: str) -> tuple[list[int], dict]:
        registry = MetricsRegistry()
        with use_registry(registry):
            results = fan(_emit, self.PAYLOADS, executor)
        return results, _comparable(registry.snapshot())

    @pytest.mark.parametrize("executor", BACKENDS)
    def test_results_in_payload_order(self, executor):
        results, _ = self._run(executor)
        assert results == [p * p for p in self.PAYLOADS]

    def test_snapshots_identical_on_every_backend(self):
        runs = {executor: self._run(executor)[1] for executor in BACKENDS}
        base = runs["serial"]
        assert base["counters"] == {"test.fan.calls": len(self.PAYLOADS)}
        assert base["histograms"]["test.fan.payload"]["count"] == len(
            self.PAYLOADS
        )
        assert base["spans"] == {"test.fan.work": len(self.PAYLOADS)}
        for executor in BACKENDS[1:]:
            assert runs[executor] == base, executor

    @pytest.mark.parametrize("executor", BACKENDS)
    def test_no_registry_means_no_collection(self, executor):
        assert fan(_emit, self.PAYLOADS, executor) == [
            p * p for p in self.PAYLOADS
        ]

    def test_bytes_shipped_only_on_process_runners(self):
        calls = []

        def shipped() -> int:
            calls.append(1)
            return 123

        for executor in BACKENDS:
            registry = MetricsRegistry()
            with use_registry(registry):
                fan(_emit, [1, 2], executor, shipped_bytes=shipped)
            counters = registry.snapshot()["counters"]
            expected = 123 if executor in ("process", "supervised") else 0
            assert counters.get("storage.bytes_shipped", 0) == expected
        assert len(calls) == 2


class TestLifecycle:
    @pytest.fixture
    def tracked(self, monkeypatch):
        """Every thread runner ``fan`` resolves, with its shutdown calls."""
        created: list[ThreadExecutor] = []

        class Tracking(ThreadExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.shutdowns = 0
                created.append(self)

            def shutdown(self, wait: bool = True) -> None:
                self.shutdowns += 1
                super().shutdown(wait=wait)

        monkeypatch.setattr(
            executor_module,
            "_EXECUTORS",
            {**executor_module._EXECUTORS, "thread": Tracking},
        )
        return created

    @pytest.mark.parametrize("collect", [False, True])
    def test_owned_runner_released_when_a_worker_raises(self, tracked, collect):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="worker failed on 2") as info:
            if collect:
                with use_registry(registry):
                    fan(_boom, [1, 2, 3], "thread")
            else:
                fan(_boom, [1, 2, 3], "thread")
        assert type(info.value) is ValueError
        assert len(tracked) == 1
        assert tracked[0].shutdowns == 1
        assert tracked[0]._pool is None

    def test_owned_runner_released_after_success(self, tracked):
        assert fan(_boom, [1, 3], "thread") == [1, 3]
        assert [runner.shutdowns for runner in tracked] == [1]
        assert tracked[0]._pool is None

    def test_instance_stays_open_for_its_owner(self):
        owner = ThreadExecutor()
        try:
            assert fan(_emit, [1, 2], owner) == [1, 4]
            assert owner._pool is not None  # still warm
            assert owner.map(_emit, [3]) == [9]
            with pytest.raises(ValueError):
                fan(_boom, [2], owner)
            assert owner.map(_emit, [4]) == [16]
        finally:
            owner.close()

    def test_serial_instance_is_not_closed(self):
        owner = SerialExecutor()
        fan(_emit, [1], owner)
        assert owner.map(_emit, [2]) == [4]


def _divmod_ranges(n_rows: int, n_shards: int) -> list[tuple[int, int]]:
    """The historical divmod split, kept as the oracle."""
    base, extra = divmod(n_rows, n_shards)
    ranges = []
    start = 0
    for i in range(n_shards):
        size = base + (1 if i < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


class TestShardRanges:
    @settings(deadline=None, max_examples=200)
    @given(
        n_rows=st.integers(min_value=0, max_value=5_000),
        n_shards=st.integers(min_value=1, max_value=64),
    )
    def test_matches_the_divmod_oracle(self, n_rows, n_shards):
        ranges = shard_ranges(n_rows, n_shards)
        assert ranges == _divmod_ranges(n_rows, n_shards)
        assert len(ranges) == n_shards
        assert ranges[0][0] == 0 and ranges[-1][1] == n_rows
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        sizes = [stop - start for start, stop in ranges]
        assert min(sizes) >= 0 and max(sizes) - min(sizes) <= 1

    @settings(deadline=None, max_examples=50)
    @given(
        n_rows=st.integers(min_value=0, max_value=40),
        n_shards=st.integers(min_value=1, max_value=9),
    )
    def test_row_splitters_slice_by_the_ranges(self, n_rows, n_shards):
        dataset = TABLE.slice_rows(0, n_rows)
        assert [s.X[:, 0].tolist() for s in shard_dataset(dataset, n_shards)] == [
            [float(i) for i in range(a, b)]
            for a, b in shard_ranges(n_rows, n_shards)
        ]

    @pytest.mark.parametrize("n_shards", [0, -1])
    def test_fewer_than_one_shard_rejected(self, n_shards):
        with pytest.raises(InvalidParameterError):
            shard_ranges(10, n_shards)
        with pytest.raises(InvalidParameterError):
            shard_dataset(TABLE.slice_rows(0, 1), n_shards)
