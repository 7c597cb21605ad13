"""Resilience overhead: supervision and checkpoints are nearly free.

The fault-tolerance layer's acceptance bars, pinned at tiny scale:

* **zero-cost supervision**: a *fault-free* fan run under
  :class:`SupervisedExecutor` produces the bit-identical merged sketch
  at a small constant overhead, and every ``resilience.*`` counter
  stays at **zero** -- the snapshot invariant CI asserts from
  ``BENCH_resilience.json`` (a nonzero retry or pool rebuild on a
  clean run means the supervisor is misfiring);
* **cheap durability**: checkpointing a live monitor and resuming it
  are tens-of-milliseconds operations, and the resumed monitor emits
  bit-identical observations to the run that never died;
* **journal checkpoints**: past warm-up, every checkpoint after a
  ``step``-row push appends one record of exactly ``step`` rows and
  makes one fsync, plus one directory fsync when it starts a segment
  -- the reference and the surviving chunks are never rewritten -- and
  the generation on disk stays within 2x the bytes of the live state.
  CI asserts ``steady_rows_written_per_checkpoint == step``, the fsync
  count and the disk ratio from ``BENCH_resilience.json``;
* **sketch-only checkpoints**: a tabular monitor under the fixed policy
  with a counts-only bootstrap never reads a ring chunk's rows again,
  so its steady checkpoints write no rows at all, with the same one
  fsync (plus the directory's when a segment starts). CI asserts
  ``sketch_only_rows_written_per_checkpoint == 0`` and the fsync count;
  the bytes per record are recorded;
* **checkpoints that do not grow with the stream**: a steady checkpoint
  after 5,000 windows takes at most 1.5x one after 50 -- the history's
  sealed blocks are written once, and each record holds only its open
  tail.
"""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path
from typing import Any

import numpy as np

from repro.data.quest_basket import generate_basket
from repro.data.quest_classify import generate_classification
from repro.core.dtree_model import DtModel
from repro.core.lits import LitsModel
from repro.mining.tree.builder import TreeParams
from repro.stream.chunks import iter_tabular_chunks
from repro.obs import MetricsRegistry, use_registry
from repro.resilience import SupervisedExecutor, write_checkpoint
from repro.stream.executor import ThreadExecutor, sharded_support_sketch
from repro.stream.monitor import OnlineChangeMonitor

N_ROWS = 12_000
N_ITEMS = 60
N_SHARDS = 8
WINDOW = 1_000
STEP = 500
STEADY_CHECKPOINTS = 8
#: tumbling windows of this many rows under the cheap mode: a history
#: thousands of observations long in about a second
TINY_WINDOW = 8
#: history lengths, in windows, whose steady checkpoints are compared
GROWTH_AT = (50, 5_000)
GROWTH_REPEATS = 50
MAX_GROWTH_X = 1.5
#: checkpoint bytes on disk over the bytes of a fresh generation
MAX_DISK_X = 2.0
#: the steady checkpoints' per-checkpoint counters
COUNTED = ("resilience.checkpoint_rows_written", "resilience.checkpoint_fsyncs")
ITEMSETS = [(i,) for i in range(0, 20)] + [
    (i, j) for i in range(0, 8) for j in range(i + 1, 8)
]

JSON_PATH = Path(__file__).parent / "BENCH_resilience.json"

RESILIENCE_COUNTERS = (
    "resilience.retries",
    "resilience.pool_rebuilds",
    "resilience.degraded_fans",
    "resilience.quarantined_shards",
)


def test_fault_free_supervision_is_bit_identical_and_zero_cost(benchmark):
    rows = list(
        generate_basket(
            N_ROWS, n_items=N_ITEMS, avg_transaction_len=6, seed=77
        )
    )

    # one shard per worker: the pool's width is the fan's
    bare = ThreadExecutor(max_workers=N_SHARDS)
    t0 = time.perf_counter()
    try:
        plain = sharded_support_sketch(rows, ITEMSETS, N_ITEMS, executor=bare)
    finally:
        bare.close()
    t_bare = time.perf_counter() - t0

    registry = MetricsRegistry()
    supervised = SupervisedExecutor("thread", max_workers=N_SHARDS)
    t1 = time.perf_counter()
    try:
        with use_registry(registry):
            guarded = benchmark.pedantic(
                sharded_support_sketch,
                args=(rows, ITEMSETS, N_ITEMS),
                kwargs={"executor": supervised},
                rounds=1, iterations=1,
            )
    finally:
        supervised.close()
    t_supervised = time.perf_counter() - t1

    # Bit-identical merge, and a clean run never touches the failure
    # machinery: all resilience counters pinned at zero.
    assert guarded == plain
    counters = registry.snapshot()["counters"]
    for name in RESILIENCE_COUNTERS:
        assert counters.get(name, 0) == 0, f"{name} nonzero on a clean fan"

    overhead = t_supervised / t_bare if t_bare > 0 else 1.0

    # Durable checkpoints on a live monitor: write, resume, bit-identity.
    def builder(dataset):
        return LitsModel.mine(dataset, 0.05, max_len=2)

    def make():
        return OnlineChangeMonitor(
            builder, N_ITEMS, window_size=WINDOW, step=STEP, n_boot=8,
            rng=np.random.default_rng(5),
        )

    ckpt_dir = JSON_PATH.parent / ".bench_ckpt"
    ckpt_registry = MetricsRegistry()
    with use_registry(ckpt_registry):
        expected = make().push(rows)
        live = make()
        emitted = list(live.push(rows[:7_000]))
        t2 = time.perf_counter()
        live.checkpoint(ckpt_dir)
        t_checkpoint = time.perf_counter() - t2
        resumed = make()
        t3 = time.perf_counter()
        resumed.resume(ckpt_dir)
        t_resume = time.perf_counter() - t3
        emitted.extend(resumed.push(rows[resumed.rows_ingested:]))
    checkpoint_bytes = sum(
        p.stat().st_size for p in ckpt_dir.rglob("*") if p.is_file()
    )
    def key(o):
        return (o.index, o.deviation, o.significance, o.drifted)

    assert [key(o) for o in emitted] == [key(o) for o in expected]
    assert ckpt_registry.counter("resilience.checkpoints_written") == 1
    assert ckpt_registry.counter("resilience.checkpoints_resumed") == 1
    shutil.rmtree(ckpt_dir)

    # Steady state: once the reference is fit, each checkpoint after a
    # step-row push appends that step's rows in one synced record.
    steady = make()
    warm = WINDOW + STEP
    steady.push(rows[:warm])
    steady.checkpoint(ckpt_dir)
    steady_registry = MetricsRegistry()
    rows_written, fsyncs, started, disk_x = [], [], [], []
    t_steady = 0.0
    with use_registry(steady_registry):
        for k in range(STEADY_CHECKPOINTS):
            steady.push(rows[warm + k * STEP : warm + (k + 1) * STEP])
            before = [steady_registry.counter(name) for name in COUNTED]
            last = _segments(ckpt_dir)[-1]
            t4 = time.perf_counter()
            steady.checkpoint(ckpt_dir)
            t_steady += time.perf_counter() - t4
            written, synced = (
                steady_registry.counter(name) - n
                for name, n in zip(COUNTED, before)
            )
            rows_written.append(written)
            fsyncs.append(synced)
            started.append(int(_segments(ckpt_dir)[-1] != last))
            with use_registry(MetricsRegistry()):
                write_checkpoint(steady, ckpt_dir.with_name(".bench_fresh"))
            disk_x.append(
                _generation_bytes(ckpt_dir)
                / _generation_bytes(ckpt_dir.with_name(".bench_fresh"))
            )
            shutil.rmtree(ckpt_dir.with_name(".bench_fresh"))
    shutil.rmtree(ckpt_dir)
    assert rows_written == [STEP] * STEADY_CHECKPOINTS, rows_written
    steady_counters = steady_registry.snapshot()["counters"]
    # one fsync per checkpoint, and the directory's when a segment starts
    assert [f - s for f, s in zip(fsyncs, started)] == [1] * STEADY_CHECKPOINTS
    assert steady_counters["resilience.checkpoint_fsyncs"] == (
        STEADY_CHECKPOINTS + sum(started)
    ), (fsyncs, started)
    assert max(disk_x) <= MAX_DISK_X, disk_x

    sketch_only = _sketch_only_steady(ckpt_dir)
    assert sketch_only["rows_written"] == [0] * STEADY_CHECKPOINTS, sketch_only
    assert [f - s for f, s in zip(sketch_only["fsyncs"], sketch_only["started"])] == [
        1
    ] * STEADY_CHECKPOINTS, sketch_only
    assert sketch_only["counters"]["resilience.checkpoint_fsyncs"] == (
        STEADY_CHECKPOINTS + sum(sketch_only["started"])
    ), sketch_only

    t_growth = _steady_checkpoint_by_history(ckpt_dir)
    growth = t_growth[GROWTH_AT[-1]] / t_growth[GROWTH_AT[0]]
    assert growth <= MAX_GROWTH_X, t_growth

    payload = {
        "bench": "resilience",
        "n_rows": N_ROWS,
        "n_shards": N_SHARDS,
        "n_itemsets": len(ITEMSETS),
        "t_bare_fan_s": round(t_bare, 4),
        "t_supervised_fan_s": round(t_supervised, 4),
        "supervision_overhead_x": round(overhead, 2),
        "t_checkpoint_s": round(t_checkpoint, 4),
        "t_resume_s": round(t_resume, 4),
        "checkpoint_bytes": checkpoint_bytes,
        "counters": counters,
        "checkpoint_counters": ckpt_registry.snapshot()["counters"],
        "step": STEP,
        "steady_checkpoints": STEADY_CHECKPOINTS,
        "steady_rows_written_per_checkpoint": max(rows_written),
        "steady_segments_started": sum(started),
        "t_steady_checkpoint_s": round(t_steady / STEADY_CHECKPOINTS, 4),
        "steady_counters": steady_counters,
        "checkpoint_disk_x": round(max(disk_x), 2),
        "sketch_only_rows_written_per_checkpoint": max(sketch_only["rows_written"]),
        "sketch_only_segments_started": sum(sketch_only["started"]),
        "sketch_only_bytes_per_record": round(
            sum(sketch_only["bytes"]) / STEADY_CHECKPOINTS
        ),
        "sketch_only_counters": sketch_only["counters"],
        "max_disk_x_asserted": MAX_DISK_X,
        "t_checkpoint_by_windows_s": {
            str(n): round(t, 5) for n, t in t_growth.items()
        },
        "checkpoint_growth_x": round(growth, 2),
        "max_growth_x_asserted": MAX_GROWTH_X,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"\nsupervised fan {t_supervised * 1e3:.0f}ms vs bare "
        f"{t_bare * 1e3:.0f}ms ({overhead:.2f}x), all resilience counters "
        f"zero; checkpoint {t_checkpoint * 1e3:.0f}ms / resume "
        f"{t_resume * 1e3:.0f}ms ({checkpoint_bytes} B); steady checkpoint "
        f"{t_steady / STEADY_CHECKPOINTS * 1e3:.1f}ms writing {STEP} rows "
        f"({max(disk_x):.2f}x the live bytes on disk); sketch-only steady "
        f"records {sum(sketch_only['bytes']) / STEADY_CHECKPOINTS:.0f} B, "
        "no rows; "
        f"checkpoint after {GROWTH_AT[0]} windows "
        f"{t_growth[GROWTH_AT[0]] * 1e3:.1f}ms, after {GROWTH_AT[-1]} "
        f"{t_growth[GROWTH_AT[-1]] * 1e3:.1f}ms ({growth:.2f}x) "
        f"-> {JSON_PATH.name}"
    )


def _generation(directory: Path) -> Path:
    manifest = json.loads((directory / "CHECKPOINT.json").read_text())
    return directory / manifest["generation"]


def _segments(directory: Path) -> list[str]:
    return sorted(p.name for p in _generation(directory).glob("segment-*"))


def _generation_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in _generation(directory).iterdir())


def _sketch_only_steady(ckpt_dir: Path) -> dict[str, Any]:
    """Per steady checkpoint of a tabular fixed-policy monitor with a
    counts-only bootstrap: rows written, fsyncs, whether it started a
    segment, bytes written; and the steady counters."""
    table = generate_classification(WINDOW + STEP * (STEADY_CHECKPOINTS + 1), seed=3)
    monitor = OnlineChangeMonitor(
        lambda d: DtModel.fit(d, TreeParams(max_depth=4, min_leaf=20)),
        kind="tabular", window_size=WINDOW, step=STEP, n_boot=8,
        rng=np.random.default_rng(5),
    )
    assert not monitor.reads_chunk_rows
    chunks = iter_tabular_chunks(table, STEP)
    for _ in range((WINDOW + STEP) // STEP):
        monitor.push(next(chunks))
    monitor.checkpoint(ckpt_dir)
    counted = (*COUNTED, "resilience.checkpoint_bytes_written")
    registry = MetricsRegistry()
    per: dict[str, list[int]] = {"rows_written": [], "fsyncs": [], "bytes": []}
    started = []
    with use_registry(registry):
        for chunk in chunks:
            monitor.push(chunk)
            before = [registry.counter(name) for name in counted]
            last = _segments(ckpt_dir)[-1]
            monitor.checkpoint(ckpt_dir)
            for key, name, n in zip(per, counted, before):
                per[key].append(registry.counter(name) - n)
            started.append(int(_segments(ckpt_dir)[-1] != last))
    shutil.rmtree(ckpt_dir)
    counters = registry.snapshot()["counters"]
    return {**per, "started": started, "counters": counters}


def _steady_checkpoint_by_history(ckpt_dir: Path) -> dict[int, float]:
    """Best-of time of a steady checkpoint at each history length.

    One monitor per length in :data:`GROWTH_AT` checkpoints once to
    write whatever is new; then, in alternation so host drift hits every
    length alike, each pushes one more window and times a checkpoint --
    the cadence of a monitor that checkpoints every chunk.
    """
    n_rows = TINY_WINDOW * (GROWTH_AT[-1] + GROWTH_REPEATS + 2)
    rows = list(
        generate_basket(n_rows, n_items=20, avg_transaction_len=4, seed=5)
    )
    monitors = {}
    for n in GROWTH_AT:
        monitor = OnlineChangeMonitor(
            lambda d: LitsModel.mine(d, 0.2, max_len=2), 20,
            window_size=TINY_WINDOW, step=None, n_boot=0,
            delta_threshold=10.0,
        )
        # the first window's rows are the reference
        monitor.push(rows[: TINY_WINDOW * (n + 1)])
        monitor.checkpoint(ckpt_dir / str(n))
        monitors[n] = monitor

    times = dict.fromkeys(GROWTH_AT, float("inf"))
    for _ in range(GROWTH_REPEATS):
        for n, monitor in monitors.items():
            offset = monitor.rows_ingested
            monitor.push(rows[offset : offset + TINY_WINDOW])
            t0 = time.perf_counter()
            monitor.checkpoint(ckpt_dir / str(n))
            times[n] = min(times[n], time.perf_counter() - t0)
    shutil.rmtree(ckpt_dir)
    return times
