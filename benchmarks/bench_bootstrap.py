"""Ablation: count-space bootstrap vs the per-replicate resampling loop.

The qualification procedure (Section 3.4) is the repo's dominant cost
when run naively: every replicate materialises two resampled datasets
via ``take()`` and re-scans each from scratch, so ``n_boot = 100``
costs ~100 full passes over the pooled rows. The count-space engine
(:mod:`repro.stats.resample_plan`) scans the pooled data **once** into
a per-row membership matrix and computes every replicate's counts as a
``(B x n_rows) @ (n_rows x n_regions)`` product.

Acceptance bars, pinned here on a 50,000-row pooled dataset at
``n_boot = 100``:

* >= 5x measured speedup over the per-replicate loop (target ~10x;
  the loop is timed over a replicate subset and scaled -- its cost is
  per-replicate constant -- so the bench stays CI-sized);
* exactly one pooled scan: row-scan accounting proves the fast path
  indexes each pooled row once and never calls ``take()``;
* the vectorized null equals the loop oracle **exactly** under shared
  draws.

Sequential qualification (draw scheme 3) is pinned on two streams of
the pipeline benchmark's stream-lits shape: a stationary one and a
drifted one, each against a full-``B`` oracle built from the same
child generators. Verdicts must be equal, a stationary window that
settles must stop after the first block (three fifths of ``B``), and
every drifted window must draw all ``B``.

One stream window of the same shape -- a 4,000-row reference plus four
1,000-row chunks, the reference's mined itemsets, ``B = 12`` -- gates
the per-window fixed costs against in-process oracles:

* the compiled membership (one gather per itemset length) is >= 3x
  faster than one ``intersection_bits`` call per itemset;
* drawing ``B = 20`` as the sequential monitor's 12 + 8 split costs at
  most 1.25x one ``B = 20`` call.

The measured numbers are also written to ``BENCH_bootstrap.json`` next
to this file (machine-readable: speedup, n_boot, rows, timings, and the
``"sequential"`` replicate counts, the ``"stream_window"`` ratios) so
CI can archive the perf trajectory as an artifact.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.deviation import deviation_over_structure
from repro.core.gcr import gcr
from repro.core.lits import LitsModel
from repro.core.monitor import _first_block
from repro.data.quest_basket import build_pattern_pool, generate_basket
from repro.data import transactions as transactions_module
from repro.data.transactions import TransactionDataset
from repro.obs import MetricsRegistry, use_registry
from repro.stats.bootstrap import BootstrapResult, deviation_significance
from repro.stats.resample_plan import (
    LitsResamplePlan,
    compile_resample_plan,
    lits_membership,
    multiplicities_from_indices,
)
from repro.stream.chunks import iter_chunks
from repro.stream.monitor import OnlineChangeMonitor

#: Acceptance scale: a 50k-row pooled dataset (25k + 25k), the full
#: paper-scale replicate count.
N_ROWS_EACH = 25_000
N_POOLED = 2 * N_ROWS_EACH
N_ITEMS = 200
N_BOOT = 100
#: Replicates actually timed for the loop baseline; its cost is
#: per-replicate constant, so the full-loop time is this times
#: ``N_BOOT / N_BOOT_ORACLE``.
N_BOOT_ORACLE = 8
MIN_SPEEDUP = 5.0

JSON_PATH = Path(__file__).parent / "BENCH_bootstrap.json"
SRC = Path(__file__).resolve().parents[1] / "src"
#: the thread-count variables pipebench pins to one BLAS thread
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: The sequential-qualification streams: stream-lits' shape (500 items,
#: 1,000 patterns, sliding 4,000-row windows in 1,000-row steps, B=20
#: at 95%) over fewer rows.
SEQ_ITEMS = 500
SEQ_WINDOW = 4_000
SEQ_STEP = 1_000
SEQ_ROWS = 16_000
SEQ_BOOT = 20
SEQ_THRESHOLD = 95.0

#: The stream-window case: replicates of one window, and its gates.
WINDOW_BOOT = 12
MIN_MEMBERSHIP_SPEEDUP = 3.0
MAX_SPLIT_RATIO = 1.25


def _write_json(update: dict) -> None:
    """Merge ``update`` into the JSON file, keeping the other tests' keys."""
    payload = json.loads(JSON_PATH.read_text()) if JSON_PATH.exists() else {}
    payload.update(update)
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def _builder(dataset):
    return LitsModel.mine(dataset, 0.02, max_len=2)


@pytest.fixture(scope="module")
def workload():
    d1 = generate_basket(
        N_ROWS_EACH, n_items=N_ITEMS, avg_transaction_len=8,
        n_patterns=120, avg_pattern_len=4, seed=71,
    )
    d2 = generate_basket(
        N_ROWS_EACH, n_items=N_ITEMS, avg_transaction_len=8,
        n_patterns=120, avg_pattern_len=5, seed=72,
    )
    m1, m2 = _builder(d1), _builder(d2)
    structure = gcr(m1.structure, m2.structure)
    return d1, d2, (m1, m2), structure


def _fast_significance(d1, d2, models):
    return deviation_significance(
        d1, d2, n_boot=N_BOOT, rng=np.random.default_rng(3), models=models
    )


def _loop_null(structure, pooled, n_boot, rng):
    """The pre-engine path: materialise + rescan every replicate."""
    null = np.empty(n_boot)
    for b in range(n_boot):
        idx1 = rng.choice(N_POOLED, size=N_ROWS_EACH, replace=True)
        idx2 = rng.choice(N_POOLED, size=N_ROWS_EACH, replace=True)
        d1b = pooled.take(idx1)
        d2b = pooled.take(idx2)
        null[b] = deviation_over_structure(structure, d1b, d2b).value
    return null


def test_count_space_engine_beats_replicate_loop(benchmark, workload):
    """>= 5x at n_boot=100 on 50k pooled rows, JSON trajectory emitted."""
    d1, d2, models, structure = workload
    pooled = d1.concat(d2)
    pooled.index  # build outside the timed region: the loop pays its
    # per-replicate take() + rescan either way

    # Fast path timed end to end: compile (the one pooled scan) + all
    # 100 replicates. Indexes dropped so the scan is honestly included.
    def fast():
        d1.drop_index()
        d2.drop_index()
        return _fast_significance(d1, d2, models)

    result = benchmark(fast)
    t_fast = np.inf
    for _ in range(3):
        t0 = time.perf_counter()
        result = fast()
        t_fast = min(t_fast, time.perf_counter() - t0)

    t0 = time.perf_counter()
    _loop_null(structure, pooled, N_BOOT_ORACLE, np.random.default_rng(4))
    t_loop_subset = time.perf_counter() - t0
    t_loop = t_loop_subset * (N_BOOT / N_BOOT_ORACLE)

    speedup = t_loop / max(t_fast, 1e-9)

    # Enabled run (untimed): the count-space engine under a live
    # registry. The counters must prove the headline claim -- exactly
    # one pooled scan compiled the whole null.
    registry = MetricsRegistry()
    with use_registry(registry):
        d1.drop_index()
        d2.drop_index()
        _fast_significance(d1, d2, models)
    counters = registry.snapshot()["counters"]
    assert counters["bootstrap.pooled_scans"] == 1
    assert counters.get("bootstrap.replicates.gemm", 0) >= N_BOOT

    payload = {
        "bench": "bootstrap",
        "rows": N_POOLED,
        "n_regions": len(structure.regions),
        "n_boot": N_BOOT,
        "n_boot_timed_for_loop": N_BOOT_ORACLE,
        "t_fast_s": round(t_fast, 4),
        "t_loop_per_replicate_s": round(t_loop_subset / N_BOOT_ORACLE, 4),
        "t_loop_extrapolated_s": round(t_loop, 4),
        "speedup": round(speedup, 2),
        "min_speedup_asserted": MIN_SPEEDUP,
        "counters": counters,
    }
    _write_json(payload)
    print(
        f"\n{N_POOLED} pooled rows, {len(structure.regions)} regions, "
        f"n_boot={N_BOOT}: engine {t_fast:.2f}s vs loop {t_loop:.1f}s "
        f"extrapolated from {N_BOOT_ORACLE} replicates ({speedup:.1f}x) "
        f"-> {JSON_PATH.name}"
    )
    assert len(result.null_values) == N_BOOT
    assert speedup >= MIN_SPEEDUP


def test_fast_path_scans_the_pool_exactly_once(workload, monkeypatch):
    """Scan accounting: each pooled row is indexed once, take() never runs."""
    d1, d2, models, _ = workload
    rows_indexed = []
    real_init = transactions_module.BitmapIndex.__init__

    def counting_init(self, transactions, n_items, **kwargs):
        rows_indexed.append(len(transactions))
        real_init(self, transactions, n_items, **kwargs)

    def forbidden_take(self, indices):
        raise AssertionError("take() materialised a resample")

    monkeypatch.setattr(transactions_module.BitmapIndex, "__init__", counting_init)
    monkeypatch.setattr(TransactionDataset, "take", forbidden_take)
    d1.drop_index()
    d2.drop_index()
    result = _fast_significance(d1, d2, models)
    assert len(result.null_values) == N_BOOT
    # one index build per side = one scan of the pooled rows, total
    assert sum(rows_indexed) == N_POOLED
    assert len(rows_indexed) == 2


def test_vectorized_null_equals_oracle_under_shared_draws(workload):
    """Exactness at scale: same draws -> bit-identical null vectors."""
    d1, d2, _, structure = workload
    pooled = d1.concat(d2)
    plan = compile_resample_plan(structure, d1, d2)
    rng = np.random.default_rng(9)
    n_shared = 4
    idx1 = rng.integers(0, N_POOLED, size=(n_shared, N_ROWS_EACH))
    idx2 = rng.integers(0, N_POOLED, size=(n_shared, N_ROWS_EACH))
    oracle = np.array(
        [
            deviation_over_structure(
                structure, pooled.take(i1), pooled.take(i2)
            ).value
            for i1, i2 in zip(idx1, idx2)
        ]
    )
    fast = plan.null_from_multiplicities(
        multiplicities_from_indices(idx1, N_POOLED),
        multiplicities_from_indices(idx2, N_POOLED),
    )
    assert np.array_equal(oracle, fast)


def _seq_rows(drifted: bool) -> list:
    """A reference window's rows, then rows from the same buying process
    or, ``drifted``, from a process with longer patterns."""
    pool = build_pattern_pool(
        np.random.default_rng(0), n_items=SEQ_ITEMS, n_patterns=1_000,
        avg_pattern_len=4,
    )
    rng = np.random.default_rng(11)
    if not drifted:
        return list(
            generate_basket(
                SEQ_ROWS, n_items=SEQ_ITEMS, avg_transaction_len=10,
                rng=rng, pool=pool,
            )
        )
    reference = generate_basket(
        SEQ_WINDOW, n_items=SEQ_ITEMS, avg_transaction_len=10, rng=rng,
        pool=pool,
    )
    after = generate_basket(
        SEQ_ROWS - SEQ_WINDOW, n_items=SEQ_ITEMS, avg_transaction_len=10,
        n_patterns=1_000, avg_pattern_len=6, rng=rng,
    )
    return list(reference) + list(after)


def _sequential_run(rows: list, seed: int) -> dict:
    """Monitor ``rows``; per window, the sequential verdict, replicates
    drawn and time, against the full-B oracle from the same child."""
    monitor = OnlineChangeMonitor(
        lambda d: LitsModel.mine(d, 0.02, max_len=2), SEQ_ITEMS,
        window_size=SEQ_WINDOW, step=SEQ_STEP, n_boot=SEQ_BOOT,
        threshold=SEQ_THRESHOLD, rng=np.random.default_rng(seed),
    )
    inner = monitor.monitor
    qualify = inner.observe_precomputed
    registry = MetricsRegistry()
    windows = []

    def observe_precomputed(snapshot, delta, model=None, resample_plan=None):
        before = registry.counter("monitor.qualify.replicates")
        t0 = time.perf_counter()
        observation = qualify(snapshot, delta, model, resample_plan)
        elapsed = time.perf_counter() - t0
        drawn = registry.counter("monitor.qualify.replicates") - before
        windows.append((observation, drawn, elapsed, resample_plan))
        return observation

    inner.observe_precomputed = observe_precomputed
    with use_registry(registry):
        for chunk in iter_chunks(rows, SEQ_STEP):
            monitor.push(chunk)
    # the oracle: each window's child generator, drawing all B
    parent = np.random.default_rng(seed)
    equal = True
    t_full = 0.0
    for observation, _, _, plan in windows:
        child = np.random.default_rng(int(parent.integers(0, 2**63)))
        t0 = time.perf_counter()
        full = plan.null_deviations(SEQ_BOOT, child)
        t_full += time.perf_counter() - t0
        significance = BootstrapResult(
            observation.deviation, full
        ).significance_percent
        equal &= observation.drifted == (significance >= SEQ_THRESHOLD)
    drawn = [n for _, n, _, _ in windows]
    return {
        "windows": len(windows),
        "drifted": sum(o.drifted for o, _, _, _ in windows),
        "verdicts_equal_full_b": bool(equal),
        "mean_replicates": round(float(np.mean(drawn)), 3),
        "min_replicates": int(min(drawn)),
        "max_replicates": int(max(drawn)),
        "settled_early": registry.counter("monitor.qualify.settled_early"),
        "t_qualify_s": round(sum(t for _, _, t, _ in windows), 4),
        "t_full_null_s": round(t_full, 4),
    }


def test_sequential_qualification_stops_only_settled_windows():
    """Equal verdicts to full B; a stationary window settles after the
    first block, and a drifted window draws all B."""
    stationary = _sequential_run(_seq_rows(drifted=False), seed=3)
    drifted = _sequential_run(_seq_rows(drifted=True), seed=3)
    _write_json(
        {
            "sequential": {
                "n_boot": SEQ_BOOT,
                "threshold": SEQ_THRESHOLD,
                "window": SEQ_WINDOW,
                "step": SEQ_STEP,
                "stationary": stationary,
                "drifted": drifted,
            }
        }
    )
    print(
        f"\nsequential qualification, B={SEQ_BOOT}: stationary "
        f"{stationary['mean_replicates']} replicates per window "
        f"({stationary['settled_early']}/{stationary['windows']} settled "
        f"early, {stationary['t_qualify_s']}s vs {stationary['t_full_null_s']}s "
        f"for full nulls); drifted {drifted['drifted']}/{drifted['windows']} "
        f"windows at {drifted['mean_replicates']}"
    )
    for run in (stationary, drifted):
        assert run["windows"] > 0
        assert run["verdicts_equal_full_b"]
    assert stationary["settled_early"] > 0
    assert stationary["min_replicates"] == _first_block(SEQ_BOOT, SEQ_THRESHOLD)
    assert stationary["mean_replicates"] < SEQ_BOOT
    assert drifted["drifted"] == drifted["windows"]
    assert drifted["min_replicates"] == drifted["max_replicates"] == SEQ_BOOT


def _membership_loop(structure, index):
    """The per-itemset oracle: one ``intersection_bits`` call each,
    stacked, unpacked and transposed into the GEMM's float32 layout."""
    n = index.n_transactions
    packed = np.stack([index.intersection_bits(s) for s in structure.itemsets])
    bits = np.unpackbits(packed, axis=1, count=n)
    return np.ascontiguousarray(bits.T).astype(np.float32)


def _best_interleaved(fn_a, fn_b, repeats: int) -> tuple[float, float]:
    """Best-of-``repeats`` times of two callables run turn about, so a
    slow spell of the host hits both sides of a ratio alike."""
    best = [float("inf"), float("inf")]
    for _ in range(repeats):
        for side, fn in enumerate((fn_a, fn_b)):
            t0 = time.perf_counter()
            fn()
            best[side] = min(best[side], time.perf_counter() - t0)
    return best[0], best[1]


def _stream_window_timings() -> dict:
    """The stream-window case's timings (run in a one-BLAS-thread child)."""
    rows = _seq_rows(drifted=False)[: SEQ_WINDOW + 4 * SEQ_STEP]
    reference = TransactionDataset(rows[:SEQ_WINDOW], SEQ_ITEMS)
    chunks = [
        TransactionDataset(rows[start : start + SEQ_STEP], SEQ_ITEMS)
        for start in range(SEQ_WINDOW, len(rows), SEQ_STEP)
    ]
    structure = LitsModel.mine(reference, 0.02, max_len=2).structure
    indexes = [d.index for d in (reference, *chunks)]

    parts = [lits_membership(structure, index) for index in indexes]
    for index, part in zip(indexes, parts):
        assert np.array_equal(part, _membership_loop(structure, index))

    # each block is dropped before the next is built, as the allocator
    # would otherwise time fresh pages rather than the kernels
    def compiled():
        for index in indexes:
            lits_membership(structure, index)

    def loop():
        for index in indexes:
            _membership_loop(structure, index)

    t_compiled, t_loop = _best_interleaved(compiled, loop, 40)

    plan = LitsResamplePlan(structure, parts, SEQ_WINDOW, 4 * SEQ_STEP)

    def one_call():
        return plan.null_deviations(SEQ_BOOT, np.random.default_rng(5))

    def two_calls():
        rng = np.random.default_rng(5)
        first = plan.null_deviations(WINDOW_BOOT, rng)
        return np.concatenate(
            [first, plan.null_deviations(SEQ_BOOT - WINDOW_BOOT, rng)]
        )

    assert one_call().shape == two_calls().shape == (SEQ_BOOT,)
    t_one, t_split = _best_interleaved(one_call, two_calls, 60)
    return {
        "reference_rows": SEQ_WINDOW,
        "chunk_rows": SEQ_STEP,
        "n_chunks": len(chunks),
        "n_regions": len(structure.regions),
        "n_boot": WINDOW_BOOT,
        "t_membership_compiled_s": round(t_compiled, 6),
        "t_membership_loop_s": round(t_loop, 6),
        "membership_speedup": round(t_loop / t_compiled, 2),
        "min_membership_speedup_asserted": MIN_MEMBERSHIP_SPEEDUP,
        "t_null_one_call_s": round(t_one, 6),
        "t_null_split_s": round(t_split, 6),
        "split_ratio": round(t_split / t_one, 3),
        "max_split_ratio_asserted": MAX_SPLIT_RATIO,
    }


def test_stream_window_fixed_costs():
    """One stream-lits window: the compiled membership against the
    per-itemset loop, and a 12 + 8 replicate split against one B=20
    call.

    Timed in a child process with one BLAS thread, as pipebench runs:
    a thread pool's start-up cost would otherwise swamp products this
    small.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update(dict.fromkeys(BLAS_VARS, "1"))
    child = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True,
        check=True, timeout=600,
    )
    window = json.loads(child.stdout.splitlines()[-1])
    _write_json({"stream_window": window})
    print(
        f"\nstream window ({window['n_regions']} regions): membership "
        f"{window['t_membership_compiled_s'] * 1e3:.2f} ms compiled vs "
        f"{window['t_membership_loop_s'] * 1e3:.2f} ms per itemset "
        f"({window['membership_speedup']:.1f}x); B={SEQ_BOOT} as "
        f"{WINDOW_BOOT} + {SEQ_BOOT - WINDOW_BOOT}: "
        f"{window['t_null_split_s'] * 1e3:.2f} ms vs "
        f"{window['t_null_one_call_s'] * 1e3:.2f} ms in one call "
        f"({window['split_ratio']:.2f}x)"
    )
    assert window["membership_speedup"] >= MIN_MEMBERSHIP_SPEEDUP
    assert window["split_ratio"] <= MAX_SPLIT_RATIO


if __name__ == "__main__":
    print(json.dumps(_stream_window_timings()))
