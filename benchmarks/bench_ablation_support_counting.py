"""Ablation: batched support counting vs the seed per-itemset loop
(and both vs per-transaction subset tests).

The bitmap index is what makes "extend the model to the GCR and measure
both datasets in one scan" cheap; the batched engine is what makes a
*collection* of itemsets cheap: one stacked ``bitwise_and`` reduction
plus one popcount pass per length group, instead of a Python-level loop
over itemsets. This bench pins down both gaps and checks the batched
deviation engine's scan discipline.

A group of pairs can also be read off one Gram product over its
distinct items (``BitmapIndex.gram_counts``). The crossover test sweeps
``k`` items and ``m`` pairs, times both kernels, and checks that the
plan's cost rule ``k >= _GRAM_MIN_ITEMS and k**2 <= _GRAM_PAIRS_RATIO *
m`` picks the faster one on the shapes the pipeline runs: the fleet
vocabulary (thousands of pairs over about a hundred items), a stream
chunk's plan (a handful of pairs) and the small clique a stream window
can mine (3 pairs over 3 items), which only the floor sends to the
gather.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from bench_ablation_miners import FLEET_MIN_SUPPORT, make_fleet_stores

from repro.core.deviation import deviation_many
from repro.core.lits import LitsModel
from repro.data.quest_basket import build_pattern_pool, generate_basket
from repro.data.transactions import (
    _GRAM_MIN_ITEMS,
    _GRAM_PAIRS_RATIO,
    BitmapIndex,
    SupportCountingPlan,
)
from repro.fleet.vocab import probe_itemsets
from repro.mining.itemsets import brute_force_support_count

SRC = Path(__file__).resolve().parents[1] / "src"
#: the thread-count variables pipebench pins to one BLAS thread
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Acceptance scale: >= 10k transactions, >= 500 itemsets.
N_TRANSACTIONS = 12_000
N_ITEMSETS = 600


@pytest.fixture(scope="module")
def workload():
    dataset = generate_basket(
        N_TRANSACTIONS, n_items=200, avg_transaction_len=8,
        n_patterns=150, avg_pattern_len=4, seed=404,
    )
    model = LitsModel.mine(dataset, 0.01, max_len=3)
    itemsets = list(model.itemsets)
    rng = np.random.default_rng(405)
    while len(itemsets) < N_ITEMSETS:  # pad with random pairs/triples
        size = int(rng.integers(2, 4))
        itemsets.append(frozenset(rng.choice(200, size=size, replace=False).tolist()))
    return dataset, itemsets[:N_ITEMSETS]


def _best_of(fn, repeats: int) -> tuple[float, object]:
    best = float("inf")
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def test_batched_vs_seed_loop(benchmark, workload):
    """The tentpole claim: batched counting >= 3x the per-itemset loop."""
    dataset, itemsets = workload
    index = dataset.index
    index.support_counts(itemsets)  # warm any lazy allocations

    batched = benchmark(lambda: index.support_counts(itemsets))
    t_batch, _ = _best_of(lambda: index.support_counts(itemsets), repeats=5)
    t_loop, looped = _best_of(lambda: index.support_counts_loop(itemsets), repeats=3)

    speedup = t_loop / max(t_batch, 1e-9)
    print(f"\n{len(itemsets)} itemsets x {len(dataset)} transactions: "
          f"batched {t_batch * 1e3:.2f}ms vs per-itemset loop "
          f"{t_loop * 1e3:.2f}ms ({speedup:.1f}x)")

    assert batched.tolist() == looped.tolist()  # identical answers
    assert speedup >= 3.0


def test_bitmap_support_counting(benchmark, workload):
    """The seed comparison: any bitmap path vs per-transaction subset tests."""
    dataset, itemsets = workload
    small = itemsets[:150]
    dataset.drop_index()

    def count_all():
        dataset.drop_index()  # include the scan (index build) in the timing
        return dataset.index.support_counts(small)

    fast = benchmark(count_all)

    t0 = time.perf_counter()
    slow = [brute_force_support_count(dataset, s) for s in small]
    t_slow = time.perf_counter() - t0

    t_fast, _ = _best_of(count_all, repeats=2)

    print(f"\n{len(small)} itemsets x {len(dataset)} transactions: "
          f"bitmap {t_fast:.3f}s vs subset-test {t_slow:.3f}s "
          f"({t_slow / max(t_fast, 1e-9):.0f}x)")

    assert list(fast) == slow  # identical answers
    assert t_fast < t_slow  # and the bitmap path is faster


def test_deviation_many_scans_each_window_once(workload, monkeypatch):
    """W windows cost W + 1 batched counting passes, not W x itemsets."""
    dataset, _ = workload
    n_windows = 6
    size = len(dataset) // n_windows
    windows = [
        dataset.take(np.arange(i * size, (i + 1) * size))
        for i in range(n_windows)
    ]
    models = [LitsModel.mine(w, 0.02, max_len=3) for w in windows]
    for w in windows:
        w.index  # pre-build so only counting passes are measured

    calls: list[int] = []
    original = BitmapIndex.support_counts

    def counting(self, itemsets, **kwargs):
        calls.append(id(self))
        return original(self, itemsets, **kwargs)

    monkeypatch.setattr(BitmapIndex, "support_counts", counting)
    results = deviation_many(models[0], models[1:], windows[0], windows[1:])

    assert len(results) == n_windows - 1
    # one union pass over the reference window + one pass per fleet window
    assert len(calls) == n_windows
    assert len(set(calls)) == len(calls)  # no window counted twice


def _pair_kernels(index, pairs):
    """``(gram, gather)`` callables counting ``pairs`` both ways."""
    ids = np.array([sorted(p) for p in pairs], dtype=np.int64)
    items = np.unique(ids)
    local = np.searchsorted(items, ids)

    def gram():
        # gram_counts never reads the index's pair-count memo (pair_counts
        # does), so every repeat times a real product
        return index.gram_counts(items)[local[:, 0], local[:, 1]]

    return gram, lambda: index.itemset_counts(ids)


def _race(index, pairs, repeats: int):
    """Best-of times of both kernels, after checking they agree."""
    gram, gather = _pair_kernels(index, pairs)
    assert gram().tolist() == gather().tolist()
    t_gram, _ = _best_of(gram, repeats)
    t_gather, _ = _best_of(gather, repeats)
    return t_gram, t_gather


def _picks_gram(itemsets) -> bool:
    return SupportCountingPlan(itemsets)._gram is not None


def _crossover() -> dict:
    """Both kernels timed on the sweep and on the two pipeline shapes."""
    # the sweep: k items, m evenly spread pairs, on a fleet-sized store
    index = generate_basket(
        1_200, n_items=100, avg_transaction_len=8, n_patterns=80,
        avg_pattern_len=4, seed=406,
    ).index
    sweep = []
    for k in (8, 32, 99):
        a, b = np.triu_indices(k, 1)
        for m in sorted({4, k // 2, 2 * k, 8 * k, len(a)}):
            if m > len(a):
                continue
            pick = np.linspace(0, len(a) - 1, m).astype(int)
            pairs = list(zip(a[pick].tolist(), b[pick].tolist()))
            k_used = len({i for p in pairs for i in p})
            sweep.append((k_used, m, *_race(index, pairs, repeats=20)))

    # the fleet-vocabulary shape: every pair any store's model holds,
    # counted on one store
    stores = make_fleet_stores()
    vocabulary = probe_itemsets(
        [LitsModel.mine(s, FLEET_MIN_SUPPORT, max_len=2) for s in stores]
    )
    pairs = [s for s in vocabulary if len(s) == 2]
    fleet = {
        "m": len(pairs),
        "k": len({i for p in pairs for i in p}),
        "picks_gram": _picks_gram(vocabulary),
        "times": _race(stores[0].index, pairs, repeats=20),
    }

    # the stream-lits plan shape: pipebench's seed-3 reference window
    # (its first 4,000 rows; hundreds of singletons, 4 pairs) counted on
    # a 1,000-row chunk
    pool = build_pattern_pool(
        np.random.default_rng(0), n_items=500, n_patterns=1_000,
        avg_pattern_len=4,
    )
    window = generate_basket(
        60_000, n_items=500, avg_transaction_len=10,
        rng=np.random.default_rng(3), pool=pool,
    ).take(np.arange(4_000))
    model = LitsModel.mine(window, 0.02, max_len=2)
    pairs = [s for s in model.itemsets if len(s) == 2]
    chunk = window.take(np.arange(1_000)).index
    stream = {
        "m": len(pairs),
        "k": len({i for p in pairs for i in p}),
        "singletons": len(model.itemsets) - len(pairs),
        "picks_gram": _picks_gram(model.itemsets),
        "times": _race(chunk, pairs, repeats=50),
    }

    # the small-clique shape: every pair of the window's three most
    # frequent items (k**2/m = 3.0, under the ratio), on the same chunk
    top = sorted(
        (s for s in model.itemsets if len(s) == 1),
        key=lambda s: -model.supports[s],
    )[:3]
    clique = list(itertools.combinations(sorted(min(s) for s in top), 2))
    small = {
        "m": len(clique),
        "k": 3,
        "picks_gram": _picks_gram(clique),
        "times": _race(chunk, clique, repeats=50),
    }
    return {"sweep": sweep, "fleet": fleet, "stream": stream, "clique": small}


def test_gram_vs_gather_crossover():
    """The constant of the plan's pair-group cost rule, and its picks.

    Timed in a child process with one BLAS thread, as pipebench runs:
    the thread pool's start-up cost would otherwise dominate a product
    this small and misplace the crossover.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update(dict.fromkeys(BLAS_VARS, "1"))
    child = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True,
        check=True, timeout=600,
    )
    result = json.loads(child.stdout.splitlines()[-1])

    print(f"\n{'k':>4} {'m':>5} {'k2/m':>6} {'gram ms':>8} {'gather ms':>9}")
    for k, m, t_gram, t_gather in result["sweep"]:
        print(f"{k:>4} {m:>5} {k * k / m:>6.1f} "
              f"{t_gram * 1e3:>8.3f} {t_gather * 1e3:>9.3f}")
    for name in ("fleet", "stream", "clique"):
        shape = result[name]
        t_gram, t_gather = shape["times"]
        print(f"{name}: {shape['m']} pairs over {shape['k']} items "
              f"(k2/m {shape['k'] ** 2 / shape['m']:.2f}): gram "
              f"{t_gram * 1e3:.3f}ms, gather {t_gather * 1e3:.3f}ms; rule "
              f"(ratio {_GRAM_PAIRS_RATIO}, floor {_GRAM_MIN_ITEMS}) picks "
              f"{'gram' if shape['picks_gram'] else 'gather'}")

    fleet, stream, clique = result["fleet"], result["stream"], result["clique"]
    assert fleet["m"] > 1_000 and 0 < stream["m"] < 20
    assert clique["k"] ** 2 <= _GRAM_PAIRS_RATIO * clique["m"]
    assert fleet["picks_gram"]
    assert not stream["picks_gram"] and not clique["picks_gram"]
    assert fleet["times"][0] < fleet["times"][1]
    assert stream["times"][1] < stream["times"][0]
    assert clique["times"][1] < clique["times"][0]


if __name__ == "__main__":
    print(json.dumps(_crossover()))
