"""Ablation: columnar ingest (CSR parse + one-scatter index) vs the loop oracle.

A transactions file is parsed block by block straight to canonical CSR
datasets and bit-indexed with one ``np.repeat`` and one
``np.bitwise_or.at`` (:func:`repro.data.io.read_transaction_blocks`).
The oracle is the row-wise path:
:func:`repro.data.io.parse_transactions_block_loop` (``int()`` per
token) over the same bytes, then an index built from the tuple rows.
This bench pins the gate: identical CSR arrays (the corpus is written
canonical, so the raw rows are the canonical ones) and index bits, and
>= 3x over a seeded 60,000-row basket file.

It writes ``BENCH_ingest.json`` with the ratio and the counters of the
CSR path, where ``data.parse.fallback_blocks`` must be 0 on this plain
corpus; a corpus with signed items is parsed too, to show the counter
is live.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.data.io import (
    parse_transactions_block_loop,
    read_transaction_blocks,
    save_transactions,
)
from repro.data.quest_basket import generate_basket
from repro.data.transactions import BitmapIndex, TransactionDataset, csr_rows
from repro.obs import MetricsRegistry, use_registry

#: pipebench's stream-lits corpus shape: 60k rows over 500 items
N_ROWS = 60_000
N_ITEMS = 500
MIN_SPEEDUP = 3.0

JSON_PATH = Path(__file__).parent / "BENCH_ingest.json"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    dataset = generate_basket(
        N_ROWS, n_items=N_ITEMS, avg_transaction_len=10, n_patterns=1_000,
        avg_pattern_len=4, seed=18,
    )
    path = tmp_path_factory.mktemp("ingest") / "basket.txt"
    save_transactions(dataset, path)
    return path


def _csr_ingest(path: Path) -> tuple[TransactionDataset, BitmapIndex]:
    n_items, blocks = read_transaction_blocks(path)
    rows = TransactionDataset.concat_many(list(blocks))
    return rows, BitmapIndex(rows, n_items)


def _loop_ingest(
    path: Path,
) -> tuple[tuple[np.ndarray, np.ndarray], BitmapIndex]:
    """The oracle: row-wise parse, tuple rows, tuple-built index."""
    header, body = path.read_bytes().split(b"\n", 1)
    n_items = int(header.split(b"n_items=")[1])
    csr, bad = parse_transactions_block_loop(body, n_items)
    assert bad is None
    return csr, BitmapIndex(csr_rows(*csr), n_items)


def _best_of(fn, repeats: int):
    best, value = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def test_csr_ingest_beats_the_loop_oracle(benchmark, corpus, tmp_path):
    """The gate: same arrays and bits, >= 3x over the row-wise oracle."""
    benchmark.pedantic(_csr_ingest, args=(corpus,), rounds=1, iterations=1)
    t_csr, (rows, index) = _best_of(lambda: _csr_ingest(corpus), repeats=3)
    t_loop, (oracle_rows, oracle_index) = _best_of(
        lambda: _loop_ingest(corpus), repeats=3
    )

    assert len(rows) == N_ROWS
    assert np.array_equal(rows.indptr, oracle_rows[0])
    assert np.array_equal(rows.indices, oracle_rows[1])
    assert np.array_equal(index._bits, oracle_index._bits)
    speedup = t_loop / max(t_csr, 1e-9)

    # Enabled runs (untimed): the plain corpus never leaves the
    # vectorised parser; signed items send every block to the loop.
    registry = MetricsRegistry()
    with use_registry(registry):
        _csr_ingest(corpus)
    counters = registry.snapshot()["counters"]
    fallback = counters.get("data.parse.fallback_blocks", 0)
    assert fallback == 0, counters

    signed = tmp_path / "signed.txt"
    signed.write_bytes(corpus.read_bytes().replace(b"\n1 ", b"\n+1 "))
    odd = MetricsRegistry()
    with use_registry(odd):
        odd_rows, _ = _csr_ingest(signed)
    odd_counters = odd.snapshot()["counters"]
    assert odd_counters["data.parse.fallback_blocks"] > 0, odd_counters
    assert np.array_equal(odd_rows.indices, rows.indices)

    payload = {
        "bench": "ingest",
        "n_rows": N_ROWS,
        "n_items": N_ITEMS,
        "file_bytes": corpus.stat().st_size,
        "t_csr_s": round(t_csr, 4),
        "t_loop_s": round(t_loop, 4),
        "speedup": round(speedup, 2),
        "min_speedup_asserted": MIN_SPEEDUP,
        "fallback_blocks": fallback,
        "counters": counters,
        "signed_counters": odd_counters,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"\n{N_ROWS} rows ({corpus.stat().st_size / 1e6:.1f} MB): CSR "
        f"{t_csr * 1e3:.1f}ms vs loop {t_loop * 1e3:.1f}ms "
        f"({speedup:.1f}x) -> {JSON_PATH.name}"
    )
    assert speedup >= MIN_SPEEDUP
