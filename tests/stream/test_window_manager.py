"""WindowManager: sliding/tumbling maintenance equals direct scans."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.quest_basket import generate_basket
from repro.errors import InvalidParameterError
from repro.stream.chunks import iter_chunks
from repro.stream.executor import ThreadExecutor
from repro.stream.sketch import SupportSketch
from repro.stream.windows import WindowManager

N_ITEMS = 30
CHUNK = 50
ITEMSETS = [(), (1,), (2, 3), (0, 4), (5,), (1, 2, 3)]


@pytest.fixture(scope="module")
def stream():
    dataset = generate_basket(
        1_000, n_items=N_ITEMS, avg_transaction_len=5, n_patterns=25,
        avg_pattern_len=3, seed=77,
    )
    return list(dataset)


def reference_sketch(stream, start, stop):
    return SupportSketch.from_transactions(
        stream[start:stop], ITEMSETS, N_ITEMS
    )


class TestSlidingWindows:
    def test_every_window_matches_direct_scan(self, stream):
        manager = WindowManager(ITEMSETS, N_ITEMS, window_chunks=4)
        windows = list(manager.push_many(iter_chunks(stream, CHUNK)))
        assert len(windows) == len(stream) // CHUNK - 3
        for window in windows:
            assert window.stop - window.start == 4 * CHUNK
            assert window.sketch == reference_sketch(
                stream, window.start, window.stop
            )

    def test_windows_advance_by_one_chunk(self, stream):
        manager = WindowManager(ITEMSETS, N_ITEMS, window_chunks=3)
        windows = list(manager.push_many(iter_chunks(stream, CHUNK)))
        starts = [w.start for w in windows]
        assert starts == list(range(0, len(starts) * CHUNK, CHUNK))
        assert [w.index for w in windows] == list(range(len(windows)))

    def test_no_rescan_of_surviving_rows(self, stream):
        manager = WindowManager(ITEMSETS, N_ITEMS, window_chunks=4)
        for _ in manager.push_many(iter_chunks(stream, CHUNK)):
            pass
        # every pushed row was sketched exactly once
        assert manager.rows_sketched == len(stream)

    def test_window_transactions_and_dataset(self, stream):
        manager = WindowManager(ITEMSETS, N_ITEMS, window_chunks=2)
        windows = list(manager.push_many(iter_chunks(stream, CHUNK)))
        w = windows[5]
        expected = [
            tuple(sorted(set(t))) for t in stream[w.start : w.stop]
        ]
        dataset = w.to_dataset()
        assert dataset.transactions == expected
        assert len(dataset) == len(w) == 2 * CHUNK
        assert dataset.n_items == N_ITEMS

    def test_chunks_carry_their_index_and_pickle_without_it(self, stream):
        import pickle

        from repro.data.transactions import TransactionDataset

        manager = WindowManager(ITEMSETS, N_ITEMS, window_chunks=2)
        windows = list(manager.push_many(iter_chunks(stream[:200], CHUNK)))
        chunk = windows[-1].chunks[-1]
        assert isinstance(chunk, TransactionDataset)
        assert chunk._index is not None  # built once, by the chunk's sketch
        copy = pickle.loads(pickle.dumps(chunk))
        assert copy.transactions == chunk.transactions
        assert copy.n_items == N_ITEMS
        assert copy._index is None  # rebuilt on demand
        assert np.array_equal(copy.index._bits, chunk.index._bits)

    def test_sharded_executor_same_windows(self, stream):
        serial = WindowManager(ITEMSETS, N_ITEMS, window_chunks=3)
        runner = ThreadExecutor(max_workers=3)
        sharded = WindowManager(
            ITEMSETS, N_ITEMS, window_chunks=3, executor=runner
        )
        try:
            for chunk in iter_chunks(stream[:400], CHUNK):
                a, b = serial.push(chunk), sharded.push(chunk)
                assert (a is None) == (b is None)
                if a is not None:
                    assert a.sketch == b.sketch
        finally:
            runner.shutdown()


class TestTumblingWindows:
    def test_windows_are_disjoint_and_exact(self, stream):
        manager = WindowManager(
            ITEMSETS, N_ITEMS, window_chunks=4, policy="tumbling"
        )
        windows = list(manager.push_many(iter_chunks(stream, CHUNK)))
        assert len(windows) == len(stream) // (4 * CHUNK)
        previous_stop = 0
        for window in windows:
            assert window.start == previous_stop
            previous_stop = window.stop
            assert window.sketch == reference_sketch(
                stream, window.start, window.stop
            )

    def test_flush_emits_partial_window(self, stream):
        manager = WindowManager(
            ITEMSETS, N_ITEMS, window_chunks=4, policy="tumbling"
        )
        list(manager.push_many(iter_chunks(stream[:300], CHUNK)))
        partial = manager.flush()
        assert partial is not None
        assert (partial.start, partial.stop) == (200, 300)
        assert partial.sketch == reference_sketch(stream, 200, 300)
        assert manager.flush() is None  # buffer drained

    def test_flush_noop_for_sliding(self, stream):
        manager = WindowManager(ITEMSETS, N_ITEMS, window_chunks=2)
        list(manager.push_many(iter_chunks(stream[:300], CHUNK)))
        assert manager.flush() is None


class TestValidation:
    def test_bad_window_chunks(self):
        with pytest.raises(InvalidParameterError):
            WindowManager(ITEMSETS, N_ITEMS, window_chunks=0)

    def test_bad_policy(self):
        with pytest.raises(InvalidParameterError):
            WindowManager(ITEMSETS, N_ITEMS, window_chunks=2, policy="hopping")

    def test_current_sketch_tracks_buffer(self, stream):
        manager = WindowManager(ITEMSETS, N_ITEMS, window_chunks=4)
        chunks = list(iter_chunks(stream[:150], CHUNK))
        for chunk in chunks:
            manager.push(chunk)
        assert manager.current_sketch == reference_sketch(stream, 0, 150)
        assert len(manager.buffered_chunks) == 3
