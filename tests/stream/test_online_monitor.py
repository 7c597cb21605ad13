"""OnlineChangeMonitor: streaming drift detection over raw transactions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.deviation import deviation_over_structure
from repro.core.lits import LitsModel
from repro.data.quest_basket import build_pattern_pool, generate_basket
from repro.data.transactions import TransactionDataset
from repro.errors import InvalidParameterError
from repro.stream.chunks import iter_chunks
from repro.stream.monitor import OnlineChangeMonitor

N_ITEMS = 50


def builder(dataset):
    return LitsModel.mine(dataset, 0.05, max_len=2)


@pytest.fixture(scope="module")
def drifting_stream():
    """3000 quiet rows, then 1500 rows from a shifted process."""
    rng = np.random.default_rng(5)
    pool = build_pattern_pool(
        rng, n_items=N_ITEMS, n_patterns=30, avg_pattern_len=3
    )
    quiet = generate_basket(
        3_000, n_items=N_ITEMS, avg_transaction_len=5, rng=rng, pool=pool
    )
    shifted = generate_basket(
        1_500, n_items=N_ITEMS, avg_transaction_len=5, n_patterns=30,
        avg_pattern_len=5, rng=rng,
    )
    return list(quiet) + list(shifted), 3_000


class TestCheapMode:
    """n_boot=0: drift by deviation threshold, fully incremental."""

    def test_detects_the_process_change(self, drifting_stream):
        stream, change_row = drifting_stream
        monitor = OnlineChangeMonitor(
            builder, N_ITEMS, window_size=1_000, step=250,
            n_boot=0, delta_threshold=3.0,
        )
        observations = monitor.push(stream)
        assert len(observations) == (len(stream) - 1_000) // 250 - 3
        drifted = [o for o in observations if o.drifted]
        assert drifted, "the shifted process must be flagged"
        # No window fully before the change may drift; every window fully
        # after it must.
        quiet_windows = [o for o in observations if not o.drifted]
        assert all(o.deviation < 3.0 for o in quiet_windows)
        assert observations[-1].drifted

    def test_push_in_dribbles_equals_one_push(self, drifting_stream):
        stream, _ = drifting_stream
        kwargs = dict(
            window_size=1_000, step=500, n_boot=0, delta_threshold=3.0
        )
        all_at_once = OnlineChangeMonitor(builder, N_ITEMS, **kwargs)
        dribbled = OnlineChangeMonitor(builder, N_ITEMS, **kwargs)
        expected = all_at_once.push(stream)
        got = []
        for chunk in iter_chunks(stream, 333):
            got.extend(dribbled.push(chunk))
        assert [(o.index, o.deviation, o.drifted) for o in got] == [
            (o.index, o.deviation, o.drifted) for o in expected
        ]

    def test_deviation_matches_offline_delta1(self, drifting_stream):
        """The sketch-maintained delta equals deviation_over_structure on
        materialised datasets (reference structure, same f and g)."""
        stream, _ = drifting_stream
        monitor = OnlineChangeMonitor(
            builder, N_ITEMS, window_size=1_000, step=500,
            n_boot=0, delta_threshold=3.0,
        )
        observations = monitor.push(stream[:3_000])
        reference = TransactionDataset(stream[:1_000], N_ITEMS)
        structure = builder(reference).structure
        for i, obs in enumerate(observations):
            start = 1_000 + i * 500
            window = TransactionDataset(
                stream[start : start + 1_000], N_ITEMS
            )
            offline = deviation_over_structure(structure, reference, window)
            assert obs.deviation == pytest.approx(offline.value, abs=1e-6)

    def test_no_observation_before_first_window(self, drifting_stream):
        stream, _ = drifting_stream
        monitor = OnlineChangeMonitor(
            builder, N_ITEMS, window_size=1_000, step=500,
            n_boot=0, delta_threshold=3.0,
        )
        assert monitor.push(stream[:999]) == []
        assert monitor.is_warming_up
        assert monitor.push(stream[999:1_999]) == []  # window forming
        assert not monitor.is_warming_up
        assert len(monitor.push(stream[1_999:2_000])) == 1

    def test_rows_sketched_counts_each_row_once(self, drifting_stream):
        stream, _ = drifting_stream
        monitor = OnlineChangeMonitor(
            builder, N_ITEMS, window_size=1_000, step=250,
            n_boot=0, delta_threshold=3.0,
        )
        monitor.push(stream)
        monitored_rows = len(stream) - 1_000  # reference is not sketched
        assert monitor.rows_sketched == monitored_rows - monitored_rows % 250


class TestBootstrapMode:
    def test_quiet_then_drift_with_significance(self, drifting_stream):
        stream, _ = drifting_stream
        monitor = OnlineChangeMonitor(
            builder, N_ITEMS, window_size=1_000, step=1_000,
            n_boot=12, rng=np.random.default_rng(8),
        )
        observations = monitor.push(stream[:4_000])
        assert len(observations) == 3
        assert not observations[0].drifted  # quiet window
        assert observations[-1].drifted  # fully shifted window
        assert observations[-1].significance >= 95.0
        assert monitor.drift_points() == [
            o.index for o in observations if o.drifted
        ]


class TestResetOnDrift:
    def test_reference_moves_and_windows_retrack(self, drifting_stream):
        stream, _ = drifting_stream
        monitor = OnlineChangeMonitor(
            builder, N_ITEMS, window_size=1_000, step=500,
            n_boot=0, delta_threshold=3.0, policy="reset_on_drift",
        )
        observations = monitor.push(stream)
        first_drift = next(o for o in observations if o.drifted)
        after = [o for o in observations if o.index > first_drift.index]
        assert after, "stream continues past the reset"
        # the observation right after a drift compares to the promoted window
        assert after[0].reference_index == first_drift.index
        # the reference is only ever the initial one or a drifted snapshot
        drifted_indices = {o.index for o in observations if o.drifted} | {0}
        assert all(o.reference_index in drifted_indices for o in observations)
        # the tail (same shifted process as its reference) is quiet again
        assert not after[-1].drifted
        # the lifetime scan count survives the window-manager rebuilds:
        # every monitored row once, plus one window re-sketch per reset
        monitored = len(stream) - 1_000
        n_resets = sum(o.drifted for o in observations)
        assert monitor.rows_sketched == monitored + n_resets * 1_000


class TestValidation:
    def test_step_must_divide_window(self):
        with pytest.raises(InvalidParameterError):
            OnlineChangeMonitor(
                builder, N_ITEMS, window_size=1_000, step=300,
                n_boot=0, delta_threshold=1.0,
            )

    def test_cheap_mode_needs_delta_threshold(self):
        with pytest.raises(InvalidParameterError):
            OnlineChangeMonitor(builder, N_ITEMS, window_size=100, n_boot=0)

    def test_bad_universe_and_window(self):
        with pytest.raises(InvalidParameterError):
            OnlineChangeMonitor(builder, 0, window_size=100)
        with pytest.raises(InvalidParameterError):
            OnlineChangeMonitor(builder, N_ITEMS, window_size=0)

    def test_non_lits_builder_rejected_at_start(self, drifting_stream):
        stream, _ = drifting_stream

        class NotALitsModel:
            pass

        monitor = OnlineChangeMonitor(
            lambda d: NotALitsModel(), N_ITEMS, window_size=500, step=500,
            n_boot=0, delta_threshold=1.0,
        )
        with pytest.raises(InvalidParameterError):
            monitor.push(stream[:1_000])

    def test_monitor_stream_generator(self, drifting_stream):
        stream, _ = drifting_stream
        monitor = OnlineChangeMonitor(
            builder, N_ITEMS, window_size=500, step=500,
            n_boot=0, delta_threshold=3.0,
        )
        observations = list(
            monitor.monitor_stream(iter_chunks(stream[:2_000], 250))
        )
        assert len(observations) == 3
        assert [o.index for o in observations] == [1, 2, 3]


class TestCountSpaceQualification:
    """Fixed-structure bootstrap without materialising window rows."""

    def test_bootstrap_never_materialises_windows(
        self, drifting_stream, monkeypatch
    ):
        """Under the fixed policy the count-space engine qualifies every
        window; Window.to_dataset (the materialisation seam) must never
        fire even with n_boot > 0."""
        from repro.stream import windows as windows_module

        def boom(self):
            raise AssertionError("window was materialised")

        monkeypatch.setattr(windows_module.Window, "to_dataset", boom)
        stream, _ = drifting_stream
        monitor = OnlineChangeMonitor(
            builder, N_ITEMS, window_size=1_000, step=500,
            n_boot=8, rng=np.random.default_rng(2),
        )
        observations = monitor.push(stream[:4_000])
        assert len(observations) == 5
        assert observations[-1].drifted

    def test_refit_models_still_materialises(self, drifting_stream):
        """refit_models re-mines from resampled rows, so that mode keeps
        the materialising path."""
        stream, _ = drifting_stream
        monitor = OnlineChangeMonitor(
            builder, N_ITEMS, window_size=500, step=500,
            n_boot=2, rng=np.random.default_rng(3), refit_models=True,
        )
        observations = monitor.push(stream[:1_500])
        assert len(observations) == 2
        assert all(0.0 <= o.significance <= 100.0 for o in observations)

    def test_reference_membership_compiled_once_per_reference(
        self, drifting_stream, monkeypatch
    ):
        """The reference rows' membership matrix is built once and reused
        by every window (and rebuilt only on a reference reset)."""
        from repro.stream import monitor as monitor_module

        calls = []
        real = monitor_module.lits_membership

        def counting(structure, index):
            calls.append(id(index))
            return real(structure, index)

        monkeypatch.setattr(monitor_module, "lits_membership", counting)
        stream, _ = drifting_stream
        monitor = OnlineChangeMonitor(
            builder, N_ITEMS, window_size=1_000, step=500,
            n_boot=4, rng=np.random.default_rng(4),
        )
        monitor.push(stream[:4_000])
        n_windows = len(monitor.history)
        assert n_windows >= 4
        reference_index = id(monitor.monitor._reference_dataset.index)
        reference_compiles = [i for i in calls if i == reference_index]
        # the reference block is compiled exactly once, and each
        # *chunk* exactly once when it enters -- surviving chunks are
        # never recompiled as the window slides over them
        assert len(reference_compiles) == 1
        n_chunks = (4_000 - 1_000) // 500
        assert len(calls) == 1 + n_chunks
        # strictly fewer compiles than a per-window recompute would pay
        chunks_per_window = 1_000 // 500
        assert len(calls) < 1 + n_windows * chunks_per_window
        assert calls[0] == reference_index

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_each_monitored_chunk_is_bit_indexed_once(
        self, drifting_stream, monkeypatch, executor
    ):
        """The sketcher's chunk index is the one the bootstrap's
        membership block reads: exactly one ``BitmapIndex`` per
        monitored chunk, and observations byte-identical to a monitor
        whose membership indexes every chunk a second time."""
        from repro.data.transactions import BitmapIndex
        from repro.stream.windows import TransactionChunk

        stream, _ = drifting_stream
        n_chunks = (3_000 - 1_000) // 250
        built = []
        real_init = BitmapIndex.__init__

        def counting_init(self, transactions, *args, **kwargs):
            built.append(transactions)
            real_init(self, transactions, *args, **kwargs)

        monkeypatch.setattr(BitmapIndex, "__init__", counting_init)

        def run():
            built.clear()
            monitor = OnlineChangeMonitor(
                builder, N_ITEMS, window_size=1_000, step=250, n_boot=6,
                rng=np.random.default_rng(9), executor=executor,
                n_shards=2,
            )
            try:
                observations = monitor.push(stream[:3_000])
            finally:
                monitor.close()
            return [
                (o.index, o.deviation, o.significance, o.drifted,
                 o.reference_index)
                for o in observations
            ], list(built)

        shared, shared_builds = run()
        assert len(shared) == n_chunks - 3  # 4-chunk sliding windows
        chunk_builds = [
            t for t in shared_builds if isinstance(t, TransactionChunk)
        ]
        assert len({id(t) for t in chunk_builds}) == len(chunk_builds)
        assert len(chunk_builds) == n_chunks
        # the only other index is the reference window's
        assert len(shared_builds) == n_chunks + 1

        # the oracle: every read of a chunk's index builds a fresh one,
        # so membership never sees the index the sketcher counted with
        monkeypatch.setattr(
            TransactionChunk,
            "index",
            property(lambda chunk: BitmapIndex(chunk, chunk.n_items)),
        )
        separate, separate_builds = run()
        assert len(separate_builds) == 2 * n_chunks + 1
        assert separate == shared

    def test_stream_significance_matches_offline_engine(self, drifting_stream):
        """A window qualified from sketches equals the offline
        count-space significance over the materialised pair, given the
        same generator state."""
        from repro.core.gcr import gcr
        from repro.stats.resample_plan import compile_resample_plan

        stream, _ = drifting_stream
        monitor = OnlineChangeMonitor(
            builder, N_ITEMS, window_size=1_000, step=1_000,
            n_boot=10, rng=np.random.default_rng(17),
        )
        observations = monitor.push(stream[:2_000])
        assert len(observations) == 1

        reference = TransactionDataset(stream[:1_000], N_ITEMS)
        window = TransactionDataset(stream[1_000:2_000], N_ITEMS)
        model = builder(reference)
        structure = gcr(model.structure, model.structure)
        plan = compile_resample_plan(structure, reference, window)
        offline = plan.significance(10, np.random.default_rng(17))
        assert observations[0].significance == pytest.approx(
            offline.significance_percent
        )

    def test_bootstrap_fanning_plumbs_through(self, drifting_stream):
        """executor/n_blocks reach the inner monitor's bootstrap (the
        tutorial's fanning claim), and verdicts match the serial run
        given the same generator state."""
        stream, _ = drifting_stream
        kwargs = dict(window_size=1_000, step=1_000, n_boot=6)
        serial = OnlineChangeMonitor(
            builder, N_ITEMS, rng=np.random.default_rng(21), **kwargs
        )
        fanned = OnlineChangeMonitor(
            builder, N_ITEMS, rng=np.random.default_rng(21),
            executor="thread", n_blocks=3, **kwargs,
        )
        assert fanned.monitor.n_blocks == 3
        a = serial.push(stream[:3_000])
        b = fanned.push(stream[:3_000])
        assert [(o.significance, o.drifted) for o in a] == [
            (o.significance, o.drifted) for o in b
        ]

    def test_close_releases_pooled_workers(self, drifting_stream):
        """close() shuts the shared executor pool down deterministically
        (leaving teardown to interpreter exit can race CPython's atexit
        wakeup); the serial backend is a no-op."""
        stream, _ = drifting_stream
        monitor = OnlineChangeMonitor(
            builder, N_ITEMS, window_size=500, step=500,
            n_boot=0, delta_threshold=3.0, executor="thread", n_shards=2,
        )
        monitor.push(stream[:1_500])
        assert monitor.executor._pool is not None  # pool was used
        monitor.close()
        assert monitor.executor._pool is None
        # serial monitors close without complaint
        OnlineChangeMonitor(
            builder, N_ITEMS, window_size=500,
            n_boot=0, delta_threshold=1.0,
        ).close()
