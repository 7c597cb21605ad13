"""OnlineChangeMonitor: streaming drift detection over raw transactions."""

from __future__ import annotations

import numpy as np
import pytest
from wide_executors import wide

from repro.core.deviation import deviation_over_structure
from repro.core.lits import LitsModel
from repro.data.quest_basket import build_pattern_pool, generate_basket
from repro.data.transactions import TransactionDataset
from repro.errors import InvalidParameterError
from repro.obs import MetricsRegistry, use_registry
from repro.stream.chunks import iter_chunks
from repro.stream.executor import ThreadExecutor
from repro.stream.monitor import OnlineChangeMonitor
from repro.wire import pack, unpack

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

    def test_every_emitted_window_is_qualified(self, drifting_stream):
        """A reset re-sketches the ring in place and emits nothing: the
        ambient window count equals the observations, and the manager's
        window count and row offset carry on across resets."""
        stream, _ = drifting_stream
        registry = MetricsRegistry()
        with use_registry(registry):
            monitor = OnlineChangeMonitor(
                builder, N_ITEMS, window_size=1_000, step=500,
                n_boot=0, delta_threshold=3.0, policy="reset_on_drift",
            )
            monitor.push(stream)
        assert sum(o.drifted for o in monitor.history) == 2
        assert len(monitor.history) == 6
        assert registry.counter("stream.windows.emitted") == len(
            monitor.history
        )
        assert monitor.windows.windows_emitted == len(monitor.history)
        assert monitor.windows.row_offset == len(stream) - 1_000


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

    def test_model_without_support_vector_rejected(self, drifting_stream):
        """Itemsets and a supports dict are not enough: the reference
        counts are read off ``support_vector``, and its absence gets the
        typed refusal."""
        stream, _ = drifting_stream

        class SupportsOnly:
            def __init__(self, dataset):
                lits = builder(dataset)
                self.structure, self.supports = lits.structure, lits.supports

        monitor = OnlineChangeMonitor(
            SupportsOnly, N_ITEMS, window_size=500, step=500,
            n_boot=0, delta_threshold=1.0,
        )
        with pytest.raises(InvalidParameterError, match="lits-models"):
            monitor.push(stream[:1_000])

    @pytest.mark.parametrize("decoded", [False, True], ids=["mined", "wire"])
    @pytest.mark.parametrize(
        "window,step", [(777, 777), (1_237, 1_237), (2_001, 667)]
    )
    def test_reference_counts_round_stored_supports(
        self, drifting_stream, decoded, window, step
    ):
        """The reference counts read off ``support_vector`` equal the
        per-itemset ``round(supports[s] * n)``, for mined and for
        wire-decoded models, at odd reference sizes."""
        stream, _ = drifting_stream

        def build(dataset):
            model = builder(dataset)
            return unpack(pack(model)) if decoded else model

        monitor = OnlineChangeMonitor(
            build, N_ITEMS, window_size=window, step=step,
            n_boot=0, delta_threshold=1.0,
        )
        monitor.push(stream[: window + step])
        reference = monitor.monitor.reference
        model, n = reference.model, len(reference.dataset)
        assert n == window
        expected = [round(model.supports[s] * n) for s in model.itemsets]
        counts = monitor._reference_cache().counts
        assert counts.dtype == np.int64
        assert counts.tolist() == expected

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
        reference_index = id(monitor.monitor.reference.dataset.index)
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
            with wide(executor, 2) as runner:
                monitor = OnlineChangeMonitor(
                    builder, N_ITEMS, window_size=1_000, step=250, n_boot=6,
                    rng=np.random.default_rng(9), executor=runner,
                )
                observations = monitor.push(stream[:3_000])
            return [
                (o.index, o.deviation, o.significance, o.drifted,
                 o.reference_index)
                for o in observations
            ], list(built)

        shared, shared_builds = run()
        assert len(shared) == n_chunks - 3  # 4-chunk sliding windows
        # the monitored chunks and the warm-up chunk, itself a dataset
        # that becomes the reference: one build each
        assert all(isinstance(t, TransactionDataset) for t in shared_builds)
        assert len({id(t) for t in shared_builds}) == n_chunks + 1
        assert len(shared_builds) == n_chunks + 1

        # the oracle: every read of a monitored chunk's index builds a
        # fresh one, so membership never sees the index the sketcher
        # counted with
        cached = TransactionDataset.index

        def fresh_index(dataset):
            if len(dataset) == 250:  # a monitored chunk
                return BitmapIndex(dataset, dataset.n_items)
            return cached.fget(dataset)

        monkeypatch.setattr(TransactionDataset, "index", property(fresh_index))
        separate, separate_builds = run()
        assert len(separate_builds) == 2 * n_chunks + 1
        assert separate == shared

    def test_stream_significance_matches_offline_engine(
        self, drifting_stream, monkeypatch
    ):
        """A window qualified from sketches draws a prefix of the offline
        count-space null over the materialised pair, from the child
        generator the monitor seeds (draw scheme 3), and its verdict is
        the verdict of that child's full null."""
        from repro.core.gcr import gcr
        from repro.stats.bootstrap import BootstrapResult
        from repro.stats.resample_plan import (
            ResamplePlan,
            compile_resample_plan,
        )

        stream, _ = drifting_stream
        monitor = OnlineChangeMonitor(
            builder, N_ITEMS, window_size=1_000, step=1_000,
            n_boot=40, rng=np.random.default_rng(17),
        )
        blocks = []
        null_deviations = ResamplePlan.null_deviations

        def spy(plan, *args, **kwargs):
            blocks.append(null_deviations(plan, *args, **kwargs))
            return blocks[-1]

        # the window shares half its rows with the reference, so its
        # deviation sits low in the null and settles early
        rows = stream[:1_000] + stream[500:1_500]
        monkeypatch.setattr(ResamplePlan, "null_deviations", spy)
        observations = monitor.push(rows)
        monkeypatch.undo()
        assert len(observations) == 1
        drawn = np.concatenate(blocks)

        reference = TransactionDataset(rows[:1_000], N_ITEMS)
        window = TransactionDataset(rows[1_000:], N_ITEMS)
        model = builder(reference)
        structure = gcr(model.structure, model.structure)
        plan = compile_resample_plan(structure, reference, window)
        seed = int(np.random.default_rng(17).integers(0, 2**63))
        full = plan.null_deviations(40, np.random.default_rng(seed))
        assert np.array_equal(drawn, full[: len(drawn)])
        # one block of three fifths of B=40 settles it
        assert [len(b) for b in blocks] == [24]
        observation = observations[0]
        assert observation.significance == BootstrapResult(
            observation.deviation, drawn
        ).significance_percent
        assert observation.drifted == (
            BootstrapResult(observation.deviation, full).significance_percent
            >= 95.0
        )

    def test_bootstrap_stays_in_process(self, drifting_stream):
        """A pooled executor fans the chunk sketches only: verdicts
        match the serial run given the same generator state."""
        stream, _ = drifting_stream
        kwargs = dict(window_size=1_000, step=1_000, n_boot=6)
        serial = OnlineChangeMonitor(
            builder, N_ITEMS, rng=np.random.default_rng(21), **kwargs
        )
        with wide("thread", 3) as runner:
            fanned = OnlineChangeMonitor(
                builder, N_ITEMS, rng=np.random.default_rng(21),
                executor=runner, **kwargs,
            )
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
            n_boot=0, delta_threshold=3.0,
            executor=ThreadExecutor(max_workers=2),
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
