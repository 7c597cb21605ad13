"""Durable monitor checkpoints: kill anywhere, resume bit-identically.

Mirrors the storage crash suite: every test either proves a resumed
monitor emits exactly the observations the uninterrupted run would
have, or proves a damaged/torn/mismatched checkpoint refuses to resume
with a typed :class:`CheckpointError`.
"""

from __future__ import annotations

import json
import zlib

import numpy as np
import pytest

from repro.core.dtree_model import DtModel
from repro.core.lits import LitsModel
from repro.data.quest_basket import build_pattern_pool, generate_basket
from repro.data.quest_classify import generate_classification
from repro.errors import CheckpointError
from repro.mining.tree.builder import TreeParams
from repro.obs import MetricsRegistry, use_registry
from repro.resilience import corrupt_checkpoint, has_checkpoint
from repro.resilience import checkpoint as ckpt
from repro.stats.resample_plan import DRAW_SCHEME
from repro.stream.chunks import iter_chunks, iter_tabular_chunks
from repro.stream.monitor import OnlineChangeMonitor

N_ITEMS = 40


def builder(dataset):
    return LitsModel.mine(dataset, 0.05, max_len=2)


def dt_builder(dataset):
    return DtModel.fit(dataset, TreeParams(max_depth=4, min_leaf=20))


def observed(observations):
    return [
        (o.index, o.deviation, o.significance, o.drifted, o.reference_index)
        for o in observations
    ]


@pytest.fixture(scope="module")
def stream():
    """1600 quiet rows then 800 rows from a shifted process."""
    rng = np.random.default_rng(7)
    pool = build_pattern_pool(
        rng, n_items=N_ITEMS, n_patterns=20, avg_pattern_len=3
    )
    quiet = generate_basket(
        1_600, n_items=N_ITEMS, avg_transaction_len=5, rng=rng, pool=pool
    )
    shifted = generate_basket(
        800, n_items=N_ITEMS, avg_transaction_len=5, n_patterns=20,
        avg_pattern_len=5, rng=rng,
    )
    return list(quiet) + list(shifted)


def make_monitor(**overrides):
    kwargs = dict(
        window_size=400, step=200, n_boot=8, threshold=95.0,
        rng=np.random.default_rng(11),
    )
    kwargs.update(overrides)
    return OnlineChangeMonitor(builder, N_ITEMS, **kwargs)


def interrupted_run(stream, tmp_path, cut, **overrides):
    """Push ``cut`` rows, checkpoint, resume fresh, push the rest."""
    first = make_monitor(**overrides)
    got = list(first.push(stream[:cut]))
    first.checkpoint(tmp_path)
    resumed = make_monitor(**overrides)
    resumed.resume(tmp_path)
    assert resumed.rows_ingested == cut
    got.extend(resumed.push(stream[resumed.rows_ingested:]))
    return got


class TestResumeBitIdentity:
    @pytest.mark.parametrize("cut", [150, 1_100])
    def test_bootstrap_mode_resumes_exactly(self, stream, tmp_path, cut):
        """Mid-warm-up and mid-stream kills, rng state included."""
        expected = make_monitor().push(stream)
        got = interrupted_run(stream, tmp_path, cut)
        assert observed(got) == observed(expected)

    def test_cheap_mode_resumes_exactly(self, stream, tmp_path):
        overrides = dict(n_boot=0, delta_threshold=3.0, rng=None)
        expected = make_monitor(**overrides).push(stream)
        got = interrupted_run(stream, tmp_path, 900, **overrides)
        assert observed(got) == observed(expected)

    def test_tumbling_windows_resume_exactly(self, stream, tmp_path):
        overrides = dict(step=None)
        expected = make_monitor(**overrides).push(stream)
        got = interrupted_run(stream, tmp_path, 1_000, **overrides)
        assert observed(got) == observed(expected)

    def test_reset_on_drift_resumes_exactly(self, stream, tmp_path):
        overrides = dict(policy="reset_on_drift")
        expected = make_monitor(**overrides).push(stream)
        got = interrupted_run(stream, tmp_path, 1_700, **overrides)
        assert observed(got) == observed(expected)

    def test_every_chunk_boundary_checkpoint_still_resumes(
        self, stream, tmp_path
    ):
        """Checkpoint after *every* push (the CLI loop's cadence)."""
        expected = make_monitor().push(stream[:1_200])
        live = make_monitor()
        for chunk in iter_chunks(stream[:800], 160):
            live.push(chunk)
            live.checkpoint(tmp_path)
        resumed = make_monitor()
        resumed.resume(tmp_path)
        got = resumed.push(stream[resumed.rows_ingested : 1_200])
        assert observed(live.history) + observed(got) == observed(expected)

    def test_lifetime_totals_survive_resume(self, stream, tmp_path):
        full = make_monitor()
        full.push(stream)
        interrupted_run(stream, tmp_path, 1_100)
        # interrupted_run used its own resumed monitor; resume again to
        # inspect the lifetime totals on a fresh instance
        resumed = make_monitor()
        resumed.resume(tmp_path)
        resumed.push(stream[resumed.rows_ingested:])
        assert observed(resumed.history) == observed(full.history)
        assert resumed.rows_sketched == full.rows_sketched
        assert resumed.rows_ingested == full.rows_ingested


class TestTabular:
    def test_tabular_monitor_resumes_exactly(self, tmp_path):
        quiet = generate_classification(1_200, function=1, seed=31)
        shifted = generate_classification(600, function=5, seed=32)
        table = quiet.concat(shifted)

        def mk():
            return OnlineChangeMonitor(
                dt_builder, kind="tabular", window_size=400, step=200,
                n_boot=8, threshold=95.0, rng=np.random.default_rng(3),
            )

        expected = []
        base = mk()
        for chunk in iter_tabular_chunks(table, 175):
            expected.extend(base.push(chunk))

        live, fed = mk(), 0
        got = []
        for chunk in iter_tabular_chunks(table, 175):
            got.extend(live.push(chunk))
            fed += len(chunk)
            if fed >= 900:
                break
        live.checkpoint(tmp_path)
        resumed = mk()
        resumed.resume(tmp_path)
        assert resumed.rows_ingested == fed
        rest = table.slice_rows(fed, len(table))
        for chunk in iter_tabular_chunks(rest, 175):
            got.extend(resumed.push(chunk))
        assert observed(got) == observed(expected)


class TestRefusals:
    def test_missing_checkpoint_is_typed(self, stream, tmp_path):
        assert not has_checkpoint(tmp_path)
        with pytest.raises(CheckpointError):
            make_monitor().resume(tmp_path)

    def test_resume_requires_a_fresh_monitor(self, stream, tmp_path):
        used = make_monitor()
        used.push(stream[:600])
        used.checkpoint(tmp_path)
        with pytest.raises(CheckpointError, match="fresh"):
            used.resume(tmp_path)

    def test_fingerprint_mismatch_is_typed_and_names_fields(
        self, stream, tmp_path
    ):
        m = make_monitor()
        m.push(stream[:600])
        m.checkpoint(tmp_path)
        wrong = make_monitor(window_size=600, step=300)
        with pytest.raises(CheckpointError, match="step"):
            wrong.resume(tmp_path)

    def test_checkpoint_without_draw_scheme_refuses_to_resume(
        self, stream, tmp_path
    ):
        """A checkpoint written before the draw scheme was versioned
        holds generator state for the per-side multinomial stream;
        resuming it under the row-pick draw would silently continue on
        a different random stream, so it must fail typed instead."""
        m = make_monitor()
        m.push(stream[:1_100])
        manifest_path = m.checkpoint(tmp_path)
        manifest = json.loads(manifest_path.read_text())
        state_path = tmp_path / manifest["generation"] / "state.json"
        state = json.loads(state_path.read_text())
        assert state["config"].pop("draw_scheme") == DRAW_SCHEME
        # re-commit the legacy state under a valid CRC, as the old
        # writer would have
        payload = json.dumps(state).encode()
        state_path.write_bytes(payload)
        manifest["state_crc"] = zlib.crc32(payload)
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="draw scheme 1"):
            make_monitor().resume(tmp_path)

    @pytest.mark.chaos
    @pytest.mark.parametrize("mode", ["flip", "truncate"])
    def test_corruption_refuses_to_resume(self, stream, tmp_path, mode):
        m = make_monitor()
        m.push(stream[:1_100])
        m.checkpoint(tmp_path)
        corrupt_checkpoint(tmp_path, seed=3, mode=mode)
        with pytest.raises(CheckpointError):
            make_monitor().resume(tmp_path)

    @pytest.mark.chaos
    def test_corrupt_manifest_refuses_to_resume(self, stream, tmp_path):
        m = make_monitor()
        m.push(stream[:600])
        m.checkpoint(tmp_path)
        (tmp_path / "CHECKPOINT.json").write_text("{not json")
        with pytest.raises(CheckpointError):
            make_monitor().resume(tmp_path)


class TestKillMidCheckpoint:
    @pytest.mark.chaos
    def test_torn_generation_rolls_back_to_committed(self, stream, tmp_path):
        """A kill between generation write and manifest swap loses only
        the rows since the previous committed checkpoint."""
        expected = make_monitor().push(stream)

        live = make_monitor()
        live.push(stream[:1_000])
        live.checkpoint(tmp_path)
        committed = json.loads(
            (tmp_path / "CHECKPOINT.json").read_text()
        )["generation"]

        # The crash: push on, write the next generation fully, die
        # before _publish. Damage the torn bytes for good measure.
        live.push(stream[1_000:1_400])
        torn = ckpt._next_generation_name(tmp_path)
        ckpt._write_generation(live, tmp_path, torn)
        torn_state = tmp_path / torn / "state.json"
        torn_state.write_bytes(torn_state.read_bytes()[: 40])

        assert json.loads(
            (tmp_path / "CHECKPOINT.json").read_text()
        )["generation"] == committed

        resumed = make_monitor()
        resumed.resume(tmp_path)
        assert resumed.rows_ingested == 1_000
        got = list(resumed.history) + resumed.push(
            stream[resumed.rows_ingested:]
        )
        assert observed(got) == observed(expected)

    @pytest.mark.chaos
    def test_next_checkpoint_collects_the_torn_generation(
        self, stream, tmp_path
    ):
        live = make_monitor()
        live.push(stream[:800])
        live.checkpoint(tmp_path)
        torn = ckpt._next_generation_name(tmp_path)
        ckpt._write_generation(live, tmp_path, torn)
        assert (tmp_path / torn).exists()

        resumed = make_monitor()
        resumed.resume(tmp_path)
        resumed.push(stream[resumed.rows_ingested : 1_200])
        resumed.checkpoint(tmp_path)
        # the new commit adopted the torn generation's number or swept
        # it; either way exactly one generation remains
        gens = [p for p in tmp_path.iterdir() if p.name.startswith("gen-")]
        assert len(gens) == 1
        assert has_checkpoint(tmp_path)


class TestObsCounters:
    def test_checkpoints_written_and_resumed_are_counted(
        self, stream, tmp_path
    ):
        registry = MetricsRegistry()
        with use_registry(registry):
            m = make_monitor()
            m.push(stream[:600])
            m.checkpoint(tmp_path)
            m.checkpoint(tmp_path)
            fresh = make_monitor()
            fresh.resume(tmp_path)
        assert registry.counter("resilience.checkpoints_written") == 2
        assert registry.counter("resilience.checkpoints_resumed") == 1
