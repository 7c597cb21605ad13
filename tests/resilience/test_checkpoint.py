"""Durable monitor checkpoints: kill anywhere, resume bit-identically.

Mirrors the storage crash suite: every test either proves a resumed
monitor emits exactly the observations the uninterrupted run would
have, or proves a damaged/torn/mismatched checkpoint refuses to resume
with a typed :class:`CheckpointError`.
"""

from __future__ import annotations

import json
import os
import shutil
import stat
import zlib
from pathlib import Path

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


    def test_resumed_rows_equal_the_uninterrupted_rows(self, stream, tmp_path):
        """Rows with unsorted and repeated items: the resumed monitor's
        ring chunks and row buffer hold the same rows as the monitor
        that never stopped, right after the resume and further on."""
        scrambled = [row[::-1] + row[:1] for row in stream]

        def rows(monitor):
            ring = [list(chunk) for chunk in monitor.windows.buffered_chunks]
            buffer = monitor.state()["buffer"]
            return ring, None if buffer is None else list(buffer)

        live = make_monitor()
        live.push(scrambled[:1_050])
        live.checkpoint(tmp_path)
        resumed = make_monitor()
        resumed.resume(tmp_path)
        assert rows(resumed) == rows(live)
        assert rows(live)[1] is not None  # 50 rows short of a step
        for monitor in (live, resumed):
            monitor.push(scrambled[1_050:1_500])
        assert rows(resumed) == rows(live)


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

    def test_tabular_reference_under_other_parameters_is_typed(
        self, tmp_path
    ):
        """A tumbling tabular monitor whose ring is empty at the
        checkpoint: only the reference CRC tells the trees apart."""
        table = generate_classification(800, function=1, seed=31)

        def mk(max_depth):
            return OnlineChangeMonitor(
                lambda d: DtModel.fit(d, TreeParams(max_depth, min_leaf=20)),
                kind="tabular", window_size=400, n_boot=0,
                delta_threshold=0.5,
            )

        m = mk(4)
        m.push(table)
        assert m.windows.ring == ()
        m.checkpoint(tmp_path)
        with pytest.raises(CheckpointError, match="reference"):
            mk(1).resume(tmp_path)
        assert mk(4).resume(tmp_path).rows_ingested == 800

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

    @pytest.mark.parametrize(
        "field, value",
        [("generation", v) for v in (5, "gen", "gen-x", "../outside")]
        + [("state_crc", v) for v in ("123", 1.5, None, True)],
    )
    def test_malformed_manifest_field_is_typed(
        self, stream, tmp_path, field, value
    ):
        """Both the next checkpoint and a resume refuse a manifest whose
        generation is not a writer-made ``gen-NNNNNN`` name or whose
        state CRC is not an int, naming the manifest -- never an untyped
        crash or a path outside the directory."""
        m = make_monitor()
        m.push(stream[:600])
        manifest_path = m.checkpoint(tmp_path)
        manifest = json.loads(manifest_path.read_text())
        manifest[field] = value
        manifest_path.write_text(json.dumps(manifest))
        for call in (
            lambda: m.checkpoint(tmp_path),
            lambda: make_monitor().resume(tmp_path),
        ):
            with pytest.raises(CheckpointError, match="manifest") as exc:
                call()
            assert exc.value.path == str(manifest_path)

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


def committed_generation(directory):
    manifest = json.loads((directory / "CHECKPOINT.json").read_text())
    return directory / manifest["generation"]


class Killed(BaseException):
    """A simulated process kill (escapes every ``except Exception``)."""


class TestLinkedGenerations:
    @pytest.mark.chaos
    def test_kill_between_link_and_swap_keeps_committed_files(
        self, stream, tmp_path
    ):
        """A torn generation that linked the committed chunks, with one
        of its *new* files damaged: resume lands on the committed
        generation bit-identically, and sweeping the torn directory
        leaves the committed chunk files' bytes (shared inodes) intact."""
        expected = make_monitor().push(stream)

        live = make_monitor()
        live.push(stream[:1_000])
        live.checkpoint(tmp_path)
        committed = committed_generation(tmp_path)
        before = {
            p.stat().st_ino: zlib.crc32(p.read_bytes())
            for p in committed.iterdir()
            if p.name.startswith("chunk-")
        }

        live.push(stream[1_000:1_200])
        torn = tmp_path / ckpt._next_generation_name(tmp_path)
        ckpt._write_generation(live, tmp_path, torn.name)
        linked = [p for p in torn.iterdir() if p.stat().st_nlink > 1]
        assert any(p.name.startswith("chunk-") for p in linked)
        new = sorted(
            p for p in torn.iterdir()
            if p.stat().st_nlink == 1 and p.name != "state.json"
        )
        assert new, "the torn generation wrote its entering chunk"
        new[0].write_bytes(b"torn")

        resumed = make_monitor()
        resumed.resume(tmp_path)
        assert resumed.rows_ingested == 1_000
        got = list(resumed.history) + resumed.push(stream[1_000:1_200])
        resumed.checkpoint(tmp_path)
        gens = [p for p in tmp_path.iterdir() if p.name.startswith("gen-")]
        assert gens == [committed_generation(tmp_path)]
        survivors = {
            p.stat().st_ino: zlib.crc32(p.read_bytes())
            for p in gens[0].iterdir()
            if p.stat().st_ino in before
        }
        assert survivors, "the next generation linked the committed chunk"
        assert survivors == {ino: before[ino] for ino in survivors}

        final = make_monitor()
        final.resume(tmp_path)
        got += final.push(stream[final.rows_ingested:])
        assert observed(got) == observed(expected)

    @pytest.mark.chaos
    def test_kill_during_garbage_collection(
        self, stream, tmp_path, monkeypatch
    ):
        expected = make_monitor().push(stream)
        live = make_monitor()
        live.push(stream[:800])
        live.checkpoint(tmp_path)
        live.push(stream[800:1_000])

        def dying_rmtree(path, *args, **kwargs):
            sorted(Path(path).iterdir())[0].unlink()
            raise Killed("killed mid-GC")

        with monkeypatch.context() as patch:
            patch.setattr(shutil, "rmtree", dying_rmtree)
            with pytest.raises(Killed):
                live.checkpoint(tmp_path)
        assert len(list(tmp_path.glob("gen-*"))) == 2

        resumed = make_monitor()
        resumed.resume(tmp_path)
        assert resumed.rows_ingested == 1_000
        got = list(resumed.history) + resumed.push(stream[1_000:1_200])
        resumed.checkpoint(tmp_path)
        assert len(list(tmp_path.glob("gen-*"))) == 1
        final = make_monitor()
        final.resume(tmp_path)
        got += final.push(stream[final.rows_ingested:])
        assert observed(got) == observed(expected)

    @pytest.mark.chaos
    @pytest.mark.parametrize("mode", ["flip", "truncate"])
    def test_corrupting_a_shared_chunk_file_refuses_to_resume(
        self, stream, tmp_path, mode
    ):
        live = make_monitor()
        live.push(stream[:1_000])
        live.checkpoint(tmp_path)
        live.push(stream[1_000:1_200])
        torn = ckpt._next_generation_name(tmp_path)
        ckpt._write_generation(live, tmp_path, torn)

        victim = corrupt_checkpoint(tmp_path, seed=1, mode=mode)
        # the damaged inode is shared by the committed and torn dirs
        assert victim.name.startswith("chunk-")
        assert victim.stat().st_nlink == 2
        with pytest.raises(CheckpointError, match="CRC") as exc:
            make_monitor().resume(tmp_path)
        assert exc.value.path == str(victim)

    @pytest.mark.chaos
    def test_link_refused_falls_back_to_writing(
        self, stream, tmp_path, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise OSError("hard links not supported")

        expected = make_monitor().push(stream)
        registry = MetricsRegistry()
        live = make_monitor()
        with monkeypatch.context() as patch, use_registry(registry):
            patch.setattr(os, "link", refuse)
            for chunk in iter_chunks(stream[:1_200], 200):
                live.push(chunk)
                live.checkpoint(tmp_path)
        assert registry.counter("resilience.checkpoint_files_linked") == 0
        resumed = make_monitor()
        resumed.resume(tmp_path)
        got = resumed.push(stream[resumed.rows_ingested:])
        assert observed(live.history) + observed(got) == observed(expected)

    @pytest.mark.chaos
    def test_copied_checkpoint_resumes_and_links_again(
        self, stream, tmp_path
    ):
        """``copytree`` breaks the links; the copy is still a complete
        checkpoint, and a monitor resumed from it links its next one."""
        expected = make_monitor().push(stream)
        origin, copy = tmp_path / "origin", tmp_path / "copy"
        live = make_monitor()
        live.push(stream[:800])
        live.checkpoint(origin)
        live.push(stream[800:1_000])
        live.checkpoint(origin)
        shutil.copytree(origin, copy)
        assert all(
            p.stat().st_nlink == 1 for p in committed_generation(copy).iterdir()
        )

        resumed = make_monitor()
        resumed.resume(copy)
        registry = MetricsRegistry()
        with use_registry(registry):
            got = list(resumed.history) + resumed.push(stream[1_000:1_200])
            resumed.checkpoint(copy)
        # reference, surviving chunk rows and its sketch
        assert registry.counter("resilience.checkpoint_files_linked") == 3
        final = make_monitor()
        final.resume(copy)
        got += final.push(stream[final.rows_ingested:])
        assert observed(got) == observed(expected)


class TestWriteOnce:
    def test_steady_state_writes_one_step_of_rows_and_one_sketch(
        self, stream, tmp_path, monkeypatch
    ):
        """Past warm-up, a checkpoint after a ``step``-row push writes
        exactly ``step`` rows and packs one sketch; the reference and
        the surviving chunk are hard-linked, never rewritten."""
        step = 200
        m = make_monitor(step=step)
        m.push(stream[:600])
        m.checkpoint(tmp_path)
        reference = committed_generation(tmp_path) / "reference.rows"
        ref_inode = reference.stat().st_ino

        packs = []
        real_pack = ckpt.pack
        monkeypatch.setattr(
            ckpt, "pack", lambda *a, **k: packs.append(1) or real_pack(*a, **k)
        )
        for start in range(600, 1_600, step):
            registry = MetricsRegistry()
            packs.clear()
            with use_registry(registry):
                m.push(stream[start:start + step])
                m.checkpoint(tmp_path)
            assert registry.counter("resilience.checkpoint_rows_written") == step
            assert registry.counter("resilience.checkpoint_files_linked") == 3
            assert len(packs) == 1
            gen = committed_generation(tmp_path)
            assert (gen / "reference.rows").stat().st_ino == ref_inode

    def test_another_writer_commit_drops_the_ledger(
        self, stream, tmp_path, monkeypatch
    ):
        """Two monitors sharing a directory: a writer whose ledger names
        a generation the manifest no longer does writes in full, even
        while that generation's files still exist."""
        expected = make_monitor().push(stream)
        first, second = make_monitor(), make_monitor()
        first.push(stream[:1_000])
        first.checkpoint(tmp_path)
        second.push(stream[:800])
        with monkeypatch.context() as patch:
            # the second writer dies before collecting the first's files
            patch.setattr(ckpt, "_collect_garbage", lambda *a: None)
            second.checkpoint(tmp_path)
        assert len(list(tmp_path.glob("gen-*"))) == 2
        first.push(stream[1_000:1_200])
        registry = MetricsRegistry()
        with use_registry(registry):
            first.checkpoint(tmp_path)
        assert registry.counter("resilience.checkpoint_files_linked") == 0
        resumed = make_monitor()
        resumed.resume(tmp_path)
        assert resumed.rows_ingested == 1_200
        got = resumed.push(stream[1_200:])
        assert observed(first.history) + observed(got) == observed(expected)

    def test_every_chunk_checkpoint_across_reference_resets(
        self, stream, tmp_path
    ):
        """reset_on_drift promotes new references and re-sketches the
        ring mid-stream; linked checkpoints across those resets still
        resume exactly."""
        overrides = dict(policy="reset_on_drift")
        expected = make_monitor(**overrides).push(stream)
        assert any(o.reference_index != 0 for o in expected)
        live = make_monitor(**overrides)
        for n, chunk in enumerate(iter_chunks(stream, 200), start=1):
            live.push(chunk)
            live.checkpoint(tmp_path)
            if n % 3:
                continue
            resumed = make_monitor(**overrides)
            resumed.resume(tmp_path)
            got = list(resumed.history) + resumed.push(
                stream[resumed.rows_ingested:]
            )
            assert observed(got) == observed(expected)

    def test_tabular_checkpoints_link_and_resume_exactly(self, tmp_path):
        table = generate_classification(1_200, function=1, seed=31).concat(
            generate_classification(600, function=5, seed=32)
        )

        def mk():
            return OnlineChangeMonitor(
                dt_builder, kind="tabular", window_size=400, step=200,
                n_boot=8, threshold=95.0, rng=np.random.default_rng(3),
            )

        expected = []
        base = mk()
        for chunk in iter_tabular_chunks(table, 200):
            expected.extend(base.push(chunk))
        registry = MetricsRegistry()
        live, got = mk(), []
        with use_registry(registry):
            for chunk in iter_tabular_chunks(table.slice_rows(0, 1_000), 200):
                got.extend(live.push(chunk))
                live.checkpoint(tmp_path)
        assert registry.counter("resilience.checkpoint_files_linked") > 0
        # the 200-row warm-up buffer, the reference once, each chunk once
        assert registry.counter("resilience.checkpoint_rows_written") == (
            200 + 400 + 3 * 200
        )
        resumed = mk()
        resumed.resume(tmp_path)
        rest = table.slice_rows(resumed.rows_ingested, len(table))
        for chunk in iter_tabular_chunks(rest, 200):
            got.extend(resumed.push(chunk))
        assert observed(got) == observed(expected)

    @pytest.mark.skipif(os.name != "posix", reason="directory fsync is POSIX")
    def test_directories_are_fsynced_around_the_swap(
        self, stream, tmp_path, monkeypatch
    ):
        """New files, then the generation directory, then the manifest,
        the swap, and the checkpoint directory -- linked files are not
        re-synced."""
        m = make_monitor()
        m.push(stream[:600])
        m.checkpoint(tmp_path)
        m.push(stream[600:800])
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            st = os.fstat(fd)
            events.append((stat.S_ISDIR(st.st_mode), st.st_ino))
            real_fsync(fd)

        def replace(*args, **kwargs):
            events.append(("replace", None))
            real_replace(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(os, "fsync", fsync)
            patch.setattr(os, "replace", replace)
            m.checkpoint(tmp_path)
        gen = committed_generation(tmp_path)
        *files, gen_sync, manifest_sync, swap, dir_sync = events
        # state.json plus the entering chunk's rows and sketch
        assert [is_dir for is_dir, _ in files] == [False] * 3
        assert gen_sync == (True, gen.stat().st_ino)
        assert manifest_sync[0] is False
        assert swap == ("replace", None)
        assert dir_sync == (True, tmp_path.stat().st_ino)


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
