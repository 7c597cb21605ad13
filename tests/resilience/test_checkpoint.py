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


def committed(directory):
    """The committed checkpoint under ``directory``, read and verified."""
    return ckpt._read_committed(Path(directory))


def segments(directory):
    return sorted(committed(directory).journal.path.glob("segment-*.log"))


def rewrite_last_state(directory, edit):
    """Re-frame the journal's last record around an edited state, under
    a valid CRC, as an older writer would have framed it."""
    found = committed(directory)
    seq = max(found.records)
    path, offset, _, payload = found.records[seq]
    head, _ = ckpt._record_head(payload, path)
    blobs = [found.read([seq, k])[0] for k in range(len(head.pop("blobs")))]
    edit(head)
    path.write_bytes(path.read_bytes()[:offset] + ckpt._frame(seq, head, blobs))


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
        m.checkpoint(tmp_path)
        schemes = []
        rewrite_last_state(
            tmp_path, lambda state: schemes.append(state["config"].pop("draw_scheme"))
        )
        assert schemes == [DRAW_SCHEME]
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
        generation is not a writer-made ``gen-NNNNNN`` name or that
        carries a state CRC (format 3 keeps its CRCs in the journal
        records), naming the manifest -- never an untyped crash or a
        path outside the directory."""
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
        """A kill mid-append tears the final record: resume rolls back
        exactly that checkpoint, counts the torn tail, and loses only
        the rows since the checkpoint before it."""
        expected = make_monitor().push(stream)

        live = make_monitor()
        live.push(stream[:1_000])
        live.checkpoint(tmp_path)
        live.push(stream[1_000:1_400])
        live.checkpoint(tmp_path)
        torn = corrupt_checkpoint(tmp_path, mode="tear")
        assert torn == segments(tmp_path)[-1]

        registry = MetricsRegistry()
        resumed = make_monitor()
        with use_registry(registry):
            resumed.resume(tmp_path)
        assert resumed.rows_ingested == 1_000
        assert registry.counter("resilience.checkpoint_torn_tails") == 1
        got = list(resumed.history) + resumed.push(
            stream[resumed.rows_ingested:]
        )
        assert observed(got) == observed(expected)

    @pytest.mark.chaos
    @pytest.mark.parametrize("fill", [0x00, 0xA5])
    def test_a_final_record_of_zeros_or_stale_bytes_is_a_torn_tail(
        self, stream, tmp_path, fill
    ):
        """Power lost mid-append can leave the final record at its full
        length but reading zeros or stale bytes: resume rolls back
        exactly that checkpoint and counts the torn tail. The same
        damage to the record before it, which a whole record follows in
        the same segment, is refused."""
        expected = make_monitor().push(stream)
        live, origin = make_monitor(), tmp_path / "origin"
        live.push(stream[:1_000])
        for start in range(1_000, 1_800, 200):
            live.push(stream[start : start + 200])
            live.checkpoint(origin)

        def overwrite(index):
            directory = tmp_path / f"record-{index}"
            shutil.copytree(origin, directory)
            records = list(committed(directory).records.values())
            path, start, stop, _ = records[index]
            assert path == records[-1][0]
            with open(path, "r+b") as f:
                f.seek(start)
                f.write(bytes([fill]) * (stop - start))
            return directory, path

        directory, _ = overwrite(-1)
        registry = MetricsRegistry()
        resumed = make_monitor()
        with use_registry(registry):
            resumed.resume(directory)
        assert resumed.rows_ingested == 1_600
        assert registry.counter("resilience.checkpoint_torn_tails") == 1
        got = list(resumed.history) + resumed.push(stream[1_600:])
        assert observed(got) == observed(expected)

        directory, path = overwrite(-2)
        with pytest.raises(CheckpointError, match="CRC|mid-record") as exc:
            make_monitor().resume(directory)
        assert exc.value.path == str(path)

    @pytest.mark.chaos
    def test_next_checkpoint_collects_the_torn_generation(
        self, stream, tmp_path
    ):
        """Resume never writes; the first checkpoint after it truncates
        the torn tail before appending, so the journal reads whole."""
        live = make_monitor()
        live.push(stream[:800])
        live.checkpoint(tmp_path)
        live.push(stream[800:1_000])
        live.checkpoint(tmp_path)
        torn = corrupt_checkpoint(tmp_path, mode="tear")
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}

        resumed = make_monitor()
        resumed.resume(tmp_path)
        after = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert after == before
        resumed.push(stream[resumed.rows_ingested : 1_200])
        resumed.checkpoint(tmp_path)
        found = committed(tmp_path)
        assert found.journal.size == found.journal.end
        assert found.records[max(found.records)][0] == torn
        registry = MetricsRegistry()
        again = make_monitor()
        with use_registry(registry):
            again.resume(tmp_path)
        assert again.rows_ingested == 1_200
        assert registry.counter("resilience.checkpoint_torn_tails") == 0
        assert has_checkpoint(tmp_path)


class Killed(BaseException):
    """A simulated process kill (escapes every ``except Exception``)."""


class TestLinkedGenerations:
    """The journal links nothing: kills between its writes, damage to
    records other checkpoints share, and copies all resume exactly."""

    @pytest.mark.chaos
    def test_kill_between_link_and_swap_keeps_committed_files(
        self, stream, tmp_path, monkeypatch
    ):
        """A kill after a promotion wrote its new reference file but
        before the record naming it: resume lands on the committed
        record bit-identically, the committed files keep their bytes,
        and the stray file is deleted when a segment next rotates."""
        overrides = dict(policy="reset_on_drift")
        expected = make_monitor(**overrides).push(stream)
        live = make_monitor(**overrides)
        real_write_file = ckpt._write_file

        def dying_write_file(path, payload, mode=os.O_TRUNC):
            if path.name.startswith("segment-") and len(refs(path.parent)) > 1:
                raise Killed("killed before the record")
            real_write_file(path, payload, mode)

        def refs(gen_dir):
            return sorted(gen_dir.glob("reference-*"))

        with monkeypatch.context() as patch:
            patch.setattr(ckpt, "_write_file", dying_write_file)
            with pytest.raises(Killed):
                for chunk in iter_chunks(stream, 200):
                    live.push(chunk)
                    live.checkpoint(tmp_path)
        found = committed(tmp_path)
        stray = [p for p in refs(found.journal.path) if p.name not in found.files]
        assert len(stray) == 1
        before = {p: zlib.crc32(p.read_bytes()) for p in found.journal.path.iterdir()}
        before.pop(stray[0])

        resumed = make_monitor(**overrides)
        resumed.resume(tmp_path)
        assert resumed.rows_ingested == live.rows_ingested - 200
        assert {
            p: zlib.crc32(p.read_bytes()) for p in before if p.exists()
        }.items() <= before.items()
        got = list(resumed.history)
        for chunk in iter_chunks(stream[resumed.rows_ingested:], 200):
            got += resumed.push(chunk)
            resumed.checkpoint(tmp_path)
        assert not stray[0].exists() or stray[0].name in committed(tmp_path).files
        assert observed(got) == observed(expected)

    @pytest.mark.chaos
    def test_kill_during_garbage_collection(
        self, stream, tmp_path, monkeypatch
    ):
        """A kill while a rotation deletes dead segments leaves them
        behind; resume is exact and the next rotation deletes them."""
        expected = make_monitor().push(stream)
        live = make_monitor()
        for chunk in iter_chunks(stream[:1_000], 200):
            live.push(chunk)
            live.checkpoint(tmp_path)
        real_unlink = os.unlink

        def dying_unlink(path, *args, **kwargs):
            raise Killed("killed mid-sweep")

        with monkeypatch.context() as patch:
            patch.setattr(os, "unlink", dying_unlink)
            with pytest.raises(Killed):
                for chunk in iter_chunks(stream[1_000:1_400], 200):
                    live.push(chunk)
                    live.checkpoint(tmp_path)
        assert os.unlink is real_unlink
        leftover = segments(tmp_path)
        assert len(leftover) == 3

        resumed = make_monitor()
        resumed.resume(tmp_path)
        got = list(resumed.history)
        for chunk in iter_chunks(stream[resumed.rows_ingested : 1_800], 200):
            got += resumed.push(chunk)
            resumed.checkpoint(tmp_path)
        assert not set(leftover[:2]) & set(segments(tmp_path))
        final = make_monitor()
        final.resume(tmp_path)
        got += final.push(stream[final.rows_ingested:])
        assert observed(got) == observed(expected)

    @pytest.mark.chaos
    @pytest.mark.parametrize("mode", ["flip", "truncate"])
    def test_corrupting_a_shared_chunk_file_refuses_to_resume(
        self, stream, tmp_path, mode
    ):
        """Damage to an earlier record or segment, which holds a chunk
        the ring still uses, refuses the resume, naming the segment."""
        live = make_monitor()
        for chunk in iter_chunks(stream[:1_400], 200):
            live.push(chunk)
            live.checkpoint(tmp_path)
        victim = corrupt_checkpoint(tmp_path, seed=0, mode=mode)
        assert victim.name.startswith("segment-")
        with pytest.raises(CheckpointError, match="CRC|mid-record") as exc:
            make_monitor().resume(tmp_path)
        assert exc.value.path == str(victim)

    @pytest.mark.chaos
    def test_link_refused_falls_back_to_writing(
        self, stream, tmp_path, monkeypatch
    ):
        """No checkpoint links a file: with ``os.link`` refused, every
        checkpoint commits and resumes exactly."""
        linked = []

        def refuse(*args, **kwargs):
            linked.append(args)
            raise OSError("hard links not supported")

        expected = make_monitor().push(stream)
        live = make_monitor()
        with monkeypatch.context() as patch:
            patch.setattr(os, "link", refuse)
            for chunk in iter_chunks(stream[:1_200], 200):
                live.push(chunk)
                live.checkpoint(tmp_path)
        assert linked == []
        resumed = make_monitor()
        resumed.resume(tmp_path)
        got = resumed.push(stream[resumed.rows_ingested:])
        assert observed(live.history) + observed(got) == observed(expected)

    @pytest.mark.chaos
    def test_copied_checkpoint_resumes_and_links_again(
        self, stream, tmp_path
    ):
        """A ``copytree`` copy is a complete checkpoint, and a monitor
        resumed from it appends one record of one step to the copy."""
        expected = make_monitor().push(stream)
        origin, copy = tmp_path / "origin", tmp_path / "copy"
        live = make_monitor()
        live.push(stream[:800])
        live.checkpoint(origin)
        live.push(stream[800:1_000])
        live.checkpoint(origin)
        shutil.copytree(origin, copy)

        resumed = make_monitor()
        resumed.resume(copy)
        registry = MetricsRegistry()
        with use_registry(registry):
            got = list(resumed.history) + resumed.push(stream[1_000:1_200])
            resumed.checkpoint(copy)
        assert registry.counter("resilience.checkpoint_rows_written") == 200
        assert registry.counter("resilience.checkpoint_fsyncs") <= 2
        assert committed(copy).journal.seq == committed(origin).journal.seq + 1
        final = make_monitor()
        final.resume(copy)
        got += final.push(stream[final.rows_ingested:])
        assert observed(got) == observed(expected)


class TestWriteOnce:
    def test_steady_state_writes_one_step_of_rows_and_one_sketch(
        self, stream, tmp_path, monkeypatch
    ):
        """Past warm-up, a checkpoint after a ``step``-row push writes
        exactly ``step`` rows, packs one sketch and fsyncs once (plus
        the directory when it starts a segment), and outside a rotation
        it links, unlinks, renames and creates nothing; the reference
        file and the surviving chunk are never rewritten."""
        step = 200
        m = make_monitor(step=step)
        m.push(stream[:600])
        m.checkpoint(tmp_path)
        found = committed(tmp_path)
        reference = found.journal.path / found.state["reference"]
        ref_inode = reference.stat().st_ino

        packs = []
        real_pack = ckpt.pack
        monkeypatch.setattr(
            ckpt, "pack", lambda *a, **k: packs.append(1) or real_pack(*a, **k)
        )
        changed = []
        for name in ("link", "unlink", "rename", "replace", "mkdir", "rmdir"):
            real = getattr(os, name)

            def counting(*args, real=real, name=name, **kwargs):
                changed.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(os, name, counting)
        rotations = 0
        for start in range(600, 1_600, step):
            registry = MetricsRegistry()
            packs.clear()
            changed.clear()
            before = segments(tmp_path)
            with use_registry(registry):
                m.push(stream[start:start + step])
                m.checkpoint(tmp_path)
            rotated = segments(tmp_path)[-1] not in before
            rotations += rotated
            assert registry.counter("resilience.checkpoint_rows_written") == step
            assert registry.counter("resilience.checkpoint_fsyncs") == 1 + rotated
            assert rotated or changed == []
            assert len(packs) == 1
            found = committed(tmp_path)
            assert found.journal.path / found.state["reference"] == reference
            assert reference.stat().st_ino == ref_inode
        assert 0 < rotations < 5

    def test_another_writer_commit_drops_the_ledger(
        self, stream, tmp_path, monkeypatch
    ):
        """Two monitors sharing a directory: a writer whose cursor names
        a generation the manifest no longer does writes a new generation
        in full, even while its old journal's files still exist."""
        expected = make_monitor().push(stream)
        first, second = make_monitor(), make_monitor()
        first.push(stream[:1_000])
        first.checkpoint(tmp_path)
        second.push(stream[:800])
        with monkeypatch.context() as patch:
            # the second writer dies before removing the first's files
            patch.setattr(ckpt, "_drop_generations", lambda *a: None)
            second.checkpoint(tmp_path)
        assert len(list(tmp_path.glob("gen-*"))) == 2
        first.push(stream[1_000:1_200])
        registry = MetricsRegistry()
        with use_registry(registry):
            first.checkpoint(tmp_path)
        # the reference and both ring chunks, written again
        assert registry.counter("resilience.checkpoint_rows_written") == 800
        assert [p.name for p in tmp_path.glob("gen-*")] == ["gen-000002"]
        resumed = make_monitor()
        resumed.resume(tmp_path)
        assert resumed.rows_ingested == 1_200
        got = resumed.push(stream[1_200:])
        assert observed(first.history) + observed(got) == observed(expected)

    def test_every_chunk_checkpoint_across_reference_resets(
        self, stream, tmp_path
    ):
        """reset_on_drift promotes new references and re-sketches the
        ring mid-stream; journal checkpoints across those resets still
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
        # the 200-row warm-up buffer and the reference once: a fixed
        # reference with a counts-only bootstrap never reads a ring
        # chunk's rows, so no record carries them
        assert registry.counter("resilience.checkpoint_rows_written") == (
            200 + 400
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
        """The first checkpoint into a new directory syncs the parent of
        each directory it creates, the segment, the generation
        directory, the manifest, then swaps it in and syncs the
        checkpoint directory; a steady checkpoint syncs the segment
        only; a rotation the new segment, then the generation
        directory."""
        directory = tmp_path / "a" / "b" / "ckpt"  # three new levels
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            st = os.fstat(fd)
            events.append((stat.S_ISDIR(st.st_mode), st.st_ino))
            real_fsync(fd)

        def replace(*args, **kwargs):
            events.append(("replace", None))
            real_replace(*args, **kwargs)

        def checkpoint(m):
            events.clear()
            with monkeypatch.context() as patch:
                patch.setattr(os, "fsync", fsync)
                patch.setattr(os, "replace", replace)
                m.checkpoint(directory)
            return list(events)

        def ino(path):
            return path.stat().st_ino

        m = make_monitor()
        m.push(stream[:200])  # warm-up rows only: no reference file yet
        first = checkpoint(m)
        gen = committed(directory).journal.path
        assert first == [
            (True, ino(tmp_path)),
            (True, ino(tmp_path / "a")),
            (True, ino(tmp_path / "a" / "b")),
            (False, ino(gen / "segment-00000000.log")),
            (True, ino(gen)),
            (False, first[-3][1]),  # the manifest, before its swap
            ("replace", None),
            (True, ino(directory)),
        ]
        assert first[-3][1] == ino(directory / "CHECKPOINT.json")
        m.push(stream[200:1_000])
        checkpoint(m)  # writes the reference file
        steady = []
        for start in range(1_000, 1_600, 200):
            m.push(stream[start : start + 200])
            steady.append((checkpoint(m), segments(directory)[-1]))
        assert any(len(events) == 1 for events, _ in steady)
        for events, segment in steady:
            if len(events) == 1:  # a steady checkpoint
                assert events == [(False, ino(segment))]
            else:  # a rotation
                assert events == [(False, ino(segment)), (True, ino(gen))]


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
