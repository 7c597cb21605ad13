"""The format-3 checkpoint journal: crash points, damage, and the
on-disk contract other tools read.

The chaos tests (marked ``chaos``) kill a checkpointing monitor at every
``os.write`` / ``os.fsync`` / ``os.replace`` / ``os.unlink`` it makes
across a sequence that rotates segments, promotes references under
``reset_on_drift`` and seals history blocks, and prove the resumed run
equals the uninterrupted one; they damage records and files and prove
the resume refuses, typed and naming the file. The contract tests pin
what ``pipebench`` and the resilience bench read from a checkpoint
directory.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import shutil
import sys
from pathlib import Path

import golden_stream as gs
import numpy as np
import pytest

from repro.core.dtree_model import DtModel
from repro.data.io import load_transactions
from repro.data.quest_classify import generate_classification
from repro.errors import CheckpointError
from repro.mining.tree.builder import TreeParams
from repro.resilience import corrupt_checkpoint, has_checkpoint
from repro.resilience import checkpoint as ckpt
from repro.stream.chunks import iter_chunks, iter_tabular_chunks
from repro.stream.monitor import OnlineChangeMonitor

HERE = Path(__file__).resolve().parent
PIPEBENCH = HERE.parents[1] / "pipebench"
#: pushes of the chaos sequence, of ``CHUNK`` rows: past a block seal
#: (64 windows)
N_CHUNKS = 24
CHUNK = 25
BOUNDARIES = ("write", "fsync", "replace", "unlink")


class Killed(BaseException):
    """A simulated process kill (escapes every ``except Exception``)."""


@contextlib.contextmanager
def boundaries(kill_at=0):
    """Count the boundary calls made inside (yielded as a one-item
    list); call ``kill_at`` dies, an ``os.write`` halfway through its
    bytes."""
    calls = [0]
    with pytest.MonkeyPatch.context() as patch:
        for name in BOUNDARIES:
            real = getattr(os, name)

            def dying(*args, real=real, name=name, **kwargs):
                calls[0] += 1
                if calls[0] == kill_at:
                    if name == "write":
                        fd, data = args
                        real(fd, bytes(data[: len(data) // 2]))
                    raise Killed(f"killed at {name} call {kill_at}")
                return real(*args, **kwargs)

            patch.setattr(os, name, dying)
        yield calls


def sliding_monitor():
    """Sliding 16-row windows: a segment rotates every second record,
    ``reset_on_drift`` promotes a reference every few windows, and the
    history seals its first block after 64 windows."""
    return OnlineChangeMonitor(
        gs.lits_builder, gs.N_ITEMS, window_size=16, step=8, n_boot=0,
        delta_threshold=5.0, policy="reset_on_drift",
    )


def observed(observations):
    return [
        (o.index, o.deviation, o.significance, o.drifted, o.reference_index)
        for o in observations
    ]


@pytest.fixture(scope="module")
def chunks():
    return gs.history_chunks()[:N_CHUNKS]


@pytest.fixture(scope="module")
def uninterrupted(chunks, tmp_path_factory):
    """The run that never dies, checkpointing after every push: its
    history, the boundary calls its checkpoints made, and what its
    journal held along the way."""
    directory = tmp_path_factory.mktemp("uninterrupted")
    monitor = sliding_monitor()
    seen = {"segments": set(), "references": set(), "blocks": set()}
    with boundaries() as calls:
        for chunk in chunks:
            monitor.push(chunk)
            monitor.checkpoint(directory)
            found = ckpt._read_committed(directory)
            seen["segments"] |= {p.name for p in found.journal.path.glob("segment-*")}
            seen["references"].add(found.state["reference"])
            seen["blocks"].add(len(found.state["monitor"]["history_blocks"]))
    return monitor.history, calls[0], seen


def test_the_chaos_sequence_rotates_promotes_and_seals(uninterrupted):
    _, n_calls, seen = uninterrupted
    assert len(seen["segments"]) > 2
    assert len(seen["references"]) > 2
    assert seen["blocks"] == {0, 1}
    assert n_calls > 3 * N_CHUNKS


def run_until_killed(chunks, directory, kill_at):
    """Checkpoint after every push until boundary call ``kill_at`` dies."""
    monitor = sliding_monitor()
    with boundaries(kill_at):
        try:
            for chunk in chunks:
                monitor.push(chunk)
                monitor.checkpoint(directory)
        except Killed:
            return True
    return False


@pytest.mark.chaos
def test_a_kill_at_every_boundary_resumes_to_the_uninterrupted_run(
    chunks, uninterrupted, tmp_path
):
    expected, n_calls, _ = uninterrupted
    for kill_at in range(1, n_calls + 1):
        directory = tmp_path / f"kill-{kill_at}"
        assert run_until_killed(chunks, directory, kill_at)
        resumed = sliding_monitor()
        if has_checkpoint(directory):
            resumed.resume(directory)
        assert resumed.rows_ingested % CHUNK == 0
        for chunk in chunks[resumed.rows_ingested // CHUNK :]:
            resumed.push(chunk)
            resumed.checkpoint(directory)
        assert observed(resumed.history) == observed(expected), kill_at
        final = sliding_monitor()
        final.resume(directory)
        assert final.rows_ingested == CHUNK * N_CHUNKS
        assert observed(final.history) == observed(expected), kill_at
        shutil.rmtree(directory)


def failed_append(chunks, directory):
    """A sliding monitor whose checkpoint after push 11 failed (the
    committed journal may hold that record, unsynced), pushed once
    more; its fresh constructor; the stream's rows from a row count."""
    monitor = sliding_monitor()
    for chunk in chunks[:10]:
        monitor.push(chunk)
        monitor.checkpoint(directory)
    monitor.push(chunks[10])

    def fail(fd):
        raise OSError(28, "No space left on device")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "fsync", fail)
        with pytest.raises(OSError):
            monitor.checkpoint(directory)
    monitor.push(chunks[11])
    rows = [row for chunk in chunks for row in chunk]
    return monitor, sliding_monitor, lambda n: rows[n:]


def v3_resume_elsewhere(chunks, directory):
    """The format-3 golden's history monitor, resumed from one copy
    while ``directory`` holds another (a commit its cursor does not
    continue); as above."""
    golden = HERE / "golden_v3" / "history"
    source = directory.with_name(directory.name + "-source")
    shutil.copytree(golden / "checkpoint", source)
    shutil.copytree(golden / "checkpoint", directory)
    monitor = gs.make_monitor("history").resume(source)
    start, rest = monitor.rows_ingested, list(load_transactions(golden / "rest.rows"))
    return monitor, lambda: gs.make_monitor("history"), lambda n: rest[n - start :]


@pytest.mark.chaos
@pytest.mark.parametrize("setup", [failed_append, v3_resume_elsewhere])
def test_a_kill_writing_a_new_generation_keeps_the_committed_one(
    setup, chunks, tmp_path
):
    """A monitor without a cursor on the committed journal writes a new
    generation and commits it by the manifest swap. A kill at any
    boundary of that checkpoint still leaves the committed checkpoint
    (or the new one) to resume, and the resumed run equals the
    uninterrupted one."""

    def finish(monitor, rest):
        got = list(monitor.history)
        for chunk in iter_chunks(rest(monitor.rows_ingested), CHUNK):
            got += monitor.push(chunk)
        return observed(got)

    monitor, _, rest = setup(chunks, tmp_path / "counted")
    with boundaries() as calls:
        monitor.checkpoint(tmp_path / "counted")
    expected = finish(monitor, rest)
    generations = {p.name for p in (tmp_path / "counted").glob("gen-*")}
    assert len(generations) == 1 and calls[0] > 5
    for kill_at in range(1, calls[0] + 1):
        directory = tmp_path / f"kill-{kill_at}"
        monitor, fresh, rest = setup(chunks, directory)
        with boundaries(kill_at), pytest.raises(Killed):
            monitor.checkpoint(directory)
        resumed = fresh().resume(directory)
        assert finish(resumed, rest) == expected, kill_at
        shutil.rmtree(directory)


@pytest.mark.chaos
def test_a_resume_never_writes(chunks, tmp_path, monkeypatch):
    """Resuming a torn journal touches nothing on disk: every call that
    could change a file fails, and the resume still succeeds."""
    monitor = sliding_monitor()
    for chunk in chunks:
        monitor.push(chunk)
        monitor.checkpoint(tmp_path)
    corrupt_checkpoint(tmp_path, mode="tear")

    def refuse(*args, **kwargs):
        raise AssertionError("a resume wrote")

    with monkeypatch.context() as patch:
        for name in (*BOUNDARIES, "truncate", "ftruncate", "mkdir", "rename"):
            patch.setattr(os, name, refuse)
        resumed = sliding_monitor()
        resumed.resume(tmp_path)
    assert resumed.rows_ingested == monitor.rows_ingested - CHUNK


@pytest.mark.chaos
def test_a_flip_in_a_record_the_reference_or_a_block_is_refused(
    chunks, tmp_path
):
    """A flipped byte in an earlier record, the reference rows or a
    history block refuses the resume, naming the damaged file."""
    origin = tmp_path / "origin"
    monitor = sliding_monitor()
    for chunk in chunks:
        monitor.push(chunk)
        monitor.checkpoint(origin)
    kinds = set()
    for seed in range(40):
        directory = tmp_path / f"flip-{seed}"
        shutil.copytree(origin, directory)
        victim = corrupt_checkpoint(directory, seed=seed, mode="flip")
        kinds.add(victim.name.split("-")[0])
        with pytest.raises(CheckpointError) as exc:
            sliding_monitor().resume(directory)
        assert exc.value.path == str(victim)
    assert kinds == {"segment", "reference", "history"}


# --------------------------------------------------------------------- #
# The on-disk contract
# --------------------------------------------------------------------- #


def dt_monitor():
    return OnlineChangeMonitor(
        lambda d: DtModel.fit(d, TreeParams(max_depth=4, min_leaf=20)),
        kind="tabular", window_size=400, step=100, n_boot=8,
        threshold=95.0, rng=np.random.default_rng(3),
    )


@pytest.fixture(scope="module")
def table():
    return generate_classification(1_000, function=1, seed=31).concat(
        generate_classification(600, function=5, seed=32)
    )


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PIPEBENCH))
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PIPEBENCH))


class TestOnDiskContract:
    def test_every_checkpoint_names_an_existing_generation(
        self, table, tmp_path, workloads
    ):
        """The manifest always names a generation directory, which the
        benchmark's byte count lists after every chunk."""
        monitor = dt_monitor()
        for chunk in iter_tabular_chunks(table, 100):
            monitor.push(chunk)
            monitor.checkpoint(tmp_path)
            manifest = ckpt._committed_manifest(tmp_path)
            assert (tmp_path / manifest["generation"]).is_dir()
            assert workloads._generation_bytes(tmp_path) > 0

    def test_a_copy_taken_mid_stream_resumes_exactly(self, table, tmp_path):
        expected = []
        base = dt_monitor()
        for chunk in iter_tabular_chunks(table, 100):
            expected += base.push(chunk)
        live, copy = dt_monitor(), tmp_path / "copy"
        for chunk in iter_tabular_chunks(table.slice_rows(0, 900), 100):
            live.push(chunk)
            live.checkpoint(tmp_path / "live")
        shutil.copytree(tmp_path / "live", copy)
        resumed = dt_monitor()
        resumed.resume(copy)
        got = list(resumed.history)
        rest = table.slice_rows(resumed.rows_ingested, len(table))
        for chunk in iter_tabular_chunks(rest, 100):
            got += resumed.push(chunk)
        assert observed(got) == observed(expected)

    def test_row_writers_and_pack_are_module_globals(
        self, table, chunks, tmp_path, monkeypatch
    ):
        """The benchmark counts rows and spans by patching
        ``save_tabular``, ``save_transactions`` and ``pack`` on this
        module; every row and lits sketch a checkpoint writes goes
        through them."""
        counted = {"save_tabular": 0, "save_transactions": 0, "pack": 0}
        for name in counted:
            real = getattr(ckpt, name)

            def counting(data, *args, real=real, name=name, **kwargs):
                counted[name] += len(data) if name != "pack" else 1
                return real(data, *args, **kwargs)

            monkeypatch.setattr(ckpt, name, counting)
        tabular, lits = dt_monitor(), sliding_monitor()
        for chunk in iter_tabular_chunks(table.slice_rows(0, 600), 100):
            tabular.push(chunk)
            tabular.checkpoint(tmp_path / "tabular")
        for chunk in chunks[:4]:
            lits.push(chunk)
            lits.checkpoint(tmp_path / "lits")
        # the warm-up buffer at each checkpoint and the reference once;
        # the sketch-only ring writes no chunk rows
        assert counted["save_tabular"] == 100 + 200 + 300 + 400
        assert counted["save_transactions"] > 0 and counted["pack"] > 0


def generation_bytes(directory):
    generation = ckpt._read_committed(directory).journal.path
    return sum(p.stat().st_size for p in generation.iterdir())


@pytest.mark.parametrize("kind", ["tabular", "transactions"])
def test_disk_stays_within_twice_the_live_state(kind, table, tmp_path):
    """In steady state -- step-sized pushes under the fixed reference
    policy, once the warm-up records (which hold the growing warm-up
    buffer) have rotated out -- the generation holds at most twice the
    bytes a fresh generation of the same state writes."""
    if kind == "tabular":
        monitor, pushes = dt_monitor(), iter_tabular_chunks(table, 100)
    else:
        monitor = OnlineChangeMonitor(
            gs.lits_builder, gs.N_ITEMS, window_size=400, step=200, n_boot=8,
            rng=np.random.default_rng(11),
        )
        rows = [row for chunk in gs.transaction_chunks() for row in chunk]
        pushes = iter_chunks(rows, monitor.step)
    for k, chunk in enumerate(pushes):
        monitor.push(chunk)
        monitor.checkpoint(tmp_path / "journal")
        if len(monitor.history) < monitor.window_size // monitor.step:
            continue
        fresh = tmp_path / f"fresh-{k}"
        ckpt.write_checkpoint(monitor, fresh)
        disk, live = generation_bytes(tmp_path / "journal"), generation_bytes(fresh)
        assert disk <= 2 * live, (k, disk, live)
