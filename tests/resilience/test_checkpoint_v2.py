"""Sealed history blocks, raw rows, and the committed golden checkpoints.

A checkpoint keeps the history's full blocks of ``_HISTORY_BLOCK``
observations in write-once history files, named again by later
records, and only the open tail inline in each record's state. These
tests pin that the blocks resume exactly (edited or not) and that the
state stops growing with the stream. Of the committed fixtures, the
``golden_v3/`` journals (format 3) resume bit-identically -- the
fixed-policy ``tabular_fixed`` one onto a sketch-only ring, leaving the
ring rows its older build wrote unread; the
version-1 checkpoints in ``golden/`` and the version-2 ones in
``golden_v2/`` and ``golden_scheme3/`` are refused typed, naming their
version, by both a resume and a checkpoint, and stay byte-identical.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import replace
from pathlib import Path

import golden_stream as gs
import numpy as np
import pytest

from repro.core.lits import LitsModel
from repro.core.monitor import (
    _HISTORY_BLOCK,
    _HISTORY_FANOUT,
    Observation,
    _block_layout,
)
from repro.data.io import load_tabular, load_transactions
from repro.data.quest_basket import generate_basket
from repro.errors import CheckpointError
from repro.obs import MetricsRegistry, use_registry
from repro.resilience import checkpoint as ckpt
from repro.stream.chunks import iter_chunks, iter_tabular_chunks
from repro.stream.monitor import OnlineChangeMonitor
from repro.wire import pack, unpack_partition_payload
from repro.wire import sketches as wire_sketches
from repro.wire.sketches import partition_sketch_packer

HERE = Path(__file__).parent
N_ITEMS = 20
#: tumbling windows of this many rows: one observation per window
WINDOW = 8


def builder(dataset):
    return LitsModel.mine(dataset, 0.2, max_len=2)


def tiny_monitor():
    """Cheap-mode tumbling monitor: thousands of windows in a second."""
    return OnlineChangeMonitor(
        builder, N_ITEMS, window_size=WINDOW, step=None, n_boot=0,
        delta_threshold=10.0,
    )


@pytest.fixture(scope="module")
def rows():
    return list(
        generate_basket(
            WINDOW * 5_010, n_items=N_ITEMS, avg_transaction_len=4, seed=5
        )
    )


def through_window(rows, n):
    """The rows a tumbling monitor needs to emit window ``n``."""
    return rows[: WINDOW * (n + 1)]


def generation(directory: Path) -> Path:
    manifest = json.loads((directory / "CHECKPOINT.json").read_text())
    return directory / manifest["generation"]


def state_of(directory: Path) -> dict:
    """The committed state: the journal's last record."""
    return ckpt._read_committed(directory).state


def old_state(directory: Path) -> dict:
    """A format-1 or format-2 checkpoint's ``state.json``."""
    return json.loads((generation(directory) / "state.json").read_text())


def files_of(directory: Path) -> dict[str, bytes]:
    """Every file under ``directory``, by relative path, with its bytes."""
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def inodes(directory: Path) -> dict[str, int]:
    return {p.name: p.stat().st_ino for p in generation(directory).iterdir()}


def blocks_of(directory: Path) -> list[str]:
    return state_of(directory)["monitor"]["history_blocks"]


def rest_chunks(golden: Path, scenario: str) -> list:
    if scenario.startswith("tabular"):
        table = load_tabular(golden / scenario / "rest.npz")
        return list(iter_tabular_chunks(table, gs.CHUNK))
    rows = load_transactions(golden / scenario / "rest.rows")
    return list(iter_chunks(rows, gs.CHUNK))


def resumed_lines(directory: Path, golden: Path, scenario: str) -> str:
    monitor = gs.make_monitor(scenario)
    monitor.resume(directory)
    lines = []
    for chunk in rest_chunks(golden, scenario):
        lines.extend(gs.line(o) for o in monitor.push(chunk))
    lines.extend(gs.line(o) for o in monitor.flush())
    return "\n".join(lines) + "\n"


class TestHistoryBlocks:
    def test_layout_only_ever_merges_blocks(self):
        """Blocks tile the history from 0 with a tail under
        ``_HISTORY_BLOCK``; one more observation keeps every block or
        merges a run of them into one of the next size."""
        previous: list = []
        for n in range(0, 6 * _HISTORY_BLOCK * _HISTORY_FANOUT):
            layout = _block_layout(n)
            ends = [0, *(start + size for start, size in layout)]
            assert [start for start, _ in layout] == ends[:-1]
            assert n - ends[-1] < _HISTORY_BLOCK
            for start, size in previous:
                assert any(
                    s <= start and start + size <= s + z for s, z in layout
                )
            previous = layout

    def test_full_runs_merge_and_the_merged_block_is_linked(
        self, rows, tmp_path
    ):
        merged = _HISTORY_BLOCK * _HISTORY_FANOUT
        m = tiny_monitor()
        m.push(through_window(rows, merged + 3))
        blocks = m.monitor.state()["monitor"]["history_blocks"]
        assert [len(b) for b in blocks] == [merged]
        m.checkpoint(tmp_path)
        before, [name] = inodes(tmp_path), blocks_of(tmp_path)
        m.push(through_window(rows, merged + _HISTORY_BLOCK)[m.rows_ingested :])
        m.checkpoint(tmp_path)
        assert blocks_of(tmp_path)[0] == name
        assert inodes(tmp_path)[name] == before[name]
        assert len(blocks_of(tmp_path)) == 2
        resumed = tiny_monitor()
        resumed.resume(tmp_path)
        assert resumed.history == m.history

    def test_state_seals_full_blocks_and_keeps_them(self, rows):
        m = tiny_monitor()
        m.push(through_window(rows, 2 * _HISTORY_BLOCK + 10))
        first = m.monitor.state()["monitor"]
        assert [len(b) for b in first["history_blocks"]] == [_HISTORY_BLOCK] * 2
        assert len(first["history"]) == 10
        again = m.monitor.state()["monitor"]
        assert all(
            a is b for a, b in zip(first["history_blocks"], again["history_blocks"])
        )

    def test_checkpoint_links_sealed_blocks(self, rows, tmp_path):
        """Sealed blocks are written once: the next record names the
        same files and the checkpoint syncs the segment alone."""
        m = tiny_monitor()
        m.push(through_window(rows, 3 * _HISTORY_BLOCK + 5))
        m.checkpoint(tmp_path)
        before, blocks = inodes(tmp_path), blocks_of(tmp_path)
        assert len(blocks) == 3
        m.push(rows[m.rows_ingested : m.rows_ingested + WINDOW])
        registry = MetricsRegistry()
        with use_registry(registry):
            m.checkpoint(tmp_path)
        after = inodes(tmp_path)
        assert blocks_of(tmp_path) == blocks
        assert all(after[name] == before[name] for name in blocks)
        assert registry.counter("resilience.checkpoint_fsyncs") == 1

    def test_edited_history_is_resealed_and_resumes_as_edited(
        self, rows, tmp_path
    ):
        m = tiny_monitor()
        m.push(through_window(rows, 3 * _HISTORY_BLOCK + 5))
        m.checkpoint(tmp_path)
        before, names = inodes(tmp_path), blocks_of(tmp_path)
        k = _HISTORY_BLOCK + 7  # inside block 1
        m.history[k] = replace(m.history[k], deviation=-1.0, drifted=True)
        m.checkpoint(tmp_path)
        after, resealed = inodes(tmp_path), blocks_of(tmp_path)
        assert [resealed[0], resealed[2]] == [names[0], names[2]]
        assert resealed[1] not in before
        assert after[names[0]] == before[names[0]]
        assert after[names[2]] == before[names[2]]

        resumed = tiny_monitor()
        resumed.resume(tmp_path)
        assert resumed.history == m.history
        assert resumed.history[k].deviation == -1.0

        # a truncated history drops its blocks past the new end
        del m.history[_HISTORY_BLOCK + 1 :]
        m.checkpoint(tmp_path)
        assert blocks_of(tmp_path) == [names[0]]
        assert inodes(tmp_path)[names[0]] == before[names[0]]
        again = tiny_monitor()
        again.resume(tmp_path)
        assert again.history == m.history

    def test_resumed_blocks_are_linked_by_the_next_checkpoint(
        self, rows, tmp_path
    ):
        m = tiny_monitor()
        m.push(through_window(rows, 2 * _HISTORY_BLOCK + 5))
        m.checkpoint(tmp_path)
        before, names = inodes(tmp_path), blocks_of(tmp_path)
        resumed = tiny_monitor()
        resumed.resume(tmp_path)
        resumed.checkpoint(tmp_path)
        after = inodes(tmp_path)
        assert blocks_of(tmp_path) == names and len(names) == 2
        for name in names:
            assert after[name] == before[name]

    def test_state_json_stops_growing_with_the_stream(self, rows, tmp_path):
        """The largest inline tail comes just before the second block
        seals; 5,000 windows later the record's state is no larger."""
        m = tiny_monitor()
        sizes = {}
        for n in (2 * _HISTORY_BLOCK - 1, 2 * _HISTORY_BLOCK, 5_000):
            m.push(through_window(rows, n)[m.rows_ingested :])
            assert len(m.history) == n
            m.checkpoint(tmp_path)
            sizes[n] = len(json.dumps(state_of(tmp_path)))
        assert sizes[5_000] <= max(
            sizes[2 * _HISTORY_BLOCK - 1], sizes[2 * _HISTORY_BLOCK]
        )
        state = state_of(tmp_path)["monitor"]
        # 4,096 + 3 x 256 + 2 x 64 observations sealed, 8 inline
        assert len(state["history_blocks"]) == len(_block_layout(5_000)) == 6
        assert len(state["history"]) == 5_000 % _HISTORY_BLOCK

        resumed = tiny_monitor()
        resumed.resume(tmp_path)
        assert resumed.history == m.history
        rest = rows[m.rows_ingested :]
        assert resumed.push(rest) == m.push(rest)


class TestBytesWritten:
    def test_steady_checkpoint_counts_only_what_it_writes(self, tmp_path):
        """One record: the entering chunk's rows and sketch, and the
        state."""
        stream = list(
            generate_basket(1_200, n_items=40, avg_transaction_len=5, seed=3)
        )
        m = OnlineChangeMonitor(
            lambda d: LitsModel.mine(d, 0.05, max_len=2), 40,
            window_size=400, step=200, n_boot=8,
            rng=np.random.default_rng(11),
        )
        m.push(stream[:800])
        m.checkpoint(tmp_path)
        gen = generation(tmp_path)
        sizes = {p.name: p.stat().st_size for p in gen.iterdir()}
        m.push(stream[800:1_000])
        registry = MetricsRegistry()
        with use_registry(registry):
            m.checkpoint(tmp_path)
        grown = {
            p.name: p.stat().st_size - sizes.get(p.name, 0) for p in gen.iterdir()
        }
        # the ring shifted: only the segment grew, by one record
        assert {name for name, n in grown.items() if n} == {"segment-00000000.log"}
        found = ckpt._read_committed(tmp_path)
        _, offset, stop, _ = found.records[max(found.records)]
        record = stop - offset
        assert offset == sizes["segment-00000000.log"]
        assert grown["segment-00000000.log"] == record
        assert registry.counter("resilience.checkpoint_bytes_written") == record
        # the entering chunk's rows and its sketch
        assert len(found.state["blobs"]) == 2


def refuses_version(golden: Path, scenario: str, tmp_path: Path, version: int):
    """A copy of ``golden``'s checkpoint of ``scenario`` is refused typed,
    naming its version, by a fresh monitor's resume and by a running
    monitor's checkpoint; the monitor stays fresh and every byte under
    the directory stays as it was."""
    directory = tmp_path / "checkpoint"
    shutil.copytree(golden / scenario / "checkpoint", directory)
    before = files_of(directory)
    monitor = gs.make_monitor(scenario)
    with pytest.raises(CheckpointError, match=f"version {version}"):
        monitor.resume(directory)
    assert monitor.rows_ingested == 0 and monitor.history == []
    monitor.push(rest_chunks(golden, scenario)[0])
    with pytest.raises(CheckpointError, match=f"version {version}"):
        monitor.checkpoint(directory)
    assert files_of(directory) == before


@pytest.mark.parametrize("scenario", ["transactions", "tabular"])
def test_v1_golden_is_refused_untouched(scenario, tmp_path):
    """A version-1 checkpoint is never upgraded or overwritten."""
    golden = HERE / "golden"
    manifest = json.loads(
        (golden / scenario / "checkpoint" / "CHECKPOINT.json").read_text()
    )
    assert manifest["version"] == 1
    refuses_version(golden, scenario, tmp_path, 1)


@pytest.mark.parametrize("scenario", ["transactions", "tabular", "history"])
class TestGoldenV2:
    golden = HERE / "golden_v2"

    def test_checkpoint_is_v2_past_a_promotion_with_buffered_rows(
        self, scenario
    ):
        directory = self.golden / scenario / "checkpoint"
        manifest = json.loads((directory / "CHECKPOINT.json").read_text())
        assert manifest["version"] == 2
        state = old_state(directory)
        assert state["version"] == 2
        assert state["config"]["draw_scheme"] == 2
        assert state["buffer"] is not None
        assert state["monitor"]["reference_index"] > 0
        blocks = [
            json.loads((generation(directory) / name).read_text())
            for name in state["monitor"]["history_blocks"]
        ]
        assert (len(blocks) > 0) is (scenario == "history")
        n = sum(map(len, blocks)) + len(state["monitor"]["history"])
        assert [len(b) for b in blocks] == [z for _, z in _block_layout(n)]

    def test_resume_reproduces_the_uninterrupted_run(self, scenario, tmp_path):
        """The format-2 run cannot be continued: the resume and the next
        checkpoint refuse it, naming version 2, and leave it as it was
        (``golden_v3/`` is the resume fixed point)."""
        refuses_version(self.golden, scenario, tmp_path, 2)


@pytest.mark.parametrize("scenario", ["transactions", "tabular"])
class TestGoldenScheme3:
    """Format-2 checkpoints written under draw scheme 3."""

    golden = HERE / "golden_scheme3"

    def test_checkpoint_is_scheme_3_past_a_promotion_with_buffered_rows(
        self, scenario
    ):
        state = old_state(self.golden / scenario / "checkpoint")
        assert state["version"] == 2
        assert state["config"]["draw_scheme"] == 3
        assert state["rng_state"] is not None
        assert state["buffer"] is not None
        assert state["windows"] is not None
        assert state["monitor"]["reference_index"] > 0

    def test_resume_reproduces_the_uninterrupted_run(self, scenario, tmp_path):
        """Refused like ``golden_v2/``: format 2, whatever the scheme."""
        refuses_version(self.golden, scenario, tmp_path, 2)


@pytest.mark.parametrize("scenario", ["transactions", "tabular", "history"])
class TestGoldenV3:
    """Format-3 journals written past a promotion with buffered rows
    (and, for ``history``, a merged block) resume exactly."""

    golden = HERE / "golden_v3"

    def test_checkpoint_is_v3_past_a_promotion_with_buffered_rows(
        self, scenario
    ):
        directory = self.golden / scenario / "checkpoint"
        manifest = json.loads((directory / "CHECKPOINT.json").read_text())
        assert manifest == {"version": 3, "generation": "gen-000000"}
        state = state_of(directory)
        assert state["version"] == 3
        assert state["config"]["draw_scheme"] == 3
        assert state["buffer"] is not None
        assert state["monitor"]["reference_index"] > 0
        assert (state["rng_state"] is None) is (scenario == "history")
        blocks = [len(_load(directory, name)) for name in blocks_of(directory)]
        n = sum(blocks) + len(state["monitor"]["history"])
        assert blocks == [z for _, z in _block_layout(n)]
        assert (max(blocks, default=0) > _HISTORY_BLOCK) is (scenario == "history")

    def test_resume_reproduces_the_uninterrupted_run(self, scenario, tmp_path):
        directory = tmp_path / "checkpoint"
        shutil.copytree(self.golden / scenario / "checkpoint", directory)
        assert resumed_lines(directory, self.golden, scenario) == (
            self.golden / scenario / "expected.txt"
        ).read_text()


class TestGoldenV3FixedPolicy:
    """A format-3 tabular journal under the fixed policy, written while
    every ring record carried its chunk's rows: it resumes exactly onto
    a sketch-only ring, untouched, and its next record writes no ring
    rows."""

    golden = HERE / "golden_v3"
    scenario = "tabular_fixed"

    def test_ring_records_carry_rows(self):
        state = state_of(self.golden / self.scenario / "checkpoint")
        assert state["version"] == 3 and state["config"]["policy"] == "fixed"
        assert state["buffer"] is not None
        chunks = state["windows"]["chunks"]
        assert chunks and all(chunk["rows"] is not None for chunk in chunks)

    def test_resume_reproduces_the_uninterrupted_run(self, tmp_path):
        directory = tmp_path / "checkpoint"
        shutil.copytree(self.golden / self.scenario / "checkpoint", directory)
        before = files_of(directory)
        assert resumed_lines(directory, self.golden, self.scenario) == (
            self.golden / self.scenario / "expected.txt"
        ).read_text()
        assert files_of(directory) == before

    def test_the_next_record_writes_no_ring_rows(self, tmp_path):
        directory = tmp_path / "checkpoint"
        shutil.copytree(self.golden / self.scenario / "checkpoint", directory)
        monitor = gs.make_monitor(self.scenario).resume(directory)
        assert all(chunk is None for _, chunk in monitor.windows.ring)
        monitor.push(rest_chunks(self.golden, self.scenario)[0])
        registry = MetricsRegistry()
        with use_registry(registry):
            monitor.checkpoint(directory)
        state = state_of(directory)
        assert [chunk["rows"] for chunk in state["windows"]["chunks"]] == [
            None
        ] * len(monitor.windows.ring)
        buffered = monitor.state()["buffer"]
        assert registry.counter("resilience.checkpoint_rows_written") == (
            0 if buffered is None else len(buffered)
        )


def _load(directory: Path, name: str) -> list:
    return json.loads((generation(directory) / name).read_text())


def test_observation_rows_round_trip():
    o = Observation(3, 0.1 + 0.2, 97.5, True, 1)
    assert Observation.from_row(json.loads(json.dumps(o.to_row()))) == o


class TestSketchPacking:
    """A tabular checkpoint encodes its reference model once per
    reference, and its sketch files keep their bytes."""

    def test_committed_sketches_repack_to_the_same_bytes(self):
        # golden_v2 was written when every sketch re-encoded its model
        gen = generation(HERE / "golden_v2" / "tabular" / "checkpoint")
        paths = sorted(gen.glob("chunk-*.sketch"))
        assert paths
        for path in paths:
            sketch, model = unpack_partition_payload(path.read_bytes())
            assert partition_sketch_packer(model)(sketch) == path.read_bytes()

    def test_model_is_packed_once_per_reference(self, tmp_path, monkeypatch):
        calls = []
        real = wire_sketches.pack_model

        def counting_pack_model(model):
            calls.append(model)
            return real(model)

        monkeypatch.setattr(wire_sketches, "pack_model", counting_pack_model)
        monitor = gs.make_monitor("tabular")
        references = []
        packed = []
        sketches = 0
        for chunk in gs.tabular_chunks():
            monitor.push(chunk)
            calls.clear()
            monitor.checkpoint(tmp_path)
            packed += calls
            if monitor.windows is None:
                continue
            model = monitor.monitor.reference.model
            if not references or references[-1] is not model:
                references.append(model)
            found = ckpt._read_committed(tmp_path)
            for entry in found.state["windows"]["chunks"]:
                payload, _ = found.read(entry["sketch"])
                sketch = unpack_partition_payload(payload)[0]
                sketches += 1
                assert pack(sketch, model=model) == payload
        # past a promotion, with more sketches written than references
        assert len(references) > 1 and sketches > 2 * len(references)
        assert [id(m) for m in packed] == [id(m) for m in references]
