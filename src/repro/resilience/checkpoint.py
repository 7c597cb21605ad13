"""Crash-durable checkpoints for :class:`OnlineChangeMonitor`.

A monitor that dies loses its ring, reference, history and generator
state; restarted cold it emits wrong deviations. This module persists
that state and restores it bit-identically, owning only the on-disk
side (the state comes from the monitor's ``state()`` / ``restore()``
and the window manager's ring). Format 3 is an append-only journal, the
write-ahead log of ARIES (Mohan et al., TODS 1992):

* ``CHECKPOINT.json`` names a generation directory ``gen-NNNNNN/`` of
  segment files, each named by its first record's sequence number. A
  checkpoint appends one frame (sequence number, length, CRC-32)
  around the state JSON -- row count, generator state, ring counters
  and positions, the history's open tail, ``reference_crc`` -- and the
  wire sketch of each ring chunk the journal lacks (in steady state, the
  entering one), with its rows only when the monitor reads them again
  (``reads_chunk_rows``; otherwise ``"rows": null``), then fsyncs the
  segment once.
* The reference rows and each sealed history block are write-once
  files, fsynced with the directory before a record names them.
* Segments rotate instead of being compacted: one holds
  ``window_size // step`` records (eight for tumbling windows, whose
  ring is empty at every checkpoint). The record starting a segment
  fsyncs it, then the directory, and deletes what neither it nor the
  record before names (segments whose chunks left the ring, superseded
  files, and -- in a committed generation -- other generations); no
  live row is ever rewritten.
* A first checkpoint into a directory (or after another writer's
  commit, or after a failed checkpoint) writes a new generation and
  commits it with an ``os.replace`` of the manifest, fsyncing the
  directory (and the parent of each directory it created); only then
  are the other generations deleted.
* :func:`resume_checkpoint` replays to the last whole record and checks
  every CRC, the record order, the configuration fingerprint and the
  re-mined reference's ``reference_crc`` before adopting any state. A
  damaged final record with no whole record after it -- cut short, or
  zeros or stale bytes at its full length -- is a torn tail: the resume
  rolls back one record and counts ``resilience.checkpoint_torn_tails``;
  other damage raises a typed :class:`CheckpointError` naming the file.
  A resume never writes: the next checkpoint truncates the tail.
* Format 3 is the only one read: both a resume and a checkpoint refuse
  a directory whose manifest names another version (1 and 2 kept one
  ``state.json`` per checkpoint) with a :class:`CheckpointError` naming
  it, before anything is read or written.
"""

from __future__ import annotations

import io
import json
import os
import re
import shutil
import struct
import zlib
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import takewhile
from pathlib import Path
from typing import Any, Callable

from repro.core.monitor import Observation
from repro.data.io import load_tabular, load_transactions
from repro.data.io import save_tabular, save_transactions
from repro.errors import CheckpointError, FocusError
from repro.obs import metrics
from repro.stats.resample_plan import DRAW_SCHEME
from repro.stream.sketch import PartitionSketch, SupportSketch
from repro.wire import pack, unpack_partition_sketch, unpack_support_sketch
from repro.wire.sketches import partition_sketch_packer

_MANIFEST = "CHECKPOINT.json"
_FORMAT_VERSION = 3
_GENERATION = re.compile(r"gen-([0-9]{6})")
_SEGMENT = re.compile(r"segment-([0-9]{8,})\.log")
#: frame header: sequence number, payload bytes, CRC-32 of all else
_FRAME = struct.Struct("<QII")
#: records per segment when no chunk outlives a checkpoint
_TUMBLING_RECORDS = 8


def has_checkpoint(directory: str | Path) -> bool:
    """True when ``directory`` holds a committed checkpoint manifest."""
    return (Path(directory) / _MANIFEST).is_file()


# --------------------------------------------------------------------- #
# Writing
# --------------------------------------------------------------------- #


@dataclass
class Journal:
    """A monitor's cursor into the journal its checkpoints append to.

    ``segments`` lists the live segments by first sequence number,
    ``end`` the last one's whole-record bytes, ``size`` its bytes (more
    after a torn tail). ``held`` maps ``id(obj)`` to ``(obj, ref)`` for
    each object the last record names (a side file or a ``[seq, k]``
    record blob), and ``files`` the side files' CRCs.
    """

    directory: Path
    generation: str
    #: the committed manifest's identity; ``None`` before the commit
    manifest: tuple[int, int, int] | None = None
    seq: int = -1
    segments: list[int] = field(default_factory=list)
    end: int = 0
    size: int = 0
    records: int = 0
    held: dict[int, tuple[Any, Any]] = field(default_factory=dict)
    files: dict[str, int] = field(default_factory=dict)
    packer: tuple[Any, Callable[[Any], bytes]] | None = None
    reference_crc: tuple[Any, int] | None = None

    @property
    def path(self) -> Path:
        return self.directory / self.generation

    def segment(self, first: int) -> Path:
        return self.path / f"segment-{first:08d}.log"

    def continues(self, directory: Path) -> bool:
        """True while ``directory``'s manifest and last segment are as
        this cursor left them (no other writer committed or appended)."""
        if not self.segments or Path(os.path.abspath(directory)) != self.directory:
            return False
        try:
            manifest = _identity(self.directory / _MANIFEST)
            size = os.stat(self.segment(self.segments[-1])).st_size
        except OSError:
            return False
        return manifest == self.manifest and size == self.size


def write_checkpoint(
    monitor: Any, directory: str | Path, journal: Journal | None = None
) -> Journal:
    """Durably persist ``monitor`` under ``directory``.

    Safe at any point in the monitor's life (warm-up included). Given
    the cursor of the monitor's last checkpoint or resume, one record is
    appended to its journal; otherwise a new generation is written and
    committed by the manifest swap. Returns the next checkpoint's cursor.
    """
    directory = Path(directory)
    if journal is not None and journal.continues(directory):
        _append(monitor, journal)
    else:
        levels = (directory, *directory.parents)
        for level in reversed(list(takewhile(lambda d: not d.is_dir(), levels))):
            # each new entry is durable once its parent is
            level.mkdir()
            _fsync_dir(level.parent)
        _committed_manifest(directory)  # a damaged manifest fails typed
        number = max(_numbered(_GENERATION, directory), default=-1) + 1
        fresh = Journal(Path(os.path.abspath(directory)), f"gen-{number:06d}")
        os.mkdir(fresh.path)
        _append(monitor, fresh)
        # the commit point: swap the manifest in atomically
        tmp = directory / (_MANIFEST + ".tmp")
        manifest = {"version": _FORMAT_VERSION, "generation": fresh.generation}
        _write_file(tmp, json.dumps(manifest).encode())
        os.replace(tmp, directory / _MANIFEST)
        # the rename is directory metadata: durable once the directory is
        _fsync_dir(directory)
        fresh.manifest = _identity(directory / _MANIFEST)
        _drop_generations(fresh)
        journal = fresh
    metrics().inc("resilience.checkpoints_written")
    return journal


def _append(monitor: Any, journal: Journal) -> None:
    """Append the monitor's state as one record and make it durable."""
    seq = journal.seq + 1
    held: dict[int, tuple[Any, Any]] = {}
    files: dict[str, int] = {}
    new_files: list[tuple[str, bytes]] = []
    blobs: list[bytes] = []

    def keep(obj: Any, encode: Callable[[], bytes], name: str = "") -> Any:
        """``obj``'s ref: the journal's, else a new blob (or file ``name``)."""
        hit = journal.held.get(id(obj))
        if hit is not None and hit[0] is obj and isinstance(hit[1], str) == bool(name):
            ref = hit[1]
            if name:
                files[ref] = journal.files[ref]
        elif name:
            ref = name
            new_files.append((name, encode()))
            files[name] = zlib.crc32(new_files[-1][1])
        else:
            blobs.append(encode())
            ref = [seq, len(blobs) - 1]
        held[id(obj)] = (obj, ref)
        return ref

    live = monitor.state()
    inner = dict(live["monitor"])
    inner["history_blocks"] = [
        keep(
            b,
            lambda b=b: json.dumps([o.to_row() for o in b]).encode(),
            f"history-{seq:06d}-{k:04d}.json",
        )
        for k, b in enumerate(inner["history_blocks"])
    ]
    state: dict[str, Any] = {
        "version": _FORMAT_VERSION,
        "config": _fingerprint(monitor),
        **live,
        "monitor": inner,
        "windows": None,
        "files": files,
    }
    suffix = ".rows" if monitor.kind == "transactions" else ".npz"
    for key, name in (("buffer", ""), ("reference", f"reference-{seq:06d}{suffix}")):
        if (data := live[key]) is not None:
            state[key] = keep(data, lambda d=data: _rows(monitor, d), name)
    manager = live["windows"]
    if manager is not None:
        reads_rows = monitor.reads_chunk_rows
        state["reference_crc"] = _reference_crc(monitor, journal)
        state["windows"] = {
            "row_offset": manager.row_offset,
            "windows_emitted": manager.windows_emitted,
            "rows_sketched": manager.rows_sketched,
            "chunks": [
                {
                    "rows": (
                        keep(chunk, lambda c=chunk: _rows(monitor, c))
                        if reads_rows
                        else None
                    ),
                    "sketch": keep(
                        sketch, lambda s=sketch: _pack_sketch(monitor, journal, s)
                    ),
                }
                for sketch, chunk in manager.ring
            ],
        }
    record = _frame(seq, state, blobs)
    for name, data in new_files:
        _write_file(journal.path / name, data)
    if new_files and journal.segments:
        # their entries must be durable before a record names them (a
        # new generation commits only after its directory is synced)
        _fsync_dir(journal.path)
    if journal.size > journal.end:
        # a torn tail a dead writer left: cut it before anything follows
        os.truncate(journal.segment(journal.segments[-1]), journal.end)
        _write_file(journal.segment(journal.segments[-1]), b"", os.O_APPEND)
    per = monitor.window_size // monitor.step
    if per == 1:  # tumbling: the ring is empty at every checkpoint
        per = _TUMBLING_RECORDS
    rotate = not journal.segments or journal.records >= per
    if rotate:
        journal.segments.append(seq)
        journal.end = journal.records = 0
    _write_file(journal.segment(journal.segments[-1]), record, os.O_APPEND)
    if not journal.records:
        # a new segment (or an empty one a dead writer created) is
        # durable only once its directory entry is
        _fsync_dir(journal.path)
    # what the record before this one names stays too, so a torn tail
    # rolls back onto whole files
    kept = _named(journal)
    journal.seq, journal.records = seq, journal.records + 1
    journal.end = journal.size = journal.end + len(record)
    journal.held, journal.files = held, files
    if rotate:
        _sweep(journal, kept | _named(journal))


def _frame(seq: int, state: dict[str, Any], blobs: list[bytes]) -> bytes:
    """One record: the header, the state JSON's length, the JSON, the blobs."""
    head = json.dumps({**state, "blobs": [len(b) for b in blobs]}).encode()
    payload = b"".join([struct.pack("<I", len(head)), head, *blobs])
    crc = zlib.crc32(payload, zlib.crc32(struct.pack("<QI", seq, len(payload))))
    return _FRAME.pack(seq, len(payload), crc) + payload


def _named(journal: Journal) -> set[Any]:
    """The side files and record sequence numbers the last record names."""
    refs = [ref for _, ref in journal.held.values() if not isinstance(ref, str)]
    return {*journal.files, journal.seq, *(ref[0] for ref in refs)}


def _sweep(journal: Journal, kept: set[Any]) -> None:
    """Delete every file of the generation but the side files and the
    segments of the records in ``kept``, and, once the generation is
    committed, the other generations."""
    firsts = journal.segments
    live = {firsts[-1]}
    for seq in kept:
        if isinstance(seq, int) and seq >= firsts[0]:
            live.add(firsts[bisect_right(firsts, seq) - 1])
    journal.segments = [first for first in firsts if first in live]
    for name in os.listdir(journal.path):
        match = _SEGMENT.fullmatch(name)
        if not (int(match[1]) in live if match else name in kept):
            os.unlink(journal.path / name)
    if journal.manifest is not None:  # until then the manifest names another
        _drop_generations(journal)


def _drop_generations(journal: Journal) -> None:
    for name in os.listdir(journal.directory):
        if _GENERATION.fullmatch(name) and name != journal.generation:
            shutil.rmtree(journal.directory / name, ignore_errors=True)


def _numbered(pattern: re.Pattern[str], directory: Path) -> list[int]:
    return [int(m[1]) for m in map(pattern.fullmatch, os.listdir(directory)) if m]


def _identity(path: Path) -> tuple[int, int, int]:
    st = os.stat(path)
    return st.st_ino, st.st_size, st.st_mtime_ns


def _write_file(path: Path, payload: bytes, mode: int = os.O_TRUNC) -> None:
    """Write ``payload`` (truncating, or appending) and fsync the file."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | mode, 0o644)
    try:
        view = memoryview(payload)
        while view:
            view = view[os.write(fd, view) :]
        _fsync(fd)
    finally:
        os.close(fd)
    metrics().inc("resilience.checkpoint_bytes_written", len(payload))


def _fsync(fd: int) -> None:
    os.fsync(fd)
    metrics().inc("resilience.checkpoint_fsyncs")


def _fsync_dir(path: Path) -> None:
    if os.name != "posix":  # pragma: no cover - directory fsync is POSIX
        return
    fd = os.open(path, os.O_RDONLY)
    try:
        _fsync(fd)
    finally:
        os.close(fd)


# --------------------------------------------------------------------- #
# Reading
# --------------------------------------------------------------------- #


@dataclass
class _Committed:
    """A verified checkpoint: state, checked side files, records as
    ``(segment, start, stop, payload)``, the cursor."""

    state: dict[str, Any]
    files: dict[str, bytes]
    journal: Journal
    records: dict[int, tuple[Path, int, int, memoryview]] = field(default_factory=dict)

    def read(self, ref: Any) -> tuple[bytes, Path]:
        """The bytes a state ref names, with the file they came from."""
        if isinstance(ref, str) and ref in self.files:
            return self.files[ref], self.journal.path / ref
        if not isinstance(ref, list) or ref[0] not in self.records:
            raise _damaged(self.journal.path, f"state names {ref!r}, which it lacks")
        segment, _, _, payload = self.records[ref[0]]
        head, start = _record_head(payload, segment)
        start += sum(head["blobs"][: ref[1]])
        return bytes(payload[start : start + head["blobs"][ref[1]]]), segment


def _read_committed(directory: Path) -> _Committed:
    """Read and verify the checkpoint the manifest commits."""
    manifest = _committed_manifest(directory)
    if manifest is None:
        raise CheckpointError(
            f"no committed checkpoint under {directory} (missing {_MANIFEST})",
            path=str(directory),
        )
    here = Path(os.path.abspath(directory))
    journal = Journal(here, manifest["generation"], _identity(here / _MANIFEST))
    gen_dir = journal.path
    numbers = sorted(_numbered(_SEGMENT, gen_dir)) if gen_dir.is_dir() else []
    records: dict[int, tuple[Path, int, int, memoryview]] = {}
    last, end, size, path, fault = -1, 0, 0, gen_dir, None
    for number in numbers:
        if fault is not None:
            raise _damaged(path, fault)
        path = journal.segment(number)
        data = memoryview(_read_bytes(path))
        journal.segments.append(number)
        end, size, journal.records = 0, len(data), 0
        while end < size:
            # a segment is named for its first record; a rotation may
            # have deleted the segments between two live ones
            seq = last + 1 if journal.records else max(number, last + 1)
            if (fault := _fault(data, end, seq)) is not None:
                break
            stop = end + _FRAME.size + _FRAME.unpack_from(data, end)[1]
            records[seq] = (path, end, stop, data[end + _FRAME.size : stop])
            last, end, journal.records = seq, stop, journal.records + 1
    # only the final append can be torn (cut short, or zeros or stale
    # bytes at its full length): damage a whole record follows is not
    if fault is not None and _whole_record(data, end, seq + 1):
        raise _damaged(path, fault)
    if not records:
        raise _damaged(path, "journal holds no record")
    journal.seq, journal.end, journal.size = last, end, size
    state, _ = _record_head(records[last][3], records[last][0])
    files = _check_files(gen_dir, state["files"])
    return _Committed(state, files, journal, records)


def _fault(data: memoryview, at: int, seq: int) -> str | None:
    """Why the bytes at ``at`` are not whole record ``seq``, if they are not."""
    start = at + _FRAME.size
    if len(data) < start or len(data) < start + _FRAME.unpack_from(data, at)[1]:
        return f"journal segment ends mid-record at byte {at}"
    found, n, crc = _FRAME.unpack_from(data, at)
    if zlib.crc32(data[start : start + n], zlib.crc32(data[at : at + 12])) != crc:
        return f"journal record at byte {at} failed its CRC"
    return None if found == seq else f"journal record {found} is where {seq} belongs"


def _whole_record(data: memoryview, at: int, seq: int) -> bool:
    """True when a whole record ``seq`` starts after byte ``at``."""
    blob, key = data.tobytes(), struct.pack("<Q", seq)
    while (at := blob.find(key, at + 1)) >= 0:
        if _fault(data, at, seq) is None:
            return True
    return False


def _record_head(payload: memoryview, path: Path) -> tuple[dict[str, Any], int]:
    """A record's state JSON and the offset of its first blob."""
    n = int.from_bytes(payload[:4], "little")
    return _parse_state(payload[4 : 4 + n], path), 4 + n


def _committed_manifest(directory: Path) -> dict[str, Any] | None:
    """The validated manifest under ``directory``; ``None`` if absent."""
    path = directory / _MANIFEST
    try:
        manifest = dict(json.loads(path.read_bytes()))
        version = manifest["version"]
        if version != _FORMAT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint format version {version!r}: this "
                f"build reads version {_FORMAT_VERSION} only. "
                "Restart the stream without this checkpoint",
                path=str(path),
            )
        # the records carry their own CRCs: the manifest names the
        # generation only
        if set(manifest) != {"version", "generation"}:
            raise ValueError(f"fields {manifest} are not a version {version} manifest")
        # the generation is joined onto the directory: only the writer's
        # own names may reach the filesystem
        if not _GENERATION.fullmatch(str(manifest["generation"])):
            raise ValueError(f"invalid generation {manifest['generation']!r}")
    except (FileNotFoundError, NotADirectoryError):
        return None
    except OSError as exc:
        raise CheckpointError(f"manifest unreadable: {exc}", path=str(path)) from exc
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(
            f"checkpoint manifest is corrupt: {exc}", path=str(path)
        ) from exc
    return manifest


def _damaged(path: Path, what: str) -> CheckpointError:
    return CheckpointError(
        f"checkpoint {what}; refusing to resume from damaged state", path=str(path)
    )


def _read_bytes(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise CheckpointError(
            f"checkpoint file missing or unreadable: {exc}", path=str(path)
        ) from exc


def _parse_state(payload: Any, path: Path) -> dict[str, Any]:
    try:
        state: dict[str, Any] = json.loads(bytes(payload))
        for key in (
            "config", "rows_ingested", "monitor", "rng_state",
            "reference", "buffer", "windows", "files", "blobs",
        ):
            state[key]
        state["monitor"]["history_blocks"]
    except (ValueError, KeyError, TypeError) as exc:
        raise _damaged(path, f"state is corrupt: {exc}") from exc
    return state


def _check_files(gen_dir: Path, files: dict[str, Any]) -> dict[str, bytes]:
    """Each named file's bytes, once its CRC matches."""
    checked = {name: _read_bytes(gen_dir / name) for name in files}
    for name, crc in files.items():
        if zlib.crc32(checked[name]) != int(crc):
            raise _damaged(gen_dir / name, f"file {name!r} failed its CRC")
    return checked


# --------------------------------------------------------------------- #
# Resuming
# --------------------------------------------------------------------- #


def resume_checkpoint(monitor: Any, directory: str | Path) -> Journal:
    """Restore the committed checkpoint into a *fresh* ``monitor``.

    The monitor must be newly constructed with the configuration that
    wrote the checkpoint; both are verified before any state is touched,
    and nothing under ``directory`` is written. Pushing the stream's rows
    from ``monitor.rows_ingested`` on then yields bit-identical
    observations to the run that never died. Returns the next
    checkpoint's cursor.
    """
    directory = Path(directory)
    if monitor.rows_ingested or monitor.windows is not None:
        raise CheckpointError(
            "resume requires a freshly constructed monitor; this one has "
            f"already ingested {monitor.rows_ingested} rows"
        )
    committed = _read_committed(directory)
    state, journal = committed.state, committed.journal
    _check_fingerprint(monitor, state["config"], state["rng_state"], directory)

    def rows(ref: Any) -> Any:
        return None if ref is None else _load_rows(monitor, *committed.read(ref))

    names = state["monitor"]["history_blocks"]
    blocks = [_load_block(*committed.read(name)) for name in names]
    loaded = {key: rows(state[key]) for key in ("reference", "buffer")}
    # a started monitor re-mines the persisted reference rows, then
    # adopts the persisted ring on its freshly built manager
    inner = {**state["monitor"], "history_blocks": blocks}
    monitor.restore({**state, **loaded, "monitor": inner})
    saved_crc = state.get("reference_crc")  # absent in warm-up records
    if saved_crc is not None and _reference_crc(monitor, journal) != saved_crc:
        raise CheckpointError(
            "the re-fitted reference does not match the checkpoint's (its "
            "model parameters differ); resume with the model parameters "
            "that wrote it",
            path=str(directory),
        )
    if state["windows"] is not None:
        _restore_windows(monitor, committed, state["windows"])
    metrics().inc("resilience.checkpoints_resumed")
    if journal.size > journal.end:
        metrics().inc("resilience.checkpoint_torn_tails")
    # the journal holds the objects just restored, so the next record
    # writes none of them again
    named = [(loaded[key], state[key]) for key in loaded] + list(zip(blocks, names))
    if state["windows"] is not None:
        chunks = state["windows"]["chunks"]
        for (sketch, chunk), entry in zip(monitor.windows.ring, chunks):
            named += [(chunk, entry["rows"]), (sketch, entry["sketch"])]
    journal.held = {id(obj): (obj, ref) for obj, ref in named if obj is not None}
    journal.files = {name: int(crc) for name, crc in state["files"].items()}
    return journal


def _check_fingerprint(
    monitor: Any, saved: dict[str, Any], rng_state: Any, directory: Path
) -> None:
    current = _fingerprint(monitor)
    # a record without the key is refused like any other scheme mismatch
    scheme = saved.get("draw_scheme", 1)
    if scheme != DRAW_SCHEME and rng_state is not None:
        raise CheckpointError(
            f"checkpoint was written under bootstrap draw scheme {scheme}, "
            f"but this engine draws with scheme {DRAW_SCHEME}: its saved "
            "generator state would resume on a different random stream. "
            "Restart the stream without this checkpoint",
            path=str(directory),
        )
    # no generator state (n_boot=0): nothing random to resume, so the
    # checkpoint means the same under every scheme
    saved = {**saved, "draw_scheme": DRAW_SCHEME}
    if current != saved:
        diff = sorted(k for k in current | saved if current.get(k) != saved.get(k))
        raise CheckpointError(
            "monitor configuration does not match the checkpoint "
            f"(differing: {diff}); resume with the configuration that "
            "wrote it",
            path=str(directory),
        )


def _restore_windows(
    monitor: Any, committed: _Committed, saved: dict[str, Any]
) -> None:
    """Adopt the persisted ring on the freshly built window manager.

    Each persisted sketch's counts are adopted onto the re-mined
    reference's fresh itemsets / counting plan only after an exact
    structure-equality guard; a mismatch is damaged state. A chunk's
    rows are decoded only when the monitor reads them again; a journal
    an older build wrote with rows it never reads restores sketch-only.
    """
    manager = monitor.windows
    sketcher = manager.sketcher
    lits = monitor.kind == "transactions"
    unpack = unpack_support_sketch if lits else unpack_partition_sketch
    reads_rows = monitor.reads_chunk_rows
    entries = []
    for entry in saved["chunks"]:
        chunk = None
        if reads_rows:
            rows = _load_rows(monitor, *committed.read(entry["rows"]))
            chunk = sketcher.normalize(rows)
        payload, path = committed.read(entry["sketch"])
        try:
            decoded = unpack(payload)
        except FocusError as exc:
            raise _damaged(path, f"sketch failed to decode: {exc}") from exc
        if lits and tuple(decoded.itemsets) == tuple(sketcher.itemsets):
            sketch = SupportSketch._from_canonical(
                sketcher.itemsets,
                decoded.counts,
                decoded.n_transactions,
                decoded.n_items,
            )
        elif not lits and decoded.key == sketcher.plan.structure.counts_key:
            sketch = PartitionSketch._trusted(
                sketcher.plan, decoded.counts, decoded.n_rows
            )
        else:
            raise _damaged(path, "sketch does not match the re-mined reference")
        entries.append((sketch, chunk))
    manager.restore(
        entries,
        row_offset=int(saved["row_offset"]),
        windows_emitted=int(saved["windows_emitted"]),
        rows_sketched=int(saved["rows_sketched"]),
    )


def _fingerprint(monitor: Any) -> dict[str, Any]:
    inner = monitor.monitor
    return {
        # the persisted rng state only reproduces the uninterrupted run
        # under the draw scheme that consumed it
        "draw_scheme": DRAW_SCHEME,
        **{k: getattr(monitor, k) for k in ("kind", "n_items", "window_size", "step")},
        **{k: getattr(inner, k) for k in ("n_boot", "threshold", "delta_threshold")},
        **{k: getattr(inner, k) for k in ("policy", "refit_models")},
    }


def _rows(monitor: Any, rows: Any) -> bytes:
    buffer = io.BytesIO()
    if monitor.kind == "transactions":
        save_transactions(rows, buffer)
    else:
        save_tabular(rows, buffer)
    metrics().inc("resilience.checkpoint_rows_written", len(rows))
    return buffer.getvalue()


def _load_rows(monitor: Any, payload: bytes, path: Path) -> Any:
    try:
        if monitor.kind == "transactions":
            return load_transactions(io.BytesIO(payload))
        return load_tabular(io.BytesIO(payload))
    except (FocusError, OSError, ValueError, KeyError) as exc:
        raise _damaged(path, f"rows failed to load: {exc}") from exc


def _load_block(payload: bytes, path: Path) -> tuple[Observation, ...]:
    try:
        return tuple(Observation.from_row(row) for row in json.loads(payload))
    except (ValueError, TypeError) as exc:
        raise _damaged(path, f"history block failed to load: {exc}") from exc


def _reference_crc(monitor: Any, journal: Journal) -> int:
    """CRC-32 of the reference's empty window sketch's wire bytes (its
    itemsets, or its partition structure and model), once per model."""
    model = monitor.monitor.reference.model
    if journal.reference_crc is None or journal.reference_crc[0] is not model:
        empty = _pack_sketch(monitor, journal, monitor.windows.sketcher.empty())
        journal.reference_crc = (model, zlib.crc32(empty))
    return journal.reference_crc[1]


def _pack_sketch(monitor: Any, journal: Journal, sketch: Any) -> bytes:
    """The sketch's wire bytes; a tabular sketch embeds the reference
    model, encoded once per reference through the journal's packer."""
    if monitor.kind == "transactions":
        return pack(sketch)
    model = monitor.monitor.reference.model
    try:
        if journal.packer is None or journal.packer[0] is not model:
            journal.packer = (model, partition_sketch_packer(model))
        return journal.packer[1](sketch)
    except FocusError as exc:
        raise CheckpointError(
            "window sketches could not be wire-packed (checkpointing a "
            "tabular monitor needs a dt- or cluster-model reference): "
            f"{exc}"
        ) from exc
