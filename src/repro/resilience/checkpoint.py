"""Crash-durable checkpoints for :class:`OnlineChangeMonitor`.

A monitor that dies loses its window ring, its reference, its history,
and its bootstrap generator state -- restarting it cold silently
re-warms on the wrong rows and emits wrong deviations. This module
persists the *entire* resume-relevant state and restores it
bit-identically.

It owns only the on-disk side: file names, CRCs, hard links, fsyncs and
the manifest. The state has other owners and is read and restored
through their public surface alone: the monitor's ``state()`` /
``restore()`` (row count, reference and buffered rows, and the inner
:class:`~repro.core.monitor.ChangeMonitor`'s indices, history and
generator) and the window manager's ring and counters.

* **atomic-manifest publish** (the ``MmapStripeStore`` pattern): each
  :func:`write_checkpoint` builds a fresh ``gen-NNNNNN/`` directory --
  rows via :mod:`repro.data.io` (an uncompressed ``.npz`` or the
  ``.rows`` text), window sketches via the :mod:`repro.wire` envelope,
  sealed history blocks as JSON, everything CRC-recorded in
  ``state.json`` -- and only then swaps ``CHECKPOINT.json`` into place
  with ``os.replace``. A kill at any instant leaves the previous
  committed generation untouched; stale generations are collected
  after the commit.
* **write-once files**: ring chunks are immutable once pushed, the
  reference changes only at warm-up or on a ``reset_on_drift``
  promotion, and the history is sealed into blocks that never change
  (64 observations, merged four at a time into the next size), so
  each is written once. :func:`write_checkpoint` and
  :func:`resume_checkpoint` return a ledger of the generation's files
  by the object they hold; the monitor keeps it, and the next
  generation hard-links (``os.link``) the files of objects it still
  holds, taking their CRCs from the ledger. A refused link falls back
  to writing from memory. Every generation directory stays
  self-contained, and ``state.json`` keeps only the history's open
  tail inline, so a steady checkpoint after 5,000 windows costs about
  what one after 50 does.
* **format version**: the writer emits and the reader resumes version
  2 (history blocks, uncompressed ``.npz`` rows). A version-1
  checkpoint, whose ``state.json`` held the whole history, fails typed
  naming its version; a bootstrap one carries a generator state drawn
  under draw scheme 2, which no scheme-3 build can continue anyway.
* **verified resume**: :func:`resume_checkpoint` checks the manifest,
  the state CRC, every file CRC and the configuration fingerprint
  before touching the monitor, then re-mines the persisted reference
  rows, checks the result against the ``reference_crc`` the writer
  recorded (a builder with other model parameters fits another
  reference), realigns the ring's sketches to the fresh structure
  (guarded by itemset/``counts_key`` equality) and restores the inner
  monitor. Anything corrupt raises a typed :class:`CheckpointError`
  naming the file.
"""

from __future__ import annotations

import io
import json
import os
import re
import shutil
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.core.monitor import Observation
from repro.data.io import (
    load_tabular,
    load_transactions,
    save_tabular,
    save_transactions,
)
from repro.errors import CheckpointError, FocusError
from repro.obs import metrics
from repro.stats.resample_plan import DRAW_SCHEME
from repro.stream.sketch import PartitionSketch, SupportSketch
from repro.wire import pack, unpack_partition_sketch, unpack_support_sketch
from repro.wire.sketches import partition_sketch_packer

_MANIFEST = "CHECKPOINT.json"
_STATE = "state.json"
_FORMAT_VERSION = 2
_GENERATION = re.compile(r"gen-[0-9]{6}")


def has_checkpoint(directory: str | Path) -> bool:
    """True when ``directory`` holds a committed checkpoint manifest."""
    return (Path(directory) / _MANIFEST).is_file()


# --------------------------------------------------------------------- #
# Writing
# --------------------------------------------------------------------- #


@dataclass
class _WriteLedger:
    """The files of one committed generation, by the object they hold.

    Names the generation (with the state CRC its manifest records) and
    maps ``id(obj)`` to ``(obj, file name, crc)`` for each reference,
    ring chunk and sketch; the object is stored so a recycled id can
    never alias another object.
    """

    directory: Path
    generation: str
    state_crc: int = 0
    entries: dict[int, tuple[Any, str, int]] = field(default_factory=dict)
    #: a tabular reference model and its sketch packer, which encoded
    #: the model once; handed on to the next ledger until a promotion
    #: replaces the model
    packer: tuple[Any, Callable[[Any], bytes]] | None = None
    #: a reference model and its :func:`_reference_crc`, handed on alike
    reference_crc: tuple[Any, int] | None = None

    def lookup(self, obj: Any) -> tuple[str, int] | None:
        """``(committed path, crc)`` of ``obj``'s file, if recorded."""
        entry = self.entries.get(id(obj))
        if entry is None or entry[0] is not obj:
            return None
        return os.path.join(self.directory, self.generation, entry[1]), entry[2]

    def record(self, obj: Any, name: str, crc: int) -> None:
        self.entries[id(obj)] = (obj, name, crc)


def write_checkpoint(
    monitor: Any, directory: str | Path
) -> tuple[Path, _WriteLedger]:
    """Durably persist ``monitor`` under ``directory``.

    Safe to call at any point in the monitor's life (warm-up included).
    The write is crash-atomic: the generation directory is fully
    written (and fsynced) before the manifest swap commits it. Returns
    the manifest path and the ledger of the committed generation, which
    the monitor keeps for its next checkpoint's links.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    committed = _committed_manifest(directory)
    generation = _generation_after(committed)
    ledger = _write_generation(monitor, directory, generation, committed)
    _publish(directory, generation, ledger.state_crc)
    _collect_garbage(directory, generation)
    metrics().inc("resilience.checkpoints_written")
    return directory / _MANIFEST, ledger


def _generation_after(committed: dict[str, Any] | None) -> str:
    number = 0 if committed is None else int(committed["generation"][4:]) + 1
    return f"gen-{number:06d}"


def _next_generation_name(directory: Path) -> str:
    return _generation_after(_committed_manifest(directory))


def _committed_ledger(
    monitor: Any, directory: Path, committed: dict[str, Any] | None
) -> _WriteLedger | None:
    """The monitor's ledger, if it still names ``directory``'s commit.

    A ledger for another directory, or for a commit the manifest no
    longer names (another writer committed since), is ignored: its
    files are not what the directory has committed.
    """
    ledger: _WriteLedger | None = monitor.checkpoint_ledger
    if (
        ledger is None
        or committed is None
        or committed["generation"] != ledger.generation
        or committed["state_crc"] != ledger.state_crc
        or ledger.directory != directory.resolve()
    ):
        return None
    return ledger


def _write_generation(
    monitor: Any,
    directory: Path,
    generation: str,
    committed: dict[str, Any] | None = None,
) -> _WriteLedger:
    """Write one (uncommitted) generation dir.

    ``committed`` is the manifest the caller already read, if any;
    without one the directory's manifest is read here. Returns the
    ledger of the files the generation holds, state.json's CRC
    included, which the caller adopts only once the generation is
    published. Split from :func:`_publish` so the crash suite can produce a
    realistic torn checkpoint: a fully or partially written generation
    that never got its manifest swap.
    """
    if committed is None:
        committed = _committed_manifest(directory)
    previous = _committed_ledger(monitor, directory, committed)
    gen_dir = directory / generation
    if gen_dir.exists():
        # a torn write from a previous life; its manifest never
        # committed, so the bytes are garbage
        shutil.rmtree(gen_dir)
    gen_dir.mkdir(parents=True)
    # plain strings: a checkpoint joins a path per file it holds
    target = os.fspath(gen_dir)
    last: _WriteLedger | None = monitor.checkpoint_ledger
    ledger = _WriteLedger(directory.resolve(), generation)
    if last is not None:
        ledger.packer, ledger.reference_crc = last.packer, last.reference_crc
    files: dict[str, int] = {}
    sink = metrics()
    rows_suffix = ".rows" if monitor.kind == "transactions" else ".npz"

    def put_bytes(name: str, payload: bytes) -> None:
        _write_synced(os.path.join(target, name), payload)
        files[name] = zlib.crc32(payload)
        sink.inc("resilience.checkpoint_bytes_written", len(payload))

    def put_rows(name: str, rows: Any) -> None:
        buffer = io.BytesIO()
        if monitor.kind == "transactions":
            save_transactions(rows, buffer)
        else:
            save_tabular(rows, buffer)
        sink.inc("resilience.checkpoint_rows_written", len(rows))
        put_bytes(name, buffer.getvalue())

    def persist(obj: Any, name: str, write: Callable[[str], None]) -> str:
        """Link ``obj``'s committed file in as ``name``, else ``write``."""
        hit = None if previous is None else previous.lookup(obj)
        if hit is not None and _link(hit[0], os.path.join(target, name)):
            files[name] = hit[1]
            sink.inc("resilience.checkpoint_files_linked")
        else:
            write(name)
        ledger.record(obj, name, files[name])
        return name

    live = monitor.state()
    inner = dict(live["monitor"])
    inner["history_blocks"] = [
        persist(
            block,
            f"history-{k:04d}.json",
            lambda name, block=block: put_bytes(name, _encode_block(block)),
        )
        for k, block in enumerate(inner["history_blocks"])
    ]
    # the live rows and manager are persisted as files, named below
    state: dict[str, Any] = {
        "version": _FORMAT_VERSION,
        "config": _fingerprint(monitor),
        **live,
        "monitor": inner,
        "reference": None,
        "buffer": None,
        "windows": None,
    }
    if live["buffer"] is not None:
        state["buffer"] = "buffer" + rows_suffix
        put_rows(state["buffer"], live["buffer"])
    reference = live["reference"]
    if reference is not None:
        state["reference"] = persist(
            reference,
            "reference" + rows_suffix,
            lambda name: put_rows(name, reference),
        )
    manager = live["windows"]
    if manager is not None:
        state["reference_crc"] = _reference_crc(monitor, ledger)
        chunks = []
        for i, (sketch, chunk) in enumerate(manager.ring):
            rows_name = persist(
                chunk,
                f"chunk-{i:04d}" + rows_suffix,
                lambda name, chunk=chunk: put_rows(name, chunk),
            )
            sketch_name = persist(
                sketch,
                f"chunk-{i:04d}.sketch",
                lambda name, sketch=sketch: put_bytes(
                    name, _pack_sketch(monitor, ledger, sketch)
                ),
            )
            chunks.append({"rows": rows_name, "sketch": sketch_name})
        state["windows"] = {
            "row_offset": manager.row_offset,
            "windows_emitted": manager.windows_emitted,
            "rows_sketched": manager.rows_sketched,
            "chunks": chunks,
        }

    state["files"] = files
    payload = json.dumps(state).encode()
    _write_synced(os.path.join(target, _STATE), payload)
    sink.inc("resilience.checkpoint_bytes_written", len(payload))
    # a linked file was synced by the generation that created it; each
    # new file was synced as it was written, and the directory entries
    # (links included) need one more sync
    if os.name == "posix":
        _fsync_path(gen_dir)
    ledger.state_crc = zlib.crc32(payload)
    return ledger


def _publish(directory: Path, generation: str, state_crc: int) -> None:
    """Swap the manifest in atomically -- the single commit point."""
    manifest = json.dumps(
        {
            "version": _FORMAT_VERSION,
            "generation": generation,
            "state_crc": state_crc,
        }
    ).encode()
    tmp = directory / (_MANIFEST + ".tmp")
    with tmp.open("wb") as f:
        f.write(manifest)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, directory / _MANIFEST)
    if os.name == "posix":
        # the rename is directory metadata: durable only once the
        # directory itself is synced
        _fsync_path(directory)


def _collect_garbage(directory: Path, keep: str) -> None:
    for path in directory.iterdir():
        if path.is_dir() and path.name.startswith("gen-") and path.name != keep:
            shutil.rmtree(path, ignore_errors=True)


def _link(source: str, target: str) -> bool:
    """Hard-link ``source`` as ``target``; False if the OS refuses.

    Refusal covers a filesystem without hard links and a source deleted
    behind the writer's back; the caller then writes from memory.
    """
    try:
        os.link(source, target)
    except OSError:
        return False
    return True


def _write_synced(path: str, payload: bytes) -> None:
    """Write a new file and fsync it before closing."""
    with open(path, "xb") as f:
        f.write(payload)
        f.flush()
        os.fsync(f.fileno())


def _fsync_path(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# --------------------------------------------------------------------- #
# Resuming
# --------------------------------------------------------------------- #


def resume_checkpoint(monitor: Any, directory: str | Path) -> _WriteLedger:
    """Restore the committed checkpoint into a *fresh* ``monitor``.

    The monitor must be newly constructed (nothing pushed) with the
    configuration that wrote the checkpoint; both are verified before
    any state is touched. After the restore, pushing the stream's rows
    from offset ``monitor.rows_ingested`` onward yields bit-identical
    observations to the run that never died. Returns the ledger of the
    resumed generation's files, which serve the next checkpoint's links.
    """
    directory = Path(directory)
    if monitor.rows_ingested or monitor.windows is not None:
        raise CheckpointError(
            "resume requires a freshly constructed monitor; this one has "
            f"already ingested {monitor.rows_ingested} rows"
        )
    manifest = _read_manifest(directory)
    gen_dir = directory / str(manifest["generation"])
    state = _read_state(gen_dir, int(manifest["state_crc"]))
    _check_fingerprint(monitor, state["config"], state["rng_state"], directory)
    _check_files(gen_dir, state["files"])

    def rows(name: str | None) -> Any:
        return None if name is None else _load_rows(monitor, gen_dir / name)

    block_names = state["monitor"]["history_blocks"]
    blocks = [_load_block(gen_dir / name) for name in block_names]
    # a started monitor re-mines the persisted reference rows, then
    # adopts the persisted ring on its freshly built manager
    monitor.restore(
        {
            **state,
            "monitor": {**state["monitor"], "history_blocks": blocks},
            "reference": rows(state["reference"]),
            "buffer": rows(state["buffer"]),
        }
    )
    # the files just verified serve the next checkpoint's links
    ledger = _WriteLedger(
        directory.resolve(), manifest["generation"], manifest["state_crc"]
    )
    saved_crc = state.get("reference_crc")  # absent before this check
    if saved_crc is not None and _reference_crc(monitor, ledger) != saved_crc:
        raise CheckpointError(
            "the re-fitted reference does not match the checkpoint's (its "
            "model parameters differ); resume with the model parameters "
            "that wrote it",
            path=str(directory),
        )
    live = monitor.state()
    named = [(live["reference"], state["reference"])]
    # a block the monitor re-sealed no longer matches its file
    named += [
        (block, name)
        for block, loaded, name in zip(
            live["monitor"]["history_blocks"], blocks, block_names
        )
        if block is loaded
    ]
    if state["windows"] is not None:
        _restore_windows(monitor, gen_dir, state["windows"])
        # the manager adopted the loaded (sketch, chunk) objects as-is
        for (sketch, chunk), entry in zip(
            live["windows"].ring, state["windows"]["chunks"]
        ):
            named += [(chunk, entry["rows"]), (sketch, entry["sketch"])]
    metrics().inc("resilience.checkpoints_resumed")
    for obj, name in named:
        if name in state["files"]:
            ledger.record(obj, name, int(state["files"][name]))
    return ledger


def _read_manifest(directory: Path) -> dict[str, Any]:
    manifest = _committed_manifest(directory)
    if manifest is None:
        raise CheckpointError(
            f"no committed checkpoint under {directory} (missing "
            f"{_MANIFEST})",
            path=str(directory),
        )
    return manifest


def _committed_manifest(directory: Path) -> dict[str, Any] | None:
    """The validated manifest under ``directory``; ``None`` if absent."""
    manifest_path = directory / _MANIFEST
    try:
        payload = manifest_path.read_bytes()
    except (FileNotFoundError, NotADirectoryError):
        return None
    except OSError as exc:
        raise CheckpointError(
            f"checkpoint manifest is unreadable: {exc}",
            path=str(manifest_path),
        ) from exc
    try:
        manifest = json.loads(payload)
        if manifest["version"] != _FORMAT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint format version "
                f"{manifest['version']!r}: this build resumes version "
                f"{_FORMAT_VERSION} only. Restart the stream without this "
                "checkpoint",
                path=str(manifest_path),
            )
        generation, state_crc = manifest["generation"], manifest["state_crc"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(
            f"checkpoint manifest is corrupt: {exc}", path=str(manifest_path)
        ) from exc
    # the generation is joined onto the directory: only the writer's own
    # names may reach the filesystem
    if not isinstance(generation, str) or not _GENERATION.fullmatch(
        generation
    ):
        raise CheckpointError(
            f"checkpoint manifest names an invalid generation "
            f"{generation!r}",
            path=str(manifest_path),
        )
    if not isinstance(state_crc, int) or isinstance(state_crc, bool):
        raise CheckpointError(
            f"checkpoint manifest holds an invalid state CRC {state_crc!r}",
            path=str(manifest_path),
        )
    return manifest


def _read_state(gen_dir: Path, expected_crc: int) -> dict[str, Any]:
    state_path = gen_dir / _STATE
    try:
        payload = state_path.read_bytes()
    except OSError as exc:
        raise CheckpointError(
            f"committed checkpoint state is unreadable: {exc}",
            path=str(state_path),
        ) from exc
    if zlib.crc32(payload) != expected_crc:
        raise CheckpointError(
            "checkpoint state failed its CRC (manifest and state "
            "disagree); refusing to resume from damaged state",
            path=str(state_path),
        )
    try:
        state: dict[str, Any] = json.loads(payload)
        for key in (
            "config", "rows_ingested", "monitor", "rng_state",
            "reference", "buffer", "windows", "files",
        ):
            state[key]
        state["monitor"]["history_blocks"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(
            f"checkpoint state is corrupt: {exc}", path=str(state_path)
        ) from exc
    return state


def _check_fingerprint(
    monitor: Any, saved: dict[str, Any], rng_state: Any, directory: Path
) -> None:
    current = _fingerprint(monitor)
    # a checkpoint without the key predates versioned draws (scheme 1)
    scheme = saved.get("draw_scheme", 1)
    if scheme != DRAW_SCHEME:
        if rng_state is not None:
            raise CheckpointError(
                f"checkpoint was written under bootstrap draw scheme "
                f"{scheme}, but this engine draws with scheme "
                f"{DRAW_SCHEME}: its saved generator state would resume on "
                "a different random stream. Restart the stream without "
                "this checkpoint",
                path=str(directory),
            )
        # no generator state (n_boot=0): nothing random to resume, so
        # the checkpoint means the same under every scheme
        saved = {**saved, "draw_scheme": DRAW_SCHEME}
    if current != saved:
        diff = sorted(
            k
            for k in set(current) | set(saved)
            if current.get(k) != saved.get(k)
        )
        raise CheckpointError(
            "monitor configuration does not match the checkpoint "
            f"(differing: {diff}); resume with the configuration that "
            "wrote it",
            path=str(directory),
        )


def _check_files(gen_dir: Path, files: dict[str, Any]) -> None:
    for name, crc in files.items():
        path = gen_dir / name
        try:
            payload = path.read_bytes()
        except OSError as exc:
            raise CheckpointError(
                f"checkpoint file missing or unreadable: {exc}",
                path=str(path),
            ) from exc
        if zlib.crc32(payload) != int(crc):
            raise CheckpointError(
                f"checkpoint file {name!r} failed its CRC; refusing to "
                "resume from damaged state",
                path=str(path),
            )


def _restore_windows(
    monitor: Any, gen_dir: Path, saved: dict[str, Any]
) -> None:
    """Adopt the persisted ring on the freshly built window manager.

    The reference was just re-mined, so its canonical itemsets / counting
    plan are fresh objects; each persisted sketch's counts are adopted
    onto them (the fast-path constructors) only after an exact
    structure-equality guard. A mismatch means the checkpoint and the
    re-mined reference disagree -- damaged state, typed and loud.
    """
    manager = monitor.windows
    sketcher = manager.sketcher
    entries = []
    for entry in saved["chunks"]:
        chunk = sketcher.normalize(_load_rows(monitor, gen_dir / entry["rows"]))
        path = gen_dir / entry["sketch"]
        try:
            if monitor.kind == "transactions":
                decoded = unpack_support_sketch(path.read_bytes())
                matches = tuple(decoded.itemsets) == tuple(sketcher.itemsets)
            else:
                decoded = unpack_partition_sketch(path.read_bytes())
                matches = decoded.key == sketcher.plan.structure.counts_key
        except FocusError as exc:
            raise CheckpointError(
                f"checkpoint sketch failed to decode: {exc}", path=str(path)
            ) from exc
        if not matches:
            raise CheckpointError(
                "persisted sketch does not match the re-mined reference "
                "structure",
                path=str(path),
            )
        if monitor.kind == "transactions":
            sketch = SupportSketch._from_canonical(
                sketcher.itemsets,
                decoded.counts,
                decoded.n_transactions,
                decoded.n_items,
            )
        else:
            sketch = PartitionSketch._trusted(
                sketcher.plan, decoded.counts, decoded.n_rows
            )
        entries.append((sketch, chunk))
    manager.restore(
        entries,
        row_offset=int(saved["row_offset"]),
        windows_emitted=int(saved["windows_emitted"]),
        rows_sketched=int(saved["rows_sketched"]),
    )


# --------------------------------------------------------------------- #
# Helpers: fingerprint, rows, sketches
# --------------------------------------------------------------------- #


def _fingerprint(monitor: Any) -> dict[str, Any]:
    inner = monitor.monitor
    return {
        # the persisted rng state only reproduces the uninterrupted run
        # under the draw scheme that consumed it
        "draw_scheme": DRAW_SCHEME,
        "kind": monitor.kind,
        "n_items": monitor.n_items,
        "window_size": monitor.window_size,
        "step": monitor.step,
        "n_boot": inner.n_boot,
        "threshold": inner.threshold,
        "delta_threshold": inner.delta_threshold,
        "policy": inner.policy,
        "refit_models": inner.refit_models,
    }


def _load_rows(monitor: Any, path: Path) -> Any:
    try:
        if monitor.kind == "transactions":
            return load_transactions(path)
        return load_tabular(path)
    except (FocusError, OSError, ValueError, KeyError) as exc:
        raise CheckpointError(
            f"checkpoint rows failed to load: {exc}", path=str(path)
        ) from exc


def _encode_block(block: tuple[Observation, ...]) -> bytes:
    return json.dumps([o.to_row() for o in block]).encode()


def _load_block(path: Path) -> tuple[Observation, ...]:
    try:
        rows = json.loads(path.read_bytes())
        return tuple(Observation.from_row(row) for row in rows)
    except (OSError, ValueError, TypeError) as exc:
        raise CheckpointError(
            f"checkpoint history block failed to load: {exc}", path=str(path)
        ) from exc


def _reference_crc(monitor: Any, ledger: _WriteLedger) -> int:
    """CRC-32 of the reference's empty window sketch's wire bytes (its
    itemsets, or its partition structure and model), once per model."""
    model = monitor.monitor.reference.model
    if ledger.reference_crc is None or ledger.reference_crc[0] is not model:
        empty = monitor.windows.sketcher.empty()
        crc = zlib.crc32(_pack_sketch(monitor, ledger, empty))
        ledger.reference_crc = (model, crc)
    return ledger.reference_crc[1]


def _pack_sketch(monitor: Any, ledger: _WriteLedger, sketch: Any) -> bytes:
    """The sketch's wire bytes; a tabular sketch embeds the reference
    model, encoded once per reference through the ledger's packer."""
    if monitor.kind == "transactions":
        return pack(sketch)
    model = monitor.monitor.reference.model
    try:
        if ledger.packer is None or ledger.packer[0] is not model:
            ledger.packer = (model, partition_sketch_packer(model))
        return ledger.packer[1](sketch)
    except FocusError as exc:
        raise CheckpointError(
            "window sketches could not be wire-packed (checkpointing a "
            "tabular monitor needs a dt- or cluster-model reference): "
            f"{exc}"
        ) from exc
