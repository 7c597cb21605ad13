"""Crash-durable checkpoints for :class:`OnlineChangeMonitor`.

A monitor that dies loses its window ring, its reference, its history,
and its bootstrap generator state -- restarting it cold silently
re-warms on the wrong rows and emits wrong deviations. This module
persists the *entire* resume-relevant state and restores it
bit-identically:

* **atomic-manifest publish** (the ``MmapStripeStore`` pattern): each
  :func:`write_checkpoint` writes a fresh ``gen-NNNNNN/`` directory --
  rows via :mod:`repro.data.io`, window sketches via the
  :mod:`repro.wire` envelope, everything CRC-recorded in
  ``state.json`` -- and only then swaps ``CHECKPOINT.json`` into place
  with ``os.replace``. A kill at any instant leaves the previous
  committed generation untouched; stale generations are collected
  after the commit.
* **verified resume**: :func:`resume_checkpoint` checks the manifest,
  the state CRC, every file CRC, and the monitor's configuration
  fingerprint before touching the monitor, then rebuilds the reference
  (deterministic re-mine of the persisted reference rows), the window
  ring (sketches realigned to the freshly compiled local structure,
  guarded by itemset/``counts_key`` equality), the inner monitor's
  history/indices, and the bootstrap generator's exact bit-state.
  Anything corrupt raises a typed :class:`CheckpointError` naming the
  file -- a damaged checkpoint can never resume into a silently wrong
  monitor.

The kill-mid-checkpoint suite mirrors the storage crash tests: write a
generation without publishing (plus arbitrary damage to it) and assert
resume lands on the last *committed* generation, bit-identically.
"""

from __future__ import annotations

import json
import os
import shutil
import zlib
from pathlib import Path
from typing import Any

from repro.core.monitor import Observation
from repro.data.io import (
    load_tabular,
    load_transactions,
    save_tabular,
    save_transactions,
)
from repro.data.tabular import TabularDataset
from repro.data.transactions import TransactionDataset
from repro.errors import CheckpointError, FocusError
from repro.obs import metrics
from repro.stats.resample_plan import DRAW_SCHEME
from repro.stream.sketch import PartitionSketch, SupportSketch
from repro.wire import pack, unpack_partition_sketch, unpack_support_sketch

_MANIFEST = "CHECKPOINT.json"
_STATE = "state.json"
_FORMAT_VERSION = 1


def has_checkpoint(directory: str | Path) -> bool:
    """True when ``directory`` holds a committed checkpoint manifest."""
    return (Path(directory) / _MANIFEST).is_file()


# --------------------------------------------------------------------- #
# Writing
# --------------------------------------------------------------------- #


def write_checkpoint(monitor: Any, directory: str | Path) -> Path:
    """Durably persist ``monitor`` under ``directory``; returns the manifest.

    Safe to call at any point in the monitor's life (warm-up included).
    The write is crash-atomic: the generation directory is fully
    written (and fsynced) before the manifest swap commits it.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    generation = _next_generation_name(directory)
    state_crc = _write_generation(monitor, directory, generation)
    _publish(directory, generation, state_crc)
    _collect_garbage(directory, generation)
    metrics().inc("resilience.checkpoints_written")
    return directory / _MANIFEST


def _next_generation_name(directory: Path) -> str:
    committed = _read_manifest(directory) if has_checkpoint(directory) else None
    number = 0
    if committed is not None:
        number = int(committed["generation"].split("-")[1]) + 1
    return f"gen-{number:06d}"


def _write_generation(
    monitor: Any, directory: Path, generation: str
) -> int:
    """Write one (uncommitted) generation dir; returns state.json's CRC.

    Split from :func:`_publish` so the crash suite can produce a
    realistic torn checkpoint: a fully or partially written generation
    that never got its manifest swap.
    """
    gen_dir = directory / generation
    if gen_dir.exists():
        # a torn write from a previous life; its manifest never
        # committed, so the bytes are garbage
        shutil.rmtree(gen_dir)
    gen_dir.mkdir(parents=True)
    files: dict[str, int] = {}

    def put_bytes(name: str, payload: bytes) -> str:
        (gen_dir / name).write_bytes(payload)
        files[name] = zlib.crc32(payload)
        return name

    def put_rows(name: str, rows: Any) -> str:
        if monitor.kind == "transactions":
            name += ".rows"
            save_transactions(
                TransactionDataset(rows, monitor.n_items), gen_dir / name
            )
        else:
            name += ".npz"
            save_tabular(rows, gen_dir / name)
        files[name] = zlib.crc32((gen_dir / name).read_bytes())
        return name

    inner = monitor.monitor
    state: dict[str, Any] = {
        "version": _FORMAT_VERSION,
        "config": _fingerprint(monitor),
        "rows_ingested": monitor.rows_ingested,
        "monitor": {
            "next_index": inner._next_index,
            "reference_index": inner._reference_index,
            "history": [
                [o.index, o.deviation, o.significance, o.drifted,
                 o.reference_index]
                for o in inner.history
            ],
        },
        "rng_state": None if inner.rng is None else inner.rng.bit_generator.state,
        "reference": None,
        "buffer": None,
        "windows": None,
    }

    buffered = _buffer_rows(monitor)
    if buffered is not None:
        state["buffer"] = put_rows("buffer", buffered)

    if monitor._windows is not None:
        # started: the authoritative reference is the *inner* monitor's
        # (reset_on_drift may have promoted a window since warm-up)
        state["reference"] = put_rows(
            "reference", _dataset_rows(monitor, inner._reference_dataset)
        )
        manager = monitor._windows
        chunks = []
        for i, (sketch, chunk) in enumerate(manager._chunks):
            rows_name = put_rows(f"chunk-{i:04d}", chunk)
            sketch_name = put_bytes(
                f"chunk-{i:04d}.sketch", _pack_sketch(monitor, sketch)
            )
            chunks.append({"rows": rows_name, "sketch": sketch_name})
        state["windows"] = {
            "row_offset": manager._row_offset,
            "windows_emitted": manager.windows_emitted,
            "rows_sketched": manager.rows_sketched,
            "chunks": chunks,
        }
    elif monitor._reference_data is not None:
        # reference rows arrived but no chunk has forced the lazy fit
        state["reference"] = put_rows(
            "reference", monitor._reference_data
        )

    state["files"] = files
    payload = json.dumps(state).encode()
    (gen_dir / _STATE).write_bytes(payload)
    _fsync_tree(gen_dir)
    return zlib.crc32(payload)


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


def _collect_garbage(directory: Path, keep: str) -> None:
    for path in directory.iterdir():
        if path.is_dir() and path.name.startswith("gen-") and path.name != keep:
            shutil.rmtree(path, ignore_errors=True)


def _fsync_tree(gen_dir: Path) -> None:
    for path in gen_dir.iterdir():
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


# --------------------------------------------------------------------- #
# Resuming
# --------------------------------------------------------------------- #


def resume_checkpoint(monitor: Any, directory: str | Path) -> None:
    """Restore the committed checkpoint into a *fresh* ``monitor``.

    The monitor must be newly constructed (nothing pushed) with the
    configuration that wrote the checkpoint; both are verified before
    any state is touched. After the restore, pushing the stream's rows
    from offset ``monitor.rows_ingested`` onward yields bit-identical
    observations to the run that never died.
    """
    directory = Path(directory)
    if monitor.rows_ingested or monitor._windows is not None:
        raise CheckpointError(
            "resume requires a freshly constructed monitor; this one has "
            f"already ingested {monitor.rows_ingested} rows"
        )
    manifest = _read_manifest(directory)
    gen_dir = directory / str(manifest["generation"])
    state = _read_state(gen_dir, int(manifest["state_crc"]))
    _check_fingerprint(monitor, state["config"], directory)
    _check_files(gen_dir, state["files"])

    monitor.rows_ingested = int(state["rows_ingested"])
    if state["buffer"] is not None:
        monitor._buffer.extend(_load_rows(monitor, gen_dir / state["buffer"]))

    if state["reference"] is not None:
        monitor._reference_data = _load_rows(
            monitor, gen_dir / state["reference"]
        )
    if state["windows"] is not None:
        # Deterministic re-mine of the persisted reference rows, then
        # adopt the persisted ring on the freshly built manager.
        monitor._lazy_start()
        _restore_windows(monitor, gen_dir, state["windows"])
    inner = monitor.monitor
    saved = state["monitor"]
    inner._next_index = int(saved["next_index"])
    inner._reference_index = int(saved["reference_index"])
    inner.history[:] = [
        Observation(
            index=int(i),
            deviation=float(d),
            significance=float(s),
            drifted=bool(f),
            reference_index=int(r),
        )
        for i, d, s, f, r in saved["history"]
    ]
    if state["rng_state"] is not None and inner.rng is not None:
        inner.rng.bit_generator.state = state["rng_state"]
    metrics().inc("resilience.checkpoints_resumed")


def _read_manifest(directory: Path) -> dict[str, Any]:
    manifest_path = directory / _MANIFEST
    if not manifest_path.is_file():
        raise CheckpointError(
            f"no committed checkpoint under {directory} (missing "
            f"{_MANIFEST})",
            path=str(directory),
        )
    try:
        manifest = json.loads(manifest_path.read_text())
        if manifest["version"] != _FORMAT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint format version "
                f"{manifest['version']!r}",
                path=str(manifest_path),
            )
        manifest["generation"], manifest["state_crc"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(
            f"checkpoint manifest is corrupt: {exc}", path=str(manifest_path)
        ) from exc
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
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(
            f"checkpoint state is corrupt: {exc}", path=str(state_path)
        ) from exc
    return state


def _check_fingerprint(
    monitor: Any, saved: dict[str, Any], directory: Path
) -> None:
    current = _fingerprint(monitor)
    # a checkpoint without the key predates versioned draws (scheme 1)
    scheme = saved.get("draw_scheme", 1)
    if scheme != DRAW_SCHEME:
        raise CheckpointError(
            f"checkpoint was written under bootstrap draw scheme {scheme}, "
            f"but this engine draws with scheme {DRAW_SCHEME}: its saved "
            "generator state would resume on a different random stream. "
            "Restart the stream without this checkpoint",
            path=str(directory),
        )
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
    manager = monitor._windows
    sketcher = manager.sketcher
    entries = []
    for entry in saved["chunks"]:
        chunk = sketcher.normalize(_load_rows(monitor, gen_dir / entry["rows"]))
        payload = (gen_dir / entry["sketch"]).read_bytes()
        sketch = _unpack_sketch(monitor, payload, gen_dir / entry["sketch"])
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


def _buffer_rows(monitor: Any) -> Any:
    buffer = monitor._buffer
    if not len(buffer):
        return None
    if monitor.kind == "transactions":
        return list(buffer._rows)
    return TabularDataset.concat_many(list(buffer._chunks))


def _dataset_rows(monitor: Any, dataset: Any) -> Any:
    if monitor.kind == "transactions":
        return tuple(tuple(t) for t in dataset)
    return dataset


def _load_rows(monitor: Any, path: Path) -> Any:
    try:
        if monitor.kind == "transactions":
            return tuple(load_transactions(path))
        return load_tabular(path)
    except (FocusError, OSError, ValueError, KeyError) as exc:
        raise CheckpointError(
            f"checkpoint rows failed to load: {exc}", path=str(path)
        ) from exc


def _pack_sketch(monitor: Any, sketch: Any) -> bytes:
    if monitor.kind == "transactions":
        return pack(sketch)
    try:
        return pack(sketch, model=monitor.monitor._reference_model)
    except FocusError as exc:
        raise CheckpointError(
            "window sketches could not be wire-packed (checkpointing a "
            "tabular monitor needs a dt- or cluster-model reference): "
            f"{exc}"
        ) from exc


def _unpack_sketch(monitor: Any, payload: bytes, path: Path) -> Any:
    """Decode and *realign* a persisted sketch to the local structure.

    The local reference was just re-mined, so its canonical itemsets /
    counting plan are fresh objects; the persisted counts are adopted
    onto them (the fast-path constructors) only after an exact
    structure-equality guard. A mismatch means the checkpoint and the
    re-mined reference disagree -- damaged state, typed and loud.
    """
    sketcher = monitor._windows.sketcher
    try:
        if monitor.kind == "transactions":
            decoded = unpack_support_sketch(payload)
            local = sketcher.itemsets
            if tuple(decoded.itemsets) != tuple(local):
                raise CheckpointError(
                    "persisted sketch itemsets do not match the re-mined "
                    "reference structure",
                    path=str(path),
                )
            return SupportSketch._from_canonical(
                local, decoded.counts, decoded.n_transactions, decoded.n_items
            )
        decoded = unpack_partition_sketch(payload)
        plan = sketcher.plan
        if decoded.key != plan.structure.counts_key:
            raise CheckpointError(
                "persisted sketch partition does not match the re-mined "
                "reference structure",
                path=str(path),
            )
        return PartitionSketch._trusted(plan, decoded.counts, decoded.n_rows)
    except CheckpointError:
        raise
    except FocusError as exc:
        raise CheckpointError(
            f"checkpoint sketch failed to decode: {exc}", path=str(path)
        ) from exc
