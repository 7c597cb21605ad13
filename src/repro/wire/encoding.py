"""Section-payload primitives: arrays, JSON metadata, itemset tables.

The envelope (:mod:`repro.wire.format`) frames and checksums opaque
section payloads; this module defines the three payload encodings every
codec is built from:

* **arrays** -- a self-describing numpy encoding: length-prefixed ascii
  dtype string (normalised to little-endian), ``u8`` ndim, ``u64``
  shape, then the C-order buffer. Decoding validates every length
  against the payload size, so a truncated or padded section fails
  loudly even if (impossibly) its CRC matched.
* **JSON metadata** -- compact, sorted-key UTF-8 JSON. Sorted keys make
  :func:`repro.wire.format.pack_envelope` deterministic: equal objects
  produce byte-identical payloads, which the golden suite pins.
* **itemset tables** -- an itemset collection as two aligned int64
  arrays (per-itemset sizes + flattened items), the compact form shared
  by lits-models and support sketches.

Every decode failure raises :class:`~repro.errors.WireFormatError`
naming the offending section.
"""

from __future__ import annotations

import json
import struct
from typing import Any

import numpy as np

from repro.core.model import _Canonical
from repro.errors import WireFormatError

_DTYPE_LEN = struct.Struct("<B")
_NDIM = struct.Struct("<B")
_DIM = struct.Struct("<Q")

#: dtype strings a payload may carry. A closed set: the codecs only emit
#: these, and refusing the rest means a forged dtype string can never
#: make numpy interpret attacker-controlled bytes as objects.
_ALLOWED_DTYPES = frozenset(
    {"<i8", "<i4", "<u8", "<u4", "<f8", "<f4", "|u1", "|i1"}
)

#: Dimension ceiling: nothing in this codebase ships tensors.
_MAX_NDIM = 4


def pack_array(array: np.ndarray) -> bytes:
    """Encode an array: dtype string, ndim, shape, C-order buffer."""
    arr = np.ascontiguousarray(array)
    if arr.dtype.byteorder == ">":  # pragma: no cover - big-endian hosts
        arr = arr.astype(arr.dtype.newbyteorder("<"))
    dtype_str = arr.dtype.str
    if dtype_str not in _ALLOWED_DTYPES:
        raise WireFormatError(
            f"dtype {dtype_str!r} is not wire-encodable; allowed dtypes "
            f"are {sorted(_ALLOWED_DTYPES)}"
        )
    if arr.ndim > _MAX_NDIM:
        raise WireFormatError(
            f"arrays of ndim {arr.ndim} exceed the wire ceiling of "
            f"{_MAX_NDIM}"
        )
    encoded = dtype_str.encode("ascii")
    parts = [_DTYPE_LEN.pack(len(encoded)), encoded, _NDIM.pack(arr.ndim)]
    parts.extend(_DIM.pack(dim) for dim in arr.shape)
    parts.append(arr.tobytes())
    return b"".join(parts)


def unpack_array(payload: bytes, section: str) -> np.ndarray:
    """Decode :func:`pack_array` output, validating every length."""

    def bad(reason: str) -> WireFormatError:
        return WireFormatError(
            f"section {section!r} does not hold a valid array: {reason}",
            section=section,
        )

    if len(payload) < _DTYPE_LEN.size:
        raise bad("truncated before the dtype length")
    (dtype_len,) = _DTYPE_LEN.unpack_from(payload)
    offset = _DTYPE_LEN.size
    if offset + dtype_len + _NDIM.size > len(payload):
        raise bad("truncated inside the dtype/ndim header")
    try:
        dtype_str = payload[offset : offset + dtype_len].decode("ascii")
    except UnicodeDecodeError:
        raise bad("dtype string is not ascii") from None
    if dtype_str not in _ALLOWED_DTYPES:
        raise bad(
            f"dtype {dtype_str!r} is not in the allowed set "
            f"{sorted(_ALLOWED_DTYPES)}"
        )
    offset += dtype_len
    (ndim,) = _NDIM.unpack_from(payload, offset)
    offset += _NDIM.size
    if ndim > _MAX_NDIM:
        raise bad(f"ndim {ndim} exceeds the wire ceiling of {_MAX_NDIM}")
    if offset + ndim * _DIM.size > len(payload):
        raise bad("truncated inside the shape")
    shape = []
    for _ in range(ndim):
        (dim,) = _DIM.unpack_from(payload, offset)
        shape.append(int(dim))
        offset += _DIM.size
    dtype = np.dtype(dtype_str)
    n_items = 1
    for dim in shape:
        n_items *= dim
    expected = n_items * dtype.itemsize
    if len(payload) - offset != expected:
        raise bad(
            f"buffer holds {len(payload) - offset} bytes, shape "
            f"{tuple(shape)} of {dtype_str} needs {expected}"
        )
    data = np.frombuffer(payload, dtype=dtype, count=n_items, offset=offset)
    # frombuffer views are read-only; copy so callers own a normal array
    return data.reshape(tuple(shape)).copy()


def pack_json(obj: Any) -> bytes:
    """Compact, sorted-key JSON (deterministic for equal objects)."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def unpack_json(payload: bytes, section: str) -> Any:
    """Decode a JSON metadata section."""
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireFormatError(
            f"section {section!r} does not hold valid JSON: {exc}",
            section=section,
        ) from None


def unpack_json_object(
    payload: bytes, section: str, keys: tuple[str, ...]
) -> dict[str, Any]:
    """A JSON metadata section that must be an object with exactly *keys*."""
    obj = unpack_json(payload, section)
    if not isinstance(obj, dict) or set(obj) != set(keys):
        got = sorted(obj) if isinstance(obj, dict) else type(obj).__name__
        raise WireFormatError(
            f"section {section!r} must be a JSON object with keys "
            f"{sorted(keys)}, got {got}",
            section=section,
        )
    return obj


def itemset_sections(
    itemsets: tuple[frozenset[int], ...],
) -> tuple[bytes, bytes]:
    """An itemset collection as (sizes, items) array payloads.

    The collection must already be in canonical order (size, then
    lexicographic) -- both producers (lits-models, support sketches)
    store it that way -- and items within an itemset are emitted sorted,
    so equal collections always encode to identical bytes.
    """
    sizes = np.array([len(s) for s in itemsets], dtype=np.int64)
    flat = np.array(
        [item for s in itemsets for item in sorted(s)], dtype=np.int64
    )
    return pack_array(sizes), pack_array(flat)


def itemsets_from_sections(
    sizes_payload: bytes,
    items_payload: bytes,
    *,
    sizes_section: str = "sizes",
    items_section: str = "items",
) -> _Canonical:
    """Decode an itemset table, enforcing the canonical invariants.

    Rejects (naming the offending section) anything the producers can
    never emit: non-integer or negative sizes or items, a sizes/items
    length mismatch, duplicate items within an itemset, or a collection
    that is not in canonical order -- because a decoded collection is
    immediately zipped against a positional counts/supports vector, and
    silently re-sorting it would transpose those values.

    Validation is numpy work per size block: each block's rows are
    sorted (items within an itemset may arrive in any order), a zero
    step within a row is a duplicate item, and consecutive rows must
    increase strictly lexicographically. The result is the canonical
    marker tuple, so sketches and models built from it never re-sort.
    """
    sizes = unpack_array(sizes_payload, sizes_section)
    flat = unpack_array(items_payload, items_section)
    if sizes.ndim != 1 or flat.ndim != 1:
        raise WireFormatError(
            "itemset tables must be 1-d arrays", section=sizes_section
        )
    sizes = _integer_table(sizes, sizes_section)
    flat = _integer_table(flat, items_section)
    if sizes.size and int(sizes.min()) < 0:
        raise WireFormatError(
            "negative itemset size", section=sizes_section
        )
    # summed as Python ints: a forged table whose int64 sum wraps
    # around to the item count must not pass
    total = sum(sizes.tolist())
    if total != flat.size:
        raise WireFormatError(
            f"itemset sizes sum to {total} but "
            f"{flat.size} items are present",
            section=items_section,
        )
    if flat.size and int(flat.min()) < 0:
        raise WireFormatError("negative item id", section=items_section)
    offsets = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    # every duplicate-item check runs before any order check, so a
    # table with both faults reports the duplicate item
    blocks: list[np.ndarray] = []
    for size in np.unique(sizes).tolist():
        rows = np.flatnonzero(sizes == size)
        block = np.sort(flat[offsets[rows, None] + np.arange(size)], axis=1)
        if size > 1 and (block[:, 1:] == block[:, :-1]).any():
            raise WireFormatError(
                "duplicate items within one itemset",
                section=items_section,
            )
        blocks.append(block)
    if (sizes[1:] < sizes[:-1]).any() or not all(
        _rows_increase(block) for block in blocks
    ):
        raise WireFormatError(
            "itemset collection is not in canonical order (size, then "
            "lexicographic, no duplicates); refusing to silently "
            "re-sort it against its positional counts",
            section=items_section,
        )
    items = flat.tolist()
    bounds = offsets.tolist()
    return _Canonical(
        frozenset(items[a:b]) for a, b in zip(bounds, bounds[1:])
    )


def _integer_table(array: np.ndarray, section: str) -> np.ndarray:
    """An itemset-table array as int64, refusing non-integer dtypes."""
    if array.dtype.kind not in "iu" or (
        array.dtype.kind == "u"
        and array.size
        and int(array.max()) > np.iinfo(np.int64).max
    ):
        raise WireFormatError(
            f"itemset tables must hold int64-range integers, got "
            f"{array.dtype.str}",
            section=section,
        )
    return array.astype(np.int64, copy=False)


def _rows_increase(block: np.ndarray) -> bool:
    """Is every row of a sorted-item block lexicographically above the last?"""
    if len(block) < 2:
        return True
    above, below = block[1:], block[:-1]
    differs = above != below
    # a row equal to its predecessor is a duplicate itemset
    if not differs.any(axis=1).all():
        return False
    first = differs.argmax(axis=1)
    picks = np.arange(len(first))
    return bool((above[picks, first] > below[picks, first]).all())
