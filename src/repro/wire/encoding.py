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
  arrays (per-itemset sizes + flattened items), shared by lits-models
  and support sketches, packed from the collection's cached array form.
  A :class:`TableMemo` is one call's decode context
  (:func:`itemset_table`): it decodes each distinct table's bytes once,
  and interns itemsets by key, so a decode builds a frozenset only for
  an itemset no earlier table of the call held and every table sharing
  it shares the object. Each payload's items must lie in its own
  ``n_items`` universe.

Every decode failure raises :class:`~repro.errors.WireFormatError`
naming the offending section.
"""

from __future__ import annotations

import json
import struct
from typing import Any

import numpy as np

from repro.core.model import _Canonical
from repro.data.transactions import (
    _length_blocks,
    _read_only,
    itemset_arrays,
    row_keys,
)
from repro.errors import WireFormatError
from repro.obs import metrics

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
    so equal collections always encode to identical bytes. A canonical
    collection packs its cached arrays.
    """
    sizes, flat = itemset_arrays(itemsets)
    return pack_array(sizes), pack_array(flat)


class TableMemo:
    """One decode call's context: tables by bytes, itemsets by key.

    :meth:`table` decodes only the first payload carrying a table's
    exact section bytes. A decode interns its itemsets
    (:meth:`itemsets`): per itemset length the context keeps the sorted
    keys it has materialised (:func:`~repro.data.transactions.row_keys`)
    and their frozensets, so a table builds frozensets only for keys new
    to the call.
    """

    def __init__(self) -> None:
        self._tables: dict[tuple[bytes, bytes], _Canonical] = {}
        self._known: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def table(self, sizes_payload: bytes, items_payload: bytes) -> _Canonical:
        """The decoded table of these section bytes, decoded once."""
        key = (sizes_payload, items_payload)
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = itemsets_from_sections(*key, memo=self)
        return table

    def itemsets(self, block: np.ndarray) -> np.ndarray:
        """The frozensets of a validated block: same-length rows, items
        sorted, rows strictly increasing; new keys are materialised."""
        keys = row_keys(block)
        known = self._known.get(block.shape[1])
        if known is None:
            objects = _materialise(block)
            self._known[block.shape[1]] = keys, objects
            return objects
        seen, interned = known
        at = np.minimum(np.searchsorted(seen, keys), seen.size - 1)
        new = seen[at] != keys
        objects = interned[at]
        if new.any():
            objects[new] = _materialise(block[new])
            at = np.searchsorted(seen, keys[new])
            self._known[block.shape[1]] = (
                np.insert(seen, at, keys[new]),
                np.insert(interned, at, objects[new]),
            )
        return objects


def _materialise(block: np.ndarray) -> np.ndarray:
    """One new frozenset per row of ``block``, as an object array."""
    metrics().inc("wire.itemsets_materialised", len(block))
    return np.fromiter(
        map(frozenset, block.tolist()), dtype=object, count=len(block)
    )


def itemset_table(
    sizes_payload: bytes, items_payload: bytes, n_items: int,
    tables: TableMemo | None = None,
) -> _Canonical:
    """An itemset table whose items must lie in ``[0, n_items)``. With a
    memo, only the first payload carrying its exact bytes decodes it and
    later ones reuse that object; the universe check runs for each
    payload, hit or miss."""
    if tables is None:
        table = itemsets_from_sections(sizes_payload, items_payload)
    else:
        table = tables.table(sizes_payload, items_payload)
    if table._top >= max(n_items, 0):
        raise WireFormatError(
            f"item {table._top} lies outside the {n_items}-item universe",
            section="items",
        )
    return table


def itemsets_from_sections(
    sizes_payload: bytes,
    items_payload: bytes,
    *,
    sizes_section: str = "sizes",
    items_section: str = "items",
    memo: TableMemo | None = None,
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
    marker tuple, so sketches and models built from it never re-sort;
    it keeps the sorted blocks as its array form and records its
    largest item for the universe check. Its frozensets come from
    ``memo``'s interned itemsets when one is given, else one per row.
    """
    metrics().inc("wire.itemset_tables_decoded")
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
    # every duplicate-item check runs before any order check, so a
    # table with both faults reports the duplicate item
    blocks: list[np.ndarray] = []
    for size, _, rows in _length_blocks(sizes, flat):
        block = np.sort(rows, axis=1)
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
    build = _materialise if memo is None else memo.itemsets
    objects = [build(block) for block in blocks]
    table = _Canonical(
        np.concatenate(objects).tolist() if objects else ()
    )
    table._arrays = _read_only(
        sizes, np.concatenate([flat[:0], *(b.ravel() for b in blocks)])
    )
    table._top = int(flat.max()) if flat.size else -1
    return table


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
