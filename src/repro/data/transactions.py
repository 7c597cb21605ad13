"""Market-basket transaction datasets and their packed-bitmap index.

A :class:`TransactionDataset` is a bag of itemsets over an item universe
``{0, ..., n_items - 1}``. Support queries drive everything lits-model
related: mining (Apriori candidates), extending a model to the GCR
(counting the *other* model's itemsets), and focussed deviations.

The :class:`BitmapIndex` packs each item's occurrence vector into bits
(one ``uint8`` row stripe per item), so the support of an itemset is a
few ``bitwise_and`` passes plus a popcount -- a single conceptual scan
of the data, built once and reused for any number of itemsets.

Batched counting is the hot path: :meth:`BitmapIndex.support_counts`
groups a whole itemset collection by length and counts each group with
stacked ``bitwise_and`` reductions over a 2-D ``uint8`` matrix and a
single popcount pass, instead of one Python-level loop iteration per
itemset. Pair supports have a second kernel: :meth:`BitmapIndex.gram_counts`
reads every pair over ``k`` items off one blocked float32 Gram product
of the unpacked stripes -- Apriori's level 2, and the pair group of a
:class:`SupportCountingPlan` when its cost rule favours it.

Pair counts are reused: an index keeps its last full-range Gram product
(:meth:`BitmapIndex.pair_counts`), so every plan that counts the same
pair items over it -- a fleet's exhaustive, pruned and federated
matrices over one vocabulary -- multiplies once. The memo drops on
:meth:`BitmapIndex.append` and is never pickled, attached or shipped;
ranged counts and the miner call :meth:`BitmapIndex.gram_counts`, which
never reads it.

Itemset collections enter as ``(sizes, items)`` arrays
(:func:`itemset_arrays`, each itemset sorted and deduplicated): canonical
order, the counting plan's compile and the batched counts are numpy work
per itemset length, with no Python per itemset.

:class:`TransactionDataset` is the one transaction row container, from
a parsed block or stream chunk to a window or reference: CSR arrays
(row ``i`` is ``indices[indptr[i]:indptr[i+1]]``), sorted and
deduplicated once, where they enter; tuple rows are a lazily built,
cached view for the APIs and oracles that iterate rows.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Iterable, Iterator, Sequence, SupportsIndex

import numpy as np

from repro.data.storage import (
    RamStripeStore,
    StripeHandle,
    StripeStore,
    attach,
    iter_row_blocks,
    scan_budget_bytes,
)
from repro.errors import InvalidParameterError
from repro.obs import metrics

# Popcount lookup for uint8 values; POPCOUNT[b] = number of set bits in b.
POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint32)

#: Upper bound on the gathered stripe matrix (rows x length x bytes) a
#: single batched reduction may allocate; larger groups are chunked. A
#: Gram block (:meth:`BitmapIndex.gram_counts`) stays under it too.
_MAX_STRIPE_BYTES = 1 << 25  # 32 MiB

#: Bytes a Gram block holds per (item, row) cell: the unpacked byte, its
#: float32 copy, and (rounded up) the packed bit it came from.
_GRAM_CELL_BYTES = 6

#: float32 has a 24-bit significand: a sum of fewer than 2**24 products
#: of 0/1 values is exact, so no Gram block holds that many rows.
_GRAM_MAX_ROWS = (1 << 24) - 8

#: The counting plan's pair-group cost rule: the Gram product over the
#: ``k`` distinct pair items costs about ``k**2`` while the stripe gather
#: costs about ``m`` per pair, so a group of ``m`` pairs is counted with
#: the Gram product when ``k**2 <= _GRAM_PAIRS_RATIO * m``. The constant
#: comes from the Gram-versus-gather crossover swept in
#: ``benchmarks/bench_ablation_support_counting.py``: at a hundred items
#: the Gram product wins below a ratio of about 5 (a fleet vocabulary,
#: 2,234 pairs over 99 items, sits at 4.4) and the gather wins above it
#: (a stream chunk's plan, 4 pairs over 5 items, sits at 6.25).
_GRAM_PAIRS_RATIO = 5
#: The rule's floor: a pair group over fewer distinct items than this is
#: always gathered. The Gram product's fixed cost dominates a group that
#: small, whatever its shape: 3 pairs over 3 items (a clique, ratio 3.0)
#: timed 0.035 ms on the Gram product against 0.017-0.023 ms gathered,
#: and the gather won on every swept group over 8 or fewer items.
_GRAM_MIN_ITEMS = 9

#: The stripe name the index's packed bit matrix lives under in its
#: :class:`~repro.data.storage.StripeStore`.
_ITEM_BITS = "item_bits"


def as_csr(rows: Any) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices)`` of a row bag: a CSR holder's own arrays
    (anything with ``csr``), else plain rows converted once, in order."""
    csr = getattr(rows, "csr", None)
    if csr is not None:
        indptr, indices = csr
        return indptr, indices
    rows = [tuple(row) for row in rows]
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, rows), np.int64, len(rows)), out=indptr[1:])
    return indptr, np.fromiter(chain.from_iterable(rows), np.int64, indptr[-1])


def csr_rows(indptr: np.ndarray, indices: np.ndarray) -> list[tuple[int, ...]]:
    """The tuple-row view of CSR arrays (Python ints), built in one pass."""
    flat, bounds = indices.tolist(), indptr.tolist()
    return [tuple(flat[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]


def csr_take(
    indptr: np.ndarray, indices: np.ndarray, rows: Any
) -> tuple[np.ndarray, np.ndarray]:
    """CSR arrays of the rows at ``rows`` (repeats and negatives allowed)."""
    rows = np.arange(indptr.shape[0] - 1)[np.asarray(rows, dtype=np.int64)]
    starts, lengths = indptr[rows], np.diff(indptr)[rows]
    out = np.concatenate(([0], lengths.cumsum()))
    return out, indices[np.arange(out[-1]) + np.repeat(starts - out[:-1], lengths)]


def canonical_csr(
    indptr: np.ndarray, indices: np.ndarray, n_items: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sort and dedup every row; reject items outside ``[0, n_items)``."""
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size and (indices.min() < 0 or indices.max() >= n_items):
        bad = np.argmax((indices < 0) | (indices >= n_items))
        row = np.searchsorted(indptr, bad, side="right") - 1
        raise InvalidParameterError(
            f"transaction {row} has items outside [0, {n_items})"
        )
    return _sorted_rows(indptr, indices)


def _sorted_rows(
    indptr: np.ndarray, indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """CSR arrays with every row sorted and deduplicated.

    Only rows failing a strictly-increasing check are ``lexsort``-ed and
    deduplicated; canonical arrays come back as they are.
    """
    n_rows = indptr.shape[0] - 1
    row_of = np.repeat(np.arange(n_rows), np.diff(indptr))
    same_row = row_of[1:] == row_of[:-1]
    unsorted = (indices[1:] <= indices[:-1]) & same_row
    if not unsorted.any():
        return indptr, indices
    redo = np.zeros(n_rows, dtype=bool)
    redo[row_of[1:][unsorted]] = True
    redo = redo[row_of]
    out = indices.copy()
    out[redo] = indices[redo][np.lexsort((indices[redo], row_of[redo]))]
    keep = np.ones(out.shape[0], dtype=bool)
    keep[1:] = (out[1:] != out[:-1]) | ~same_row
    lengths = np.bincount(row_of[keep], minlength=n_rows)
    return np.concatenate(([0], lengths.cumsum())), out[keep]


def itemset_arrays(
    itemsets: Iterable[Iterable[int]],
) -> tuple[np.ndarray, np.ndarray]:
    """An itemset collection as ``(sizes, items)`` int64 arrays.

    ``items`` holds the itemsets end to end, each one's items sorted and
    deduplicated, and ``sizes`` their lengths, in the collection's order.
    The one array form that itemset canonical order
    (:func:`canonical_order`), the batched counts, the counting plan,
    the wire tables and the fleet vocabulary are built from: two
    ``fromiter`` passes and the :func:`canonical_csr` sort, with no
    Python work per itemset. A canonical collection keeps them,
    read-only: Apriori and the wire decoder set them where the
    collection is born, and any other one computes them on first use.
    """
    # runtime import: repro.core reaches this module while it loads
    from repro.core.model import _Canonical

    if isinstance(itemsets, _Canonical):
        try:
            return itemsets._arrays
        except AttributeError:
            itemsets._arrays = _read_only(*_itemset_rows(itemsets))
            return itemsets._arrays
    return _itemset_rows(itemsets)


def _itemset_rows(
    itemsets: Iterable[Iterable[int]],
) -> tuple[np.ndarray, np.ndarray]:
    rows: Any = itemsets
    try:
        sizes = np.fromiter(map(len, rows), np.int64, len(rows))
    except TypeError:  # an unsized collection or itemset: materialise once
        rows = [tuple(s) for s in itemsets]
        sizes = np.fromiter(map(len, rows), np.int64, len(rows))
    indptr = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    flat = np.fromiter(chain.from_iterable(rows), np.int64, int(indptr[-1]))
    indptr, flat = _sorted_rows(indptr, flat)
    return np.diff(indptr), flat


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(sizes, items)`` as int64 arrays nobody can write through."""
    sizes, items = (np.asarray(a, dtype=np.int64) for a in arrays)
    sizes.flags.writeable = items.flags.writeable = False
    return sizes, items


def _length_blocks(
    sizes: np.ndarray, items: np.ndarray
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """``(length, positions, ids)`` per itemset length, shortest first.

    ``positions`` are the ascending positions of the itemsets of that
    length in :func:`itemset_arrays` output and ``ids`` their ``(m,
    length)`` item matrix.
    """
    starts = np.cumsum(sizes) - sizes
    for length in np.flatnonzero(np.bincount(sizes)).tolist():
        positions = np.flatnonzero(sizes == length)
        yield length, positions, items[starts[positions, None] + np.arange(length)]


#: the int64 sign bit: flipped, it makes unsigned order signed order
_SIGN = np.uint64(1 << 63)


def row_keys(ids: np.ndarray) -> np.ndarray:
    """One exact key per row of an ``(m, length)`` block of sorted itemsets.

    Each row becomes one fixed-width void scalar holding its items as
    big-endian bytes, sign bit flipped, so two keys are equal exactly
    when the itemsets are, and byte order -- what numpy sorts,
    ``unique``-s and ``searchsorted``-s void scalars by -- is
    lexicographic item order. No radix is involved, so the key is exact
    for any universe and any itemset length. The empty itemset's rows
    get one constant word.
    """
    m, length = ids.shape
    rows = np.zeros((m, max(length, 1)), dtype=">u8")
    rows[:, :length] = np.asarray(ids, np.int64).view(np.uint64) ^ _SIGN
    return rows.view(f"V{rows.shape[1] * 8}").ravel()


def canonical_order(
    sizes: np.ndarray, items: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Positions of :func:`itemset_arrays` rows in canonical order, and
    the items array of the reordered rows.

    Canonical order is size, then lexicographic on the sorted items:
    one ``lexsort`` per size block. The sort is stable, so equal
    itemsets keep their input order.
    """
    orders: list[np.ndarray] = []
    rows: list[np.ndarray] = []
    for length, positions, ids in _length_blocks(sizes, items):
        if length:
            order = np.lexsort(ids.T[::-1])
            positions, ids = positions[order], ids[order]
        orders.append(positions)
        rows.append(ids.ravel())
    if not orders:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.int64)
    return np.concatenate(orders), np.concatenate(rows)


def _last_byte_mask(stop: int) -> int:
    """The bits of the packed byte holding row ``stop - 1`` that lie
    before ``stop`` (bits are MSB-first); all ones on a byte boundary."""
    return 0xFF if stop % 8 == 0 else (0xFF << (8 - stop % 8)) & 0xFF


def _gram_block_rows(k: int) -> int:
    """Rows per Gram block over ``k`` stripes.

    A block's cells (``k`` x rows, :data:`_GRAM_CELL_BYTES` each) fit
    :data:`_MAX_STRIPE_BYTES`; the count is a multiple of 8, so blocks
    after the first start at the same bit offset, and below
    :data:`_GRAM_MAX_ROWS`, so the float32 product is exact.
    """
    rows = _MAX_STRIPE_BYTES // (_GRAM_CELL_BYTES * max(1, k))
    return max(8, min(rows, _GRAM_MAX_ROWS) & ~7)


def _intersection_counts(
    bits: np.ndarray, ids: np.ndarray, first_mask: int, last_mask: int
) -> np.ndarray:
    """Support counts of same-length itemsets over a packed byte range.

    ``bits`` is a ``(n_items, n_bytes)`` packed slice and ``ids`` an
    ``(m, length)`` array of item ids. Each row's stripes are ANDed by a
    chunked stripe gather; the first and last byte are masked with
    ``first_mask`` / ``last_mask`` (rows outside the counted range, or
    past a snapshot's end), then one popcount pass counts every row.
    """
    n_bytes = bits.shape[1]
    padded = n_bytes + (-n_bytes) % 8
    full = np.zeros((ids.shape[0], padded), dtype=np.uint8)
    acc = full[:, :n_bytes]
    _intersect_into(acc, bits, ids)
    if n_bytes:
        if first_mask != 0xFF:
            acc[:, 0] &= np.uint8(first_mask)
        if last_mask != 0xFF:
            acc[:, -1] &= np.uint8(last_mask)
    return _popcount_rows(full)


def _intersect_into(out: np.ndarray, bits: np.ndarray, ids: np.ndarray) -> None:
    """AND the item stripes of each ``ids`` row into the matching ``out`` row.

    ``bits`` is a ``(n_items, n_bytes)`` packed slice, ``ids`` an ``(m,
    length)`` array of item ids and ``out`` an ``(m, n_bytes)`` uint8
    matrix; the stripe gather is chunked so that no gathered block
    exceeds :data:`_MAX_STRIPE_BYTES`.
    """
    chunk = max(1, _MAX_STRIPE_BYTES // max(1, ids.shape[1] * bits.shape[1]))
    for start in range(0, ids.shape[0], chunk):
        stop = start + chunk
        np.bitwise_and.reduce(bits[ids[start:stop]], axis=1, out=out[start:stop])


def _popcount_rows(matrix: np.ndarray) -> np.ndarray:
    """Per-row popcount of a packed uint8 matrix.

    ``np.bitwise_count`` popcounts a uint64 view of the matrix, far
    faster than a byte-LUT gather, so the matrix must be C-contiguous
    with a row width that is a multiple of 8 bytes (callers allocate
    rows pre-padded with zero bytes).
    """
    counts: np.ndarray = np.bitwise_count(matrix.view(np.uint64)).sum(
        axis=1, dtype=np.int64
    )
    return counts


class BitmapIndex:
    """Packed bit matrix: row per item, bit per transaction.

    The index is *incremental*: :meth:`append` extends every item stripe
    in amortized O(new rows) by writing into spare capacity, so a
    streaming window advance never rebuilds the index from scratch. The
    stripe buffer doubles when full (like a growable vector); ``_bits``
    is always the view of the occupied prefix.

    The buffer lives in a :class:`~repro.data.storage.StripeStore`. The
    default is the in-RAM backend (byte-for-byte the historical
    behaviour); passing an :class:`~repro.data.storage.MmapStripeStore`
    puts the stripes on disk, every append commits the new row count to
    the store's manifest, and :meth:`handle` / :meth:`attach` let a
    process fan ship the index as a few hundred bytes instead of
    pickling the bit matrix (pickling such an index does this
    automatically). :meth:`scan_counts` streams a log larger than the
    scan budget through block-masked ranged counting.
    """

    #: ``(items, counts)`` of the last :meth:`pair_counts` product: the
    #: read-only full-range Gram matrix of the sorted ``items``. ``None``
    #: on a new, reopened, attached or unpickled index and after an
    #: append, so the memo never outlives the rows it counted.
    _gram_memo: tuple[np.ndarray, np.ndarray] | None = None

    def __init__(
        self,
        transactions: Any,
        n_items: int,
        *,
        store: StripeStore | None = None,
    ) -> None:
        indptr, indices = as_csr(transactions)
        n = indptr.shape[0] - 1
        self.n_transactions = n
        self.n_items = n_items
        self._store = RamStripeStore() if store is None else store
        self._writable = True
        n_bytes = (n + 7) // 8
        self._buf = self._store.create(
            _ITEM_BITS, (n_items, n_bytes), np.uint8
        )
        self._bits = self._buf[:, :n_bytes]
        if n:
            self._scatter(indptr, indices, tid_offset=0)
        self._commit()

    @classmethod
    def from_store(cls, store: StripeStore) -> "BitmapIndex":
        """Adopt a reopened store, truncating to its committed rows.

        The crash-recovery entry point: the committed meta names the
        logical row count, and any bits a killed append scattered beyond
        it -- the uncommitted tail of the partial byte plus the spare
        capacity -- are zeroed here, so counts over the recovered index
        equal counts over an index rebuilt from the committed rows.
        """
        self = object.__new__(cls)
        self.n_transactions = n = int(store.meta["n_rows"])
        self.n_items = int(store.meta["n_items"])
        self._store = store
        self._writable = True
        self._buf = store.stripe(_ITEM_BITS)
        n_bytes = (n + 7) // 8
        if n & 7:
            self._buf[:, n_bytes - 1] &= np.uint8(_last_byte_mask(n))
        self._buf[:, n_bytes:] = 0
        self._bits = self._buf[:, :n_bytes]
        return self

    @classmethod
    def attach(cls, handle: StripeHandle) -> "BitmapIndex":
        """Map a shipped handle as a read-only index (zero-copy).

        The worker-side half of a process fan-out: the stripes are
        re-mapped from the owner's files through the shared OS page
        cache, so no data bytes cross the process boundary. The view is
        a snapshot of the last commit; counting methods mask the partial
        tail byte, but the owner must not run a *concurrent* append
        while attached workers scan.
        """
        store = attach(handle)
        self = object.__new__(cls)
        self.n_transactions = n = int(store.meta["n_rows"])
        self.n_items = int(store.meta["n_items"])
        self._store = store
        self._writable = False
        self._buf = store.stripe(_ITEM_BITS)
        self._bits = self._buf[:, : (n + 7) // 8]
        return self

    def handle(self) -> StripeHandle | None:
        """A shippable zero-copy reference, or ``None`` on the RAM backend."""
        return self._store.handle()

    @property
    def store(self) -> StripeStore:
        """The stripe store owning this index's packed bit matrix."""
        return self._store

    def _commit(self) -> None:
        meta = self._store.meta
        meta["n_rows"] = self.n_transactions
        meta["n_items"] = self.n_items
        self._store.commit()

    def __reduce_ex__(
        self, protocol: SupportsIndex
    ) -> str | tuple[object, ...]:
        # Pickling an index backed by a shared-medium store ships the
        # byte-cheap handle; workers re-attach zero-copy. RAM-backed
        # indexes ship one copy of the occupied packed prefix (the
        # "copy" fan-out shape the out-of-core bench compares against).
        handle = self._store.handle()
        if handle is not None:
            return (BitmapIndex.attach, (handle,))
        return (
            BitmapIndex._from_packed,
            (self._bits, self.n_transactions, self.n_items),
        )

    @classmethod
    def _from_packed(
        cls, bits: np.ndarray, n_transactions: int, n_items: int
    ) -> "BitmapIndex":
        """Rebuild a RAM-backed index around a shipped packed prefix.

        The pickle payload for stores with no shared medium: exactly the
        occupied bytes, once -- not the spare-capacity buffer, its
        prefix view, and the store's stripe as three separate arrays,
        which is what default object pickling would serialise.
        """
        self = object.__new__(cls)
        self.n_transactions = n_transactions
        self.n_items = n_items
        store = RamStripeStore()
        store._stripes[_ITEM_BITS] = bits
        self._store = store
        self._writable = True
        self._buf = bits
        self._bits = bits
        self._commit()
        return self

    def _scatter(
        self, indptr: np.ndarray, indices: np.ndarray, tid_offset: int
    ) -> None:
        """OR the (item, tid) bits of CSR rows into the buffer.

        Bits are MSB-first within each byte; ``tid_offset`` is the row id
        of the first row. The occupied view must already cover the
        target rows.
        """
        if not indices.size:
            return
        if indices.min() < 0 or indices.max() >= self.n_items:
            raise InvalidParameterError(
                f"transaction items outside [0, {self.n_items})"
            )
        tids = tid_offset + np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
        bits = np.right_shift(np.uint8(128), (tids & 7).astype(np.uint8))
        np.bitwise_or.at(self._buf, (indices, tids >> 3), bits)

    def append(self, transactions: Any) -> None:
        """Extend the index with new transactions, amortized O(new rows).

        Item stripes grow into pre-allocated spare capacity; when the
        packed width would overflow, the buffer capacity doubles (so a
        long stream of appends costs O(total rows) in bit writes plus
        O(log total) reallocations).

        Rows need no canonical form: the bit scatter is an OR, so
        duplicate or unsorted items within a row are harmless
        (out-of-universe items still raise).
        """
        if not self._writable:
            raise InvalidParameterError(
                "cannot append to an attached (read-only) index"
            )
        indptr, indices = as_csr(transactions)
        n_rows = indptr.shape[0] - 1
        if not n_rows:
            return
        self._gram_memo = None
        n_new = self.n_transactions + n_rows
        need_bytes = (n_new + 7) // 8
        cap_bytes = self._buf.shape[1]
        if need_bytes > cap_bytes:
            new_cap = max(need_bytes, 2 * cap_bytes, 8)
            self._buf = self._store.resize(
                _ITEM_BITS, (self.n_items, new_cap)
            )
        self._scatter(indptr, indices, tid_offset=self.n_transactions)
        self.n_transactions = n_new
        self._bits = self._buf[:, :need_bytes]
        self._commit()

    def item_bits(self, item: int) -> np.ndarray:
        """The packed occurrence vector of a single item."""
        bits: np.ndarray = self._bits[item]
        return bits

    def _past_end(self, last_bytes: np.ndarray) -> np.ndarray:
        """Popcounts of the bits of last packed bytes past the last row.

        Zero on an owned index; on an attached snapshot these are bits
        the owner appended after the attach, which counts must drop.
        """
        past_end: np.ndarray = POPCOUNT[
            last_bytes & (0xFF ^ _last_byte_mask(self.n_transactions))
        ]
        return past_end

    def item_support_counts(self) -> np.ndarray:
        """Support counts of every single item, in one popcount pass."""
        counts: np.ndarray = np.bitwise_count(self._bits).sum(
            axis=1, dtype=np.int64
        )
        if self.n_transactions & 7:
            counts -= self._past_end(self._bits[:, -1])
        return counts

    def support_count(self, items: Iterable[int]) -> int:
        """Number of transactions containing every item in ``items``.

        The empty itemset is contained in every transaction.
        """
        items = sorted(set(int(i) for i in items))
        if not items:
            return self.n_transactions
        acc = self._bits[items[0]]
        for item in items[1:]:
            acc = np.bitwise_and(acc, self._bits[item])
        count = int(np.bitwise_count(acc).sum())
        if self.n_transactions & 7:
            count -= int(self._past_end(acc[-1]))
        return count

    def support_counts(self, itemsets: Sequence[Iterable[int]]) -> np.ndarray:
        """Batched support counts for a whole collection of itemsets.

        Itemsets are grouped by length; each group is counted with
        stacked ``bitwise_and`` reductions over a ``(group, length,
        n_bytes)`` gather of the item stripes followed by one popcount
        pass over the resulting 2-D ``uint8`` matrix -- no per-itemset
        Python loop.

        Parameters
        ----------
        itemsets:
            Any sequence of item iterables; duplicates within an itemset
            are ignored and the empty itemset counts every transaction.

        Counting the *same* collection against many indexes (the
        streaming shape) should go through a precompiled
        :class:`SupportCountingPlan` instead, which hoists this per-call
        canonicalisation and grouping out of the loop.
        """
        metrics().inc("bitmap.support_counts.calls")
        sizes, items = itemset_arrays(itemsets)
        out = np.empty(sizes.size, dtype=np.int64)
        for length, positions, ids in _length_blocks(sizes, items):
            out[positions] = (
                self.itemset_counts(ids) if length else self.n_transactions
            )
        return out

    def itemset_counts(self, ids: np.ndarray) -> np.ndarray:
        """Support counts of same-length itemsets given as an id array.

        ``ids`` is an ``(m, length)`` integer array whose rows are
        itemsets of distinct items -- the array twin of
        :meth:`support_counts` with no per-itemset canonicalisation, and
        the miner's kernel for levels 3 and up.
        """
        return _intersection_counts(
            self._bits, ids, 0xFF, _last_byte_mask(self.n_transactions)
        )

    def gram_counts(
        self, items: Sequence[int] | np.ndarray, *, start: int = 0,
        stop: int | None = None,
    ) -> np.ndarray:
        """Co-occurrence counts of ``items`` over the rows ``[start, stop)``.

        Entry ``(a, b)`` of the ``(k, k)`` int64 result is the support
        of ``{items[a], items[b]}`` (the diagonal: of ``items[a]``
        alone). With ``X`` the 0/1 rows x items matrix this is ``XᵀX``:
        the item stripes are unpacked block by block, the columns
        outside ``[start, stop)`` sliced off, and each block's float32
        Gram product summed in int64. A block holds fewer than 2**24
        rows, so every float32 sum is an exact integer, and its cells
        stay within :data:`_MAX_STRIPE_BYTES`. This is the level-2
        kernel of the miner and of :class:`SupportCountingPlan`'s pair
        group: all ``k**2`` pair supports for one BLAS call per block.
        """
        n = self.n_transactions
        stop = n if stop is None else stop
        if not 0 <= start <= stop <= n:
            raise InvalidParameterError(
                f"row range [{start}, {stop}) outside [0, {n}]"
            )
        ids = np.asarray(items, dtype=np.intp)
        out = np.zeros((ids.shape[0], ids.shape[0]), dtype=np.int64)
        if not ids.shape[0]:
            return out
        step = _gram_block_rows(ids.shape[0])
        sink = metrics()
        for lo in range(start, stop, step):
            hi = min(lo + step, stop)
            skip = lo & 7
            packed = self._bits[ids, lo >> 3 : (hi + 7) >> 3]
            x = np.unpackbits(packed, axis=1, count=skip + hi - lo)[:, skip:]
            block = x.astype(np.float32)
            out += (block @ block.T).astype(np.int64)
            sink.inc("bitmap.gram.blocks")
        return out

    def pair_counts(self, items: np.ndarray) -> np.ndarray:
        """:meth:`gram_counts` of ``items`` over every row, memoised.

        The index keeps its last product. A request for the same items
        returns that matrix, and one for a subset of them (``items``
        sorted and distinct, as the counting plan's are) reads its rows
        and columns off it; ``bitmap.gram.memo_hits`` counts both. Any
        other request runs the product and replaces the memo. The
        matrix returned is read-only. :meth:`gram_counts` itself never
        reads the memo, so the miner and ranged counts always multiply.
        """
        memo = self._gram_memo
        if memo is not None and items.size <= memo[0].size:
            known, gram = memo
            at = np.minimum(np.searchsorted(known, items), known.size - 1)
            if np.array_equal(known[at], items):
                metrics().inc("bitmap.gram.memo_hits")
                if at.size < known.size:
                    gram = gram[np.ix_(at, at)]
                return gram
        gram = self.gram_counts(items)
        gram.flags.writeable = False
        self._gram_memo = (np.array(items, dtype=np.intp), gram)
        return gram

    def support_counts_loop(
        self, itemsets: Sequence[Iterable[int]]
    ) -> np.ndarray:
        """Reference per-itemset Python loop (the pre-batching seed path).

        Kept verbatim -- one sort, one ``bitwise_and`` chain, and one
        LUT popcount per itemset -- as the oracle the property tests and
        the support-counting ablation bench compare the batched engine
        against.
        """
        counts = np.empty(len(itemsets), dtype=np.int64)
        for pos, itemset in enumerate(itemsets):
            items = sorted(set(int(i) for i in itemset))
            if not items:
                counts[pos] = self.n_transactions
                continue
            acc = self._bits[items[0]]
            for item in items[1:]:
                acc = np.bitwise_and(acc, self._bits[item])
            counts[pos] = int(POPCOUNT[acc].sum())
        return counts

    def intersection_bits(self, items: Iterable[int]) -> np.ndarray:
        """Packed membership vector of transactions containing ``items``.

        For the empty itemset (every transaction matches) the padding
        bits beyond ``n_transactions`` are masked off, so popcounting the
        result is always correct even when ``n_transactions % 8 != 0``.
        """
        items = sorted(set(int(i) for i in items))
        if not items:
            n_bytes = self._bits.shape[1] if self.n_items else (self.n_transactions + 7) // 8
            full = np.full(n_bytes, 255, dtype=np.uint8)
            # Mask off padding bits beyond the last transaction.
            extra = n_bytes * 8 - self.n_transactions
            if extra and n_bytes:
                full[-1] = np.uint8(0xFF << extra & 0xFF)
            return full
        acc: np.ndarray = self._bits[items[0]].copy()
        for item in items[1:]:
            np.bitwise_and(acc, self._bits[item], out=acc)
        return acc

    def scan_counts(
        self,
        itemsets_or_plan: "SupportCountingPlan" | Sequence[Iterable[int]],
        *,
        budget_bytes: int | None = None,
    ) -> np.ndarray:
        """Support counts via a chunked scan with bounded residency.

        Splits the rows into contiguous blocks sized so one block's
        stripe working set stays under ``budget_bytes`` (default: the
        ``REPRO_SCAN_BUDGET_BYTES`` env var or 64 MiB), counts each
        block with the ranged plan, and sums -- counts are integers, so
        the total is exactly the one-shot count no matter the budget.
        Between blocks the store drops page residency of the scanned
        stripes, so an mmap-backed log far larger than the budget
        streams through with a peak RSS near one block
        (``storage.chunks_scanned`` / ``storage.rows_scanned`` account
        for the blocks; a full scan's row tally equals the row count).
        """
        plan = (
            itemsets_or_plan
            if isinstance(itemsets_or_plan, SupportCountingPlan)
            else SupportCountingPlan(itemsets_or_plan)
        )
        budget = scan_budget_bytes(budget_bytes)
        width_bytes = max(8, budget // max(1, self.n_items))
        sink = metrics()
        total = np.zeros(plan.n_itemsets, dtype=np.int64)
        for start, stop in iter_row_blocks(self.n_transactions, width_bytes * 8):
            total += plan.count(self, start=start, stop=stop)
            sink.inc("storage.chunks_scanned")
            sink.inc("storage.rows_scanned", stop - start)
            self._store.release(_ITEM_BITS)
        return total


class SupportCountingPlan:
    """Precompiled batched counting for a *fixed* itemset collection.

    :meth:`BitmapIndex.support_counts` pays a per-call canonicalisation
    and length-grouping pass over the itemset collection. A streaming
    workload counts the *same* collection against hundreds of small
    chunk indexes, so the plan hoists all of that out: itemsets are
    canonicalised, grouped by length, and laid out as gather-index
    matrices once; :meth:`count` then reduces to pure numpy work
    (stripe gather, stacked ``bitwise_and``, one popcount pass) per
    length group.

    The pair group may instead be read off one
    :meth:`BitmapIndex.gram_counts` product over its distinct items: a
    fleet vocabulary holds thousands of pairs over a hundred items,
    where one Gram product beats thousands of stripe gathers. The cost
    rule ``k >= _GRAM_MIN_ITEMS and k**2 <= _GRAM_PAIRS_RATIO * m`` (``k``
    distinct items, ``m`` pairs) picks the kernel once, here. Singletons
    always take the popcount path: a Gram product spent on them only
    fills a diagonal.

    A plan is index-independent: it can be executed against any
    :class:`BitmapIndex` whose item universe covers the plan's items --
    every per-shard and per-chunk index of the same stream. The same
    gather ids also yield every itemset's packed membership vector
    (:meth:`intersection_bits`), the lits bootstrap's per-row state.
    """

    def __init__(self, itemsets: Sequence[Iterable[int]]) -> None:
        sizes, items = itemset_arrays(itemsets)
        self.n_itemsets = sizes.size
        self.max_item = int(items.max()) if items.size else -1
        self._empty = np.empty(0, dtype=np.intp)
        self._groups: list[tuple[np.ndarray, np.ndarray]] = []
        #: ``(positions, items, local)``: the pair group counted by one
        #: Gram product over ``items``; ``local`` holds each pair's two
        #: positions in ``items``
        self._gram: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        #: every non-empty length group, the Gram-counted pairs included:
        #: what :meth:`intersection_bits` gathers
        self._gathers: list[tuple[np.ndarray, np.ndarray]] = []
        for length, pos_arr, ids in _length_blocks(sizes, items):
            if not length:
                self._empty = pos_arr
                continue
            self._gathers.append((pos_arr, ids))
            if length == 2:
                pair_items = np.unique(ids)
                k, m = pair_items.size, pos_arr.size
                if k >= _GRAM_MIN_ITEMS and k**2 <= _GRAM_PAIRS_RATIO * m:
                    local = np.searchsorted(pair_items, ids)
                    self._gram = (pos_arr, pair_items, local)
                    continue
            self._groups.append((pos_arr, ids))

    def _check_universe(self, index: BitmapIndex) -> None:
        if self.max_item >= index.n_items:
            raise InvalidParameterError(
                f"plan references item {self.max_item} outside the index's "
                f"universe [0, {index.n_items})"
            )

    def count(
        self, index: BitmapIndex, *, start: int = 0, stop: int | None = None
    ) -> np.ndarray:
        """Support counts of the planned itemsets over ``index``.

        ``start``/``stop`` restrict counting to the contiguous row range
        ``[start, stop)``: the byte slice covering the range is reduced
        as usual and the out-of-range bits of the boundary bytes are
        masked off, so a ranged count equals building a fresh index from
        exactly those rows and counting it (property-tested). Contiguous
        ranges are how shard fans and chunked scans split a *shared*
        index without copying a single stripe. A count over every row
        (no ``start``/``stop`` given) reads a Gram pair group through
        the index's :meth:`~BitmapIndex.pair_counts` memo; a ranged one
        always multiplies.
        """
        metrics().inc("bitmap.plan.count_calls")
        full = start == 0 and stop is None
        n = index.n_transactions
        stop = n if stop is None else stop
        if not 0 <= start <= stop <= n:
            raise InvalidParameterError(
                f"row range [{start}, {stop}) outside [0, {n}]"
            )
        self._check_universe(index)
        out = np.empty(self.n_itemsets, dtype=np.int64)
        if self._empty.size:
            out[self._empty] = stop - start
        if self._gram is not None:
            pos_arr, items, local = self._gram
            gram = (
                index.pair_counts(items)
                if full
                else index.gram_counts(items, start=start, stop=stop)
            )
            out[pos_arr] = gram[local[:, 0], local[:, 1]]
        # Boundary masks (bits are MSB-first): the first byte keeps the
        # positions >= start % 8, the last keeps those < stop % 8. Also
        # applied to a full-range count whose row count is not a byte
        # multiple -- committed data has a zero tail there, so the mask
        # changes nothing, but it keeps counts over an attached snapshot
        # immune to bits an owner scattered after the commit.
        bits = index._bits[:, start >> 3 : (stop + 7) >> 3]
        first_mask, last_mask = 0xFF >> (start & 7), _last_byte_mask(stop)
        for pos_arr, ids in self._groups:
            out[pos_arr] = _intersection_counts(bits, ids, first_mask, last_mask)
        return out

    def intersection_bits(self, index: BitmapIndex) -> np.ndarray:
        """Packed membership vectors of the planned itemsets over ``index``.

        Row ``i`` of the ``(n_itemsets, ceil(n/8))`` uint8 result is
        :meth:`BitmapIndex.intersection_bits` of itemset ``i``, built
        from one stripe gather and stacked ``bitwise_and`` per itemset
        length instead of one call per itemset. Bits past the index's
        last row are zero, also on an attached snapshot whose owner
        appended rows after the attach.
        """
        self._check_universe(index)
        n = index.n_transactions
        bits = index._bits
        out = np.empty((self.n_itemsets, bits.shape[1]), dtype=np.uint8)
        out[self._empty] = 0xFF
        for pos_arr, ids in self._gathers:
            acc = np.empty((ids.shape[0], bits.shape[1]), dtype=np.uint8)
            _intersect_into(acc, bits, ids)
            out[pos_arr] = acc
        if n & 7:
            out[:, -1] &= np.uint8(_last_byte_mask(n))
        return out


class TransactionDataset:
    """An immutable bag of transactions over ``n_items`` items.

    Rows are CSR arrays, each sorted and deduplicated; ``transactions``
    and iteration are a lazily built tuple view. The bitmap index is
    built on first use and cached, so a stream chunk is bit-indexed
    once however many consumers -- its sketch, the bootstrap -- read it.
    """

    def __init__(self, transactions: Any, n_items: int) -> None:
        self._adopt(*canonical_csr(*as_csr(transactions), n_items), n_items)

    def _adopt(self, indptr: np.ndarray, indices: np.ndarray, n_items: int) -> None:
        if n_items <= 0:
            raise InvalidParameterError("n_items must be positive")
        self.indptr, self.indices, self.n_items = indptr, indices, n_items
        self._index: BitmapIndex | None = None
        self._rows: list[tuple[int, ...]] | None = None

    @classmethod
    def _canonical(
        cls, indptr: np.ndarray, indices: np.ndarray, n_items: int
    ) -> "TransactionDataset":
        """A dataset adopting canonical CSR arrays as they are (no re-check)."""
        self = cls.__new__(cls)
        self._adopt(indptr, indices, n_items)
        return self

    @classmethod
    def from_csr(
        cls, indptr: np.ndarray, indices: np.ndarray, n_items: int
    ) -> "TransactionDataset":
        """A dataset of CSR rows, canonicalised like any other rows."""
        return cls._canonical(*canonical_csr(indptr, indices, n_items), n_items)

    @classmethod
    def of(cls, rows: Any, n_items: int) -> "TransactionDataset":
        """``rows`` itself when it is a dataset over ``n_items`` (its
        cached index kept), else a new dataset of them."""
        if isinstance(rows, TransactionDataset) and rows.n_items == n_items:
            return rows
        return cls(rows, n_items)

    def __reduce__(self) -> tuple[Any, ...]:
        # arrays and universe only: a copy rebuilds its index on demand
        return (TransactionDataset._canonical, (*self.csr, self.n_items))

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self.indptr.shape[0] - 1

    @property
    def n_rows(self) -> int:
        return len(self)

    @property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        return self.indptr, self.indices

    @property
    def transactions(self) -> list[tuple[int, ...]]:
        """The rows as sorted tuples (built on first access, then cached)."""
        if self._rows is None:
            self._rows = csr_rows(self.indptr, self.indices)
        return self._rows

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.transactions)

    @property
    def index(self) -> BitmapIndex:
        """The (lazily built, cached) bitmap index over this dataset."""
        if self._index is None:
            self._index = BitmapIndex(self, self.n_items)
        return self._index

    def drop_index(self) -> None:
        """Discard the cached bitmap index.

        Benchmarks call this so a timed deviation honestly includes the
        dataset scan (index construction), as in the paper's Figure 13
        timing columns.
        """
        self._index = None

    # ------------------------------------------------------------------ #
    # Support queries
    # ------------------------------------------------------------------ #

    def support_count(self, items: Iterable[int]) -> int:
        """Absolute number of transactions containing ``items``."""
        return self.index.support_count(items)

    def itemset_selectivity(self, items: Iterable[int]) -> float:
        """Support (fraction of transactions) of an itemset; 0 on empty data."""
        if not len(self):
            return 0.0
        return self.support_count(items) / len(self)

    # ------------------------------------------------------------------ #
    # Dataset algebra
    # ------------------------------------------------------------------ #

    def take(self, indices: np.ndarray) -> "TransactionDataset":
        """A new dataset with the transactions at ``indices`` (repeats OK)."""
        return TransactionDataset._canonical(
            *csr_take(self.indptr, self.indices, indices), self.n_items
        )

    def slice_rows(self, start: int, stop: int) -> "TransactionDataset":
        """Rows ``[start, stop)`` as a dataset with its own arrays."""
        lo, hi = self.indptr[start], self.indptr[stop]
        indptr = self.indptr[start : stop + 1] - lo
        return TransactionDataset._canonical(
            indptr, self.indices[lo:hi].copy(), self.n_items
        )

    @staticmethod
    def concat_many(
        datasets: Sequence["TransactionDataset"],
    ) -> "TransactionDataset":
        """The rows of datasets over one universe end to end; a lone
        dataset is handed back as is."""
        if not datasets:
            raise InvalidParameterError("concat_many needs at least one dataset")
        if len(datasets) == 1:
            return datasets[0]
        n_items = datasets[0].n_items
        if any(d.n_items != n_items for d in datasets):
            raise InvalidParameterError(
                "cannot concatenate datasets with different item universes"
            )
        return TransactionDataset._canonical(
            np.concatenate([[0], *(np.diff(d.indptr) for d in datasets)]).cumsum(),
            np.concatenate([d.indices for d in datasets]),
            n_items,
        )

    def concat(self, other: "TransactionDataset") -> "TransactionDataset":
        """Append another dataset over the same item universe."""
        return TransactionDataset.concat_many([self, other])

    def average_length(self) -> float:
        """Mean transaction length (diagnostics for the generator tests)."""
        if not len(self):
            return 0.0
        return self.indices.shape[0] / len(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TransactionDataset(n={len(self)}, items={self.n_items}, "
            f"avg_len={self.average_length():.2f})"
        )
