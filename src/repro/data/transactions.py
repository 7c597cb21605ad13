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
itemset.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, SupportsIndex

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

#: ``np.bitwise_count`` (numpy >= 2.0) popcounts a uint64 view of the
#: packed matrix far faster than the byte-LUT gather; fall back otherwise.
_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")

#: Upper bound on the gathered stripe matrix (rows x length x bytes) a
#: single batched reduction may allocate; larger groups are chunked.
_MAX_STRIPE_BYTES = 1 << 25  # 32 MiB

#: The stripe name the index's packed bit matrix lives under in its
#: :class:`~repro.data.storage.StripeStore`.
_ITEM_BITS = "item_bits"


def _popcount_rows(matrix: np.ndarray) -> np.ndarray:
    """Per-row popcount of a packed uint8 matrix.

    The matrix must be C-contiguous with a row width that is a multiple
    of 8 bytes when ``np.bitwise_count`` is available (callers allocate
    rows pre-padded with zero bytes).
    """
    counts: np.ndarray
    if _HAS_BITWISE_COUNT:
        counts = np.bitwise_count(matrix.view(np.uint64)).sum(
            axis=1, dtype=np.int64
        )
    else:
        counts = POPCOUNT[matrix].sum(axis=1, dtype=np.int64)
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

    def __init__(
        self,
        transactions: Sequence[tuple[int, ...]],
        n_items: int,
        *,
        store: StripeStore | None = None,
    ) -> None:
        n = len(transactions)
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
            self._scatter(transactions, tid_offset=0)
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
            self._buf[:, n_bytes - 1] &= np.uint8(0xFF << (8 - (n & 7)) & 0xFF)
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
        self, transactions: Sequence[tuple[int, ...]], tid_offset: int
    ) -> None:
        """OR the (item, tid) bits of ``transactions`` into the buffer.

        Bits are MSB-first within each byte; ``tid_offset`` is the row id
        of the first transaction. The occupied view must already cover
        the target rows.
        """
        tids: list[int] = []
        items: list[int] = []
        for tid, t in enumerate(transactions, start=tid_offset):
            for item in t:
                items.append(item)
                tids.append(tid)
        if not items:
            return
        items_arr = np.array(items, dtype=np.int64)
        if items_arr.min() < 0 or items_arr.max() >= self.n_items:
            raise InvalidParameterError(
                f"transaction items outside [0, {self.n_items})"
            )
        tids_arr = np.array(tids, dtype=np.int64)
        byte_idx = tids_arr >> 3
        bit_val = (np.uint8(128) >> (tids_arr & 7)).astype(np.uint8)
        np.bitwise_or.at(self._buf, (items_arr, byte_idx), bit_val)

    def append(self, transactions: Sequence[Iterable[int]]) -> None:
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
        transactions = (
            transactions
            if isinstance(transactions, (list, tuple))
            else list(transactions)
        )
        if not transactions:
            return
        n_new = self.n_transactions + len(transactions)
        need_bytes = (n_new + 7) // 8
        cap_bytes = self._buf.shape[1]
        if need_bytes > cap_bytes:
            new_cap = max(need_bytes, 2 * cap_bytes, 8)
            self._buf = self._store.resize(
                _ITEM_BITS, (self.n_items, new_cap)
            )
        self._scatter(transactions, tid_offset=self.n_transactions)
        self.n_transactions = n_new
        self._bits = self._buf[:, :need_bytes]
        self._commit()

    def item_bits(self, item: int) -> np.ndarray:
        """The packed occurrence vector of a single item."""
        bits: np.ndarray = self._bits[item]
        return bits

    def item_support_counts(self) -> np.ndarray:
        """Support counts of every single item, in one popcount pass."""
        counts: np.ndarray
        if _HAS_BITWISE_COUNT:
            counts = np.bitwise_count(self._bits).sum(axis=1, dtype=np.int64)
        else:
            counts = POPCOUNT[self._bits].sum(axis=1).astype(np.int64)
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
        if _HAS_BITWISE_COUNT:
            return int(np.bitwise_count(acc).sum())
        return int(POPCOUNT[acc].sum())

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
        canon = [tuple(sorted({int(i) for i in s})) for s in itemsets]
        out = np.empty(len(canon), dtype=np.int64)
        by_len: dict[int, list[int]] = {}
        for pos, t in enumerate(canon):
            by_len.setdefault(len(t), []).append(pos)
        for length, positions in sorted(by_len.items()):
            if length == 0:
                out[positions] = self.n_transactions
                continue
            group = [canon[p] for p in positions]
            out[positions] = _popcount_rows(
                self._group_intersections(group, length)
            )
        return out

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

    def _group_intersections(
        self, group: list[tuple[int, ...]], length: int
    ) -> np.ndarray:
        """Packed intersection vectors for same-length itemsets, stacked.

        Returns a ``(len(group), padded_bytes)`` uint8 matrix whose row
        ``i`` starts with the AND of the item stripes of ``group[i]``;
        rows are zero-padded to a multiple of 8 bytes so the caller can
        popcount a uint64 view in place. Rows are reduced from a chunked
        stripe gather.
        """
        n_bytes = self._bits.shape[1]
        padded = n_bytes + (-n_bytes) % 8 if _HAS_BITWISE_COUNT else n_bytes
        full = np.zeros((len(group), padded), dtype=np.uint8)
        acc = full[:, :n_bytes]
        ids = np.array(group, dtype=np.int64)
        chunk = max(1, _MAX_STRIPE_BYTES // max(1, length * n_bytes))
        for start in range(0, len(group), chunk):
            stripes = self._bits[ids[start : start + chunk]]
            acc[start : start + chunk] = np.bitwise_and.reduce(stripes, axis=1)
        return full

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

    A plan is index-independent: it can be executed against any
    :class:`BitmapIndex` whose item universe covers the plan's items --
    every per-shard and per-chunk index of the same stream.
    """

    def __init__(self, itemsets: Sequence[Iterable[int]]) -> None:
        canon = [tuple(sorted({int(i) for i in s})) for s in itemsets]
        self.n_itemsets = len(canon)
        self.max_item = max((t[-1] for t in canon if t), default=-1)
        by_len: dict[int, list[int]] = {}
        for pos, t in enumerate(canon):
            by_len.setdefault(len(t), []).append(pos)
        self._empty = np.array(by_len.pop(0, []), dtype=np.intp)
        self._groups: list[tuple[np.ndarray, np.ndarray]] = []
        for _length, positions in sorted(by_len.items()):
            pos_arr = np.array(positions, dtype=np.intp)
            ids = np.array([canon[p] for p in positions], dtype=np.int64)
            self._groups.append((pos_arr, ids))

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
        index without copying a single stripe.
        """
        metrics().inc("bitmap.plan.count_calls")
        n = index.n_transactions
        stop = n if stop is None else stop
        if not 0 <= start <= stop <= n:
            raise InvalidParameterError(
                f"row range [{start}, {stop}) outside [0, {n}]"
            )
        if self.max_item >= index.n_items:
            raise InvalidParameterError(
                f"plan references item {self.max_item} outside the index's "
                f"universe [0, {index.n_items})"
            )
        out = np.empty(self.n_itemsets, dtype=np.int64)
        if self._empty.size:
            out[self._empty] = stop - start
        b0, b1 = start >> 3, (stop + 7) >> 3
        bits = index._bits[:, b0:b1]
        n_bytes = bits.shape[1]
        # Boundary masks (bits are MSB-first): the first byte keeps the
        # positions >= start % 8, the last keeps those < stop % 8. Also
        # applied to a full-range count whose row count is not a byte
        # multiple -- committed data has a zero tail there, so the mask
        # changes nothing, but it keeps counts over an attached snapshot
        # immune to bits an owner scattered after the commit.
        first_mask = np.uint8(0xFF >> (start & 7))
        last_mask = np.uint8(0xFF if stop % 8 == 0 else (0xFF << (8 - stop % 8)) & 0xFF)
        masked = n_bytes > 0 and (first_mask != 0xFF or last_mask != 0xFF)
        padded = n_bytes + (-n_bytes) % 8 if _HAS_BITWISE_COUNT else n_bytes
        for pos_arr, ids in self._groups:
            length = ids.shape[1]
            full = np.zeros((len(pos_arr), padded), dtype=np.uint8)
            acc = full[:, :n_bytes]
            chunk = max(1, _MAX_STRIPE_BYTES // max(1, length * n_bytes))
            for gstart in range(0, len(pos_arr), chunk):
                stripes = bits[ids[gstart : gstart + chunk]]
                acc[gstart : gstart + chunk] = np.bitwise_and.reduce(
                    stripes, axis=1
                )
            if masked:
                acc[:, 0] &= first_mask
                acc[:, -1] &= last_mask
            out[pos_arr] = _popcount_rows(full)
        return out


class TransactionDataset:
    """An immutable sequence of transactions over ``n_items`` items."""

    def __init__(
        self,
        transactions: Iterable[Iterable[int]],
        n_items: int,
    ) -> None:
        if n_items <= 0:
            raise InvalidParameterError("n_items must be positive")
        cleaned: list[tuple[int, ...]] = []
        for t in transactions:
            items = tuple(sorted(set(int(i) for i in t)))
            if items and (items[0] < 0 or items[-1] >= n_items):
                raise InvalidParameterError(
                    f"transaction {items} has items outside [0, {n_items})"
                )
            cleaned.append(items)
        self._transactions = cleaned
        self.n_items = n_items
        self._index: BitmapIndex | None = None

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._transactions)

    @property
    def n_rows(self) -> int:
        return len(self._transactions)

    @property
    def transactions(self) -> list[tuple[int, ...]]:
        return self._transactions

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self._transactions)

    @property
    def index(self) -> BitmapIndex:
        """The (lazily built, cached) bitmap index over this dataset."""
        if self._index is None:
            self._index = BitmapIndex(self._transactions, self.n_items)
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
        if not self._transactions:
            return 0.0
        return self.support_count(items) / len(self._transactions)

    # ------------------------------------------------------------------ #
    # Dataset algebra
    # ------------------------------------------------------------------ #

    def take(self, indices: np.ndarray) -> "TransactionDataset":
        """A new dataset with the transactions at ``indices`` (repeats OK)."""
        txns = [self._transactions[int(i)] for i in np.asarray(indices)]
        return TransactionDataset(txns, self.n_items)

    def concat(self, other: "TransactionDataset") -> "TransactionDataset":
        """Append another dataset over the same item universe."""
        if other.n_items != self.n_items:
            raise InvalidParameterError(
                "cannot concatenate datasets with different item universes"
            )
        return TransactionDataset(
            self._transactions + other._transactions, self.n_items
        )

    def average_length(self) -> float:
        """Mean transaction length (diagnostics for the generator tests)."""
        if not self._transactions:
            return 0.0
        return sum(len(t) for t in self._transactions) / len(self._transactions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TransactionDataset(n={len(self)}, items={self.n_items}, "
            f"avg_len={self.average_length():.2f})"
        )
