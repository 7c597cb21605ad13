"""Chunked stream sources and the appendable logs (both dataset kinds).

Streaming sources arrive as *chunks* -- batches of rows in time order,
each a dataset of its kind: a canonical
:class:`~repro.data.transactions.TransactionDataset` or a view-backed
:class:`~repro.data.tabular.TabularDataset`. :func:`iter_chunks` slices
any transaction iterable into fixed-size chunks without materialising
the whole stream, and :func:`stream_transaction_chunks` re-cuts the
parsed blocks of the flat text format of :mod:`repro.data.io` (the
first ``# n_items=`` line must come before any data), so the CLI can
monitor a file far larger than memory-comfortable in one go.
:func:`iter_tabular_chunks` / :func:`stream_tabular_chunks` are the
tabular counterparts, driving the dt-/cluster-model pipeline.

Two growable logs mirror the immutable datasets. :class:`TransactionLog`
maintains the incremental :class:`~repro.data.transactions.BitmapIndex`
as rows are appended, so support queries -- and therefore Apriori via
:func:`repro.mining.apriori.apriori` -- run over the *live* log without
ever rebuilding the index; a window advance appends the entering rows
in amortized O(entering rows). :class:`TabularLog` grows ``X``/``y``
buffers in place with capacity doubling, so appending a chunk is
amortized O(new rows) too, and the live log quacks like a
:class:`~repro.data.tabular.TabularDataset` -- tree building, grid
clustering, and partition counting all consume it directly (the
assigner memo re-scans it only when it has grown).
"""

from __future__ import annotations

from itertools import islice
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro._typing import DatasetLike
from repro.core.attribute import AttributeSpace
from repro.core.predicate import Conjunction
from repro.data.io import read_transaction_blocks
from repro.data.storage import StripeHandle, StripeStore, make_store
from repro.data.tabular import TabularDataset
from repro.data.transactions import (
    BitmapIndex,
    TransactionDataset,
    csr_rows,
    csr_take,
)
from repro.errors import InvalidParameterError, SchemaError

#: Stripe names of a transaction log's out-of-core row storage: CSR-style
#: ragged rows -- ``txn_offsets[i]`` is where row ``i``'s items start in
#: ``txn_items`` and ``txn_offsets[n]`` is the total item count.
_TXN_OFFSETS = "txn_offsets"
_TXN_ITEMS = "txn_items"


def iter_chunks(
    transactions: Iterable[Iterable[int]], chunk_size: int
) -> Iterator[list[tuple[int, ...]]]:
    """Yield consecutive chunks of ``chunk_size`` transactions.

    The final chunk may be shorter. Rows pass through as plain tuples;
    canonicalisation (sort/dedup) is left to the consumer that needs it
    -- the bitmap scatter is an OR and does not.
    """
    if chunk_size < 1:
        raise InvalidParameterError("chunk_size must be >= 1")
    source = iter(transactions)
    while chunk := [tuple(t) for t in islice(source, chunk_size)]:
        yield chunk


def stream_transaction_chunks(
    path: str | Path, chunk_size: int
) -> tuple[int, Iterator[TransactionDataset]]:
    """Open a transactions file as ``(n_items, chunk iterator)``.

    The file uses the :func:`repro.data.io.save_transactions` format and
    is read in blocks of lines (:func:`repro.data.io.read_transaction_blocks`),
    re-cut into :class:`~repro.data.transactions.TransactionDataset`
    chunks, each parsed, range-checked and canonical by the time
    ``next()`` returns it.
    """
    n_items, blocks = read_transaction_blocks(path)
    return n_items, _rechunk(blocks, chunk_size)


def _rechunk(
    blocks: Iterator[TransactionDataset], chunk_size: int
) -> Iterator[TransactionDataset]:
    if chunk_size < 1:
        raise InvalidParameterError("chunk_size must be >= 1")
    buffer = ChunkBuffer(lambda block: block)
    for block in blocks:
        buffer.extend(block)
        while len(buffer) >= chunk_size:
            yield buffer.pop(chunk_size)
    if len(buffer):
        yield buffer.pop(len(buffer))


class ChunkBuffer:
    """Row buffer of a stream: queued chunks, split on row boundaries.

    ``normalize`` makes arriving data a dataset chunk, which splits with
    ``slice_rows`` and joins with its class's ``concat_many``. A queued
    chunk that is exactly the rows asked for is handed on whole, so
    buffering copies a row at most once.
    """

    def __init__(self, normalize: Callable[[Any], Any]) -> None:
        self._normalize = normalize
        self._chunks: list[Any] = []
        self._n = 0

    def extend(self, data: Any) -> None:
        chunk = self._normalize(data)
        if len(chunk):
            self._chunks.append(chunk)
            self._n += len(chunk)

    def __len__(self) -> int:
        return self._n

    def pop(self, k: int) -> Any:
        taken: list[Any] = []
        need = k
        while need > 0:
            head = self._chunks[0]
            if len(head) <= need:
                taken.append(self._chunks.pop(0))
                need -= len(head)
            else:
                taken.append(head.slice_rows(0, need))
                self._chunks[0] = head.slice_rows(need, len(head))
                need = 0
        self._n -= k
        return type(taken[0]).concat_many(taken)

    def rows(self) -> Any:
        """Every buffered row, oldest first, as one chunk (nothing popped)."""
        return type(self._chunks[0]).concat_many(self._chunks)


def iter_tabular_chunks(
    dataset: DatasetLike, chunk_size: int
) -> Iterator[TabularDataset]:
    """Yield consecutive ``chunk_size``-row slices of a tabular dataset.

    Slices are view-backed (:meth:`TabularDataset.slice_rows`), so
    chunking never copies the table. The final chunk may be shorter.
    """
    if chunk_size < 1:
        raise InvalidParameterError("chunk_size must be >= 1")
    for start in range(0, len(dataset), chunk_size):
        yield dataset.slice_rows(start, min(start + chunk_size, len(dataset)))


def stream_tabular_chunks(
    path: str | Path, chunk_size: int
) -> tuple[AttributeSpace, Iterator[TabularDataset]]:
    """Open a tabular ``.npz`` file as ``(space, chunk iterator)``.

    The file uses the :func:`repro.data.io.save_tabular` format. The
    matrix is loaded once (``.npz`` is not line-streamable) but handed
    downstream as view-backed chunks, so the monitoring pipeline stays
    incremental -- every chunk is scanned exactly once.
    """
    from repro.data.io import load_tabular

    dataset = load_tabular(path)
    return dataset.space, iter_tabular_chunks(dataset, chunk_size)


class TransactionLog:
    """An appendable transaction store with a live incremental index.

    Unlike :class:`TransactionDataset` (immutable; index built once from
    the full data), a log grows: :meth:`append` adds a chunk of rows and
    extends the bitmap index in place via
    :meth:`BitmapIndex.append` -- amortized O(new rows), never a rebuild.
    The log quacks like a dataset (``len``, ``.index``, ``.n_items``,
    ``.take``), so the miners and the deviation engine consume it
    directly: ``apriori(log, ms)`` after every append re-mines over all
    rows seen so far without re-scattering a single old bit.

    Rows live as CSR offset/item column stripes next to the index's item
    bit-stripes, in one store: in RAM (``backend="ram"``, the default)
    or on disk (``backend="mmap"`` with a ``stripe_dir``), where appends
    commit rows and bits atomically -- so the log survives a process
    kill truncated to the last committed chunk (:meth:`open`) and a
    process fan ships the index as a zero-copy :meth:`handle` instead of
    pickled rows. Counts and mined models are bit-identical across
    backends (the backend-parametrized property suite pins it).
    """

    def __init__(
        self,
        n_items: int,
        transactions: Iterable[Iterable[int]] = (),
        *,
        backend: str = "ram",
        stripe_dir: str | Path | None = None,
        _store: StripeStore | None = None,
    ) -> None:
        if n_items <= 0:
            raise InvalidParameterError("n_items must be positive")
        self.n_items = n_items
        if _store is not None:
            # Reopen path (:meth:`open`): adopt the committed store.
            self._store = _store
            self._index = BitmapIndex.from_store(_store)
        else:
            if backend == "ram" and stripe_dir is not None:
                raise InvalidParameterError(
                    "stripe_dir only applies to the mmap backend"
                )
            store = make_store(backend, stripe_dir)
            self._store = store
            store.create(_TXN_OFFSETS, (1,), np.int64)
            store.create(_TXN_ITEMS, (0,), np.int32)
            store.meta["items_total"] = 0
            self._index = BitmapIndex([], n_items, store=store)
        if transactions:
            self.append(transactions)

    @classmethod
    def open(cls, stripe_dir: str | Path) -> "TransactionLog":
        """Reopen an mmap-backed log, truncated to its last commit.

        A kill mid-append leaves stripe bytes past the committed counts;
        adoption masks the index tail and the committed ``items_total``
        bounds the row stripes, so the reopened log equals one rebuilt
        from the committed rows (crash-consistency tests pin this).
        """
        from repro.data.storage import open_store

        store = open_store(stripe_dir)
        return cls(int(store.meta["n_items"]), _store=store)

    def handle(self) -> StripeHandle | None:
        """A shippable zero-copy reference (``None`` on the RAM backend)."""
        return self._index.handle()

    def append(self, transactions: Iterable[Iterable[int]]) -> "TransactionLog":
        """Append a chunk of transactions; returns ``self`` for chaining."""
        rows = TransactionDataset.of(transactions, self.n_items)
        # Row stripes first, then the index append -- whose commit
        # publishes both, so every commit point is a consistent log.
        self._append_row_stripes(*rows.csr)
        self._index.append(rows)
        return self

    def _append_row_stripes(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        store = self._store
        n_old = self._index.n_transactions
        total_old = int(store.meta["items_total"])
        offsets = store.stripe(_TXN_OFFSETS)
        need = n_old + indptr.shape[0]
        if need > offsets.shape[0]:
            offsets = store.resize(_TXN_OFFSETS, (max(need, 2 * offsets.shape[0]),))
        items = store.stripe(_TXN_ITEMS)
        need_items = total_old + indices.shape[0]
        if need_items > items.shape[0]:
            items = store.resize(
                _TXN_ITEMS, (max(need_items, 2 * items.shape[0], 8),)
            )
        offsets[n_old + 1 : need] = total_old + indptr[1:]
        items[total_old:need_items] = indices
        store.meta["items_total"] = need_items

    def _row_stripes(self) -> tuple[np.ndarray, np.ndarray]:
        """Views of the committed rows' offset and item stripes."""
        n = self._index.n_transactions
        offsets = self._store.stripe(_TXN_OFFSETS)[: n + 1]
        return offsets, self._store.stripe(_TXN_ITEMS)[: int(offsets[n])]

    @property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """A copy of the committed rows as CSR ``(indptr, indices)`` arrays."""
        offsets, items = self._row_stripes()
        return offsets.copy(), items.astype(np.int64)

    # ------------------------------------------------------------------ #
    # Dataset protocol
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._index.n_transactions

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.transactions)

    @property
    def transactions(self) -> list[tuple[int, ...]]:
        """The rows as tuples (materialises, O(rows))."""
        return csr_rows(*self._row_stripes())

    @property
    def index(self) -> BitmapIndex:
        """The live incremental index (kept current by :meth:`append`)."""
        return self._index

    def support_count(self, items: Iterable[int]) -> int:
        return self._index.support_count(items)

    def take(self, indices: np.ndarray | Sequence[int]) -> TransactionDataset:
        """An immutable snapshot of the rows at ``indices``."""
        return TransactionDataset._canonical(
            *csr_take(*self._row_stripes(), np.asarray(indices)), self.n_items
        )

    def to_dataset(self, *, share_index: bool = False) -> TransactionDataset:
        """An immutable snapshot of the whole log.

        With ``share_index=True`` the snapshot adopts the log's live
        index instead of lazily rebuilding its own -- on the mmap
        backend that keeps every downstream count (deviation, bootstrap
        compilation, process fan-out) on the on-disk stripes with
        zero-copy shipping. Only safe while the log is not appended to
        afterwards; a later ``append`` would mutate the snapshot's
        counts.
        """
        dataset = TransactionDataset._canonical(*self.csr, self.n_items)
        if share_index:
            dataset._index = self._index
        return dataset

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TransactionLog(n={len(self)}, items={self.n_items})"


class TabularLog:
    """An appendable tabular store with grow-in-place ``X``/``y`` buffers.

    The tabular counterpart of :class:`TransactionLog`: rows append in
    amortized O(new rows) (capacity-doubling buffers, like
    ``BitmapIndex.append`` grows its stripes), and the live log exposes
    the :class:`~repro.data.tabular.TabularDataset` row interface --
    ``space``, ``X``, ``y``, ``columns``, ``predicate_mask`` -- so model
    builders and the partition counting plan consume it directly,
    re-inducing over *all* rows seen so far after every append without a
    single old row being copied.

    ``X``/``y``/column reads are views into the live buffers: valid
    until the next append that grows past capacity (take
    :meth:`to_dataset` for a stable snapshot).

    Storage backends mirror :class:`TransactionLog`: ``backend="ram"``
    (default) grows plain numpy buffers; ``backend="mmap"`` (with a
    ``stripe_dir``) grows on-disk column stripes in place -- a C-order
    leading-axis extend is a file append, so capacity doubling never
    copies a committed row -- and every append commits the new row
    count, making the log reopenable (:meth:`open`) after a kill.

    Parameters
    ----------
    space:
        The attribute space of every appended chunk. When it declares
        class labels, appended chunks must be labelled (and vice versa).
    capacity:
        Initial row capacity of the buffers.
    """

    def __init__(
        self,
        space: AttributeSpace,
        capacity: int = 1024,
        *,
        backend: str = "ram",
        stripe_dir: str | Path | None = None,
        _store: StripeStore | None = None,
    ) -> None:
        if capacity < 1:
            raise InvalidParameterError("capacity must be >= 1")
        self.space = space
        self._columns_cache: tuple[int, dict[str, np.ndarray]] | None = None
        self._y: np.ndarray | None
        if _store is not None:
            # Reopen path (:meth:`open`): adopt the committed store.
            self._store: StripeStore | None = _store
            self._n = int(_store.meta["n_rows"])
            self._X = _store.stripe("X")
            self._y = (
                _store.stripe("y") if space.class_labels else None
            )
            return
        if backend == "ram" and stripe_dir is not None:
            raise InvalidParameterError(
                "stripe_dir only applies to the mmap backend"
            )
        self._n = 0
        if backend == "ram":
            self._store = None
            self._X = np.empty(
                (capacity, space.n_attributes), dtype=np.float64
            )
            self._y = (
                np.empty(capacity, dtype=np.int64)
                if space.class_labels
                else None
            )
        else:
            store = make_store(backend, stripe_dir)
            self._store = store
            self._X = store.create(
                "X", (capacity, space.n_attributes), np.float64
            )
            self._y = (
                store.create("y", (capacity,), np.int64)
                if space.class_labels
                else None
            )
            store.meta["n_rows"] = 0
            store.meta["n_attributes"] = space.n_attributes
            store.meta["labelled"] = int(bool(space.class_labels))
            store.commit()

    @classmethod
    def open(cls, stripe_dir: str | Path, space: AttributeSpace) -> "TabularLog":
        """Reopen an mmap-backed log, truncated to its last commit.

        The attribute space is not serialised with the stripes, so the
        caller supplies it; its shape is validated against the committed
        meta. Rows beyond the committed count (a killed mid-append) sit
        past ``len(log)`` and are overwritten by the next append.
        """
        from repro.data.storage import open_store

        store = open_store(stripe_dir)
        if int(store.meta["n_attributes"]) != space.n_attributes or int(
            store.meta["labelled"]
        ) != int(bool(space.class_labels)):
            raise SchemaError(
                "attribute space does not match the stored stripes "
                f"(d={store.meta['n_attributes']}, "
                f"labelled={bool(store.meta['labelled'])})"
            )
        return cls(space, _store=store)

    def _ensure_capacity(self, extra: int) -> None:
        need = self._n + extra
        capacity = self._X.shape[0]
        if need <= capacity:
            return
        new_capacity = max(need, 2 * capacity)
        if self._store is not None:
            self._X = self._store.resize(
                "X", (new_capacity, self.space.n_attributes)
            )
            if self._y is not None:
                self._y = self._store.resize("y", (new_capacity,))
            return
        X = np.empty((new_capacity, self.space.n_attributes), dtype=np.float64)
        X[: self._n] = self._X[: self._n]
        self._X = X
        if self._y is not None:
            y = np.empty(new_capacity, dtype=np.int64)
            y[: self._n] = self._y[: self._n]
            self._y = y

    def append(
        self, rows: DatasetLike, y: np.ndarray | None = None
    ) -> "TabularLog":
        """Append a chunk of rows; returns ``self`` for chaining.

        ``rows`` is either a :class:`TabularDataset`-like chunk (its
        labels ride along; ``y`` must then be omitted) or a raw
        ``(m, d)`` array with ``y`` given separately when the space is
        labelled.
        """
        if hasattr(rows, "X") and hasattr(rows, "space"):
            if y is not None:
                raise InvalidParameterError(
                    "pass labels either inside the dataset chunk or as y, "
                    "not both"
                )
            if not self.space.compatible_with(rows.space):
                raise SchemaError(
                    "cannot append a chunk over a different attribute space"
                )
            X, y = rows.X, rows.y
        else:
            X = np.asarray(rows, dtype=np.float64)
            if X.ndim != 2 or X.shape[1] != self.space.n_attributes:
                raise SchemaError(
                    f"rows must be (m, {self.space.n_attributes}), got "
                    f"shape {X.shape}"
                )
        if self._y is not None and y is None:
            raise SchemaError("space declares class labels but y is missing")
        if self._y is None and y is not None:
            raise SchemaError("y given but space declares no class labels")
        m = X.shape[0]
        if y is not None and np.shape(y) != (m,):
            raise SchemaError(f"y has shape {np.shape(y)}, expected ({m},)")
        self._ensure_capacity(m)
        self._X[self._n : self._n + m] = X
        if self._y is not None:
            self._y[self._n : self._n + m] = np.asarray(y, dtype=np.int64)
        self._n += m
        if self._store is not None:
            # Rows first, row count last: every commit point is a
            # consistent log (the crash-consistency contract).
            self._store.meta["n_rows"] = self._n
            self._store.commit()
        return self

    # ------------------------------------------------------------------ #
    # Dataset protocol
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._n

    @property
    def n_rows(self) -> int:
        return self._n

    @property
    def X(self) -> np.ndarray:
        """View of the appended rows (live; do not mutate)."""
        return self._X[: self._n]

    @property
    def y(self) -> np.ndarray | None:
        """View of the appended labels, or ``None`` for unlabelled spaces."""
        return None if self._y is None else self._y[: self._n]

    @property
    def columns(self) -> Mapping[str, np.ndarray]:
        """Per-attribute column views over the rows appended so far.

        Cached until the next append (any append changes ``len`` and
        may reallocate the buffers, so the row count is the cache key).
        """
        cache = self._columns_cache
        if cache is None or cache[0] != self._n:
            X = self.X
            cache = (
                self._n,
                {name: X[:, i] for i, name in enumerate(self.space.names)},
            )
            self._columns_cache = cache
        return cache[1]

    def column(self, name: str) -> np.ndarray:
        columns = self.columns
        if name not in columns:
            raise SchemaError(f"unknown attribute {name!r}")
        return columns[name]

    def predicate_mask(self, predicate: Conjunction) -> np.ndarray:
        """Boolean membership mask of a conjunctive predicate."""
        return predicate.mask(self.columns, self._n)

    def slice_rows(self, start: int, stop: int) -> TabularDataset:
        """The contiguous row range ``[start, stop)`` as a dataset (views)."""
        stop = min(stop, self._n)
        y = self._y[start:stop] if self._y is not None else None
        return TabularDataset(self.space, self._X[start:stop], y)

    def take(self, indices: np.ndarray | Sequence[int]) -> TabularDataset:
        """An immutable snapshot of the rows at ``indices``."""
        indices = np.asarray(indices, dtype=np.int64)
        y = self._y[: self._n][indices] if self._y is not None else None
        return TabularDataset(self.space, self._X[: self._n][indices], y)

    def to_dataset(self) -> TabularDataset:
        """An immutable snapshot of the whole log (copies the buffers)."""
        y = None if self._y is None else self._y[: self._n].copy()
        return TabularDataset(self.space, self._X[: self._n].copy(), y)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        labelled = "labelled" if self._y is not None else "unlabelled"
        return (
            f"TabularLog(n={self._n}, d={self.space.n_attributes}, "
            f"{labelled})"
        )
