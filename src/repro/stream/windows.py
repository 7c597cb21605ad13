"""Window maintenance over a chunked stream (transactions or tabular).

A :class:`WindowManager` consumes fixed-size chunks and maintains the
measure counts of a fixed structural component per *window* of ``W``
chunks, never rescanning a surviving row:

* each arriving chunk is sketched once by a :class:`ChunkSketcher`
  (optionally sharded over an executor);
* **sliding** windows keep a ring buffer of the last ``W`` chunk
  sketches; the window sketch advances by ``+ entering - leaving`` --
  two O(regions) vector ops per advance, independent of window size;
* **tumbling** windows accumulate ``W`` chunk sketches, emit, and reset
  (:meth:`WindowManager.flush` emits a final partial window).

The sketcher is the only kind-specific piece. Two implementations cover
the paper's model classes: :class:`TransactionChunkSketcher` counts an
itemset collection over transaction chunks (lits-models), and
:class:`PartitionChunkSketcher` histograms a partition structure over
tabular chunks (dt-/cluster-models). Both sketch kinds merge with ``+``
and retire with ``-``, so the manager's advance logic is identical.

This is the delta-maintenance discipline the change-detection literature
asks for (compute over what changed, not from scratch), applied to the
paper's measure components: the emitted window sketch *is* the measure
vector of a structural component over that window.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    TYPE_CHECKING,
    Any,
    Iterable,
    Iterator,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro._typing import DatasetLike, ExecutorLike, StructureOrPlan

from repro.data.transactions import BitmapIndex, TransactionDataset
from repro.errors import InvalidParameterError
from repro.obs import MetricsRegistry, metrics
from repro.stream.executor import (
    get_executor,
    release,
    sharded_index_sketch,
    sharded_partition_sketch,
)
from repro.stream.sketch import (
    PartitionSketch,
    SupportSketch,
    as_partition_plan,
    canonical_itemsets,
)

if TYPE_CHECKING:
    from repro.data.tabular import TabularDataset

POLICIES = ("sliding", "tumbling")


@runtime_checkable
class ChunkSketcher(Protocol):
    """What the window manager needs to know about a dataset kind.

    A sketcher turns raw chunks into mergeable sketches; everything else
    -- ring buffers, add/subtract advances, emission -- is kind-agnostic.
    Sketches returned by :meth:`sketch` / :meth:`empty` must support
    ``+``/``-`` and expose ``counts`` and ``n_rows``.
    """

    #: short kind tag (``"transactions"`` or ``"tabular"``)
    kind: str

    def normalize(self, chunk: Any) -> Any:
        """Canonicalise an incoming chunk (stored in the ring buffer)."""
        ...

    def sketch(self, chunk: Any) -> Any:
        """Sketch one normalised chunk (the only scan it will ever get)."""
        ...

    def empty(self) -> Any:
        """The additive identity sketch."""
        ...

    def chunk_len(self, chunk: Any) -> int:
        """Number of rows in a normalised chunk."""
        ...

    def concat(self, chunks: Iterable[Any]) -> Any:
        """Materialise normalised chunks as one immutable dataset."""
        ...


class TransactionChunk(tuple[tuple[int, ...], ...]):
    """A normalised transaction chunk that carries its bitmap index.

    The index is built on first use -- the sketcher's count -- and then
    reused by every later reader of the chunk's bits, such as the online
    monitor's bootstrap membership block. A chunk is therefore
    bit-indexed once however many consumers read it, and the index
    lives in the window ring with its chunk and retires with it.
    """

    n_items: int

    def __new__(
        cls, rows: Iterable[Iterable[int]], n_items: int
    ) -> "TransactionChunk":
        self = super().__new__(cls, (tuple(t) for t in rows))
        self.n_items = n_items
        return self

    def __reduce__(self) -> tuple[Any, ...]:
        # rows and universe only: a copy rebuilds its index on demand
        return (TransactionChunk, (tuple(self), self.n_items))

    @cached_property
    def index(self) -> BitmapIndex:
        """The chunk's bitmap index (built once, on first access)."""
        return BitmapIndex(self, self.n_items)


class TransactionChunkSketcher:
    """Sketch transaction chunks against a fixed itemset collection.

    Each chunk is bit-indexed once (:class:`TransactionChunk`) and
    counted over contiguous row ranges of that one index on the
    sketcher's executor (:func:`~repro.stream.executor.sharded_index_sketch`).
    """

    kind = "transactions"

    def __init__(
        self,
        itemsets: Iterable[Iterable[int]],
        n_items: int,
        executor: ExecutorLike = "serial",
        n_shards: int = 1,
    ) -> None:
        self.itemsets = canonical_itemsets(itemsets)
        self.n_items = n_items
        self.executor = get_executor(executor)
        self.n_shards = n_shards

    def close(self) -> None:
        """Release pooled executor workers (no-op for the serial backend).

        A sketcher built from a backend *name* owns its pool; one handed
        an executor instance shares its owner's, and that owner should
        close instead (``shutdown`` is idempotent either way).
        """
        release(self.executor)

    def normalize(self, chunk: Sequence[Iterable[int]]) -> TransactionChunk:
        if isinstance(chunk, TransactionChunk) and chunk.n_items == self.n_items:
            return chunk  # re-fed after a reference reset: keep its index
        return TransactionChunk(chunk, self.n_items)

    def sketch(self, chunk: TransactionChunk) -> SupportSketch:
        return sharded_index_sketch(
            chunk.index,
            self.itemsets,
            n_shards=self.n_shards,
            executor=self.executor,
        )

    def empty(self) -> SupportSketch:
        return SupportSketch.empty(self.itemsets, self.n_items)

    def chunk_len(self, chunk: Sequence[Any]) -> int:
        return len(chunk)

    def concat(self, chunks: Iterable[Any]) -> TransactionDataset:
        return TransactionDataset(
            tuple(t for chunk in chunks for t in chunk), self.n_items
        )


class PartitionChunkSketcher:
    """Sketch tabular chunks against a fixed partition structure.

    Chunks are :class:`~repro.data.tabular.TabularDataset` objects (or
    anything with the same row interface); each is histogrammed once
    through the structure's precompiled counting plan.
    """

    kind = "tabular"

    def __init__(
        self,
        structure_or_plan: StructureOrPlan,
        executor: ExecutorLike = "serial",
        n_shards: int = 1,
    ) -> None:
        self.plan = as_partition_plan(structure_or_plan)
        self.executor = get_executor(executor)
        self.n_shards = n_shards

    def close(self) -> None:
        """Release pooled executor workers (no-op for the serial backend).

        A sketcher built from a backend *name* owns its pool; one handed
        an executor instance shares its owner's, and that owner should
        close instead (``shutdown`` is idempotent either way).
        """
        release(self.executor)

    def normalize(self, chunk: DatasetLike) -> DatasetLike:
        if not hasattr(chunk, "X") or not hasattr(chunk, "space"):
            raise InvalidParameterError(
                "tabular chunks must be TabularDataset-like objects, got "
                f"{type(chunk).__name__}"
            )
        return chunk

    def sketch(self, chunk: DatasetLike) -> PartitionSketch:
        return sharded_partition_sketch(
            chunk,
            self.plan,
            n_shards=self.n_shards,
            executor=self.executor,
        )

    def empty(self) -> PartitionSketch:
        return PartitionSketch.empty(self.plan)

    def chunk_len(self, chunk: DatasetLike) -> int:
        return len(chunk)

    def concat(self, chunks: Iterable[DatasetLike]) -> "TabularDataset":
        from repro.data.tabular import TabularDataset

        return TabularDataset.concat_many(list(chunks))


@dataclass(frozen=True)
class Window:
    """One emitted window: its sketch plus the chunks it covers.

    The chunks are held in the manager's normalised form; flattening or
    concatenating them is deferred (:attr:`transactions`,
    :meth:`to_dataset`) so the cheap monitoring mode (which only reads
    the sketch) never pays O(window) work per advance.
    """

    index: int  #: ordinal of this window (0-based, per manager)
    start: int  #: row offset of the window's first row
    stop: int  #: row offset one past the window's last row
    sketch: SupportSketch | PartitionSketch
    chunks: tuple[Any, ...]
    sketcher: ChunkSketcher | None = field(default=None, compare=False)

    def __len__(self) -> int:
        return self.stop - self.start

    @cached_property
    def transactions(self) -> tuple[tuple[int, ...], ...]:
        """A transaction window's rows, oldest first (flattened lazily).

        Only meaningful for transaction windows; tabular windows
        materialise through :meth:`to_dataset`.
        """
        return tuple(t for chunk in self.chunks for t in chunk)

    def to_dataset(self) -> DatasetLike:
        """Materialise the window as an immutable dataset (for e.g. the
        bootstrap, which needs to resample actual rows)."""
        if self.sketcher is not None:
            return self.sketcher.concat(self.chunks)
        return TransactionDataset(self.transactions, self.sketch.n_items)


class WindowManager:
    """Maintain per-window sketches over a chunked stream.

    Parameters
    ----------
    itemsets:
        Either the fixed itemset collection every window is measured
        over (the transaction form; ``n_items`` is then required), or
        any :class:`ChunkSketcher` -- e.g. a
        :class:`PartitionChunkSketcher` for tabular streams -- in which
        case ``n_items``, ``executor`` and ``n_shards`` are ignored
        (the sketcher owns them).
    n_items:
        Item universe size (transaction form only).
    window_chunks:
        Window length in chunks (``W``).
    policy:
        ``"sliding"`` (step of one chunk, overlap ``W - 1``) or
        ``"tumbling"`` (disjoint windows).
    executor, n_shards:
        Forwarded to the transaction sketcher: each chunk is counted as
        ``n_shards`` map-merged shards on the chosen backend.

    Notes
    -----
    ``rows_sketched`` counts the rows actually scanned; after any number
    of advances it equals the total rows pushed -- the no-rescan
    guarantee the streaming benches pin against rebuild-per-window
    baselines for both dataset kinds.
    """

    def __init__(
        self,
        itemsets: Any,
        n_items: int | None = None,
        window_chunks: int | None = None,
        policy: str = "sliding",
        executor: ExecutorLike = "serial",
        n_shards: int = 1,
    ) -> None:
        if isinstance(itemsets, ChunkSketcher) and not isinstance(
            itemsets, (list, tuple, set, frozenset)
        ):
            sketcher = itemsets
            if n_items is not None:
                raise InvalidParameterError(
                    "n_items only applies to the itemset (transaction) form"
                )
        else:
            if n_items is None:
                raise InvalidParameterError(
                    "the itemset form needs the n_items universe size"
                )
            sketcher = TransactionChunkSketcher(
                itemsets, n_items, executor=executor, n_shards=n_shards
            )
        if window_chunks is None or window_chunks < 1:
            raise InvalidParameterError("window_chunks must be >= 1")
        if policy not in POLICIES:
            raise InvalidParameterError(
                f"policy must be one of {POLICIES}, got {policy!r}"
            )
        self.sketcher: ChunkSketcher = sketcher
        self.itemsets = getattr(sketcher, "itemsets", None)
        self.n_items = getattr(sketcher, "n_items", None)
        self.window_chunks = window_chunks
        self.policy = policy
        # Always-on local sink: the single source of truth for the
        # manager's scan accounting (rows_sketched / windows_emitted are
        # views of these counters; writes forward to the ambient
        # registry so `--metrics` runs see them too).
        self._metrics = MetricsRegistry()
        self._row_offset = 0  # row id of the next arriving row
        self._chunks: deque[tuple[Any, Any]] = deque()
        self._current = sketcher.empty()

    @property
    def rows_sketched(self) -> int:
        """Rows actually scanned, served from the obs counter.

        After any number of advances it equals the total rows pushed --
        the no-rescan guarantee the streaming benches pin (the online
        monitor adds the re-fed buffered rows after a reference reset).
        """
        return self._metrics.counter("stream.windows.rows_sketched")

    @rows_sketched.setter
    def rows_sketched(self, value: int) -> None:
        delta = value - self._metrics.counter("stream.windows.rows_sketched")
        if delta:
            self._metrics.inc("stream.windows.rows_sketched", delta)
            metrics().inc("stream.windows.rows_sketched", delta)

    @property
    def windows_emitted(self) -> int:
        """Windows emitted so far, served from the obs counter."""
        return self._metrics.counter("stream.windows.emitted")

    @windows_emitted.setter
    def windows_emitted(self, value: int) -> None:
        delta = value - self._metrics.counter("stream.windows.emitted")
        if delta:
            self._metrics.inc("stream.windows.emitted", delta)
            metrics().inc("stream.windows.emitted", delta)

    @property
    def current_sketch(self) -> Any:
        """The running sketch over the chunks currently buffered."""
        return self._current

    @property
    def buffered_chunks(self) -> tuple[Any, ...]:
        """The normalised chunks currently in the ring buffer, oldest
        first (the online monitor re-feeds these after a reference
        reset, when the tracked structure changes)."""
        return tuple(chunk for _, chunk in self._chunks)

    def restore(
        self,
        entries: Iterable[tuple[Any, Any]],
        *,
        row_offset: int,
        windows_emitted: int,
        rows_sketched: int,
    ) -> None:
        """Adopt a checkpointed ring: ``(sketch, chunk)`` pairs + counters.

        Used by :mod:`repro.resilience.checkpoint` on a *freshly built*
        manager: the ring, the running sum, and the lifetime counters
        are set to the persisted values so the next :meth:`push` behaves
        bit-identically to the manager that wrote the checkpoint. The
        counters are written to the manager's local sink only -- they
        are lifetime monitor state, not work done by this process, so
        the ambient registry is deliberately not forwarded to.
        """
        entries = list(entries)
        current = self.sketcher.empty()
        for sketch, _ in entries:
            current = current + sketch
        self._chunks = deque(entries)
        self._current = current
        self._row_offset = row_offset
        self._metrics.inc(
            "stream.windows.emitted", windows_emitted - self.windows_emitted
        )
        self._metrics.inc(
            "stream.windows.rows_sketched", rows_sketched - self.rows_sketched
        )

    def push(self, chunk: Any) -> Window | None:
        """Consume one chunk; return the completed :class:`Window`, if any.

        The chunk is sketched once (the only scan it will ever get) and
        folded into the running window sum. Under the sliding policy a
        window is emitted on every push once ``window_chunks`` chunks are
        buffered; under the tumbling policy every ``window_chunks``-th
        push emits and the buffer resets.
        """
        chunk = self.sketcher.normalize(chunk)
        sketch = self.sketcher.sketch(chunk)
        n = self.sketcher.chunk_len(chunk)
        self.rows_sketched += n
        self._row_offset += n
        self._chunks.append((sketch, chunk))
        self._current = self._current + sketch

        if self.policy == "sliding" and len(self._chunks) > self.window_chunks:
            leaving, _ = self._chunks.popleft()
            self._current = self._current - leaving
        if len(self._chunks) < self.window_chunks:
            return None
        return self._emit()

    def _emit(self) -> Window:
        """Emit the buffered chunks as a window; tumbling resets after."""
        window = Window(
            index=self.windows_emitted,
            start=self._row_offset - self._current.n_rows,
            stop=self._row_offset,
            sketch=self._current,
            chunks=tuple(chunk for _, chunk in self._chunks),
            sketcher=self.sketcher,
        )
        self.windows_emitted += 1
        if self.policy == "tumbling":
            self._chunks.clear()
            self._current = self.sketcher.empty()
        return window

    def push_many(self, chunks: Iterable[Any]) -> Iterator[Window]:
        """Push a stream of chunks, yielding every completed window."""
        for chunk in chunks:
            window = self.push(chunk)
            if window is not None:
                yield window

    def flush(self) -> Window | None:
        """Emit a final partial window, if rows would otherwise go dark.

        * **tumbling**: the buffered chunks short of a full window are
          emitted as a partial window (and the buffer resets).
        * **sliding**: once any window has been emitted, the ring always
          ends inside the latest emitted window, so there is never an
          unreported tail; but a stream that ended before the very
          first window filled would otherwise report *nothing*, so that
          partial ring is emitted.

        Returns ``None`` when nothing is pending under those rules.
        """
        if not self._chunks:
            return None
        if self.policy == "tumbling" or self.windows_emitted == 0:
            return self._emit()
        return None
