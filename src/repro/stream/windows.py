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

Chunks are datasets of their kind -- a
:class:`~repro.data.transactions.TransactionDataset` or a
:class:`~repro.data.tabular.TabularDataset` view, the one row container
each kind has -- so the ring, the row counts and a window's
:meth:`Window.to_dataset` are kind-agnostic. A monitor whose
configuration never reads a chunk's rows again keeps a sketch-only ring
(each entry's chunk is ``None``, and its windows carry no chunks). The
sketcher is the only kind-specific piece. Two implementations cover the
paper's model classes: :class:`TransactionChunkSketcher` counts an itemset collection
over transaction chunks (lits-models), and
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
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Protocol, runtime_checkable

from repro._typing import DatasetLike, ExecutorLike, StructureOrPlan

from repro.data.transactions import TransactionDataset
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

POLICIES = ("sliding", "tumbling")


@runtime_checkable
class ChunkSketcher(Protocol):
    """What the window manager needs to know about a dataset kind.

    A sketcher turns arriving data into dataset chunks and chunks into
    mergeable sketches; everything else -- ring buffers, row counts,
    add/subtract advances, emission -- is kind-agnostic.
    Sketches returned by :meth:`sketch` / :meth:`empty` must support
    ``+``/``-`` and expose ``counts`` and ``n_rows``.
    """

    #: short kind tag (``"transactions"`` or ``"tabular"``)
    kind: str

    def normalize(self, chunk: Any) -> Any:
        """The incoming chunk as a dataset (stored in the ring buffer)."""
        ...

    def sketch(self, chunk: Any) -> Any:
        """Sketch one normalised chunk (the only scan it will ever get)."""
        ...

    def empty(self) -> Any:
        """The additive identity sketch."""
        ...


class TransactionChunkSketcher:
    """Sketch transaction chunks against a fixed itemset collection.

    Each chunk is a :class:`TransactionDataset`, bit-indexed once and
    counted over contiguous row ranges of that one index, one per worker
    of the sketcher's executor
    (:func:`~repro.stream.executor.sharded_index_sketch`).
    """

    kind = "transactions"

    def __init__(
        self,
        itemsets: Iterable[Iterable[int]],
        n_items: int,
        executor: ExecutorLike = "serial",
    ) -> None:
        self.itemsets = canonical_itemsets(itemsets)
        self.n_items = n_items
        self.executor = get_executor(executor)

    def close(self) -> None:
        """Release pooled executor workers (no-op for the serial backend).

        A sketcher built from a backend *name* owns its pool; one handed
        an executor instance shares its owner's, and that owner should
        close instead (``shutdown`` is idempotent either way).
        """
        release(self.executor)

    def normalize(self, chunk: Any) -> TransactionDataset:
        # a chunk re-fed after a reference reset keeps its index
        return TransactionDataset.of(chunk, self.n_items)

    def sketch(self, chunk: TransactionDataset) -> SupportSketch:
        return sharded_index_sketch(chunk.index, self.itemsets, self.executor)

    def empty(self) -> SupportSketch:
        return SupportSketch.empty(self.itemsets, self.n_items)


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
    ) -> None:
        self.plan = as_partition_plan(structure_or_plan)
        self.executor = get_executor(executor)

    def close(self) -> None:
        """Release pooled executor workers (no-op for the serial backend).

        A sketcher built from a backend *name* owns its pool; one handed
        an executor instance shares its owner's, and that owner should
        close instead (``shutdown`` is idempotent either way).
        """
        release(self.executor)

    @staticmethod
    def normalize(chunk: DatasetLike) -> DatasetLike:
        if not hasattr(chunk, "X") or not hasattr(chunk, "space"):
            raise InvalidParameterError(
                "tabular chunks must be TabularDataset-like objects, got "
                f"{type(chunk).__name__}"
            )
        return chunk

    def sketch(self, chunk: DatasetLike) -> PartitionSketch:
        return sharded_partition_sketch(chunk, self.plan, self.executor)

    def empty(self) -> PartitionSketch:
        return PartitionSketch.empty(self.plan)


@dataclass(frozen=True)
class Window:
    """One emitted window: its sketch plus the chunks it covers.

    The chunks are the ring's datasets; joining them is deferred
    (:meth:`to_dataset`) so the cheap monitoring mode (which only reads
    the sketch) never pays O(window) work per advance. A window of a
    sketch-only ring has no chunks: its sketch is all it keeps.
    """

    index: int  #: ordinal of this window (0-based, per manager)
    start: int  #: row offset of the window's first row
    stop: int  #: row offset one past the window's last row
    sketch: SupportSketch | PartitionSketch
    chunks: tuple[Any, ...]

    def __len__(self) -> int:
        return self.stop - self.start

    def to_dataset(self) -> DatasetLike:
        """The window's rows as one dataset, oldest first (for e.g. the
        bootstrap, which needs to resample actual rows); a one-chunk
        window is its chunk."""
        if not self.chunks:
            raise InvalidParameterError(
                f"window {self.index} keeps its sketch only: its monitor's "
                "configuration never reads the window's rows"
            )
        dataset: DatasetLike = type(self.chunks[0]).concat_many(self.chunks)
        return dataset


class WindowManager:
    """Maintain per-window sketches over a chunked stream.

    Parameters
    ----------
    itemsets:
        Either the fixed itemset collection every window is measured
        over (the transaction form; ``n_items`` is then required), or
        any :class:`ChunkSketcher` -- e.g. a
        :class:`PartitionChunkSketcher` for tabular streams -- in which
        case ``n_items`` and ``executor`` are ignored (the sketcher owns
        them).
    n_items:
        Item universe size (transaction form only).
    window_chunks:
        Window length in chunks (``W``).
    policy:
        ``"sliding"`` (step of one chunk, overlap ``W - 1``) or
        ``"tumbling"`` (disjoint windows).
    executor:
        Forwarded to the transaction sketcher: each chunk is counted as
        map-merged shards, one per worker of the chosen backend.

    Notes
    -----
    ``rows_sketched`` counts the rows actually scanned; after any number
    of advances it equals the total rows pushed -- the no-rescan
    guarantee the streaming benches pin against rebuild-per-window
    baselines for both dataset kinds.
    """

    #: whether the ring keeps each chunk's rows; a subclass for a
    #: consumer that never reads them again holds ``None`` in their place
    _keeps_rows = True

    def __init__(
        self,
        itemsets: Any,
        n_items: int | None = None,
        window_chunks: int | None = None,
        policy: str = "sliding",
        executor: ExecutorLike = "serial",
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
            sketcher = TransactionChunkSketcher(itemsets, n_items, executor)
        if window_chunks is None or window_chunks < 1:
            raise InvalidParameterError("window_chunks must be >= 1")
        if policy not in POLICIES:
            raise InvalidParameterError(
                f"policy must be one of {POLICIES}, got {policy!r}"
            )
        self.sketcher: ChunkSketcher = sketcher
        self.window_chunks = window_chunks
        self.policy = policy
        # Always-on local sink: the single source of truth for the
        # manager's scan accounting (rows_sketched / windows_emitted are
        # views of these counters; _count forwards to the ambient
        # registry so `--metrics` runs see them too).
        self._metrics = MetricsRegistry()
        self._row_offset = 0  # row id of the next arriving row
        self._chunks: deque[tuple[Any, Any]] = deque()
        self._current = sketcher.empty()

    @property
    def rows_sketched(self) -> int:
        """Rows actually scanned, served from the obs counter.

        After any number of advances it equals the total rows pushed --
        the no-rescan guarantee the streaming benches pin -- plus the
        rows :meth:`resketch` scanned again.
        """
        return self._metrics.counter("stream.windows.rows_sketched")

    @property
    def windows_emitted(self) -> int:
        """Windows emitted so far, served from the obs counter."""
        return self._metrics.counter("stream.windows.emitted")

    def _count(self, name: str, n: int) -> None:
        """Add ``n`` to a scan counter, here and in the ambient registry."""
        if n:
            self._metrics.inc(name, n)
            metrics().inc(name, n)

    @property
    def current_sketch(self) -> Any:
        """The running sketch over the chunks currently buffered."""
        return self._current

    @property
    def row_offset(self) -> int:
        """Row id of the next arriving row (rows pushed so far)."""
        return self._row_offset

    @property
    def ring(self) -> tuple[tuple[Any, Any], ...]:
        """The ring buffer's ``(sketch, chunk)`` pairs, oldest first
        (each chunk ``None`` in a sketch-only ring)."""
        return tuple(self._chunks)

    @property
    def buffered_chunks(self) -> tuple[Any, ...]:
        """The normalised chunks currently in the ring, oldest first
        (none in a sketch-only ring)."""
        if not self._keeps_rows:
            return ()
        return tuple(chunk for _, chunk in self._chunks)

    def _adopt(self, entries: list[tuple[Any, Any]]) -> None:
        """Make ``entries`` the ring and re-sum the running sketch."""
        current = self.sketcher.empty()
        for sketch, _ in entries:
            current = current + sketch
        self._chunks = deque(entries)
        self._current = current

    def resketch(self, sketcher: ChunkSketcher) -> None:
        """Re-sketch the ring in place for a new structure (a reference
        reset): nothing is emitted, the counters carry on, and the
        re-scanned rows count towards ``rows_sketched``."""
        self.sketcher = sketcher
        chunks = self.buffered_chunks
        self._adopt([(sketcher.sketch(chunk), chunk) for chunk in chunks])
        n = sum(len(chunk) for chunk in chunks)
        self._count("stream.windows.rows_sketched", n)

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
        self._adopt(list(entries))
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
        n = len(chunk)
        self._count("stream.windows.rows_sketched", n)
        self._row_offset += n
        self._chunks.append((sketch, chunk if self._keeps_rows else None))
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
            chunks=self.buffered_chunks,
        )
        self._count("stream.windows.emitted", 1)
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
