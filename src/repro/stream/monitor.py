"""Online change monitoring over a live stream (both dataset kinds).

:class:`OnlineChangeMonitor` is the streaming layer over
:class:`repro.core.monitor.ChangeMonitor`: rather than comparing
pre-materialised snapshot datasets (each a full rescan), it consumes raw
rows as they arrive and forms windows incrementally. Each piece of state
has one owner, and everything else reads it through public accessors:

* the inner :class:`~repro.core.monitor.ChangeMonitor` owns the
  reference (its read-only ``reference`` record), qualification, the
  drift decision, the history, the reference policy and the bootstrap
  generator;
* the :class:`~repro.stream.windows.WindowManager` owns the window
  ring, its running sketch and the scan counters;
* this class owns the row buffer, the warm-up rows until the first
  monitored chunk fits them, the lifetime row count, and one cache of
  what it derives from the current reference (its measure counts and,
  for transaction streams, the membership blocks), rebuilt whenever the
  inner monitor's reference is a different object.

Per emitted window, :func:`repro.core.deviation.deviation_from_counts`
assembles the deviation from the reference counts and the window
sketch, and :meth:`ChangeMonitor.observe_precomputed` qualifies it: the
full bootstrap (``n_boot > 0``) or the cheap ``delta_threshold``
cut-off (``n_boot == 0``). The monitor is generic over the dataset kind
through the :class:`~repro.stream.windows.ChunkSketcher` protocol:

* ``kind="transactions"`` -- a lits-model reference; windows are
  :class:`~repro.stream.sketch.SupportSketch` counts over its itemsets,
  and the reference counts are read off the model's stored supports (no
  scan; the paper's Section 7.1 observation);
* ``kind="tabular"`` -- a dt- or cluster-model reference; windows are
  :class:`~repro.stream.sketch.PartitionSketch` histograms over its
  counting plan, and the reference window is histogrammed once.

A fixed-structure bootstrap runs in count-space
(:mod:`repro.stats.resample_plan`) and never materialises window rows;
a window becomes a dataset only when a ``reset_on_drift`` promotion
adopts it (the ring is then re-sketched in place for the new structure,
the one case where a row is scanned twice) or ``refit_models=True``
re-mines per replicate. The ring keeps a chunk's rows only when one of
those, or the lits bootstrap's membership blocks, reads them
(:attr:`OnlineChangeMonitor.reads_chunk_rows`); otherwise a window is
its sketch alone, and a checkpoint persists no ring rows.
:meth:`OnlineChangeMonitor.flush` drains the trailing rows into a final
partial window so a finite stream never silently drops its tail.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Iterable, Iterator

import numpy as np

from repro._typing import DatasetLike, ExecutorLike, ModelBuilder
from repro.core.aggregate import SUM, AggregateFunction
from repro.core.deviation import deviation_from_counts
from repro.core.difference import ABSOLUTE, DifferenceFunction
from repro.core.model import PartitionStructure
from repro.core.monitor import ChangeMonitor, Observation, Reference
from repro.data.transactions import TransactionDataset
from repro.errors import InvalidParameterError
from repro.obs import LATENCY_EDGES, metrics
from repro.stats.resample_plan import (
    CountsResamplePlan,
    LitsResamplePlan,
    lits_membership,
)
from repro.stream.chunks import ChunkBuffer
from repro.stream.executor import get_executor, release
from repro.stream.windows import (
    ChunkSketcher,
    PartitionChunkSketcher,
    TransactionChunkSketcher,
    Window,
    WindowManager,
)

KINDS = ("transactions", "tabular")


class _SketchOnlyWindows(WindowManager):
    """A window manager whose ring drops each chunk's rows once sketched."""

    _keeps_rows = False


@dataclass
class _ReferenceCache:
    """What the monitor derives from one reference, dropped with it: the
    measure counts and the membership blocks of
    :meth:`OnlineChangeMonitor._window_resample_plan`."""

    reference: Reference
    counts: np.ndarray
    membership: np.ndarray | None = None
    chunks: dict[int, tuple[Any, np.ndarray]] = field(default_factory=dict)


class OnlineChangeMonitor:
    """Consume a row stream; yield drift-flagged observations.

    Parameters
    ----------
    model_builder:
        ``dataset -> model``. For ``kind="transactions"`` the model must
        have a lits structural component (the tracked itemsets come from
        the reference model's structure); for ``kind="tabular"`` it must
        have a partition structural component (a dt- or cluster-model).
    n_items:
        Item universe size of the stream (transactions kind only; must
        be omitted for tabular streams).
    window_size:
        Rows per monitored window (and per reference window).
    step:
        Rows between consecutive windows; defaults to ``window_size``
        (tumbling). Must divide ``window_size``; smaller steps give
        sliding windows maintained by sketch add/subtract.
    kind:
        ``"transactions"`` (default) or ``"tabular"``.
    f, g, n_boot, threshold, delta_threshold, policy, rng, refit_models:
        Forwarded to the inner :class:`ChangeMonitor` (see there;
        ``n_boot=0`` plus ``delta_threshold`` is the cheap fully
        incremental mode).
    executor:
        Where each chunk is counted: one map-merged shard per worker
        (see :func:`repro.stream.executor.fan_width`). The bootstrap
        never fans: like every count-space null it runs in-process
        (:mod:`repro.stats.resample_plan`).
    """

    def __init__(
        self,
        model_builder: ModelBuilder,
        n_items: int | None = None,
        window_size: int = 0,
        step: int | None = None,
        *,
        kind: str = "transactions",
        f: DifferenceFunction = ABSOLUTE,
        g: AggregateFunction = SUM,
        n_boot: int = 16,
        threshold: float = 95.0,
        delta_threshold: float | None = None,
        policy: str = "fixed",
        rng: np.random.Generator | None = None,
        refit_models: bool = False,
        executor: ExecutorLike = "serial",
    ) -> None:
        if kind not in KINDS:
            raise InvalidParameterError(
                f"kind must be one of {KINDS}, got {kind!r}"
            )
        if kind == "transactions":
            if n_items is None or n_items <= 0:
                raise InvalidParameterError("n_items must be positive")
        elif n_items is not None:
            raise InvalidParameterError(
                "n_items only applies to transaction streams"
            )
        if window_size < 1:
            raise InvalidParameterError("window_size must be >= 1")
        step = window_size if step is None else step
        if step < 1 or window_size % step:
            raise InvalidParameterError(
                f"step must be >= 1 and divide window_size "
                f"({step} vs {window_size})"
            )
        self.kind = kind
        self.n_items = n_items
        self.window_size = window_size
        self.step = step
        # resolved once: every sketcher (including post-reset rebuilds)
        # shares one executor instance, so a pooled backend owns exactly
        # one worker pool, releasable deterministically via close()
        self.executor = get_executor(executor)
        self.monitor = ChangeMonitor(
            model_builder,
            f=f,
            g=g,
            n_boot=n_boot,
            threshold=threshold,
            delta_threshold=delta_threshold,
            policy=policy,
            rng=rng,
            refit_models=refit_models,
        )
        if n_items is None:
            self._buffer = ChunkBuffer(PartitionChunkSketcher.normalize)
        else:
            self._buffer = ChunkBuffer(partial(TransactionDataset.of, n_items=n_items))
        #: lifetime rows accepted by :meth:`push`, including warm-up and
        #: rows still buffered -- the exact stream offset a resumed run
        #: must skip to (see :meth:`checkpoint` / :meth:`resume`)
        self.rows_ingested = 0
        # the reference window's rows, until the first monitored chunk
        # fits them and the inner monitor takes them over
        self._warmup: Any = None
        self._windows: WindowManager | None = None
        self._cache: _ReferenceCache | None = None
        # cursor of the checkpoint journal this monitor appends to (see
        # repro.resilience.checkpoint); None before the first checkpoint
        self._journal: Any = None

    # ------------------------------------------------------------------ #
    # Stream consumption
    # ------------------------------------------------------------------ #

    def push(self, data: DatasetLike) -> list[Observation]:
        """Feed arriving rows; return observations for windows completed.

        For transaction streams ``data`` is an iterable of transactions;
        for tabular streams it is a :class:`TabularDataset` chunk (any
        size). Arriving rows are buffered until they form the reference
        window (the first ``window_size`` rows) and thereafter
        ``step``-row chunks; each completed chunk advances the window
        manager and, if a window completes, produces one qualified
        observation.
        """
        before = len(self._buffer)
        self._buffer.extend(data)
        self.rows_ingested += len(self._buffer) - before
        observations: list[Observation] = []
        while True:
            if self.is_warming_up:
                if len(self._buffer) < self.window_size:
                    break
                self._warmup = self._buffer.pop(self.window_size)
            elif len(self._buffer) >= self.step:
                observation = self._observe_chunk(self._buffer.pop(self.step))
                if observation is not None:
                    observations.append(observation)
            else:
                break
        return observations

    def monitor_stream(self, chunks: Iterable[Any]) -> Iterator[Observation]:
        """Drive the monitor from any chunked source, yielding verdicts."""
        for chunk in chunks:
            yield from self.push(chunk)

    def flush(self) -> list[Observation]:
        """Drain trailing rows into a final partial window, if possible.

        A finite stream rarely ends on a window boundary: rows shorter
        than a step sit in the buffer, and the window manager may hold
        chunks short of a full window (a tumbling buffer, or a sliding
        ring that never filled once). ``flush`` pushes the buffered
        remainder through as one last (short) chunk and then flushes the
        window manager (see :meth:`WindowManager.flush`), qualifying
        whatever windows emerge. Returns the observations (empty when
        the stream ended during warm-up, or when nothing was pending --
        a sliding stream whose tail is already inside the last emitted
        window reports nothing new). The monitor remains usable
        afterwards, but a flushed partial chunk makes subsequent window
        offsets partial too -- flush is meant for end-of-stream.
        """
        observations: list[Observation] = []
        if self.is_warming_up:
            return observations  # warm-up never completed: nothing to flush
        if len(self._buffer):
            observation = self._observe_chunk(
                self._buffer.pop(len(self._buffer))
            )
            if observation is not None:
                observations.append(observation)
        if self._windows is not None:
            window = self._windows.flush()
            if window is not None:
                observations.append(self._qualify_window(window))
        return observations

    def checkpoint(self, directory: Any) -> Any:
        """Persist the full monitor state durably under ``directory``.

        Appends one CRC-framed record to the directory's journal and
        fsyncs it once: the sketch of each chunk that entered the ring
        since the last checkpoint (and its rows, when
        :attr:`reads_chunk_rows`), and the small state. A kill
        at *any* point leaves the last whole record to resume from.
        Returns the manifest path; see :mod:`repro.resilience.checkpoint`.
        """
        from repro.resilience.checkpoint import write_checkpoint

        # a failed checkpoint leaves no cursor: the next starts afresh
        journal, self._journal = self._journal, None
        self._journal = write_checkpoint(self, directory, journal)
        return self._journal.directory / "CHECKPOINT.json"

    def resume(self, directory: Any) -> "OnlineChangeMonitor":
        """Restore the last committed checkpoint into this fresh monitor.

        The monitor must be newly constructed with the same
        configuration that wrote the checkpoint (the persisted
        fingerprint is verified). Afterwards, pushing the stream's
        remaining rows (``rows_ingested`` rows were already consumed)
        produces bit-identical observations to the uninterrupted run.
        """
        from repro.resilience.checkpoint import resume_checkpoint

        self._journal = resume_checkpoint(self, directory)
        return self

    def state(self) -> dict[str, Any]:
        """The resumable state, as live objects (see :meth:`restore`).

        The inner monitor's :meth:`~repro.core.monitor.ChangeMonitor.state`
        entries plus ``"rows_ingested"``, the ``"reference"`` rows (the
        inner monitor's reference dataset once fitted, else the warm-up
        rows or ``None``), the ``"buffer"`` rows (or ``None``) and the
        ``"windows"`` manager (``None`` until fitted).
        """
        fitted = self._windows is not None
        return {
            "rows_ingested": self.rows_ingested,
            **self.monitor.state(),
            "reference": self.monitor.reference.dataset if fitted else self._warmup,
            "buffer": self._buffer.rows() if len(self._buffer) else None,
            "windows": self._windows,
        }

    def restore(self, state: dict[str, Any]) -> None:
        """Adopt a :meth:`state` on a freshly constructed monitor.

        A non-``None`` ``"windows"`` entry re-fits the reference rows (a
        deterministic re-mine) and opens an empty window manager, whose
        ring the caller then restores through :attr:`windows`.
        """
        self.rows_ingested = int(state["rows_ingested"])
        if state["buffer"] is not None:
            self._buffer.extend(state["buffer"])
        self._warmup = state["reference"]
        if state["windows"] is not None:
            self._start()
        self.monitor.restore(state)

    def close(self) -> None:
        """Release pooled executor workers (thread/process backends).

        A no-op for the serial backend. Letting the interpreter reap a
        process pool at exit instead can race CPython's atexit wakeup
        and print a spurious ``OSError``; long-lived callers should
        close explicitly once the stream ends. The monitor stays usable
        -- a pooled backend lazily respawns workers on the next map.
        """
        release(self.executor)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def is_warming_up(self) -> bool:
        """True until the reference window has fully arrived."""
        return self._warmup is None and self._windows is None

    @property
    def reads_chunk_rows(self) -> bool:
        """True when something reads a ring chunk's rows after its sketch.

        A ``reset_on_drift`` promotion adopts the window as a dataset,
        ``refit_models`` re-mines resampled rows, and the lits bootstrap
        builds membership blocks from each chunk's index; any other
        configuration measures a window by its sketch alone, so the ring
        and the checkpoint journal keep no chunk rows. Every input is in
        the checkpoint's configuration fingerprint, so a resume cannot
        change it.
        """
        monitor = self.monitor
        return monitor.policy == "reset_on_drift" or (
            monitor.n_boot > 0
            and (monitor.refit_models or self.kind == "transactions")
        )

    @property
    def windows(self) -> WindowManager | None:
        """The window manager; ``None`` until the reference is fitted."""
        return self._windows

    @property
    def history(self) -> list[Observation]:
        return self.monitor.history

    def drift_points(self) -> list[int]:
        return self.monitor.drift_points()

    @property
    def rows_sketched(self) -> int:
        """Rows scanned by the sketch layer so far (excludes reference)."""
        return 0 if self._windows is None else self._windows.rows_sketched

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _start(self) -> None:
        """Fit the warm-up rows as the reference and open the windows."""
        self.monitor.fit(self._warmup)
        self._warmup = None
        manager = WindowManager if self.reads_chunk_rows else _SketchOnlyWindows
        self._windows = manager(
            self._sketcher(),
            window_chunks=self.window_size // self.step,
            policy="tumbling" if self.step == self.window_size else "sliding",
        )

    def _sketcher(self) -> ChunkSketcher:
        """A chunk sketcher over the current reference's structure."""
        structure = self._reference_cache().reference.model.structure
        if self.kind == "transactions":
            assert self.n_items is not None  # enforced by __init__
            return TransactionChunkSketcher(
                structure.itemsets, self.n_items, self.executor
            )
        return PartitionChunkSketcher(structure.plan, self.executor)

    def _reference_cache(self) -> _ReferenceCache:
        """The cache of the inner monitor's current reference.

        Rebuilt whenever the reference is a different object (a fit, a
        ``reset_on_drift`` promotion or a restore), which drops every
        block derived from the previous one.
        """
        reference = self.monitor.reference
        if self._cache is not None and self._cache.reference is reference:
            return self._cache
        model = reference.model
        structure = getattr(model, "structure", None)
        if self.kind == "tabular":
            if not isinstance(structure, PartitionStructure):
                raise InvalidParameterError(
                    "a tabular OnlineChangeMonitor requires a model_builder "
                    "producing partition models (dt- or cluster-models); "
                    f"got {type(model).__name__}"
                )
            # dt-/cluster-models do not store their measure component, so
            # the reference window is histogrammed once (a single
            # memoised assigner pass + bincount).
            counts = np.asarray(
                structure.counts(reference.dataset), dtype=np.int64
            )
        elif not hasattr(model, "support_vector") or not hasattr(
            structure, "itemsets"
        ):
            raise InvalidParameterError(
                "a transaction OnlineChangeMonitor requires a model_builder "
                "producing lits-models (a structure of itemsets with stored "
                f"supports); got {type(model).__name__}"
            )
        else:
            # the stored supports, aligned with structure.itemsets, back
            # to counts; rint rounds half to even, as round() does
            n_ref = len(reference.dataset)
            counts = np.rint(model.support_vector * n_ref).astype(np.int64)
        self._cache = _ReferenceCache(reference, counts)
        return self._cache

    def _observe_chunk(self, chunk: Any) -> Observation | None:
        if self._windows is None:
            self._start()
        assert self._windows is not None  # _start built it
        window = self._windows.push(chunk)
        if window is None:
            return None
        return self._qualify_window(window)

    def _qualify_window(self, window: Window) -> Observation:
        monitor = self.monitor
        sink = metrics()
        started = time.perf_counter()
        cache = self._reference_cache()
        result = deviation_from_counts(
            cache.reference.model.structure,
            cache.counts,
            window.sketch.counts,
            len(cache.reference.dataset),
            len(window),
            f=monitor.f,
            g=monitor.g,
        )
        # A fixed-structure bootstrap runs in count-space, so the only
        # consumers that still need the window as a dataset are a
        # reference reset (the snapshot is adopted) and refit_models
        # (models are re-mined from resampled rows).
        needs_rows = monitor.policy == "reset_on_drift" or (
            monitor.n_boot > 0 and monitor.refit_models
        )
        snapshot = window.to_dataset() if needs_rows else window
        plan = None
        if monitor.n_boot > 0 and not monitor.refit_models:
            plan = self._window_resample_plan(cache, window)
        sink.inc(
            "monitor.qualify.bootstrap"
            if monitor.n_boot > 0
            else "monitor.qualify.cheap"
        )
        with sink.span("monitor.observe"):
            observation = monitor.observe_precomputed(
                snapshot, result.value, resample_plan=plan
            )
        if observation.drifted:
            sink.inc("monitor.drift.events")
        if monitor.reference.index == observation.index:
            # reset_on_drift promoted this window: the ring is re-sketched
            # for the new reference's structure
            sink.inc("monitor.reference.resets")
            assert self._windows is not None
            self._windows.resketch(self._sketcher())
        sink.observe(
            "monitor.observe.latency_s",
            time.perf_counter() - started,
            edges=LATENCY_EDGES,
        )
        return observation

    def _window_resample_plan(
        self, cache: _ReferenceCache, window: Window
    ) -> CountsResamplePlan | LitsResamplePlan:
        """Compile the count-space bootstrap for one window's pool.

        Tabular streams need no rows at all: partition regions are
        disjoint, so the pooled counts (cached reference counts + the
        window's sketch) determine the null as a multinomial over
        region bins. Transaction streams need per-row membership
        because itemset regions overlap: the reference block is
        compiled once per reference, each *chunk*'s block is compiled
        once when it first appears in a window -- from the bitmap index
        the sketcher already built for the chunk, never a second one --
        and cached for as long as it survives the sliding ring, and the
        plan is assembled from those blocks -- so a window advance costs
        one membership pass over the entering chunk only, never over
        surviving rows.
        """
        structure = cache.reference.model.structure
        n_ref = len(cache.reference.dataset)
        if self.kind == "tabular":
            return CountsResamplePlan(
                structure,
                cache.counts,
                window.sketch.counts,
                n_ref,
                len(window),
            )
        if cache.membership is None:
            # lits_membership unpacks straight to float32, the plan's
            # exact-matmul dtype, so the long-lived blocks are adopted
            # without a per-window copy (windows this size keep the pool
            # far below 2**24 rows).
            cache.membership = lits_membership(
                structure, cache.reference.dataset.index
            )
        surviving: dict[int, tuple[Any, np.ndarray]] = {}
        parts: list[np.ndarray] = [cache.membership]
        for chunk in window.chunks:
            key = id(chunk)
            entry = cache.chunks.get(key)
            if entry is None or entry[0] is not chunk:
                # the index the sketcher built for this chunk's count
                entry = (chunk, lits_membership(structure, chunk.index))
            surviving[key] = entry
            parts.append(entry[1])
        # retain exactly the current window's chunks: retired chunks
        # can never reappear, so their blocks are dropped here
        cache.chunks = surviving
        return LitsResamplePlan(structure, parts, n_ref, len(window))
