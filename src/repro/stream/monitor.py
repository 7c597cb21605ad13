"""Online change monitoring over a live stream (both dataset kinds).

:class:`OnlineChangeMonitor` is the streaming layer over
:class:`repro.core.monitor.ChangeMonitor`: rather than comparing
pre-materialised snapshot datasets (each a full rescan), it consumes raw
rows as they arrive, forms windows incrementally, and lets the inner
monitor own what it always owned -- qualification, the drift decision,
the history, and the reference policy.

The monitor is generic over the dataset kind through the
:class:`~repro.stream.windows.ChunkSketcher` protocol:

* ``kind="transactions"`` -- the reference model is a lits-model; window
  measures come from mergeable :class:`~repro.stream.sketch.SupportSketch`
  counts over the reference structure's itemsets, and the reference
  measures are read straight off the model's stored supports (no scan;
  the paper's Section 7.1 observation).
* ``kind="tabular"`` -- the reference model is a dt- or cluster-model
  (any partition structure); window measures come from mergeable
  :class:`~repro.stream.sketch.PartitionSketch` histograms over the
  structure's precompiled counting plan, and the reference measures are
  histogrammed once from the reference window.

Division of labour per emitted window:

* the deviation between reference and window counts is assembled by
  :func:`repro.core.deviation.deviation_from_counts` over the reference
  model's structural component (``delta_1``);
* qualification is delegated to
  :meth:`ChangeMonitor.observe_precomputed`: the full bootstrap
  (``n_boot > 0``) or the cheap ``delta_threshold`` cut-off
  (``n_boot == 0``).

Bootstrapping a *fixed* reference structure no longer materialises
window rows: the null is computed by the count-space engine
(:mod:`repro.stats.resample_plan`). For tabular streams the pooled
region counts -- reference counts plus the window sketch, both already
in hand -- fully determine the null (disjoint regions resample as a
multinomial over region bins), so qualification touches no row at all.
For transaction streams itemset regions overlap, so the engine needs
per-row membership: the reference rows' membership matrix is compiled
once per reference (not per window) and each window contributes one
membership pass over its own rows -- never a pooled-dataset rebuild,
and never a per-replicate resample materialisation. Windows are only
materialised as datasets when a ``reset_on_drift`` reset promotes one
to reference, or when ``refit_models=True`` re-mines per replicate.

The reference is fitted *lazily*: the first ``window_size`` rows are
buffered untouched, and mining only happens when the first monitored
chunk arrives (or again when a ``reset_on_drift`` reset promotes a
drifted window -- the one case where the buffered chunks are re-sketched
for the new reference's structure). :meth:`OnlineChangeMonitor.flush`
drains the trailing rows into a final partial window so a finite stream
never silently drops its tail.
"""

from __future__ import annotations

import time
from typing import Any, Iterable, Iterator

import numpy as np

from repro._typing import DatasetLike, ExecutorLike, ModelBuilder
from repro.core.aggregate import SUM, AggregateFunction
from repro.core.deviation import deviation_from_counts
from repro.core.difference import ABSOLUTE, DifferenceFunction
from repro.core.model import PartitionStructure
from repro.core.monitor import ChangeMonitor, Observation
from repro.data.tabular import TabularDataset
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
    executor, n_shards:
        How each chunk is counted (see :mod:`repro.stream.executor`).
        ``executor`` is also forwarded to the inner monitor, so the
        count-space bootstrap fans its replicate blocks over the same
        backend.
    n_blocks:
        Replicate blocks the bootstrap fans over ``executor`` (see
        :meth:`~repro.stats.resample_plan.ResamplePlan.null_deviations`).
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
        n_shards: int = 1,
        n_blocks: int = 1,
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
        # and the inner monitor's bootstrap share one executor instance,
        # so a pooled backend owns exactly one worker pool, releasable
        # deterministically via close()
        self.executor = get_executor(executor)
        self.n_shards = n_shards
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
            # the resolved instance, not the name: the bootstrap's fanned
            # blocks then reuse this monitor's one pool (released by
            # close()) instead of spawning a pool per qualification
            executor=self.executor,
            n_blocks=n_blocks,
        )
        self._buffer = (
            ChunkBuffer.of_transactions(n_items)
            if n_items is not None
            else ChunkBuffer(
                PartitionChunkSketcher.normalize, TabularDataset.concat_many
            )
        )
        #: lifetime rows accepted by :meth:`push`, including warm-up and
        #: rows still buffered -- the exact stream offset a resumed run
        #: must skip to (see :meth:`checkpoint` / :meth:`resume`)
        self.rows_ingested = 0
        self._reference_data: Any = None
        self._windows: WindowManager | None = None
        self._ref_counts: np.ndarray | None = None
        # Reference rows' region-membership matrix (transactions kind,
        # bootstrap mode only): compiled lazily on the first
        # qualification and reused by every window until a reference
        # reset invalidates it.
        self._ref_membership: np.ndarray | None = None
        # Per-chunk membership blocks for the chunks currently in the
        # sliding ring (id(chunk) -> (chunk, membership)): a surviving
        # chunk's rows keep their compiled membership across window
        # advances, so a qualification costs one membership pass over
        # the *entering* chunk only. The chunk object is stored in the
        # entry so a recycled id can never alias a different chunk.
        self._chunk_membership: dict[int, tuple[Any, np.ndarray]] = {}
        # Files of the last checkpoint generation this monitor committed
        # or resumed from: the next generation hard-links them instead of
        # rewriting (see repro.resilience.checkpoint).
        self._checkpoint_ledger: Any = None

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
            if self._reference_data is None:
                if len(self._buffer) < self.window_size:
                    break
                self._reference_data = self._buffer.pop(self.window_size)
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
        if self._reference_data is None:
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

        Atomic-manifest publish (the ``MmapStripeStore`` pattern): the
        new generation's files are written first, the manifest is
        swapped in last via ``os.replace``, and a kill at *any* point
        leaves the previous committed checkpoint intact. Chunk, sketch
        and reference files the previous generation already holds are
        hard-linked rather than rewritten, so a steady-state checkpoint
        writes one chunk. Returns the manifest path. See
        :mod:`repro.resilience.checkpoint`.
        """
        from repro.resilience.checkpoint import write_checkpoint

        return write_checkpoint(self, directory)

    def resume(self, directory: Any) -> "OnlineChangeMonitor":
        """Restore the last committed checkpoint into this fresh monitor.

        The monitor must be newly constructed with the same
        configuration that wrote the checkpoint (the persisted
        fingerprint is verified). Afterwards, pushing the stream's
        remaining rows (``rows_ingested`` rows were already consumed)
        produces bit-identical observations to the uninterrupted run.
        """
        from repro.resilience.checkpoint import resume_checkpoint

        resume_checkpoint(self, directory)
        return self

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
        return self._reference_data is None

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

    def _lazy_start(self) -> None:
        """Mine the reference and build the window manager, first use."""
        if self._windows is not None:
            return
        if self.kind == "transactions":
            assert self.n_items is not None  # enforced by __init__
            reference: DatasetLike = TransactionDataset(
                self._reference_data, self.n_items
            )
        else:
            reference = self._reference_data
        self.monitor.fit(reference)
        self._track_reference_structure()
        self._windows = self._new_window_manager()

    def _new_window_manager(self) -> WindowManager:
        structure = self.monitor._reference_model.structure
        sketcher: ChunkSketcher
        if self.kind == "transactions":
            assert self.n_items is not None  # enforced by __init__
            sketcher = TransactionChunkSketcher(
                structure.itemsets,
                self.n_items,
                executor=self.executor,
                n_shards=self.n_shards,
            )
        else:
            sketcher = PartitionChunkSketcher(
                structure.plan,
                executor=self.executor,
                n_shards=self.n_shards,
            )
        return WindowManager(
            sketcher,
            window_chunks=self.window_size // self.step,
            policy="tumbling" if self.step == self.window_size else "sliding",
        )

    def _track_reference_structure(self) -> None:
        """Cache the reference structure's measure vector as counts."""
        model = self.monitor._reference_model
        structure = getattr(model, "structure", None)
        # stale after any reference change: membership columns are the
        # (new) reference structure's regions
        self._ref_membership = None
        self._chunk_membership = {}
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
            self._ref_counts = np.asarray(
                structure.counts(self.monitor._reference_dataset),
                dtype=np.int64,
            )
            return
        if not hasattr(model, "supports") or not hasattr(
            structure, "itemsets"
        ):
            raise InvalidParameterError(
                "a transaction OnlineChangeMonitor requires a model_builder "
                "producing lits-models (a structure of itemsets with stored "
                f"supports); got {type(model).__name__}"
            )
        n_ref = len(self.monitor._reference_dataset)
        self._ref_counts = np.array(
            [round(model.supports[s] * n_ref) for s in structure.itemsets],
            dtype=np.int64,
        )

    def _observe_chunk(self, chunk: Any) -> Observation | None:
        self._lazy_start()
        assert self._windows is not None  # _lazy_start built it
        window = self._windows.push(chunk)
        if window is None:
            return None
        return self._qualify_window(window)

    def _qualify_window(self, window: Window) -> Observation:
        monitor = self.monitor
        sink = metrics()
        started = time.perf_counter()
        structure = monitor._reference_model.structure
        assert self._ref_counts is not None  # set when the reference fit
        result = deviation_from_counts(
            structure,
            self._ref_counts,
            window.sketch.counts,
            len(monitor._reference_dataset),
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
            plan = self._window_resample_plan(window)
        sink.inc(
            "monitor.qualify.bootstrap"
            if monitor.n_boot > 0
            else "monitor.qualify.cheap"
        )
        before = monitor._reference_index
        with sink.span("monitor.observe"):
            observation = monitor.observe_precomputed(
                snapshot, result.value, resample_plan=plan
            )
        if observation.drifted:
            sink.inc("monitor.drift.events")
        if monitor._reference_index != before:
            sink.inc("monitor.reference.resets")
            # reset_on_drift promoted this window: re-track the new
            # reference structure and re-sketch the buffered chunks (the
            # one place a surviving row is scanned twice).
            self._track_reference_structure()
            assert self._windows is not None
            buffered = self._windows.buffered_chunks
            scanned_before = self._windows.rows_sketched
            self._windows = self._new_window_manager()
            for chunk in buffered:
                self._windows.push(chunk)
            # carry the lifetime scan count across the rebuild (the
            # re-fed chunks count again: they really were re-scanned)
            self._windows.rows_sketched += scanned_before
        sink.observe(
            "monitor.observe.latency_s",
            time.perf_counter() - started,
            edges=LATENCY_EDGES,
        )
        return observation

    def _window_resample_plan(
        self, window: Window
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
        monitor = self.monitor
        structure = monitor._reference_model.structure
        n_ref = len(monitor._reference_dataset)
        assert self._ref_counts is not None  # set when the reference fit
        if self.kind == "tabular":
            return CountsResamplePlan(
                structure,
                self._ref_counts,
                window.sketch.counts,
                n_ref,
                len(window),
            )
        if self._ref_membership is None:
            # float32 up front: the plan's exact-matmul dtype, so the
            # long-lived blocks are adopted without a per-window copy
            # (windows this size keep the pool far below 2**24).
            self._ref_membership = lits_membership(
                structure, monitor._reference_dataset.index
            ).astype(np.float32)
        surviving: dict[int, tuple[Any, np.ndarray]] = {}
        parts: list[np.ndarray] = [self._ref_membership]
        for chunk in window.chunks:
            key = id(chunk)
            entry = self._chunk_membership.get(key)
            if entry is None or entry[0] is not chunk:
                # the index the sketcher built for this chunk's count
                membership = lits_membership(
                    structure, chunk.index
                ).astype(np.float32)
                entry = (chunk, membership)
            surviving[key] = entry
            parts.append(entry[1])
        # retain exactly the current window's chunks: retired chunks
        # can never reappear, so their blocks are dropped here
        self._chunk_membership = surviving
        return LitsResamplePlan(structure, parts, n_ref, len(window))
