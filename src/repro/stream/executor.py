"""Pluggable execution backends for shard-parallel support counting.

Because :class:`~repro.stream.sketch.SupportSketch` is additive across
disjoint transaction shards, counting a large dataset is a pure
map-merge: split the transactions, sketch every shard independently,
and sum. The *executor* decides where the map runs:

* ``"serial"`` -- in-process loop (deterministic, zero overhead);
* ``"thread"`` -- a thread pool; numpy's bitwise kernels release the
  GIL, so stripe reductions overlap on multi-core machines;
* ``"process"`` -- a process pool; full parallelism at the cost of
  pickling each shard, the distributed-style deployment shape (each
  worker could as well be a different machine).

All three produce bit-identical merged sketches; the Hypothesis
property suite pins ``sum(shard sketches) == single-scan counts`` for
arbitrary partitions, including empty shards.

Every fan-out site -- the shard sketches here, the fleet store scans,
the bootstrap replicate blocks -- maps through one primitive,
:func:`fan`. It owns the runner lifecycle (a backend *name* is released
before returning, an *instance* stays open for its owner), the
``storage.bytes_shipped`` accounting of process fans, and the metrics
hand-off: when a :mod:`repro.obs` registry is active in the *caller's*
context, each map call collects into a fresh per-call registry (worker
threads and processes never see the caller's context variable) that
``fan`` merges back in payload order. Counters and histogram buckets
are integer sums, so the merged snapshot is identical on every backend
-- the obs property suite pins serial == thread == process, counter for
counter.
"""

from __future__ import annotations

from concurrent.futures import (
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Any, Callable, ClassVar, Iterable, Sequence

from repro._typing import DatasetLike, ExecutorLike, StructureOrPlan

from repro.data.transactions import BitmapIndex
from repro.errors import ExecutorError, InvalidParameterError
from repro.obs import MetricsRegistry, enabled, metrics, use_registry
from repro.stream.sketch import (
    PartitionSketch,
    SupportSketch,
    as_partition_plan,
    canonical_itemsets,
)


class SerialExecutor:
    """Run the map step in the calling thread."""

    name = "serial"

    def __init__(self) -> None:
        self._closed = False

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        self._check_open()
        return [fn(item) for item in items]

    def submit(self, fn: Callable[[Any], Any], item: Any) -> Future[Any]:
        """Run ``fn(item)`` eagerly, returning an already-settled future.

        Gives the serial backend the same submit/harvest surface the
        pooled backends have, so a supervisor can drive all three rungs
        of its degradation ladder through one code path.
        """
        self._check_open()
        future: Future[Any] = Future()
        future.set_running_or_notify_cancel()
        try:
            future.set_result(fn(item))
        except Exception as exc:  # reprolint: disable=RL010(failure is captured on the future and re-raised by its result, matching the pooled backends)
            future.set_exception(exc)
        return future

    def close(self) -> None:
        """Permanently retire the executor; later map/submit calls raise."""
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise ExecutorError(
                "serial executor is closed; close() is permanent -- "
                "construct a new executor to keep mapping"
            )


class _PooledExecutor:
    """Shared lifecycle for the pooled backends.

    The pool is created lazily on first use and **reused across map
    calls**: a streaming workload maps once per chunk, and paying a
    pool spawn/teardown (workers, and for processes an interpreter
    start) per chunk would dwarf the counting itself. Workers are
    released by :meth:`shutdown` (also at interpreter exit).
    """

    #: concrete pool constructor; set by subclasses
    _pool_factory: ClassVar[Callable[..., Executor] | None] = None

    name: ClassVar[str] = "pooled"

    def __init__(self, max_workers: int | None = None) -> None:
        self.max_workers = max_workers
        self._pool: Executor | None = None
        self._closed = False

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        pool = self._ensure_pool()
        try:
            return list(pool.map(fn, items))
        except BrokenExecutor as exc:
            # Never leak the raw concurrent.futures failure: release the
            # carcass (a later map respawns workers) and raise the typed
            # error. Shard-level retry/re-execution lives one layer up,
            # in repro.resilience.SupervisedExecutor.
            self.shutdown(wait=False)
            raise ExecutorError(
                f"{self.name} pool broke mid-map ({exc!r}); the pool was "
                "released and a later map respawns workers. Wrap the fan "
                "in repro.resilience.SupervisedExecutor to retry the "
                "unfinished shards instead of failing the whole map."
            ) from exc

    def submit(self, fn: Callable[[Any], Any], item: Any) -> Future[Any]:
        """Submit one task, returning its future.

        Unlike :meth:`map`, a :class:`BrokenExecutor` propagates raw
        here: submit/harvest is the supervisor seam, and the supervisor
        needs the backend-specific signal to decide pool rebuilds.
        """
        return self._ensure_pool().submit(fn, item)

    def shutdown(self, wait: bool = True) -> None:
        """Release the worker pool (a later map lazily recreates it)."""
        if self._pool is not None:
            self._pool.shutdown(wait=wait)
            self._pool = None

    def close(self) -> None:
        """Permanently retire the executor; later map/submit calls raise."""
        self.shutdown(wait=False)
        self._closed = True

    def _ensure_pool(self) -> Executor:
        if self._closed:
            raise ExecutorError(
                f"{self.name} executor is closed; close() is permanent -- "
                "construct a new executor (or use shutdown(), which a "
                "later map recovers from) to keep mapping"
            )
        if self._pool is None:
            factory = self._pool_factory
            if factory is None:  # pragma: no cover - abstract-base misuse
                raise NotImplementedError(
                    "pooled executor subclasses must set _pool_factory"
                )
            self._pool = factory(max_workers=self.max_workers)
        return self._pool


class ThreadExecutor(_PooledExecutor):
    """Run the map step on a thread pool (numpy releases the GIL)."""

    name = "thread"
    _pool_factory = ThreadPoolExecutor


class ProcessExecutor(_PooledExecutor):
    """Run the map step on a process pool (shards are pickled over)."""

    name = "process"
    _pool_factory = ProcessPoolExecutor


_EXECUTORS = {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
    "process": ProcessExecutor,
}


def get_executor(executor: ExecutorLike) -> ExecutorLike:
    """Resolve an executor name or pass an executor instance through."""
    if isinstance(executor, str):
        if executor == "supervised":
            # Lazy import: repro.resilience sits above this module and
            # wraps the plain backends defined here.
            from repro.resilience import SupervisedExecutor

            return SupervisedExecutor()  # reprolint: disable=RL003(factory hands ownership to the caller, the same contract as every get_executor resolution)
        try:
            return _EXECUTORS[executor]()
        except KeyError:
            raise InvalidParameterError(
                f"unknown executor {executor!r}; expected one of "
                f"{tuple(_EXECUTORS) + ('supervised',)}"
            ) from None
    if hasattr(executor, "map"):
        return executor
    raise InvalidParameterError(
        f"executor must be a name or expose .map(fn, items), got {executor!r}"
    )


def process_backed(executor: ExecutorLike) -> bool:
    """True when the executor's map step runs in worker *processes*.

    The fan call sites use this to decide pickling-cost accounting
    (``storage.bytes_shipped``) and closure-shipping guards. Plain
    executors answer by type; wrappers such as
    :class:`repro.resilience.SupervisedExecutor` answer for their
    *current* rung via a ``process_backed`` attribute.
    """
    if isinstance(executor, ProcessExecutor):
        return True
    return bool(getattr(executor, "process_backed", False))


def release(runner: Any) -> None:
    """Release a runner's worker pool, if it has one.

    The one shutdown path for fan-owned runners and for the engines
    that hold a runner (sketchers, monitors, fleet matrices): a no-op
    for the serial backend, idempotent for pooled ones, and never
    permanent -- a later map lazily respawns workers.
    """
    shutdown = getattr(runner, "shutdown", None)
    if shutdown is not None:
        shutdown()


def _collected(
    call: tuple[Callable[[Any], Any], Any],
) -> tuple[Any, MetricsRegistry]:
    """Run ``worker(payload)`` under a fresh registry; return both.

    Top-level so the process backend can pickle it. Worker threads and
    processes never see the caller's registry (a context variable), so
    every call collects into its own and ships it back with the result.
    """
    worker, payload = call
    local = MetricsRegistry()
    with use_registry(local):
        result = worker(payload)
    return result, local


def _merge_collected(pairs: Iterable[tuple[Any, MetricsRegistry]]) -> list[Any]:
    """Unzip ``(result, registry)`` pairs, absorbing registries in order."""
    sink = metrics()
    results: list[Any] = []
    for result, local in pairs:
        results.append(result)
        sink.absorb(local)
    return results


def fan(
    worker: Callable[[Any], Any],
    payloads: Sequence[Any],
    executor: ExecutorLike,
    shipped_bytes: Callable[[], int] | None = None,
) -> list[Any]:
    """Map ``worker`` over ``payloads`` on ``executor``, results in order.

    The single map step behind every shard-parallel count:

    * a backend *name* resolves to a runner this call owns and releases,
      also when a worker raises; an executor *instance* stays open for
      its owner to reuse;
    * with a :mod:`repro.obs` registry active, every call runs under its
      own registry (:func:`_collected`) and the registries merge back in
      payload order, so merged snapshots are identical on every backend;
    * ``shipped_bytes()`` -- what a process fan pickles to its workers --
      is evaluated only on a process-backed runner and tallied in
      ``storage.bytes_shipped``.
    """
    runner = get_executor(executor)
    try:
        if shipped_bytes is not None and process_backed(runner):
            metrics().inc("storage.bytes_shipped", shipped_bytes())
        if not enabled():
            return list(runner.map(worker, payloads))
        return _merge_collected(
            runner.map(_collected, [(worker, p) for p in payloads])
        )
    finally:
        if isinstance(executor, str):
            release(runner)


def shard_ranges(n_rows: int, n_shards: int) -> list[tuple[int, int]]:
    """Contiguous, near-even ``[start, stop)`` row ranges covering ``n_rows``.

    The one splitter every fan shards by. With fewer rows than shards
    some ranges are empty; the merge identity makes that harmless.
    """
    if n_shards < 1:
        raise InvalidParameterError("n_shards must be >= 1")
    base, extra = divmod(n_rows, n_shards)
    # the first ``extra`` shards take one row more than the rest
    bounds = [i * base + min(i, extra) for i in range(n_shards + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def shipped_row_bytes(shards: Sequence[Sequence[Any]]) -> int:
    """Approximate pickled payload bytes of row shards (8 bytes/item+row).

    Feeds the ``storage.bytes_shipped`` counter when a *process* fan has
    to ship the rows themselves.
    """
    return sum(8 * (len(shard) + sum(len(t) for t in shard)) for shard in shards)


def shipped_index_bytes(indexes: Iterable[BitmapIndex]) -> int:
    """Pickled bytes of the bitmap indexes a process fan ships.

    A shared-medium (mmap) index pickles as a stripe handle and ships
    none -- the zero the out-of-core invariants pin. A RAM index ships
    its occupied packed bits (:meth:`BitmapIndex.__reduce_ex__`), never
    the spare append capacity behind them.
    """
    return sum(
        0 if index.handle() is not None else index._bits.nbytes
        for index in indexes
    )


# --------------------------------------------------------------------- #
# Transaction map-merge: row shards, or row ranges of one shared index
# --------------------------------------------------------------------- #


def _sketch_shard(payload: tuple[Any, ...]) -> SupportSketch:
    """Top-level map worker (must be picklable for the process backend)."""
    transactions, itemsets, n_items = payload
    sink = metrics()
    with sink.span("stream.shard.sketch"):
        sketch = SupportSketch.from_transactions(transactions, itemsets, n_items)
    sink.inc("stream.shards.sketched")
    sink.observe("stream.shard.rows", float(len(transactions)))
    return sketch


def shard_transactions(
    transactions: Sequence[Any], n_shards: int
) -> list[list[Any]]:
    """Split transactions into ``n_shards`` contiguous, near-even shards."""
    transactions = list(transactions)
    return [
        transactions[start:stop]
        for start, stop in shard_ranges(len(transactions), n_shards)
    ]


def sharded_support_sketch(
    transactions: Sequence[Any],
    itemsets: Iterable[Iterable[int]],
    n_items: int,
    n_shards: int = 1,
    executor: ExecutorLike = "serial",
) -> SupportSketch:
    """Map-merge support counting: shard, sketch in parallel, sum.

    Equivalent to a single-scan :meth:`SupportSketch.from_transactions`
    over the whole bag (the property suite enforces this), but the map
    step fans out over the executor's workers.
    """
    canon = canonical_itemsets(itemsets)
    shards = shard_transactions(transactions, n_shards)
    sketches = fan(
        _sketch_shard,
        [(shard, canon, n_items) for shard in shards],
        executor,
        shipped_bytes=lambda: shipped_row_bytes(shards),
    )
    return sum(sketches, SupportSketch.empty(canon, n_items))


def _sketch_index_shard(payload: tuple[Any, ...]) -> SupportSketch:
    """Top-level map worker counting one row range of a shared index.

    Serial/thread backends receive the index by reference; the process
    backend receives it through pickle, which for a store with a shared
    medium is a byte-cheap :class:`~repro.data.storage.StripeHandle`
    the worker re-maps zero-copy (``BitmapIndex.__reduce_ex__``) -- the
    attach happens during payload deserialisation, the counting under
    the call's registry.
    """
    index, start, stop, canon = payload
    sink = metrics()
    with sink.span("stream.shard.sketch"):
        counts = canon.plan().count(index, start=start, stop=stop)
        sketch = SupportSketch._from_canonical(
            canon, counts, stop - start, index.n_items
        )
    sink.inc("stream.shards.sketched")
    sink.observe("stream.shard.rows", float(stop - start))
    return sketch


def sharded_index_sketch(
    index: BitmapIndex,
    itemsets: Iterable[Iterable[int]],
    n_shards: int = 1,
    executor: ExecutorLike = "serial",
) -> SupportSketch:
    """Map-merge counting over a shared index: range-split, sketch, sum.

    The ranged counting seam (:meth:`SupportCountingPlan.count` with
    ``start``/``stop``) lets every shard scan its slice of the same
    stripes, so no shard ever holds a row copy. On the serial/thread
    backends the workers share the index by reference. On the process
    backend the shipping cost depends on the index's store: a
    shared-medium (mmap) store pickles as a stripe handle --
    ``storage.bytes_shipped`` stays 0 and workers attach zero-copy --
    while a RAM store must ship its packed bits to every worker,
    tallied in the same counter. The result equals one full-scan sketch
    of the index on every backend and executor.
    """
    canon = canonical_itemsets(itemsets)
    ranges = shard_ranges(index.n_transactions, n_shards)
    sketches = fan(
        _sketch_index_shard,
        [(index, start, stop, canon) for start, stop in ranges],
        executor,
        shipped_bytes=lambda: shipped_index_bytes([index] * len(ranges)),
    )
    return sum(sketches, SupportSketch.empty(canon, index.n_items))


# --------------------------------------------------------------------- #
# Partition (tabular) map-merge
# --------------------------------------------------------------------- #


def _sketch_partition_shard(payload: tuple[Any, ...]) -> PartitionSketch:
    """Top-level map worker for tabular shards.

    Picklable for the process backend as long as the plan's assigner is
    (tree and grid assigners are; composed GCR-overlay assigners are
    closures and need the serial or thread backend).
    """
    dataset, plan = payload
    sink = metrics()
    with sink.span("stream.shard.sketch"):
        sketch = PartitionSketch.from_dataset(dataset, plan)
    sink.inc("stream.shards.sketched")
    sink.observe("stream.shard.rows", float(len(dataset)))
    return sketch


def shard_dataset(dataset: DatasetLike, n_shards: int) -> list[Any]:
    """Split a tabular dataset into contiguous, near-even row slices.

    Slices are numpy views (:meth:`TabularDataset.slice_rows`), so
    sharding is O(shards), not O(rows).
    """
    return [
        dataset.slice_rows(start, stop)
        for start, stop in shard_ranges(len(dataset), n_shards)
    ]


def sharded_partition_sketch(
    dataset: DatasetLike,
    structure_or_plan: StructureOrPlan,
    n_shards: int = 1,
    executor: ExecutorLike = "serial",
) -> PartitionSketch:
    """Map-merge partition counting: shard rows, sketch in parallel, sum.

    Equivalent to a single-scan :meth:`PartitionSketch.from_dataset`
    over the whole dataset (the property suite enforces this), but the
    map step fans out over the executor's workers.
    """
    plan = as_partition_plan(structure_or_plan)
    if n_shards == 1:
        # Single-shard fast path: skip the slice/merge round trip (the
        # streaming hot path sketches every chunk through here).
        return PartitionSketch.from_dataset(dataset, plan)
    shards = shard_dataset(dataset, n_shards)
    sketches = fan(
        _sketch_partition_shard, [(shard, plan) for shard in shards], executor
    )
    return sum(sketches, PartitionSketch.empty(plan))
