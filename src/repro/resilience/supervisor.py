"""Supervised map-merge fans: retry, rebuild, degrade, or fail loudly.

The plain executors in :mod:`repro.stream.executor` assume workers
never die and shards never raise. :class:`SupervisedExecutor` wraps
them with the failure policy a production fan needs:

* **bounded retry** per shard with deterministic seeded exponential
  backoff (:mod:`repro.resilience.backoff` -- no unseeded jitter);
* **per-shard timeout**: a stalled shard is abandoned, retried, and on
  the process rung the pool is rebuilt so the stalled worker dies too;
* **broken-pool recovery**: a ``BrokenProcessPool`` rebuilds the pool
  and re-runs only the unfinished shards -- completed results are kept;
* **degradation ladder** (``process -> thread -> serial``, opt-in via
  ``on_failure="degrade"``): when every pending shard exhausts its
  budget on one rung, the fan drops a rung and tries again with a
  fresh budget;
* **no silent loss**: a shard that fails its whole budget is
  *quarantined*. :meth:`map` raises a typed
  :class:`~repro.errors.ShardFailedError` naming the shards (strict
  default); :meth:`map_report` returns a :class:`FanReport` whose
  failed slots are explicit, and the partial-sketch helpers turn that
  into exact excluded-row accounting. A supervised fan never returns a
  silently short merge.

Because retries re-run the *same pure worker on the same payload*, a
fan that completes is bit-identical to the fault-free run -- the chaos
suite pins this across all three backends.
"""

from __future__ import annotations

from concurrent.futures import BrokenExecutor, Future
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro._typing import ExecutorLike

from repro.errors import ExecutorError, InvalidParameterError, ShardFailedError
from repro.obs import enabled, metrics
from repro.resilience.backoff import backoff_delay, sleep_backoff
from repro.stats.resample_plan import _resolve_rng
from repro.stream.executor import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    _collected,
    _merge_collected,
    _sketch_partition_shard,
    _sketch_shard,
    fan_width,
    release,
)
from repro.stream.sketch import (
    PartitionSketch,
    SupportSketch,
    as_partition_plan,
    canonical_itemsets,
)

#: Degradation ladders, most capable rung first. A custom executor
#: instance gets a one-rung ladder (nothing to degrade to).
_LADDERS: dict[str, tuple[str, ...]] = {
    "process": ("process", "thread", "serial"),
    "thread": ("thread", "serial"),
    "serial": ("serial",),
}

_RUNG_TYPES: dict[str, type] = {
    "process": ProcessExecutor,
    "thread": ThreadExecutor,
    "serial": SerialExecutor,
}


@dataclass(frozen=True)
class ShardFailure:
    """One failed attempt: which shard, which try, on which rung, why."""

    shard: int
    attempt: int
    backend: str
    error: str


@dataclass(frozen=True)
class FanReport:
    """The full outcome of one supervised fan.

    ``results`` is in shard order with ``None`` at quarantined slots;
    ``failed``/``errors`` are aligned (shard index, last rendered
    cause). ``failures`` is the complete attempt-level log, in the
    order failures were observed.
    """

    results: tuple[Any, ...]
    failed: tuple[int, ...]
    errors: tuple[str, ...]
    failures: tuple[ShardFailure, ...]
    retries: int
    pool_rebuilds: int
    degraded: bool
    backend: str

    @property
    def ok(self) -> bool:
        return not self.failed

    def raise_if_failed(self) -> FanReport:
        if self.failed:
            raise ShardFailedError(
                f"{len(self.failed)} shard(s) quarantined after exhausting "
                f"their retry budget (final backend {self.backend!r}): "
                f"shards {list(self.failed)}; last causes: {list(self.errors)}",
                shards=self.failed,
                errors=self.errors,
            )
        return self


class SupervisedExecutor:
    """A fault-tolerant executor with the plain ``map`` surface.

    Drop-in wherever an executor instance is accepted (``get_executor``
    passes instances through, and ``get_executor("supervised")``
    resolves to this class with defaults), so every fan call site in
    stream/fleet/stats inherits retry, rebuild, and degradation without
    changing shape.

    Parameters
    ----------
    inner:
        Backend name (``"process"``/``"thread"``/``"serial"``) selecting
        the top of the degradation ladder, or a ready executor instance
        (custom instances get a one-rung ladder).
    retries:
        Extra attempts per shard *per rung* (budget = retries + 1).
    shard_timeout:
        Seconds to wait for one shard's result before abandoning the
        attempt. ``None`` waits forever. The serial rung runs eagerly
        in-process and cannot enforce a timeout.
    on_failure:
        ``"raise"`` (strict default): quarantined shards make
        :meth:`map` raise :class:`ShardFailedError`. ``"degrade"``:
        exhausting a rung drops to the next rung first; only a fan that
        fails on the *serial* rung quarantines.
    seed / rng:
        Jitter seeding, resolved through the engine's single blessed
        ``_resolve_rng`` path.
    fault_plan:
        A :class:`repro.resilience.chaos.FaultPlan` to arm (tests only).
    sleep:
        Injection point for the backoff sleep; defaults to the blessed
        :func:`sleep_backoff`.
    """

    name = "supervised"

    def __init__(
        self,
        inner: ExecutorLike = "process",
        *,
        retries: int = 2,
        shard_timeout: float | None = None,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        seed: int | None = 0,
        rng: Any = None,
        on_failure: str = "raise",
        max_workers: int | None = None,
        fault_plan: Any = None,
        sleep: Callable[[float], None] = sleep_backoff,
    ) -> None:
        if retries < 0:
            raise InvalidParameterError("retries must be >= 0")
        if shard_timeout is not None and shard_timeout <= 0:
            raise InvalidParameterError("shard_timeout must be positive")
        if on_failure not in ("raise", "degrade"):
            raise InvalidParameterError(
                f"on_failure must be 'raise' or 'degrade', got {on_failure!r}"
            )
        self.retries = retries
        self.shard_timeout = shard_timeout
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.on_failure = on_failure
        self.fault_plan = fault_plan
        self._sleep = sleep
        self._jitter_seed = int(
            _resolve_rng(rng, seed, "SupervisedExecutor").integers(2**63)
        )
        if isinstance(inner, str):
            if inner not in _LADDERS:
                raise InvalidParameterError(
                    f"unknown supervised backend {inner!r}; expected one of "
                    f"{tuple(_LADDERS)} or an executor instance"
                )
            self._rungs: list[Any] = []
            for rung_name in _LADDERS[inner]:
                rung_type = _RUNG_TYPES[rung_name]
                if rung_type is SerialExecutor:
                    self._rungs.append(SerialExecutor())
                else:
                    self._rungs.append(rung_type(max_workers=max_workers))
        else:
            if not hasattr(inner, "submit"):
                raise InvalidParameterError(
                    "a custom inner executor must expose "
                    ".submit(fn, item) -> Future for supervision, got "
                    f"{inner!r}"
                )
            self._rungs = [inner]
        self._rung = 0
        self._closed = False

    # ---------------------------------------------------------------- #
    # introspection
    # ---------------------------------------------------------------- #

    @property
    def backend(self) -> str:
        """Name of the current rung's backend."""
        return str(getattr(self._rungs[self._rung], "name", "custom"))

    @property
    def process_backed(self) -> bool:
        """True while the current rung fans out to worker processes."""
        return isinstance(self._rungs[self._rung], ProcessExecutor)

    @property
    def fan_width(self) -> int:
        """How many pieces a fan cuts its work into on the current rung."""
        return fan_width(self._rungs[self._rung])

    @property
    def degradable(self) -> bool:
        """True when a failure at this rung would degrade, not quarantine."""
        return self.on_failure == "degrade" and self._rung + 1 < len(self._rungs)

    # ---------------------------------------------------------------- #
    # the supervised fan
    # ---------------------------------------------------------------- #

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        """Strict supervised map: all shards or a typed error."""
        return list(self.map_report(fn, items).raise_if_failed().results)

    def map_report(
        self, fn: Callable[[Any], Any], items: Iterable[Any]
    ) -> FanReport:
        """Supervised map returning an explicit :class:`FanReport`.

        Never raises for shard failures -- quarantined slots come back
        as ``None`` with the shard indices and causes spelled out, so a
        caller opting into partial results owns the accounting.
        """
        if self._closed:
            raise ExecutorError(
                "supervised executor is closed; close() is permanent -- "
                "construct a new executor to keep mapping"
            )
        items = list(items)
        results: list[Any] = [None] * len(items)
        pending = list(range(len(items)))
        attempts = [0] * len(items)
        failures: list[ShardFailure] = []
        last_error: dict[int, str] = {}
        quarantined: list[int] = []
        retries = rebuilds = 0
        degraded = False
        sink = metrics()
        budget = self.retries + 1
        while pending:
            runner = self._rungs[self._rung]
            failed_round, broken, stalled = self._run_round(
                runner, fn, items, pending, attempts, budget, results,
                failures, last_error,
            )
            if broken or (stalled and self.process_backed):
                # Rebuild the pool: drop the carcass without joining dead
                # (or stalled) workers; the next submit respawns fresh.
                shutdown = getattr(runner, "shutdown", None)
                if shutdown is not None:
                    shutdown(wait=False)
                rebuilds += 1
                sink.inc("resilience.pool_rebuilds")
            if not pending:
                break
            if self.degradable:
                # Exhausted shards are held (not resubmitted) until the
                # whole rung is spent, then everyone drops a rung with a
                # fresh budget.
                if all(attempts[s] >= budget for s in pending):
                    self._rung += 1
                    for s in pending:
                        attempts[s] = 0
                    if not degraded:
                        degraded = True
                        sink.inc("resilience.degraded_fans")
                    continue
            else:
                for s in [s for s in pending if attempts[s] >= budget]:
                    pending.remove(s)
                    quarantined.append(s)
                    sink.inc("resilience.quarantined_shards")
            delay = 0.0
            for s in pending:
                if s not in failed_round or attempts[s] >= budget:
                    continue
                retries += 1
                sink.inc("resilience.retries")
                delay = max(
                    delay,
                    backoff_delay(
                        s,
                        attempts[s],
                        base=self.backoff_base,
                        cap=self.backoff_cap,
                        jitter_seed=self._jitter_seed,
                    ),
                )
            self._sleep(delay)
        quarantined.sort()
        return FanReport(
            results=tuple(results),
            failed=tuple(quarantined),
            errors=tuple(last_error.get(s, "<unknown>") for s in quarantined),
            failures=tuple(failures),
            retries=retries,
            pool_rebuilds=rebuilds,
            degraded=degraded,
            backend=self.backend,
        )

    def _run_round(
        self,
        runner: Any,
        fn: Callable[[Any], Any],
        items: list[Any],
        pending: list[int],
        attempts: list[int],
        budget: int,
        results: list[Any],
        failures: list[ShardFailure],
        last_error: dict[int, str],
    ) -> tuple[set[int], bool, bool]:
        """Submit every below-budget pending shard once; harvest in order.

        Returns ``(failed_this_round, pool_broken, any_stall)``. Mutates
        ``pending``/``attempts``/``results`` in place: completed shards
        leave ``pending``; every recorded failure has consumed one
        attempt. When the pool breaks mid-round the culprit is
        unknowable (every unfinished future surfaces the same
        ``BrokenProcessPool``), so *every* shard the break reached is
        charged -- results harvested before the break are kept, only
        unfinished work re-runs, and because at least one shard is
        charged per broken round the fan always makes progress toward
        completion, degradation, or quarantine.
        """
        failed_round: set[int] = set()
        broken = stalled = False

        def record(shard: int, exc: BaseException) -> None:
            cause = f"{type(exc).__name__}: {exc}"
            failures.append(
                ShardFailure(shard, attempts[shard], self.backend, cause)
            )
            last_error[shard] = cause
            failed_round.add(shard)

        futures: list[tuple[int, Future[Any]]] = []
        for shard in list(pending):
            if attempts[shard] >= budget:
                continue
            attempts[shard] += 1
            task = fn
            if self.fault_plan is not None:
                task = self.fault_plan.wrap(
                    fn, shard, attempts[shard], self.backend
                )
            try:
                futures.append((shard, runner.submit(task, items[shard])))
            except BrokenExecutor as exc:
                # The pool died before this submit; charge this shard (it
                # consumed the attempt) and stop feeding the carcass.
                record(shard, exc)
                broken = True
                break
        for shard, future in futures:
            try:
                value = future.result(timeout=self.shard_timeout)
            except BrokenExecutor as exc:
                broken = True
                record(shard, exc)
                continue
            except FuturesTimeoutError:
                stalled = True
                future.cancel()
                record(
                    shard,
                    TimeoutError(
                        f"shard {shard} stalled past "
                        f"{self.shard_timeout}s on {self.backend}"
                    ),
                )
                continue
            except Exception as exc:  # reprolint: disable=RL010(worker failure is recorded per shard and re-raised as a typed ShardFailedError once the retry budget is spent)
                record(shard, exc)
                continue
            results[shard] = value
            pending.remove(shard)
        return failed_round, broken, stalled

    # ---------------------------------------------------------------- #
    # lifecycle
    # ---------------------------------------------------------------- #

    def shutdown(self, wait: bool = True) -> None:
        """Release every rung's pool (a later map lazily recreates them)."""
        for rung in self._rungs:
            shutdown = getattr(rung, "shutdown", None)
            if shutdown is not None:
                shutdown(wait=wait)

    def close(self) -> None:
        """Permanently retire the executor; later map calls raise."""
        for rung in self._rungs:
            close = getattr(rung, "close", None)
            if close is not None:
                close()
        self._closed = True


# --------------------------------------------------------------------- #
# Partial-result fans: exact excluded-row accounting
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class PartialSketchReport:
    """A merged sketch plus an exact account of what it is missing.

    ``sketch`` merges only the shards that completed; ``excluded_rows``
    counts every row of every quarantined shard. A consumer that treats
    the sketch as complete when ``excluded_shards`` is non-empty does so
    explicitly -- never by accident.
    """

    sketch: Any
    included_shards: tuple[int, ...]
    excluded_shards: tuple[int, ...]
    excluded_rows: int
    total_rows: int
    errors: tuple[str, ...]
    fan: FanReport

    @property
    def complete(self) -> bool:
        return not self.excluded_shards

    def describe(self) -> str:
        if self.complete:
            return f"complete: all {self.total_rows} rows sketched"
        return (
            f"partial: {self.excluded_rows}/{self.total_rows} rows excluded "
            f"(shards {list(self.excluded_shards)})"
        )


def _partial_fan(
    executor: ExecutorLike,
    worker: Callable[[Any], Any],
    payloads: list[tuple[Any, ...]],
    row_counts: list[int],
    merge_empty: Any,
) -> PartialSketchReport:
    supervisor = (
        executor
        if isinstance(executor, SupervisedExecutor)
        else SupervisedExecutor(executor)
    )
    collect = enabled()
    try:
        if collect:
            report = supervisor.map_report(
                _collected, [(worker, p) for p in payloads]
            )
        else:
            report = supervisor.map_report(worker, payloads)
    finally:
        if supervisor is not executor:
            release(supervisor)
    included = tuple(
        i for i in range(len(payloads)) if i not in set(report.failed)
    )
    completed = [report.results[i] for i in included]
    if collect:
        completed = _merge_collected(completed)
    sketch = sum(completed, merge_empty)
    excluded_rows = sum(row_counts[i] for i in report.failed)
    return PartialSketchReport(
        sketch=sketch,
        included_shards=included,
        excluded_shards=report.failed,
        excluded_rows=excluded_rows,
        total_rows=sum(row_counts),
        errors=report.errors,
        fan=report,
    )


def partial_support_sketch(
    shards: Sequence[Sequence[Any]],
    itemsets: Iterable[Iterable[int]],
    n_items: int,
    executor: ExecutorLike = "process",
) -> PartialSketchReport:
    """Supervised transaction fan that *reports* loss instead of hiding it.

    Every quarantined shard's rows are counted into
    ``excluded_rows`` -- the opt-in alternative to the strict
    :meth:`SupervisedExecutor.map` raise, and the only sanctioned way to
    get a result out of a fan with dead shards.
    """
    canon = canonical_itemsets(itemsets)
    rows = [list(shard) for shard in shards]
    return _partial_fan(
        executor,
        _sketch_shard,
        [(shard, canon, n_items) for shard in rows],
        [len(shard) for shard in rows],
        SupportSketch.empty(canon, n_items),
    )


def partial_partition_sketch(
    shards: Sequence[Any],
    structure_or_plan: Any,
    executor: ExecutorLike = "process",
) -> PartialSketchReport:
    """Supervised tabular fan with exact excluded-row accounting."""
    plan = as_partition_plan(structure_or_plan)
    return _partial_fan(
        executor,
        _sketch_partition_shard,
        [(shard, plan) for shard in shards],
        [len(shard) for shard in shards],
        PartitionSketch.empty(plan),
    )
