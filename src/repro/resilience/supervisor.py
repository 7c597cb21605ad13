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
  *quarantined*, and :meth:`SupervisedExecutor.map` raises a typed
  :class:`~repro.errors.ShardFailedError` naming the shards and their
  last causes. A supervised fan returns every shard's result or none.

Because retries re-run the *same pure worker on the same payload*, a
fan that completes is bit-identical to the fault-free run -- the chaos
suite pins this across all three backends. What the supervision did
is tallied in the ``resilience.*`` counters of the active
:mod:`repro.obs` registry.
"""

from __future__ import annotations

from concurrent.futures import BrokenExecutor, Future
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import Any, Callable, Iterable

from repro._typing import ExecutorLike

from repro.errors import ExecutorError, InvalidParameterError, ShardFailedError
from repro.obs import metrics
from repro.resilience.backoff import backoff_delay, sleep_backoff
from repro.stats.resample_plan import _resolve_rng
from repro.stream.executor import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    fan_width,
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
    seed:
        Jitter seeding, resolved through the engine's single blessed
        ``_resolve_rng`` path. The backoff's base and cap are
        :func:`backoff_delay`'s defaults.
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
        seed: int | None = 0,
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
        self.on_failure = on_failure
        self.fault_plan = fault_plan
        self._sleep = sleep
        self._jitter_seed = int(
            _resolve_rng(None, seed, "SupervisedExecutor").integers(2**63)
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
        """Strict supervised map: every shard's result, in order, or a
        :class:`ShardFailedError` naming the quarantined shards."""
        if self._closed:
            raise ExecutorError(
                "supervised executor is closed; close() is permanent -- "
                "construct a new executor to keep mapping"
            )
        items = list(items)
        results: list[Any] = [None] * len(items)
        pending = list(range(len(items)))
        attempts = [0] * len(items)
        last_error: dict[int, str] = {}
        quarantined: list[int] = []
        degraded = False
        sink = metrics()
        budget = self.retries + 1
        while pending:
            runner = self._rungs[self._rung]
            failed_round, broken, stalled = self._run_round(
                runner, fn, items, pending, attempts, budget, results, last_error
            )
            if broken or (stalled and self.process_backed):
                # Rebuild the pool: drop the carcass without joining dead
                # (or stalled) workers; the next submit respawns fresh.
                shutdown = getattr(runner, "shutdown", None)
                if shutdown is not None:
                    shutdown(wait=False)
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
                sink.inc("resilience.retries")
                delay = max(
                    delay,
                    backoff_delay(s, attempts[s], jitter_seed=self._jitter_seed),
                )
            self._sleep(delay)
        if quarantined:
            quarantined.sort()
            errors = tuple(last_error[s] for s in quarantined)
            raise ShardFailedError(
                f"{len(quarantined)} shard(s) quarantined after exhausting "
                f"their retry budget (final backend {self.backend!r}): "
                f"shards {quarantined}; last causes: {list(errors)}",
                shards=tuple(quarantined),
                errors=errors,
            )
        return results

    def _run_round(
        self,
        runner: Any,
        fn: Callable[[Any], Any],
        items: list[Any],
        pending: list[int],
        attempts: list[int],
        budget: int,
        results: list[Any],
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
            last_error[shard] = f"{type(exc).__name__}: {exc}"
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
