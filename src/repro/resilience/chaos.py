"""Deterministic fault injection for the resilience layer.

A chaos harness is only useful if it is *reproducible*: a flaky
injected failure is indistinguishable from a flaky fix. Everything here
is seeded and addressed by ``(shard, attempt)``, so a failing chaos run
replays exactly:

* :class:`Fault` -- one injected misbehaviour: a worker death
  (``"die"``), an exception (``"raise"``), or a stall (``"stall"``);
* :class:`FaultPlan` -- a mapping ``(shard, attempt) -> Fault``, either
  written out explicitly or drawn deterministically via
  :meth:`FaultPlan.seeded`;
* :class:`FaultyCall` -- the picklable worker wrapper the supervisor
  applies when a plan is armed, so faults fire *inside* the worker on
  every backend, including the process pool;
* :func:`corrupt_checkpoint` -- deterministic on-disk corruption
  (byte flip, truncation, or a torn final record) for the checkpoint
  crash suite.

The contract the chaos suite pins: under any plan, a fan that completes
is bit-identical to the fault-free run, and a fan that cannot complete
fails with a typed error naming the quarantined shards.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

import numpy as np

from repro.errors import CheckpointError, InvalidParameterError
from repro.resilience.checkpoint import _read_committed

_KINDS = ("die", "raise", "stall")

#: Exit status used for injected worker deaths; distinctive in waitpid
#: output when debugging a chaos run.
DEATH_EXIT_CODE = 23


class InjectedFault(RuntimeError):
    """The exception raised by ``"raise"`` faults (and in-process deaths).

    Deliberately *not* a :class:`repro.errors.FocusError`: it stands in
    for an arbitrary worker bug, and the chaos suite checks that the
    supervisor converts arbitrary failures into typed repro errors.
    """


@dataclass(frozen=True)
class Fault:
    """One injected misbehaviour for a specific ``(shard, attempt)``.

    ``seconds`` only matters for ``"stall"`` faults: the worker sleeps
    that long *before* doing its real work, so a stalled shard that is
    never timed out still produces the correct result, just late.
    ``backend`` scopes the fault to one rung of the degradation ladder
    (``None`` fires everywhere) -- a ``backend="process"`` fault models
    an environment where only the process pool is broken, so a degraded
    fan completes on the rungs below.
    """

    kind: str
    seconds: float = 0.25
    backend: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise InvalidParameterError(
                f"unknown fault kind {self.kind!r}; expected one of {_KINDS}"
            )

    def fire(self, shard: int, attempt: int) -> None:
        """Misbehave. Called inside the worker before the real work."""
        if self.kind == "die":
            if multiprocessing.parent_process() is not None:
                # A real worker-process death: the pool sees a vanished
                # worker and breaks, exactly like an OOM kill or segfault.
                os._exit(DEATH_EXIT_CODE)
            # In-process backends cannot lose a worker without losing the
            # interpreter; a death degrades to an injected exception.
            raise InjectedFault(
                f"injected worker death (in-process): shard {shard} "
                f"attempt {attempt}"
            )
        if self.kind == "raise":
            raise InjectedFault(
                f"injected exception: shard {shard} attempt {attempt}"
            )
        # "stall": sleep, then let the real work proceed.
        time.sleep(self.seconds)  # reprolint: disable=RL010(injected stall fault; deliberately not a retry backoff)


@dataclass(frozen=True)
class FaultyCall:
    """Picklable worker wrapper: fire the fault, then run the real worker."""

    fn: Callable[[Any], Any]
    fault: Fault
    shard: int
    attempt: int

    def __call__(self, item: Any) -> Any:
        self.fault.fire(self.shard, self.attempt)
        return self.fn(item)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of faults, keyed by ``(shard, attempt)``.

    Attempts are 1-based: ``{(2, 1): Fault("die")}`` kills shard 2's
    first attempt and lets its retry succeed. The plan is exhausted by
    construction -- nothing in it depends on wall-clock or execution
    order, so the same plan against the same fan replays bit-identically.
    """

    faults: Mapping[tuple[int, int], Fault] = field(default_factory=dict)

    @classmethod
    def seeded(
        cls,
        shards: int,
        *,
        seed: int,
        rate: float = 0.3,
        kinds: tuple[str, ...] = ("die", "raise"),
        max_attempts: int = 1,
        seconds: float = 0.25,
    ) -> FaultPlan:
        """Draw a random-but-reproducible plan from a seed.

        Each ``(shard, attempt)`` cell for ``attempt <= max_attempts``
        independently gets a fault with probability ``rate``, its kind
        drawn uniformly from ``kinds``.
        """
        rng = np.random.default_rng(seed)
        faults: dict[tuple[int, int], Fault] = {}
        for shard in range(shards):
            for attempt in range(1, max_attempts + 1):
                if rng.random() < rate:
                    kind = kinds[int(rng.integers(len(kinds)))]
                    faults[(shard, attempt)] = Fault(kind, seconds=seconds)
        return cls(faults)

    def fault_for(
        self, shard: int, attempt: int, backend: str | None = None
    ) -> Fault | None:
        fault = self.faults.get((shard, attempt))
        if fault is None:
            return None
        if fault.backend is not None and backend is not None:
            if fault.backend != backend:
                return None
        return fault

    def wrap(
        self,
        fn: Callable[[Any], Any],
        shard: int,
        attempt: int,
        backend: str | None = None,
    ) -> Callable[[Any], Any]:
        """The worker the supervisor should actually submit."""
        fault = self.fault_for(shard, attempt, backend)
        if fault is None:
            return fn
        return FaultyCall(fn, fault, shard, attempt)

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.faults)


def corrupt_checkpoint(
    directory: str | Path, *, seed: int = 0, mode: str = "flip"
) -> Path:
    """Deterministically damage the committed checkpoint.

    ``mode="flip"`` XOR-flips the middle byte of a non-final journal
    record, the reference rows or a history block; ``mode="truncate"``
    cuts such a file (a segment other than the last, the reference or
    a block) in half. The victim is drawn seeded, so a corruption test
    replays exactly. ``mode="tear"`` cuts the final record mid-frame, as
    a kill during its append would. In a format-2 checkpoint each file
    its state names is a victim. Returns the damaged path.
    """
    if mode not in ("flip", "truncate", "tear"):
        raise InvalidParameterError(
            f"unknown corruption mode {mode!r}; expected 'flip', 'truncate' "
            "or 'tear'"
        )
    committed = _read_committed(Path(directory))
    # (path, start, stop) spans: the side files, then the records
    gen = committed.journal.path
    spans = [(gen / name, 0, len(b)) for name, b in committed.files.items()]
    records = [(seg, start, stop) for seg, start, stop, _ in committed.records.values()]
    if mode == "tear":
        spans = records[-1:]
    elif mode == "flip":
        spans += records[:-1]
    else:
        final = records[-1][0] if records else None
        segments = {segment for segment, _, _ in records if segment != final}
        spans += [(s, 0, s.stat().st_size) for s in sorted(segments)]
    if not spans:
        raise CheckpointError(f"nothing to {mode} here", path=str(directory))
    path, start, stop = spans[int(np.random.default_rng(seed).integers(len(spans)))]
    at = start + (stop - start) // 2
    blob = bytearray(path.read_bytes())
    if mode == "flip":
        blob[at] ^= 0xFF
        path.write_bytes(bytes(blob))
    else:
        path.write_bytes(bytes(blob[:at]))
    return path
