"""Fault-tolerant execution: supervised fans, durable checkpoints, chaos.

The robustness layer under every executor fan and streaming monitor in
the engine (PRs 2-9 built the speed; this package makes it survive):

* :class:`SupervisedExecutor` -- retry/timeout/rebuild/degrade
  supervision over the plain serial/thread/process backends, with the
  strict contract that a fan either completes bit-identically to the
  fault-free run or fails typed and loud
  (:class:`~repro.errors.ShardFailedError` names the shards); there is
  no partial result;
* :mod:`repro.resilience.checkpoint` -- crash-durable journal
  checkpoints for :class:`OnlineChangeMonitor`, one CRC-framed record
  and one fsync each (``monitor.checkpoint(dir)`` / ``monitor.resume(dir)``);
  format 3 only, and a format-1 or format-2 directory is refused by
  version, untouched;
* :mod:`repro.resilience.chaos` -- the deterministic fault-injection
  harness (seeded :class:`FaultPlan`: worker death, injected
  exceptions, stalls, checkpoint corruption) the chaos suite drives;
* :mod:`repro.resilience.backoff` -- seeded, counterfactually
  deterministic retry backoff (RL001/RL010 route every retry here).

Obs counters: ``resilience.retries``, ``resilience.pool_rebuilds``,
``resilience.degraded_fans``, ``resilience.quarantined_shards`` -- all
zero on a fault-free run, the bench snapshot invariant CI asserts --
and ``resilience.checkpoints_written``,
``resilience.checkpoints_resumed``,
``resilience.checkpoint_rows_written`` (rows handed to a row writer),
``resilience.checkpoint_bytes_written`` (bytes written to checkpoint
files), ``resilience.checkpoint_fsyncs`` (one per steady checkpoint)
and ``resilience.checkpoint_torn_tails`` (torn final records a resume
rolled back).
"""

from repro.resilience.backoff import backoff_delay, sleep_backoff
from repro.resilience.chaos import (
    Fault,
    FaultPlan,
    FaultyCall,
    InjectedFault,
    corrupt_checkpoint,
)
from repro.resilience.checkpoint import (
    has_checkpoint,
    resume_checkpoint,
    write_checkpoint,
)
from repro.resilience.supervisor import SupervisedExecutor

__all__ = [
    "Fault",
    "FaultPlan",
    "FaultyCall",
    "InjectedFault",
    "SupervisedExecutor",
    "backoff_delay",
    "corrupt_checkpoint",
    "has_checkpoint",
    "resume_checkpoint",
    "sleep_backoff",
    "write_checkpoint",
]
