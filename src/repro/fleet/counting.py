"""Per-store scans for all-pairs fleet measurement.

The all-pairs workload has a wasteful naive shape: computing
``deviation(M_i, M_j, D_i, D_j)`` pair by pair scans every dataset once
per *pair*, i.e. ``N - 1`` times each. But for lits-models the GCR of a
pair is just the union of the two itemset collections, so the counts a
store contributes to **all** of its pairings are supports of itemsets
drawn from one fleet-wide vocabulary (:mod:`repro.fleet.vocab`).
:func:`count_lits_stores` counts that vocabulary over each store that
still lacks counts with **one** batched pass of the vocabulary's cached
:class:`~repro.data.transactions.SupportCountingPlan` -- so an N-store
matrix scans each dataset once per GCR family, not once per pair.

Partition (dt-/cluster-) fleets get the same property for free from the
memoised assigner passes of :mod:`repro.core.partition_plan`: every GCR
overlay re-uses each store's base ``row -> cell`` pass, so
:func:`prime_partition_passes` only has to force those base passes --
optionally in parallel -- before the per-pair overlay lookups run.

Both steps fan out over the :mod:`repro.stream.executor` backends.
Support-counting payloads (a bitmap index plus a counting plan) pickle
cleanly, so lits fleets can use the process pool; GCR overlay assigners
are closures, so partition fleets are limited to the serial and thread
backends.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

from repro._typing import ExecutorLike
from repro.core.partition_plan import cell_assignments
from repro.data.transactions import SupportCountingPlan
from repro.errors import InvalidParameterError
from repro.obs import metrics
from repro.stream.executor import fan, process_backed, shipped_index_bytes


def _count_support_payload(payload: tuple[Any, ...]) -> np.ndarray:
    """Top-level map worker (picklable for the process backend)."""
    index, plan = payload
    with metrics().span("fleet.store.scan"):
        counts: np.ndarray = plan.count(index)
    return counts


def count_lits_stores(
    indexes: Sequence[Any],
    plan: SupportCountingPlan,
    executor: ExecutorLike = "serial",
) -> list[np.ndarray]:
    """Count ``plan``'s itemsets over every bitmap index, one scan each.

    The scans fan out across the executor; each is tallied as one
    ``fleet.store.scans``. Returns the count vectors aligned with
    ``indexes``.
    """
    if not indexes:
        return []
    results = fan(
        _count_support_payload,
        [(index, plan) for index in indexes],
        executor,
        shipped_bytes=lambda: shipped_index_bytes(indexes),
    )
    metrics().inc("fleet.store.scans", len(indexes))
    return results


def prime_partition_passes(
    models: Sequence[Any],
    datasets: Sequence[Any],
    indices: Iterable[int],
    executor: ExecutorLike = "serial",
) -> None:
    """Force each store's base ``row -> cell`` assigner pass, memoised.

    Every GCR overlay a store participates in composes its *base*
    assigner, and :func:`repro.core.partition_plan.cell_assignments`
    memoises that pass per dataset -- so forcing the base passes up
    front (in parallel, when the executor allows) leaves the per-pair
    overlay measurement as pure table lookups plus ``bincount``.
    """

    def _prime(i: int) -> None:
        # serial/thread only (guarded below), so a closure is fine
        with metrics().span("fleet.store.assign"):
            cell_assignments(models[i].structure.assigner, datasets[i])

    if process_backed(executor) and not getattr(executor, "degradable", False):
        # a degradable supervised fan is allowed through: its process
        # rung will break on the unpicklable closures and the ladder
        # lands the work on the thread/serial rungs below
        raise InvalidParameterError(
            "the process executor cannot fan out partition fleets (GCR "
            "overlay assigners are closures and the assignment memo "
            "lives in-process); use the serial or thread executor"
        )
    fan(_prime, list(dict.fromkeys(indices)), executor)
