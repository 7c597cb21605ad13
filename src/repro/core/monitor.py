"""Snapshot change monitoring (the paper's motivating application).

From the introduction: "A sales analyst who is monitoring a dataset ...
may want to analyze the data thoroughly only if the current snapshot
differs significantly from previously analyzed snapshots. ... an
algorithm that can quantify deviations can save the analyst considerable
time and effort."

:class:`ChangeMonitor` packages that loop: fit a reference model once,
then feed successive snapshots; each observation computes the FOCUS
deviation against the reference, qualifies it with the bootstrap
(Section 3.4), and reports whether the snapshot needs a real look. The
bootstrap runs in-process and stops drawing once no further replicate
could change the verdict (see :meth:`ChangeMonitor._qualify`).
Reference policies:

* ``"fixed"`` -- always compare against the original reference;
* ``"reset_on_drift"`` -- after a significant deviation, the drifted
  snapshot becomes the new reference (the analyst re-analysed it).

The monitor alone owns its state: the read-only :class:`Reference`
(replaced whole by ``fit`` and by a promotion), the snapshot counter,
the history and the bootstrap generator; ``state()`` / ``restore()``
carry all but the reference's dataset and model across a restart. The
history travels as sealed write-once blocks plus a short open tail, so
a checkpoint's cost barely grows with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import TYPE_CHECKING, Any, Iterable

import numpy as np

from repro._typing import DatasetLike, ModelBuilder, ModelLike
from repro.core.aggregate import SUM, AggregateFunction
from repro.core.deviation import deviation, deviation_many
from repro.core.difference import ABSOLUTE, DifferenceFunction
from repro.core.gcr import gcr
from repro.errors import InvalidParameterError, NotFittedError
from repro.obs import metrics
from repro.stats.bootstrap import (
    BootstrapResult,
    deviation_significance,
    percent_below,
)
from repro.stats.resample_plan import _resolve_rng, compile_resample_plan

if TYPE_CHECKING:
    from repro.stats.resample_plan import ResamplePlan

POLICIES = ("fixed", "reset_on_drift")

#: Observations in the smallest sealed history block. ``state()`` hands
#: a checkpoint the history's full blocks as write-once objects and only
#: the open tail, shorter than this, as JSON rows.
_HISTORY_BLOCK = 64
#: Blocks of one size merge into one of the next once this many fill:
#: the sizes are ``_HISTORY_BLOCK * _HISTORY_FANOUT**j``, largest first,
#: so a history of ``n`` observations spans O(log n) blocks. The
#: checkpoint journal writes each block once, as a write-once file,
#: and every journal record names each live block, so fixed-size blocks
#: alone would grow every record and the checkpoint directory linearly
#: with the history: 78 blocks at 5,000 windows instead of 6. A merge
#: writes the merged block anew, so an observation is written O(log n)
#: times over the history's life. The small first size keeps the tail,
#: which every checkpoint re-encodes, short.
_HISTORY_FANOUT = 4


@dataclass(frozen=True)
class Observation:
    """One monitored snapshot's verdict."""

    index: int
    deviation: float
    significance: float
    drifted: bool
    reference_index: int

    def to_row(self) -> list[Any]:
        """The JSON row ``[index, deviation, significance, drifted,
        reference_index]`` a checkpoint stores."""
        return [
            self.index,
            self.deviation,
            self.significance,
            self.drifted,
            self.reference_index,
        ]

    @classmethod
    def from_row(cls, row: Iterable[Any]) -> "Observation":
        """Inverse of :meth:`to_row`."""
        i, d, s, f, r = row
        return cls(int(i), float(d), float(s), bool(f), int(r))

    def describe(self) -> str:
        flag = "DRIFT" if self.drifted else "ok"
        return (
            f"snapshot {self.index}: delta={self.deviation:.4f} "
            f"sig={self.significance:.0f}% vs reference "
            f"{self.reference_index} [{flag}]"
        )


def _block_layout(n: int) -> list[tuple[int, int]]:
    """``(start, size)`` of the sealed blocks of an ``n``-long history.

    Greedy, largest size first, so appending only ever merges a full
    run of ``_HISTORY_FANOUT`` blocks into one; the tail left over is
    shorter than ``_HISTORY_BLOCK``.
    """
    size = _HISTORY_BLOCK
    while size * _HISTORY_FANOUT <= n:
        size *= _HISTORY_FANOUT
    layout: list[tuple[int, int]] = []
    start = 0
    while size >= _HISTORY_BLOCK:
        while start + size <= n:
            layout.append((start, size))
            start += size
        size //= _HISTORY_FANOUT
    return layout


def _settled(exceeded: int, n_boot: int, threshold: float) -> bool:
    """Whether ``exceeded`` replicates at or above the observed deviation
    settle a window as not drifted: even if every replicate still to
    come fell below it, its significance over all ``n_boot`` would stay
    under ``threshold``."""
    return percent_below(n_boot - exceeded, n_boot) < threshold


def _first_block(n_boot: int, threshold: float) -> int:
    """A sequential qualification's first block: three fifths of
    ``n_boot`` and at least the fewest exceedances that settle a window,
    or all ``n_boot`` when none can (threshold 0); a window it leaves
    open draws the rest in one more call. Each draw call has a fixed
    cost worth several replicates (a lits plan's GEMM streams the whole
    pooled membership), so small first blocks make a stream's cost
    follow how many of its windows drift: blocks of two that doubled
    spread stream-lits' ``rows_per_s`` over input seeds three times
    wider than three fifths (2-core VM, one BLAS thread)."""
    settling = [e for e in range(1, n_boot + 1) if _settled(e, n_boot, threshold)]
    return max(settling[0], -(-3 * n_boot // 5)) if settling else n_boot


@dataclass(frozen=True)
class Reference:
    """The snapshot observations are measured against; ``index`` is the
    fitted snapshot's index or that of the observation that promoted it."""

    dataset: DatasetLike
    model: ModelLike
    index: int


@dataclass
class ChangeMonitor:
    """Deviation-based snapshot monitor.

    Parameters
    ----------
    model_builder:
        ``dataset -> Model``; re-invoked for every snapshot and inside
        the bootstrap loop.
    f, g:
        Difference and aggregate functions for the deviation.
    n_boot:
        Bootstrap resamples per qualification. ``0`` disables the
        bootstrap entirely: the drift decision falls back to comparing
        the raw deviation against ``delta_threshold`` (the streaming
        monitor's cheap mode, where a full resampling pass per window
        would defeat incremental maintenance).
    threshold:
        Significance percentage above which a snapshot counts as drifted.
    delta_threshold:
        Deviation cut-off used only when ``n_boot == 0``; required then,
        ignored otherwise. Recorded significance degenerates to 100/0
        for drifted/quiet snapshots in that mode.
    policy:
        ``"fixed"`` or ``"reset_on_drift"`` (see module docstring).
    rng:
        Random generator for the bootstrap; each qualification draws one
        seed from it for its own child generator. Left ``None`` with the
        bootstrap in play (``n_boot > 0``), an unseeded generator is
        created once at construction through the shared
        :func:`~repro.stats.resample_plan._resolve_rng` warn-path, like
        every other significance API -- unseeded drift verdicts cannot
        be reproduced. The cheap ``n_boot == 0`` mode never consumes
        randomness and creates no generator (``rng`` stays ``None``).
    refit_models:
        Whether the bootstrap re-induces models per replicate (see
        :func:`repro.stats.bootstrap.deviation_significance`); the
        default holds the observed structures fixed, as the paper does,
        and qualifies through the count-space engine (one pooled scan
        per qualification instead of ``n_boot`` rescans), drawing
        replicates only until the verdict is settled.
    """

    model_builder: ModelBuilder
    f: DifferenceFunction = ABSOLUTE
    g: AggregateFunction = SUM
    n_boot: int = 50
    threshold: float = 95.0
    delta_threshold: float | None = None
    policy: str = "fixed"
    rng: np.random.Generator | None = None
    refit_models: bool = False
    history: list[Observation] = field(default_factory=list)
    _reference: Reference | None = None
    _next_index: int = 0
    # the history's sealed blocks by (start, size), as state() laid them
    # out: each stays the same tuple while the history holds its
    # observations
    _sealed: dict[tuple[int, int], tuple[Observation, ...]] = field(
        default_factory=dict, repr=False, compare=False
    )
    # the history's references as last sealed
    _seen: list[Observation] = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise InvalidParameterError(
                f"policy must be one of {POLICIES}, got {self.policy!r}"
            )
        if not 0.0 <= self.threshold <= 100.0:
            raise InvalidParameterError("threshold must be in [0, 100]")
        if self.n_boot < 0:
            raise InvalidParameterError("n_boot must be >= 0")
        if self.n_boot == 0 and self.delta_threshold is None:
            raise InvalidParameterError(
                "n_boot=0 disables the bootstrap; provide delta_threshold "
                "for the drift decision"
            )
        if self.rng is None and self.n_boot > 0:
            # every generator this monitor creates comes from the single
            # _resolve_rng warn-path; the cheap n_boot=0 mode never
            # consumes randomness, so it creates no generator at all
            self.rng = _resolve_rng(None, None, "ChangeMonitor")

    @property
    def is_fitted(self) -> bool:
        return self._reference is not None

    @property
    def reference(self) -> Reference:
        """The current reference; each fit or promotion replaces it."""
        if self._reference is None:
            raise NotFittedError("call fit(reference) first")
        return self._reference

    def fit(self, reference: DatasetLike) -> "ChangeMonitor":
        """Set the reference snapshot; returns ``self`` for chaining."""
        self._reference = Reference(
            reference, self.model_builder(reference), self._next_index
        )
        self._next_index += 1
        return self

    def state(self) -> dict[str, Any]:
        """Resumable state: ``"monitor"`` and ``"rng_state"``.

        ``"monitor"`` holds the next index, the reference's index, the
        history's sealed blocks as ``"history_blocks"`` -- tuples that
        stay the same objects while :attr:`history` holds their
        observations, so a checkpoint writes each once -- and the open
        tail after them as ``"history"`` JSON rows. Everything but the
        blocks is JSON-ready. A resumed monitor re-fits the reference's
        rows before :meth:`restore`.
        """
        blocks = self._seal()
        tail = self.history[sum(map(len, blocks)) :]
        return {
            "monitor": {
                "next_index": self._next_index,
                "reference_index": (
                    -1 if self._reference is None else self._reference.index
                ),
                "history_blocks": blocks,
                "history": [o.to_row() for o in tail],
            },
            "rng_state": (
                None if self.rng is None else self.rng.bit_generator.state
            ),
        }

    def _seal(self) -> list[tuple[Observation, ...]]:
        """The history's sealed blocks, re-sealing any the history no
        longer holds (an edited or truncated :attr:`history`). While it
        only grew, one list comparison with ``_seen`` -- an O(n) walk in
        C that passes each element on identity -- vouches for every kept
        block, instead of a tuple rebuilt and compared per block."""
        self._seen += self.history[len(self._seen) :]
        grown = self._seen == self.history
        sealed: dict[tuple[int, int], tuple[Observation, ...]] = {}
        for start, size in _block_layout(len(self.history)):
            kept = self._sealed.get((start, size))
            if kept is None or not grown:
                block = tuple(self.history[start : start + size])
                kept = kept if kept == block else block
            sealed[start, size] = kept
        self._sealed = sealed
        if not grown:
            self._seen = list(self.history)
        return list(sealed.values())

    def restore(self, state: dict[str, Any]) -> None:
        """Adopt a :meth:`state`, so the next observation continues it.

        ``"history_blocks"`` holds sequences of observations, and
        ``"history"`` the rows after them. Blocks passed as tuples stay
        the sealed blocks' objects, so a checkpoint never writes them
        again.
        """
        saved = state["monitor"]
        self._next_index = int(saved["next_index"])
        if self._reference is not None:
            self._reference = replace(
                self._reference, index=int(saved["reference_index"])
            )
        blocks = [tuple(block) for block in saved["history_blocks"]]
        self.history[:] = [o for block in blocks for o in block]
        self.history.extend(Observation.from_row(r) for r in saved["history"])
        # the next state() re-seals any block off its layout
        starts = accumulate(map(len, blocks), initial=0)
        self._sealed = {
            (start, len(block)): block for start, block in zip(starts, blocks)
        }
        self._seen = list(self.history)
        if state["rng_state"] is not None and self.rng is not None:
            self.rng.bit_generator.state = state["rng_state"]

    def _record(
        self,
        snapshot: DatasetLike,
        delta: float,
        model: ModelLike | None = None,
        resample_plan: "ResamplePlan | None" = None,
    ) -> Observation:
        """Qualify one snapshot's deviation, record it, apply the policy."""
        reference = self.reference
        if resample_plan is not None and self.refit_models:
            # mirrors deviation_significance's models=/refit conflict: a
            # compiled fixed-structure plan cannot produce the refit
            # null this monitor was configured for
            raise InvalidParameterError(
                "refit_models=True re-induces models per replicate; a "
                "precompiled resample_plan holds the structure fixed and "
                "would silently qualify under the wrong null"
            )
        index = self._next_index
        self._next_index += 1
        if self.n_boot == 0:
            drifted = delta >= self.delta_threshold
            significance = 100.0 if drifted else 0.0
        else:
            significance = self._qualify(snapshot, delta, model, resample_plan)
            drifted = significance >= self.threshold
        observation = Observation(
            index, delta, significance, drifted, reference.index
        )
        self.history.append(observation)
        if drifted and self.policy == "reset_on_drift":
            self._reference = Reference(
                snapshot,
                model if model is not None else self.model_builder(snapshot),
                index,
            )
        return observation

    def _qualify(
        self,
        snapshot: DatasetLike,
        delta: float,
        model: ModelLike | None,
        plan: "ResamplePlan | None",
    ) -> float:
        """The bootstrap significance of ``delta``, sequentially drawn.

        Each qualification draws from its own child generator, seeded by
        one draw from :attr:`rng` (:data:`~repro.stats.DRAW_SCHEME` 3),
        so the replicates one snapshot uses never move a later one's.
        With the structure fixed, the null comes from a count-space
        plan -- ``plan``, or one compiled here over the reference model
        and the snapshot's -- in at most two blocks: the first of
        :func:`_first_block` replicates, and the rest only if the first
        leaves the snapshot's verdict open, stopping once the
        exceedances settle it as not drifted. Consecutive blocks
        consume the child's stream as one call would, so the drawn null
        is a prefix of the full one and the verdict is the full null's;
        the recorded significance is over the replicates drawn.
        ``refit_models`` and structures with no count-space plan run the
        per-replicate loop over all ``n_boot`` replicates.
        """
        assert self.rng is not None  # __post_init__ creates it for n_boot > 0
        reference, n_boot = self.reference, self.n_boot
        child = np.random.default_rng(int(self.rng.integers(0, 2**63)))
        engine: dict[str, Any] = dict(f=self.f, g=self.g)
        models = None
        if plan is None and not self.refit_models:
            m2 = model if model is not None else self.model_builder(snapshot)
            models = (reference.model, m2)
            structure = gcr(reference.model.structure, m2.structure)
            plan = compile_resample_plan(structure, reference.dataset, snapshot)
        sink = metrics()
        if plan is None:
            sink.inc("monitor.qualify.replicates", n_boot)
            return deviation_significance(
                reference.dataset, snapshot, self.model_builder, n_boot=n_boot,
                rng=child, refit_models=self.refit_models, models=models,
                **engine,
            ).significance_percent
        block = _first_block(n_boot, self.threshold)
        nulls: list[np.ndarray] = []
        drawn = exceeded = 0
        while drawn < n_boot and not _settled(exceeded, n_boot, self.threshold):
            size = n_boot - drawn if drawn else block
            nulls.append(plan.null_deviations(size, child, **engine))
            drawn += size
            exceeded += int(np.count_nonzero(~(nulls[-1] < delta)))
        sink.inc("monitor.qualify.replicates", drawn)
        if drawn < n_boot:
            sink.inc("monitor.qualify.settled_early")
        return BootstrapResult(delta, np.concatenate(nulls)).significance_percent

    def observe(self, snapshot: DatasetLike) -> Observation:
        """Qualify one new snapshot against the current reference."""
        reference = self.reference
        model = self.model_builder(snapshot)
        delta = deviation(
            reference.model,
            model,
            reference.dataset,
            snapshot,
            f=self.f,
            g=self.g,
        ).value
        return self._record(snapshot, delta, model)

    def observe_precomputed(
        self,
        snapshot: DatasetLike,
        delta: float,
        model: ModelLike | None = None,
        resample_plan: "ResamplePlan | None" = None,
    ) -> Observation:
        """Qualify a snapshot whose deviation was computed out-of-band.

        The streaming layer maintains per-window deviations
        incrementally (mergeable sketches over the reference structure)
        and only needs the monitor for what it owns: bootstrap
        qualification, the drift decision, the history, and the
        reference policy. ``model`` (the snapshot's own model, if one
        was induced) is only used when a ``reset_on_drift`` reset makes
        the snapshot the new reference; left ``None``, the reset
        re-induces it with ``model_builder``. ``resample_plan`` -- an
        already-compiled :class:`~repro.stats.resample_plan.ResamplePlan`
        over the pooled reference + snapshot rows -- makes the
        qualification itself count-space too, so ``snapshot`` is never
        resampled (it need not even be a real dataset unless a
        ``reset_on_drift`` reset promotes it).
        """
        return self._record(
            snapshot, float(delta), model, resample_plan=resample_plan
        )

    def observe_many(
        self, snapshots: Iterable[DatasetLike]
    ) -> list[Observation]:
        """Qualify a whole batch of snapshots in one pass.

        Produces exactly the observations a sequence of
        :meth:`observe` calls would, but under the ``"fixed"`` policy
        the deviations against the shared reference are computed with
        :func:`repro.core.deviation.deviation_many`: the reference
        dataset is support-counted once over the union of every
        snapshot's GCR itemsets, and each snapshot is scanned once.

        Under ``"reset_on_drift"`` the reference can change mid-batch,
        so the snapshots are simply observed sequentially.
        """
        reference = self.reference
        snapshots = list(snapshots)
        if self.policy != "fixed" or len(snapshots) < 2:
            return [self.observe(s) for s in snapshots]

        models = [self.model_builder(s) for s in snapshots]
        deltas = deviation_many(
            reference.model,
            models,
            reference.dataset,
            snapshots,
            f=self.f,
            g=self.g,
        )
        return [
            self._record(snapshot, delta.value, model)
            for snapshot, delta, model in zip(snapshots, deltas, models)
        ]

    def drift_points(self) -> list[int]:
        """Indices of the snapshots flagged as drifted so far.

        Snapshot indices are assigned at qualification time, so the
        result is identical whether snapshots arrived through
        :meth:`observe`, :meth:`observe_many`, or any interleaving of
        the two, and is always sorted ascending. Asking an unfitted
        monitor is a usage error (it cannot have observed anything), and
        raises instead of returning a misleading empty list.
        """
        if not self.is_fitted:
            raise NotFittedError(
                "drift_points() on an unfitted monitor: call fit(reference) "
                "and observe snapshots first"
            )
        return sorted(obs.index for obs in self.history if obs.drifted)
