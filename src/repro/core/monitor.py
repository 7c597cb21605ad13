"""Snapshot change monitoring (the paper's motivating application).

From the introduction: "A sales analyst who is monitoring a dataset ...
may want to analyze the data thoroughly only if the current snapshot
differs significantly from previously analyzed snapshots. ... an
algorithm that can quantify deviations can save the analyst considerable
time and effort."

:class:`ChangeMonitor` packages that loop: fit a reference model once,
then feed successive snapshots; each observation computes the FOCUS
deviation against the reference, qualifies it with the bootstrap
(Section 3.4), and reports whether the snapshot needs a real look.
Reference policies:

* ``"fixed"`` -- always compare against the original reference;
* ``"reset_on_drift"`` -- after a significant deviation, the drifted
  snapshot becomes the new reference (the analyst re-analysed it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro._typing import DatasetLike, ModelBuilder, ModelLike
from repro.core.aggregate import SUM, AggregateFunction
from repro.core.deviation import deviation, deviation_many
from repro.core.difference import ABSOLUTE, DifferenceFunction
from repro.errors import InvalidParameterError, NotFittedError
from repro.stats.bootstrap import BootstrapResult, deviation_significance
from repro.stats.resample_plan import _resolve_rng

if TYPE_CHECKING:
    from repro.stats.resample_plan import ResamplePlan

POLICIES = ("fixed", "reset_on_drift")


@dataclass(frozen=True)
class Observation:
    """One monitored snapshot's verdict."""

    index: int
    deviation: float
    significance: float
    drifted: bool
    reference_index: int

    def describe(self) -> str:
        flag = "DRIFT" if self.drifted else "ok"
        return (
            f"snapshot {self.index}: delta={self.deviation:.4f} "
            f"sig={self.significance:.0f}% vs reference "
            f"{self.reference_index} [{flag}]"
        )


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
        Random generator for the bootstrap. Left ``None`` with the
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
        per qualification instead of ``n_boot`` rescans).
    executor, n_blocks:
        Fan the engine's replicate blocks over a
        :mod:`repro.stream.executor` backend for large ``n_boot``. A
        name is resolved to one executor instance at construction, so a
        pooled backend owns a single worker pool across every
        qualification; release it with :meth:`close` when done.
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
    executor: str | object = "serial"  # name or executor instance
    n_blocks: int = 1
    history: list[Observation] = field(default_factory=list)
    _reference_dataset: object = None
    _reference_model: object = None
    _reference_index: int = -1
    _next_index: int = 0

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
        # resolve a backend name to one instance now: fanned bootstrap
        # blocks then reuse a single worker pool across qualifications
        # instead of spawning one per observation (local import: the
        # stream package imports this module)
        from repro.stream.executor import get_executor

        self.executor = get_executor(self.executor)

    def close(self) -> None:
        """Release the bootstrap executor's worker pool, if it has one.

        A no-op for the serial backend; thread/process monitors that
        observed their last snapshot should close instead of leaving
        the pool to interpreter-exit teardown. The monitor stays usable
        afterwards (pooled backends respawn workers lazily).
        """
        from repro.stream.executor import release

        release(self.executor)

    @property
    def is_fitted(self) -> bool:
        return self._reference_model is not None

    def fit(self, reference: DatasetLike) -> "ChangeMonitor":
        """Set the reference snapshot; returns ``self`` for chaining."""
        self._reference_dataset = reference
        self._reference_model = self.model_builder(reference)
        self._reference_index = self._next_index
        self._next_index += 1
        return self

    def _qualify(
        self,
        snapshot: DatasetLike,
        delta: float,
        model: ModelLike | None = None,
        resample_plan: "ResamplePlan | None" = None,
    ) -> Observation:
        """Bootstrap-qualify one snapshot's deviation and record it."""
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
            if resample_plan is not None:
                # the observed deviation is the delta already computed
                # (and recorded) for this snapshot -- only the null is
                # drawn from the plan, sparing a redundant pooled
                # column-sum per qualification
                null = resample_plan.null_deviations(
                    self.n_boot,
                    self.rng,
                    f=self.f,
                    g=self.g,
                    executor=self.executor,
                    n_blocks=self.n_blocks,
                )
                significance = BootstrapResult(
                    observed=delta, null_values=null
                ).significance_percent
            else:
                significance = self._bootstrap_significance(snapshot, model)
            drifted = significance >= self.threshold
        observation = Observation(
            index=index,
            deviation=delta,
            significance=significance,
            drifted=drifted,
            reference_index=self._reference_index,
        )
        self.history.append(observation)
        return observation

    def _bootstrap_significance(
        self, snapshot: DatasetLike, model: ModelLike | None
    ) -> float:
        """Qualify via the bootstrap, reusing the cached reference model.

        With ``refit_models=False`` the GCR structure is fixed, so the
        reference model (induced once at :meth:`fit`) and the
        snapshot's model (passed down from :meth:`observe` /
        :meth:`observe_many` when they already built it) are handed to
        :func:`deviation_significance` as ``models`` -- no re-mining,
        and the null comes from the count-space engine.
        """
        models = None
        if not self.refit_models:
            m2 = model if model is not None else self.model_builder(snapshot)
            models = (self._reference_model, m2)
        return deviation_significance(
            self._reference_dataset,
            snapshot,
            self.model_builder,
            f=self.f,
            g=self.g,
            n_boot=self.n_boot,
            rng=self.rng,
            refit_models=self.refit_models,
            models=models,
            executor=self.executor,
            n_blocks=self.n_blocks,
        ).significance_percent

    def observe(self, snapshot: DatasetLike) -> Observation:
        """Qualify one new snapshot against the current reference."""
        if not self.is_fitted:
            raise NotFittedError("call fit(reference) before observe()")
        model = self.model_builder(snapshot)
        delta = deviation(
            self._reference_model,
            model,
            self._reference_dataset,
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
        if not self.is_fitted:
            raise NotFittedError(
                "call fit(reference) before observe_precomputed()"
            )
        return self._record(
            snapshot, float(delta), model, resample_plan=resample_plan
        )

    def _record(
        self,
        snapshot: DatasetLike,
        delta: float,
        model: ModelLike | None,
        resample_plan: "ResamplePlan | None" = None,
    ) -> Observation:
        """Qualify, append to history, and apply the reference policy."""
        observation = self._qualify(
            snapshot, delta, model=model, resample_plan=resample_plan
        )
        if observation.drifted and self.policy == "reset_on_drift":
            self._reference_dataset = snapshot
            self._reference_model = (
                model if model is not None else self.model_builder(snapshot)
            )
            self._reference_index = observation.index
        return observation

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
        if not self.is_fitted:
            raise NotFittedError("call fit(reference) before observe_many()")
        snapshots = list(snapshots)
        if self.policy != "fixed" or len(snapshots) < 2:
            return [self.observe(s) for s in snapshots]

        models = [self.model_builder(s) for s in snapshots]
        deltas = deviation_many(
            self._reference_model,
            models,
            self._reference_dataset,
            snapshots,
            f=self.f,
            g=self.g,
        )
        return [
            self._qualify(snapshot, delta.value, model=model)
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
