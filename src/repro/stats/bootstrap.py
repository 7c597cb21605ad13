"""The qualification procedure: bootstrap significance (Section 3.4).

"Is the deviation sufficiently large that it is unlikely that the two
datasets are generated by the same generating process?" Following the
paper (and its reference, Efron & Tibshirani), the null distribution
``F`` of deviations under the same-process hypothesis is estimated by
pooling the two datasets and repeatedly resampling pairs of the original
sizes; the significance ``sig(d)`` of the observed deviation is its
percentile in that empirical null.

Figure 13/14 semantics: a significance close to 100 means "reject the
same-process null"; small values (rows (1) there) mean the observed
deviation is unremarkable under the null.

Two execution strategies back the same interface:

* the **count-space engine** (:mod:`repro.stats.resample_plan`) -- when
  the structure is held fixed (``refit_models=False``, the paper's
  construction), the pooled data is scanned once into a per-row
  region-membership representation and the whole null vector is
  computed from multiplicity draws, with zero resampled-dataset
  materialisation. :func:`deviation_significance` routes here
  automatically; ~an order of magnitude faster at ``n_boot=100``.
* the **per-replicate loop** (:func:`significance_of_statistic`) --
  materialises two resampled datasets per replicate and re-evaluates
  the statistic. This stays as the fully general path (arbitrary
  statistics, ``refit_models=True``) and as the property-tested oracle
  the engine must match bit for bit under shared draws.

Reproducibility: every resample consumes the ``rng`` you pass (or a
generator seeded with ``seed``). Passing neither falls back to an
unseeded generator and warns -- an unseeded significance number cannot
be reproduced, so published runs should always pin a seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro._typing import DatasetLike, ModelBuilder, ModelLike
from repro.core.aggregate import SUM, AggregateFunction
from repro.core.deviation import deviation, deviation_over_structure
from repro.core.difference import ABSOLUTE, DifferenceFunction
from repro.data.sampling import bootstrap_pair
from repro.errors import InvalidParameterError
from repro.stats.resample_plan import _resolve_rng, compile_resample_plan


@dataclass(frozen=True)
class BootstrapResult:
    """Observed statistic, its bootstrap null sample, and the significance."""

    observed: float
    null_values: np.ndarray

    @property
    def significance_percent(self) -> float:
        """``sig(d)``: percent of null deviations *strictly* below ``d``.

        Ties count against significance: a null value exactly equal to
        the observed one is evidence the null can produce it, so it is
        not below. An empty null reports 0 (nothing supports rejecting).
        """
        if len(self.null_values) == 0:
            return 0.0
        below = int(np.count_nonzero(self.null_values < self.observed))
        return percent_below(below, len(self.null_values))

    @property
    def p_value(self) -> float:
        """Add-one-corrected p: ``(1 + #{null >= observed}) / (B + 1)``.

        The standard Monte-Carlo estimator (Efron & Tibshirani): the
        observed value is counted as one more draw from the null, so a
        finite resample can never report the impossible ``p = 0`` --
        with ``B`` replicates the floor is ``1 / (B + 1)``. The
        uncorrected fraction remains available as :attr:`p_value_raw`.
        """
        b = len(self.null_values)
        exceed = int(np.count_nonzero(self.null_values >= self.observed))
        return float((1 + exceed) / (b + 1))

    @property
    def p_value_raw(self) -> float:
        """Uncorrected fraction of null deviations >= the observed one.

        Can report exactly 0.0 when the observed value exceeds every
        null replicate; prefer :attr:`p_value` for reporting. An empty
        null reports 1.0 (no evidence against the null hypothesis).
        """
        if len(self.null_values) == 0:
            return 1.0
        return float(np.mean(self.null_values >= self.observed))


def percent_below(below: int, n_boot: int) -> float:
    """``100 * below / n_boot`` as :attr:`BootstrapResult.significance_percent`
    computes it: one float expression, shared by every rule that must
    agree with a recorded significance (the monitor's sequential stop)."""
    return 100.0 * (below / n_boot)


def significance_of_statistic(
    dataset1: DatasetLike,
    dataset2: DatasetLike,
    statistic: Callable[[DatasetLike, DatasetLike], float],
    n_boot: int = 100,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
) -> BootstrapResult:
    """Bootstrap the null distribution of an arbitrary two-dataset statistic.

    ``statistic(d1, d2)`` must return a scalar. The observed value is
    computed on the given datasets; the null sample re-computes it on
    ``n_boot`` same-process pairs resampled from the pooled data.

    This is the fully general per-replicate loop: each replicate
    materialises two resampled datasets and re-evaluates ``statistic``
    from scratch. Deviations of a *fixed* structure should go through
    :func:`deviation_significance`, which computes the same null in
    count-space from a single pooled scan. Passing neither ``rng`` nor
    ``seed`` warns and uses an unseeded generator.
    """
    if n_boot < 1:
        raise InvalidParameterError("n_boot must be >= 1")
    rng = _resolve_rng(rng, seed, "significance_of_statistic")
    observed = float(statistic(dataset1, dataset2))
    pooled = dataset1.concat(dataset2)
    n1, n2 = len(dataset1), len(dataset2)
    null_values = np.empty(n_boot)
    for b in range(n_boot):
        d1b, d2b = bootstrap_pair(pooled, n1, n2, rng)
        null_values[b] = float(statistic(d1b, d2b))
    return BootstrapResult(observed=observed, null_values=null_values)


def deviation_significance(
    dataset1: DatasetLike,
    dataset2: DatasetLike,
    model_builder: ModelBuilder | None = None,
    f: DifferenceFunction = ABSOLUTE,
    g: AggregateFunction = SUM,
    n_boot: int = 100,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
    refit_models: bool = False,
    models: tuple[ModelLike, ModelLike] | None = None,
) -> BootstrapResult:
    """Bootstrap significance of the FOCUS deviation between two datasets.

    Two null constructions are offered:

    * ``refit_models=False`` (default, the paper's): the two models are
      induced once from the observed datasets, their GCR is held fixed,
      and each bootstrap replicate re-measures that structure on a
      resampled pair -- the null is the distribution of *measure*
      fluctuations under the same-process hypothesis. This is the only
      construction computationally compatible with the paper's setup
      (re-mining a 1M-row dataset inside each of ~100 replicates would
      have dwarfed the 44-second deviation computations its Figure 13
      reports). Because the structure is fixed, the null is computed by
      the count-space engine: one scan of the pooled rows into a
      region-membership representation, then every replicate's counts
      from multiplicity draws (:mod:`repro.stats.resample_plan`) -- no
      resampled dataset is ever materialised.
    * ``refit_models=True``: ``model_builder`` re-induces both models on
      every replicate, so the null additionally contains the structural
      jitter of independently re-fit models. More conservative: an
      extension of a dataset by a small block (``D`` vs ``D + delta``)
      shares structure with the original and can fall *below* this
      null even when its measure shift is genuine. Runs through the
      per-replicate loop (there is no fixed structure to compile).

    Parameters
    ----------
    model_builder:
        ``dataset -> Model``. Optional when ``models`` is given and
        ``refit_models`` is False.
    models:
        Optionally the two already-induced models ``(m1, m2)``; skips
        re-building them (the experiment tables and the change monitor
        have them in hand already).
    rng, seed:
        The resampling generator, or a seed for one. Omitting both
        warns and uses an unseeded generator (irreproducible).
    """
    if n_boot < 1:
        raise InvalidParameterError("n_boot must be >= 1")
    if refit_models:
        if models is not None:
            raise InvalidParameterError(
                "refit_models=True re-induces models on every replicate, "
                "so pinned models=(m1, m2) would be silently ignored; "
                "pass one or the other"
            )
        if model_builder is None:
            raise InvalidParameterError(
                "refit_models=True re-induces models per replicate and "
                "needs model_builder"
            )

        def statistic(d1: DatasetLike, d2: DatasetLike) -> float:
            m1 = model_builder(d1)
            m2 = model_builder(d2)
            return deviation(m1, m2, d1, d2, f=f, g=g).value

        return significance_of_statistic(
            dataset1, dataset2, statistic, n_boot=n_boot, rng=rng, seed=seed
        )

    from repro.core.gcr import gcr

    if models is not None:
        m1, m2 = models
    elif model_builder is not None:
        m1 = model_builder(dataset1)
        m2 = model_builder(dataset2)
    else:
        raise InvalidParameterError(
            "provide model_builder or the already-induced models=(m1, m2)"
        )
    structure = gcr(m1.structure, m2.structure)
    rng = _resolve_rng(rng, seed, "deviation_significance")

    plan = compile_resample_plan(structure, dataset1, dataset2)
    if plan is not None:
        return plan.significance(n_boot, rng, f=f, g=g)

    # No count-space representation for this structure/dataset kind:
    # fall back to the per-replicate measurement loop.
    def measure_statistic(d1: DatasetLike, d2: DatasetLike) -> float:
        return deviation_over_structure(structure, d1, d2, f=f, g=g).value

    return significance_of_statistic(
        dataset1, dataset2, measure_statistic, n_boot=n_boot, rng=rng
    )
