"""The deviation measure (Definitions 3.5, 3.6 and 5.2).

``deviation_over_structure`` implements ``delta_1``: both datasets are
measured over one *common* structural component and the per-region
differences are aggregated. ``deviation`` implements ``delta``: the two
models' structures are first extended to their greatest common
refinement, then ``delta_1`` is applied -- optionally after focussing the
GCR w.r.t. a region (Definition 5.2's ``delta^rho``).

The result object keeps the per-region breakdown so exploratory analysis
(Section 5.1's rank/select operators) can reuse a single scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from typing import Any, Sequence

from repro.core.aggregate import SUM, AggregateFunction
from repro.core.difference import ABSOLUTE, DifferenceFunction
from repro.core.gcr import gcr
from repro.core.model import LitsStructure, Model, Structure
from repro.core.region import Region
from repro._typing import DatasetLike
from repro.errors import InvalidParameterError


@dataclass(frozen=True)
class RegionDeviation:
    """One region's contribution to a deviation."""

    region: Region
    value: float
    count1: int
    count2: int
    selectivity1: float
    selectivity2: float

    def describe(self) -> str:
        return (
            f"{self.region.describe()}: {self.value:.6g} "
            f"(sigma1={self.selectivity1:.4g}, sigma2={self.selectivity2:.4g})"
        )


@dataclass(frozen=True)
class DeviationResult:
    """A deviation value plus its per-region breakdown.

    ``value`` is ``g({f(...)})`` over all regions of the (possibly
    focussed) common structure. The arrays are aligned with ``regions``.
    """

    value: float
    f_name: str
    g_name: str
    regions: tuple[Region, ...]
    per_region: np.ndarray
    counts1: np.ndarray
    counts2: np.ndarray
    n1: int
    n2: int

    def __float__(self) -> float:
        return self.value

    @property
    def selectivities1(self) -> np.ndarray:
        return self.counts1 / self.n1 if self.n1 else np.zeros_like(self.per_region)

    @property
    def selectivities2(self) -> np.ndarray:
        return self.counts2 / self.n2 if self.n2 else np.zeros_like(self.per_region)

    def region_deviations(self) -> list[RegionDeviation]:
        """The per-region contributions, in structure order."""
        s1, s2 = self.selectivities1, self.selectivities2
        return [
            RegionDeviation(
                region=r,
                value=float(self.per_region[i]),
                count1=int(self.counts1[i]),
                count2=int(self.counts2[i]),
                selectivity1=float(s1[i]),
                selectivity2=float(s2[i]),
            )
            for i, r in enumerate(self.regions)
        ]

    def top_regions(self, k: int = 5) -> list[RegionDeviation]:
        """The ``k`` regions contributing the most, by magnitude.

        Ranking uses ``abs(value)`` so that signed difference functions
        surface large negative contributions too; each returned
        :class:`RegionDeviation` keeps its signed value.
        """
        contributions = self.region_deviations()
        contributions.sort(key=lambda rd: -abs(rd.value))
        return contributions[:k]


def deviation_over_structure(
    structure: Structure,
    dataset1: DatasetLike,
    dataset2: DatasetLike,
    f: DifferenceFunction = ABSOLUTE,
    g: AggregateFunction = SUM,
) -> DeviationResult:
    """``delta_1``: deviation over an already-common structural component."""
    return deviation_over_structure_many(structure, dataset1, [dataset2], f, g)[0]


def deviation(
    model1: Model,
    model2: Model,
    dataset1: DatasetLike,
    dataset2: DatasetLike,
    f: DifferenceFunction = ABSOLUTE,
    g: AggregateFunction = SUM,
    focus: Region | None = None,
) -> DeviationResult:
    """``delta`` (Definition 3.6), optionally focussed (Definition 5.2).

    Parameters
    ----------
    model1, model2:
        The two models (same model class over the same attribute space).
    dataset1, dataset2:
        The datasets that induced them (scanned once each to measure the
        GCR regions).
    f, g:
        Difference and aggregate functions; defaults give the paper's
        workhorse ``delta_(f_a, g_sum)``.
    focus:
        An optional focussing region ``rho``; when given, every GCR
        region is intersected with it before measuring.
    """
    structure = gcr(model1.structure, model2.structure)
    if focus is not None:
        structure = structure.focussed(focus)

    fast = _counts_from_models(model1, model2, structure, len(dataset1), len(dataset2))
    if fast is not None:
        return deviation_from_counts(
            structure, *fast, len(dataset1), len(dataset2), f, g
        )
    return deviation_over_structure(structure, dataset1, dataset2, f, g)


def deviation_from_counts(
    structure: Structure,
    counts1: np.ndarray,
    counts2: np.ndarray,
    n1: int,
    n2: int,
    f: DifferenceFunction = ABSOLUTE,
    g: AggregateFunction = SUM,
) -> DeviationResult:
    """``delta_1`` from already-measured region counts (no dataset scan).

    Every deviation is assembled here. The streaming layer measures
    structures out-of-band -- reference counts come from a stored
    model's measure component, window counts from a mergeable
    :class:`~repro.stream.sketch.SupportSketch` -- and only needs the
    difference/aggregate step applied. ``counts1`` and ``counts2`` must
    align with ``structure.regions``.
    """
    per_region = f(counts1, counts2, n1, n2)
    return DeviationResult(
        value=g(per_region),
        f_name=f.name,
        g_name=g.name,
        regions=structure.regions,
        per_region=per_region,
        counts1=np.asarray(counts1),
        counts2=np.asarray(counts2),
        n1=n1,
        n2=n2,
    )


def deviation_over_structure_many(
    structure: Structure,
    dataset1: DatasetLike,
    datasets: Sequence[DatasetLike],
    f: DifferenceFunction = ABSOLUTE,
    g: AggregateFunction = SUM,
) -> list[DeviationResult]:
    """``delta_1`` of one reference dataset against many snapshots.

    The reference dataset is measured over ``structure`` exactly once;
    each snapshot is then measured with one ``structure.counts`` scan of
    its own (partition structures share one precompiled counting plan
    across the batch), so a series of ``W`` windows costs ``W + 1``
    scans instead of ``2W``.
    """
    counts1 = np.asarray(structure.counts(dataset1))
    n1 = len(dataset1)
    return [
        deviation_from_counts(
            structure, counts1, np.asarray(structure.counts(d)), n1, len(d), f, g
        )
        for d in datasets
    ]


def deviation_many(
    model1: Model,
    models: Sequence[Model],
    dataset1: DatasetLike,
    datasets: Sequence[DatasetLike],
    f: DifferenceFunction = ABSOLUTE,
    g: AggregateFunction = SUM,
    focus: Region | None = None,
) -> list[DeviationResult]:
    """``delta`` of one model against a fleet of models, batched.

    Computes ``deviation(model1, models[i], dataset1, datasets[i])`` for
    every ``i`` while scanning each dataset once:

    * pairs whose measures are all stored in the two models are answered
      without touching either dataset (the Section 7.1 fast path);
    * for lits-models, the reference dataset is counted in **one**
      batched support-counting pass over the union of every pair's GCR
      itemsets, and each fleet dataset is counted in one batched pass
      over its own GCR's itemsets -- one scan per window, not one scan
      per window per itemset;
    * for dt-/cluster-models, every pair's GCR overlay reuses the
      memoised base assigner pass over the shared reference dataset (one
      scan of it per *distinct* base partition, not per pair), and
      identical GCR structures share the reference's measured counts;
    * other model classes fall back to the per-pair scan.

    Returns the :class:`DeviationResult` list aligned with ``models``.
    The fleet (``models[i]`` vs ``datasets[i]``) must be aligned; this is
    exactly the store-fleet and windowed-stream access pattern.
    """
    if len(models) != len(datasets):
        raise InvalidParameterError(
            f"models and datasets must align: {len(models)} vs {len(datasets)}"
        )
    structures: list[Structure] = []
    for m in models:
        s = gcr(model1.structure, m.structure)
        if focus is not None:
            s = s.focussed(focus)
        structures.append(s)
    n1 = len(dataset1)

    # Pairs answerable from the stored model measures alone.
    model_fast: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for i, (m, s) in enumerate(zip(models, structures)):
        pair = _counts_from_models(model1, m, s, n1, len(datasets[i]))
        if pair is not None:
            model_fast[i] = pair

    # One batched pass over dataset1 for every remaining lits pair.
    batched = {
        i
        for i, s in enumerate(structures)
        if i not in model_fast
        and isinstance(s, LitsStructure)
        and hasattr(dataset1, "index")
        and hasattr(datasets[i], "index")
    }
    counts1_of: dict[frozenset[int], int] = {}
    if batched:
        union: dict[frozenset[int], None] = {}
        for i in sorted(batched):
            union.update(dict.fromkeys(structures[i].itemsets))
        union_list = list(union)
        union_counts = dataset1.index.support_counts(union_list)
        counts1_of = dict(zip(union_list, union_counts))

    results: list[DeviationResult] = []
    # Pairs sharing a GCR structure (e.g. fleets of identical-structure
    # partition models) measure the reference once, not once per pair.
    # Keyed on counts_key (order-sensitive): same region *set* in a
    # different order must not reuse a positionally-aligned vector.
    counts1_by_key: dict[Any, np.ndarray] = {}
    for i, s in enumerate(structures):
        n2 = len(datasets[i])
        if i in model_fast:
            counts1, counts2 = model_fast[i]
        elif i in batched:
            counts1 = np.array(
                [counts1_of[it] for it in s.itemsets], dtype=np.int64
            )
            counts2 = datasets[i].index.support_counts(s.itemsets)
        else:
            key = s.counts_key
            counts1 = counts1_by_key.get(key)
            if counts1 is None:
                counts1 = np.asarray(s.counts(dataset1))
                counts1_by_key[key] = counts1
            counts2 = np.asarray(s.counts(datasets[i]))
        results.append(deviation_from_counts(s, counts1, counts2, n1, n2, f, g))
    return results


def _counts_from_models(
    model1: Model, model2: Model, structure: Structure, n1: int, n2: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Measures straight from the models when no scan is needed.

    When two lits-models have identical structural components, every GCR
    measure is already stored in both models, so no dataset scan is
    required -- the paper's Section 7.1 observation that for
    identical-structure models "all the measures necessary to compute
    the deviation are obtained directly from the models". A model whose
    itemsets are the structure's (the same canonical arrays) gives its
    counts from its support vector, which is aligned with them; rint
    rounds half to even, as ``round`` does. Any other model is looked up
    itemset by itemset.
    """
    from repro.core.lits import LitsModel  # local import to avoid a cycle
    from repro.data.transactions import itemset_arrays

    if not (
        isinstance(model1, LitsModel)
        and isinstance(model2, LitsModel)
        and isinstance(structure, LitsStructure)
    ):
        return None
    itemsets = structure.itemsets
    arrays = itemset_arrays(itemsets)
    pair: list[np.ndarray] = []
    for model, n in ((model1, n1), (model2, n2)):
        if all(map(np.array_equal, itemset_arrays(model.itemsets), arrays)):
            pair.append(np.rint(model.support_vector * n).astype(np.int64))
            continue
        supports = model.supports
        if any(s not in supports for s in itemsets):
            return None
        pair.append(
            np.array([round(supports[s] * n) for s in itemsets], dtype=np.int64)
        )
    return pair[0], pair[1]
