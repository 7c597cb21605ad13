"""The 2-component model abstraction (Definition 3.3) and its structures.

A model ``M`` induced by a dataset ``D`` is a pair
``<Lambda_M, Sigma(Lambda_M, D)>``: a *structural component* (a set of
regions) and a *measure component* (the selectivity of each region
w.r.t. ``D``). FOCUS never needs more than this, so the deviation engine
works against the :class:`Structure` interface:

* :class:`LitsStructure` -- a set of itemsets (lits-models). Measures are
  supports, counted against the dataset's bitmap index.
* :class:`PartitionStructure` -- box cells that partition the attribute
  space, optionally crossed with the class labels (dt-models and
  cluster-models). Measures are histogrammed in one vectorised pass.

Both structures support *focussing* (Definition 5.1): intersecting every
region with a focussing region, which Theorem 5.1 shows preserves the
meet-semilattice property.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Hashable, Iterable, Sequence

import numpy as np

from repro._typing import AssignerFn, DatasetLike
from repro.core.predicate import Conjunction
from repro.core.region import BoxRegion, ItemsetRegion, Region
from repro.errors import IncompatibleModelsError, InvalidParameterError

if TYPE_CHECKING:
    from repro.data.transactions import SupportCountingPlan


class Structure(ABC):
    """A structural component: an ordered set of regions with fast counting."""

    @property
    @abstractmethod
    def regions(self) -> tuple[Region, ...]:
        """The regions, in a deterministic order."""

    @property
    @abstractmethod
    def key(self) -> Hashable:
        """Order-insensitive identity; equal keys mean identical structures."""

    @property
    def counts_key(self) -> Hashable:
        """Order-*sensitive* identity: equal keys guarantee that counts
        vectors align region-for-region.

        Two structures can be equal as region *sets* (equal :attr:`key`)
        while enumerating their regions in different orders, in which
        case their counts vectors must not be mixed elementwise. Callers
        that cache or merge positional counts (the batched deviation
        engine, mergeable sketches) key on this instead of :attr:`key`.
        """
        return (type(self).__name__, tuple(r.key for r in self.regions))

    @abstractmethod
    def counts(self, dataset: DatasetLike) -> np.ndarray:
        """Absolute tuple counts per region (aligned with :attr:`regions`)."""

    @abstractmethod
    def focussed(self, region: Region) -> "Structure":
        """The structure with every region intersected with ``region``."""

    def selectivities(self, dataset: DatasetLike) -> np.ndarray:
        """Relative measures sigma(Lambda, D); zeros for an empty dataset."""
        n = len(dataset)
        counts = self.counts(dataset)
        if n == 0:
            return np.zeros(len(counts))
        return counts / n

    def __len__(self) -> int:
        return len(self.regions)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Structure):
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)


class _Canonical(tuple[frozenset[int], ...]):
    """Marker type: a tuple of frozensets already in canonical order.

    :func:`repro.stream.sketch.canonical_itemsets` and the wire decoder
    return this type, and :class:`LitsStructure` and
    ``canonical_itemsets`` short-circuit on it, so the canonicalisation
    cost is paid once per itemset collection -- not once per sketch or
    structure built over it (the streaming hot path builds hundreds of
    sketches over one collection). Every :class:`LitsStructure` holds
    its itemsets as one, with its read-only ``(sizes, items)`` arrays
    (:func:`~repro.data.transactions.itemset_arrays`), which the
    counting plan, the wire sections and the fleet vocabulary read. The
    plan is cached too: the lits bootstrap's membership gather reuses it.
    """

    # no __slots__: variable-length tuple subtypes cannot declare them;
    # the per-collection __dict__ holds the arrays, the lazily cached
    # counting plan, and a decoded table's largest item
    _arrays: tuple[np.ndarray, np.ndarray]
    _plan: SupportCountingPlan
    _top: int

    @classmethod
    def ordered(cls, unique: Iterable[frozenset[int]]) -> "_Canonical":
        """Distinct frozensets of ints, sorted into canonical order
        (size, then lexicographic): one ``lexsort`` per size block over
        the collection's array form, the same objects in the order
        ``sorted(key=(len, sorted items))`` gives them."""
        from repro.data.transactions import _read_only, canonical_order, itemset_arrays

        itemsets = tuple(unique)
        sizes, items = itemset_arrays(itemsets)
        order, items = canonical_order(sizes, items)
        canonical = cls(map(itemsets.__getitem__, order.tolist()))
        canonical._arrays = _read_only(sizes[order], items)
        return canonical

    def plan(self) -> SupportCountingPlan:
        """The precompiled counting plan for this collection, built once
        and reused by every sketch (hence every chunk) over it."""
        try:
            return self._plan
        except AttributeError:
            # runtime imports here and in ordered(): repro.data's
            # package init reaches back into repro.core
            from repro.data.transactions import SupportCountingPlan

            self._plan = SupportCountingPlan(self)
            return self._plan


class LitsStructure(Structure):
    """The structural component of a lits-model: a set of itemsets."""

    def __init__(self, itemsets: Sequence[frozenset[int]]) -> None:
        if isinstance(itemsets, _Canonical):
            self._itemsets: _Canonical = itemsets
        else:
            unique = {frozenset(s) for s in itemsets}
            self._itemsets = _Canonical.ordered(unique)
        self._regions: tuple[Region, ...] | None = None

    @property
    def itemsets(self) -> _Canonical:
        return self._itemsets

    @property
    def regions(self) -> tuple[Region, ...]:
        # built on first use: fleet kernels and decoders that only need
        # the itemsets never pay for the region objects
        if self._regions is None:
            self._regions = tuple(ItemsetRegion(s) for s in self._itemsets)
        return self._regions

    @property
    def key(self) -> Hashable:
        return ("lits", frozenset(self._itemsets))

    def counts(self, dataset: DatasetLike) -> np.ndarray:
        """All itemset supports in one batched pass over the bitmap index.

        The whole structural component is measured by the batched
        support-counting engine (stacked ``bitwise_and`` stripes plus a
        single popcount pass), so extending to a GCR and measuring both
        datasets stays a constant number of vectorised scans.
        """
        return dataset.index.support_counts(self._itemsets)

    def focussed(self, region: Region) -> "LitsStructure":
        if not isinstance(region, ItemsetRegion):
            raise IncompatibleModelsError(
                "a lits-model can only be focussed w.r.t. an ItemsetRegion"
            )
        return LitsStructure([s | region.items for s in self._itemsets])


class PartitionStructure(Structure):
    """Box cells partitioning the attribute space, optionally per class.

    Parameters
    ----------
    cells:
        Box predicates that partition the space (pairwise disjoint,
        jointly exhaustive over the data's domain).
    class_labels:
        When non-empty, every cell is crossed with every class label
        (a dt-model's ``k`` regions per leaf); empty for cluster-models.
    assigner:
        ``assigner(dataset) -> (n,)`` int array mapping each row to its
        cell index. This is the one-scan fast path; region predicates
        remain available for display and focussing.
    focus_predicate:
        Internal: the conjunctive part of an active focussing region.
        Rows outside it are excluded from every count.
    focus_class:
        Internal: class restriction of an active focussing region.
    """

    def __init__(
        self,
        cells: Sequence[Conjunction],
        class_labels: tuple[int, ...],
        assigner: AssignerFn,
        focus_predicate: Conjunction | None = None,
        focus_class: int | None = None,
    ) -> None:
        if not cells:
            raise InvalidParameterError("a partition needs at least one cell")
        self._cells = tuple(cells)
        self._class_labels = tuple(class_labels)
        self._assigner = assigner
        self._focus_predicate = focus_predicate
        self._focus_class = focus_class
        self._regions = self._build_regions()
        self._plan = None  # compiled lazily, once

    def _build_regions(self) -> tuple[Region, ...]:
        cells = self._cells
        if self._focus_predicate is not None:
            cells = tuple(c.intersect(self._focus_predicate) for c in cells)
        regions: list[Region] = []
        if self._class_labels and self._focus_class is None:
            for cell in cells:
                for label in self._class_labels:
                    regions.append(BoxRegion(cell, label))
        elif self._class_labels:
            for cell in cells:
                regions.append(BoxRegion(cell, self._focus_class))
        else:
            label = self._focus_class
            for cell in cells:
                regions.append(BoxRegion(cell, label))
        return tuple(regions)

    @property
    def cells(self) -> tuple[Conjunction, ...]:
        return self._cells

    @property
    def class_labels(self) -> tuple[int, ...]:
        return self._class_labels

    @property
    def assigner(self) -> AssignerFn:
        return self._assigner

    @property
    def focus_predicate(self) -> Conjunction | None:
        """The conjunctive part of an active focussing region, if any."""
        return self._focus_predicate

    @property
    def focus_class(self) -> int | None:
        """The class restriction of an active focussing region, if any."""
        return self._focus_class

    @property
    def plan(self) -> "PartitionCountingPlan":
        """The precompiled counting plan (built once, cached).

        The plan owns the vectorised label-encoding table and the
        memoised assigner passes; every ``counts`` call routes through
        it, and the streaming layer's ``PartitionSketch`` shares it so a
        sketch's counts vector aligns 1:1 with :attr:`regions`.
        """
        if self._plan is None:
            from repro.core.partition_plan import PartitionCountingPlan

            self._plan = PartitionCountingPlan(self)
        return self._plan

    @property
    def regions(self) -> tuple[Region, ...]:
        return self._regions

    @property
    def key(self) -> Hashable:
        return (
            "partition",
            frozenset(r.key for r in self._regions),
        )

    def counts(self, dataset: DatasetLike) -> np.ndarray:
        """Histogram the dataset over cells (x classes) in one pass.

        Delegates to the precompiled :attr:`plan`: a memoised assigner
        pass, vectorised ``searchsorted`` label routing (a label outside
        :attr:`class_labels` raises ``IncompatibleModelsError``), and a
        single ``bincount``. Measuring a class-restricted (focussed)
        structure against an unlabelled dataset raises ``SchemaError``,
        exactly like ``TabularDataset.box_mask`` does.
        """
        return self.plan.counts(dataset)

    def focussed(self, region: Region) -> "PartitionStructure":
        if not isinstance(region, BoxRegion):
            raise IncompatibleModelsError(
                "a partition model can only be focussed w.r.t. a BoxRegion"
            )
        predicate = region.predicate
        if self._focus_predicate is not None:
            predicate = self._focus_predicate.intersect(predicate)
        focus_class = self._focus_class
        if region.class_label is not None:
            if focus_class is not None and focus_class != region.class_label:
                raise IncompatibleModelsError(
                    "conflicting class restrictions in nested focussing"
                )
            focus_class = region.class_label
        return PartitionStructure(
            self._cells,
            self._class_labels,
            self._assigner,
            focus_predicate=predicate,
            focus_class=focus_class,
        )


class Model(ABC):
    """A 2-component model: a structure plus the dataset that induced it."""

    @property
    @abstractmethod
    def structure(self) -> Structure:
        """The structural component Lambda_M."""

    def measures(self, dataset: DatasetLike) -> np.ndarray:
        """The measure component Sigma(Lambda_M, D) w.r.t. any dataset."""
        return self.structure.selectivities(dataset)
