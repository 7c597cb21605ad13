"""Mergeable sketches: per-shard counts that combine with ``+``.

A sketch holds the absolute counts of a *fixed* structural component
over some bag of rows. Because measures are plain counts, sketches over
disjoint row bags are **additive**:

``sketch(A + B) == sketch(A) + sketch(B)``

which buys two things the streaming layer is built on:

* *map-merge counting* -- shard a dataset, count every shard
  independently (serially, on a thread pool, or on a process pool; see
  :mod:`repro.stream.executor`), and sum the shard sketches. The merged
  sketch equals a single-scan count of the whole dataset.
* *window maintenance by difference* -- sketches also subtract, so a
  sliding window advances by adding the entering chunk's sketch and
  subtracting the leaving one. No row surviving in the window is
  ever rescanned (:class:`repro.stream.windows.WindowManager`).

Two sketch kinds cover the paper's model classes:

* :class:`SupportSketch` -- support counts of an itemset collection over
  transactions (lits-models). The collection is canonicalised exactly
  like :class:`repro.core.model.LitsStructure` orders its regions, so
  the counts vector aligns 1:1 with the structure built from the same
  itemsets.
* :class:`PartitionSketch` -- per-(cell x class) histograms of a
  :class:`~repro.core.model.PartitionStructure` over tabular rows
  (dt-/cluster-models), counted through the structure's precompiled
  :class:`~repro.core.partition_plan.PartitionCountingPlan` and aligned
  1:1 with its regions.

Either way the deviation engine consumes the counts vector directly via
:func:`repro.core.deviation.deviation_from_counts`.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro._typing import DatasetLike, StructureOrPlan

import numpy as np

from repro.core.model import _Canonical
from repro.core.partition_plan import PartitionCountingPlan
from repro.data.transactions import BitmapIndex
from repro.errors import IncompatibleModelsError, InvalidParameterError


def canonical_itemsets(
    itemsets: Iterable[Iterable[int]],
) -> tuple[frozenset[int], ...]:
    """The deduplicated itemsets in LitsStructure order (size, then lex)."""
    if isinstance(itemsets, _Canonical):
        return itemsets
    unique = {frozenset(int(i) for i in s) for s in itemsets}
    return _Canonical(sorted(unique, key=lambda s: (len(s), tuple(sorted(s)))))


class SupportSketch:
    """Support counts of a fixed itemset collection over a transaction bag.

    Parameters
    ----------
    itemsets:
        The tracked collection; deduplicated and canonically ordered.
    counts:
        Absolute support count per itemset, aligned with ``itemsets``.
    n_transactions:
        Size of the underlying transaction bag.
    n_items:
        Size of the item universe (sketches over different universes
        never merge).
    """

    __slots__ = ("itemsets", "counts", "n_transactions", "n_items")

    def __init__(
        self,
        itemsets: Iterable[Iterable[int]],
        counts: np.ndarray,
        n_transactions: int,
        n_items: int,
    ) -> None:
        self.itemsets = canonical_itemsets(itemsets)
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (len(self.itemsets),):
            raise InvalidParameterError(
                f"counts must align with the {len(self.itemsets)} itemsets, "
                f"got shape {counts.shape}"
            )
        if n_transactions < 0:
            raise InvalidParameterError("n_transactions must be >= 0")
        self.counts = counts
        self.n_transactions = int(n_transactions)
        self.n_items = int(n_items)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def _from_canonical(
        cls,
        itemsets: tuple[frozenset[int], ...],
        counts: np.ndarray,
        n_transactions: int,
        n_items: int,
    ) -> "SupportSketch":
        """Internal fast path: trusted canonical itemsets, aligned counts."""
        self = object.__new__(cls)
        self.itemsets = itemsets
        self.counts = counts
        self.n_transactions = n_transactions
        self.n_items = n_items
        return self

    @classmethod
    def empty(
        cls, itemsets: Iterable[Iterable[int]], n_items: int
    ) -> "SupportSketch":
        """The additive identity: zero counts over zero transactions."""
        canon = canonical_itemsets(itemsets)
        return cls._from_canonical(
            canon, np.zeros(len(canon), dtype=np.int64), 0, n_items
        )

    @classmethod
    def from_transactions(
        cls,
        transactions: Sequence[Iterable[int]],
        itemsets: Iterable[Iterable[int]],
        n_items: int,
    ) -> "SupportSketch":
        """Count ``itemsets`` over raw transactions (one bitmap scan).

        Transactions need no canonical form here: the bitmap scatter is
        an OR, so duplicate or unsorted items within a row are harmless
        (out-of-universe items still raise).
        """
        canon = canonical_itemsets(itemsets)
        transactions = list(transactions)
        index = BitmapIndex(transactions, n_items)
        return cls._from_canonical(
            canon, canon.plan().count(index), len(transactions), n_items
        )

    @classmethod
    def from_dataset(
        cls, dataset: DatasetLike, itemsets: Iterable[Iterable[int]]
    ) -> "SupportSketch":
        """Count ``itemsets`` over an (indexed) dataset-like object."""
        canon = canonical_itemsets(itemsets)
        return cls._from_canonical(
            canon,
            canon.plan().count(dataset.index),
            len(dataset),
            dataset.n_items,
        )

    # ------------------------------------------------------------------ #
    # Merge algebra
    # ------------------------------------------------------------------ #

    @property
    def key(self) -> tuple[frozenset[frozenset[int]], int]:
        """Merge-compatibility identity: same itemsets, same universe."""
        return (frozenset(self.itemsets), self.n_items)

    @property
    def n_rows(self) -> int:
        """Rows sketched (alias of ``n_transactions``; the kind-agnostic
        name the generalised window manager reads)."""
        return self.n_transactions

    def _check_mergeable(self, other: "SupportSketch") -> None:
        if not isinstance(other, SupportSketch):
            raise IncompatibleModelsError(
                f"cannot combine SupportSketch with {type(other).__name__}"
            )
        # Canonical ordering makes tuple equality set equality; the `is`
        # test makes the streaming hot path (every chunk sketch shares
        # one canonical tuple) constant-time.
        if self.n_items != other.n_items or (
            self.itemsets is not other.itemsets
            and self.itemsets != other.itemsets
        ):
            raise IncompatibleModelsError(
                "sketches track different itemset collections or item "
                "universes and cannot be combined"
            )

    def __add__(self, other: Any) -> "SupportSketch":
        if isinstance(other, int) and other == 0:
            return self  # so sum(sketches) works with its default start
        self._check_mergeable(other)
        return SupportSketch._from_canonical(
            self.itemsets,
            self.counts + other.counts,
            self.n_transactions + other.n_transactions,
            self.n_items,
        )

    def __radd__(self, other: Any) -> "SupportSketch":
        return self.__add__(other)

    def __sub__(self, other: "SupportSketch") -> "SupportSketch":
        self._check_mergeable(other)
        n = self.n_transactions - other.n_transactions
        if n < 0:
            raise InvalidParameterError(
                "cannot subtract a sketch over more transactions than this one"
            )
        return SupportSketch._from_canonical(
            self.itemsets, self.counts - other.counts, n, self.n_items
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SupportSketch):
            return NotImplemented
        return (
            self.n_items == other.n_items
            and self.n_transactions == other.n_transactions
            and (
                self.itemsets is other.itemsets
                or self.itemsets == other.itemsets
            )
            and np.array_equal(self.counts, other.counts)
        )

    def __hash__(self) -> int:
        return hash((self.key, self.n_transactions, self.counts.tobytes()))

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #

    def supports(self) -> np.ndarray:
        """Relative supports (selectivities); zeros over zero transactions."""
        if self.n_transactions == 0:
            return np.zeros(len(self.itemsets))
        return self.counts / self.n_transactions

    def count_of(self, itemset: Iterable[int]) -> int:
        """The absolute count of one tracked itemset."""
        target = frozenset(int(i) for i in itemset)
        try:
            pos = self.itemsets.index(target)
        except ValueError:
            raise InvalidParameterError(
                f"itemset {sorted(target)} is not tracked by this sketch"
            ) from None
        return int(self.counts[pos])

    def as_dict(self) -> dict[frozenset[int], int]:
        """Itemset -> absolute count mapping."""
        return {s: int(c) for s, c in zip(self.itemsets, self.counts)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SupportSketch(itemsets={len(self.itemsets)}, "
            f"n={self.n_transactions}, items={self.n_items})"
        )


def as_partition_plan(structure_or_plan: StructureOrPlan) -> PartitionCountingPlan:
    """Resolve a ``PartitionStructure`` or an existing plan to a plan.

    Passing the structure reuses its lazily compiled, cached plan, so
    every sketch over the same structure shares one plan object -- which
    also makes the merge-compatibility check constant-time (identity).
    """
    if isinstance(structure_or_plan, PartitionCountingPlan):
        return structure_or_plan
    plan = getattr(structure_or_plan, "plan", None)
    if isinstance(plan, PartitionCountingPlan):
        return plan
    raise InvalidParameterError(
        "expected a PartitionStructure or PartitionCountingPlan, got "
        f"{type(structure_or_plan).__name__}"
    )


class PartitionSketch:
    """Region counts of a partition structure over a bag of tabular rows.

    The partition-model sibling of :class:`SupportSketch`: ``counts``
    holds one absolute count per region of the plan's structure (cells,
    or cells x classes for dt-models), so sketches over disjoint row
    bags add, subtract (window retirement), and merge shard-wise on any
    executor. ``counts`` aligns 1:1 with ``plan.structure.regions``, so
    the deviation engine consumes it directly.

    Parameters
    ----------
    plan:
        The precompiled counting plan (or the structure, resolved via
        :func:`as_partition_plan`).
    counts:
        Absolute count per region, aligned with the structure's regions.
    n_rows:
        Size of the underlying row bag.
    """

    __slots__ = ("plan", "counts", "n_rows")

    def __init__(
        self, plan: StructureOrPlan, counts: np.ndarray, n_rows: int
    ) -> None:
        self.plan = as_partition_plan(plan)
        counts = np.asarray(counts, dtype=np.int64)
        n_regions = len(self.plan.structure.regions)
        if counts.shape != (n_regions,):
            raise InvalidParameterError(
                f"counts must align with the structure's {n_regions} "
                f"regions, got shape {counts.shape}"
            )
        if n_rows < 0:
            raise InvalidParameterError("n_rows must be >= 0")
        self.counts = counts
        self.n_rows = int(n_rows)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def _trusted(
        cls, plan: PartitionCountingPlan, counts: np.ndarray, n_rows: int
    ) -> "PartitionSketch":
        """Internal fast path: plan already resolved, counts aligned."""
        self = object.__new__(cls)
        self.plan = plan
        self.counts = counts
        self.n_rows = n_rows
        return self

    @classmethod
    def empty(cls, structure_or_plan: StructureOrPlan) -> "PartitionSketch":
        """The additive identity: zero counts over zero rows."""
        plan = as_partition_plan(structure_or_plan)
        n_regions = len(plan.structure.regions)
        return cls._trusted(plan, np.zeros(n_regions, dtype=np.int64), 0)

    @classmethod
    def from_dataset(
        cls, dataset: DatasetLike, structure_or_plan: StructureOrPlan
    ) -> "PartitionSketch":
        """Count the structure's regions over a tabular dataset (one scan).

        Raises ``IncompatibleModelsError`` if the dataset carries a class
        label outside the structure's alphabet, and ``SchemaError`` if a
        class-restricted structure meets unlabelled data -- the same
        contract as ``PartitionStructure.counts``.
        """
        plan = as_partition_plan(structure_or_plan)
        return cls._trusted(plan, plan.counts(dataset), len(dataset))

    # ------------------------------------------------------------------ #
    # Merge algebra
    # ------------------------------------------------------------------ #

    @property
    def key(self) -> Any:
        """Merge-compatibility identity: the structure measured.

        Uses the order-*sensitive* ``counts_key`` -- two structures with
        the same region set but different region order must not merge,
        because their counts vectors are positionally misaligned.
        """
        return self.plan.structure.counts_key

    def _check_mergeable(self, other: "PartitionSketch") -> None:
        if not isinstance(other, PartitionSketch):
            raise IncompatibleModelsError(
                f"cannot combine PartitionSketch with {type(other).__name__}"
            )
        # Sharing the structure's cached plan makes the streaming hot
        # path (every chunk sketch holds one plan object) constant-time.
        if self.plan is not other.plan and self.key != other.key:
            raise IncompatibleModelsError(
                "sketches measure different partition structures (or the "
                "same regions in a different order) and cannot be combined"
            )

    def __add__(self, other: Any) -> "PartitionSketch":
        if isinstance(other, int) and other == 0:
            return self  # so sum(sketches) works with its default start
        self._check_mergeable(other)
        return PartitionSketch._trusted(
            self.plan, self.counts + other.counts, self.n_rows + other.n_rows
        )

    def __radd__(self, other: Any) -> "PartitionSketch":
        return self.__add__(other)

    def __sub__(self, other: "PartitionSketch") -> "PartitionSketch":
        self._check_mergeable(other)
        n = self.n_rows - other.n_rows
        if n < 0:
            raise InvalidParameterError(
                "cannot subtract a sketch over more rows than this one"
            )
        return PartitionSketch._trusted(
            self.plan, self.counts - other.counts, n
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartitionSketch):
            return NotImplemented
        return (
            self.n_rows == other.n_rows
            and (self.plan is other.plan or self.key == other.key)
            and np.array_equal(self.counts, other.counts)
        )

    def __hash__(self) -> int:
        return hash((self.key, self.n_rows, self.counts.tobytes()))

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #

    def selectivities(self) -> np.ndarray:
        """Relative measures per region; zeros over zero rows."""
        if self.n_rows == 0:
            return np.zeros(len(self.counts))
        return self.counts / self.n_rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PartitionSketch(regions={len(self.counts)}, n={self.n_rows})"
        )
