"""Precompiled counting plans for partition structures (dt-/cluster-models).

A :class:`PartitionCountingPlan` is to a
:class:`~repro.core.model.PartitionStructure` what
:class:`~repro.data.transactions.SupportCountingPlan` is to an itemset
collection: everything that can be computed once -- the label encoding
table, the region layout, the focus configuration -- is compiled at
construction, so measuring a snapshot is a single assigner pass plus one
``bincount``, with **no per-row Python loop** anywhere.

Two pieces make repeated measurement cheap:

* **one region router** -- :meth:`PartitionCountingPlan.region_assignments`
  maps each row to its region, or to an excluded sentinel bin, and
  :meth:`~PartitionCountingPlan.counts` is that vector's ``bincount``.
  Class labels are encoded with ``np.searchsorted`` against a sorted
  table, and a label outside the structure's alphabet raises
  :class:`~repro.errors.IncompatibleModelsError` naming it;
* **memoised cell assignments** -- :func:`cell_assignments` caches each
  assigner's pass over a dataset (weakly keyed by the dataset), so a GCR
  overlay that composes two base assigners, a focussed overlay of the
  same structure, and every structure sharing an assigner all reuse one
  scan per dataset. Entries are validated against the dataset length, so
  growable logs that change size are re-assigned, never served stale.
"""

from __future__ import annotations

import weakref
from typing import Sequence

import numpy as np

from repro._typing import AssignerFn, DatasetLike
from repro.errors import IncompatibleModelsError, SchemaError
from repro.obs import metrics

#: dataset (weak) -> {id(assigner): (assigner, n_rows, assignments)}.
#: The assigner object is stored in the entry so an ``id`` reused after
#: garbage collection can never alias a different assigner's pass.
_ASSIGNMENTS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

#: Memoised passes kept per dataset. A monitoring loop that builds a
#: fresh model (hence a fresh assigner) per snapshot would otherwise pin
#: one O(rows) array -- and the assigner's whole model -- per snapshot
#: on a long-lived reference dataset. LRU order: hits re-append.
_MAX_PASSES_PER_DATASET = 8


def cell_assignments(assigner: AssignerFn, dataset: DatasetLike) -> np.ndarray:
    """The assigner's row -> cell index pass over ``dataset``, memoised.

    The cache is weakly keyed by the dataset, so it lives exactly as long
    as the dataset does; a cached entry is only served when the assigner
    is the *same object* and the dataset still has the length it was
    assigned at (appendable logs grow, and must be re-assigned). At most
    :data:`_MAX_PASSES_PER_DATASET` passes are retained per dataset,
    evicting least-recently-used, so churning assigners (one model per
    monitored snapshot) cannot accumulate unboundedly.
    """
    try:
        per_dataset = _ASSIGNMENTS.get(dataset)
        if per_dataset is None:
            per_dataset = {}
            _ASSIGNMENTS[dataset] = per_dataset
    except TypeError:  # not weak-referenceable: just compute
        metrics().inc("partition.assign.computed")
        return np.asarray(assigner(dataset), dtype=np.int64)
    n = len(dataset)
    key = id(assigner)
    entry = per_dataset.get(key)
    if entry is not None:
        cached_assigner, cached_n, cached = entry
        if cached_assigner is assigner and cached_n == n:
            # refresh LRU position (dicts preserve insertion order)
            del per_dataset[key]
            per_dataset[key] = entry
            metrics().inc("partition.assign.memo_hits")
            return cached
    metrics().inc("partition.assign.computed")
    out = np.asarray(assigner(dataset), dtype=np.int64)
    per_dataset.pop(key, None)
    per_dataset[key] = (assigner, n, out)
    while len(per_dataset) > _MAX_PASSES_PER_DATASET:
        per_dataset.pop(next(iter(per_dataset)))
    return out


class LabelEncoder:
    """Vectorised value -> position encoding over a fixed alphabet.

    Encodes a whole column with one ``searchsorted`` against the sorted
    alphabet; positions refer to the *declaration order* of ``values``.
    Out-of-alphabet entries are reported via the returned mask so the
    caller can raise its own error type (``IncompatibleModelsError`` for
    class labels, ``SchemaError`` for categorical attribute codes).
    """

    __slots__ = ("values", "_sorted", "_code_of_sorted")

    def __init__(self, values: Sequence[int]) -> None:
        self.values = tuple(int(v) for v in values)
        table = np.asarray(self.values, dtype=np.int64)
        order = np.argsort(table, kind="stable")
        self._sorted = table[order]
        self._code_of_sorted = order.astype(np.int64)

    def encode(self, column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(codes, bad)``: declaration-order codes plus an out-of-alphabet mask."""
        raw = np.asarray(column)
        if raw.dtype.kind != "i":
            raw = raw.astype(np.int64)
        pos = np.searchsorted(self._sorted, raw)
        pos = np.minimum(pos, len(self._sorted) - 1)
        bad = self._sorted[pos] != raw
        return self._code_of_sorted[pos], bad


class PartitionCountingPlan:
    """Precompiled measurement of one partition structure.

    Parameters
    ----------
    structure:
        The :class:`~repro.core.model.PartitionStructure` to measure.
        The plan captures its cells, class labels, assigner, and focus
        configuration at construction; structures are immutable, so the
        plan stays valid for the structure's lifetime.
    """

    __slots__ = (
        "structure",
        "n_cells",
        "n_classes",
        "_assigner",
        "_labels",
        "_encoder",
        "_focus_predicate",
        "_focus_class",
    )

    def __init__(self, structure: "PartitionStructure") -> None:
        self.structure = structure
        self.n_cells = len(structure.cells)
        self._assigner = structure.assigner
        self._labels = tuple(structure.class_labels)
        self.n_classes = len(self._labels)
        self._encoder = LabelEncoder(self._labels) if self._labels else None
        self._focus_predicate = structure.focus_predicate
        self._focus_class = structure.focus_class

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #

    def label_codes(self, y: np.ndarray) -> np.ndarray:
        """Class labels -> structure-order codes, vectorised and validated."""
        codes, bad = self._encoder.encode(y)
        if bad.any():
            offending = int(np.asarray(y)[np.argmax(bad)])
            raise IncompatibleModelsError(
                f"snapshot contains class label {offending}, outside the "
                f"structure's class labels {self._labels}"
            )
        return codes

    def cell_assignments(self, dataset: DatasetLike) -> np.ndarray:
        """Row -> cell index for ``dataset`` (memoised; see module docs)."""
        return cell_assignments(self._assigner, dataset)

    @property
    def n_regions(self) -> int:
        """Number of regions (= length of every counts vector)."""
        if self.n_classes and self._focus_class is None:
            return self.n_cells * self.n_classes
        return self.n_cells

    def region_assignments(self, dataset: DatasetLike) -> np.ndarray:
        """Row -> region index, with :attr:`n_regions` as the excluded bin.

        Entry ``i`` is the index of the region row ``i`` falls in
        (structure order), or the sentinel ``n_regions`` when an active
        focus predicate or class restriction excludes the row.
        :meth:`counts` is the bincount of this vector with the sentinel
        bin dropped, and the count-space bootstrap consumes the vector
        directly so resampled region counts become weighted bincounts.
        """
        cell_idx = self.cell_assignments(dataset)
        excluded: np.ndarray | None = None
        if self._focus_predicate is not None:
            excluded = ~dataset.predicate_mask(self._focus_predicate)

        if self.n_classes and self._focus_class is None:
            y = dataset.y
            if y is None:
                raise IncompatibleModelsError(
                    "structure has class regions but the dataset is unlabelled"
                )
            flat = cell_idx * self.n_classes + self.label_codes(y)
        else:
            flat = cell_idx.astype(np.int64, copy=True)
            if self._focus_class is not None:
                if dataset.y is None:
                    # Mirrors TabularDataset.box_mask: a class-restricted
                    # region cannot be measured against unlabelled data,
                    # and silently dropping the restriction miscounts.
                    raise SchemaError(
                        "structure restricts the class but the dataset is "
                        "unlabelled"
                    )
                class_excluded = dataset.y != self._focus_class
                excluded = (
                    class_excluded
                    if excluded is None
                    else excluded | class_excluded
                )
        if excluded is not None:
            flat = np.where(excluded, self.n_regions, flat)
        return flat

    def counts(self, dataset: DatasetLike) -> np.ndarray:
        """Absolute counts per region, aligned with ``structure.regions``:
        the bincount of :meth:`region_assignments` without its excluded
        sentinel bin."""
        n_regions = self.n_regions
        return np.bincount(
            self.region_assignments(dataset), minlength=n_regions + 1
        )[:n_regions].astype(np.int64)
