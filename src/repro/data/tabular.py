"""Numpy-backed tabular datasets (the ``n``-tuple datasets of Definition 3.1).

A :class:`TabularDataset` stores every attribute as a ``float64`` column
(categorical attributes hold integer codes) plus an optional integer class
label per row. Region selectivities (Definition 3.2) are computed with a
single vectorised mask pass, which is what lets every FOCUS deviation be
computed "using a single scan of the underlying datasets" (Section 1).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.attribute import AttributeSpace
from repro.core.predicate import Conjunction
from repro.core.region import BoxRegion
from repro.errors import InvalidParameterError, SchemaError


class TabularDataset:
    """An immutable table of tuples over an :class:`AttributeSpace`.

    Parameters
    ----------
    space:
        The attribute space describing the columns (and, when present,
        the class labels).
    X:
        ``(n, d)`` float array, one column per attribute of ``space``.
    y:
        Optional ``(n,)`` integer class labels. Required when
        ``space.class_labels`` is non-empty.
    """

    def __init__(
        self,
        space: AttributeSpace,
        X: np.ndarray,
        y: np.ndarray | None = None,
    ) -> None:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise InvalidParameterError(f"X must be 2-D, got shape {X.shape}")
        if X.shape[1] != space.n_attributes:
            raise SchemaError(
                f"X has {X.shape[1]} columns but space has "
                f"{space.n_attributes} attributes"
            )
        if space.class_labels and y is None:
            raise SchemaError("space declares class labels but y is missing")
        if y is not None:
            y = np.asarray(y, dtype=np.int64)
            if y.shape != (X.shape[0],):
                raise SchemaError(
                    f"y has shape {y.shape}, expected ({X.shape[0]},)"
                )
            if not space.class_labels:
                raise SchemaError("y given but space declares no class labels")
        self.space = space
        self._X = X
        self._y = y
        self._column_views: dict[str, np.ndarray] | None = None

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._X.shape[0]

    @property
    def n_rows(self) -> int:
        return self._X.shape[0]

    @property
    def X(self) -> np.ndarray:
        """The raw ``(n, d)`` attribute matrix (do not mutate)."""
        return self._X

    @property
    def y(self) -> np.ndarray | None:
        """The raw class-label vector, or ``None`` for unlabelled data."""
        return self._y

    def column(self, name: str) -> np.ndarray:
        """The column for the named attribute."""
        columns = self.columns
        if name not in columns:
            raise SchemaError(f"unknown attribute {name!r}")
        return columns[name]

    @property
    def columns(self) -> Mapping[str, np.ndarray]:
        """Per-attribute column views, built lazily on first access.

        Lazy so that view-backed slices (the streaming layer creates one
        per chunk and per shard) pay for the view dictionary only if a
        predicate or column read actually happens.
        """
        if self._column_views is None:
            self._column_views = {
                name: self._X[:, i]
                for i, name in enumerate(self.space.names)
            }
        return self._column_views

    # ------------------------------------------------------------------ #
    # Region evaluation
    # ------------------------------------------------------------------ #

    def predicate_mask(self, predicate: Conjunction) -> np.ndarray:
        """Boolean membership mask of a conjunctive predicate."""
        return predicate.mask(self.columns, self.n_rows)

    def box_mask(self, region: BoxRegion) -> np.ndarray:
        """Boolean membership mask of a box region (predicate AND class)."""
        mask = self.predicate_mask(region.predicate)
        if region.class_label is not None:
            if self._y is None:
                raise SchemaError(
                    "region constrains the class but the dataset is unlabelled"
                )
            mask &= self._y == region.class_label
        return mask

    def box_count(self, region: BoxRegion) -> int:
        """Absolute number of tuples mapping into a box region."""
        return int(self.box_mask(region).sum())

    def box_selectivity(self, region: BoxRegion) -> float:
        """Selectivity sigma(region, D) per Definition 3.2 (0 for empty D)."""
        if self.n_rows == 0:
            return 0.0
        return self.box_count(region) / self.n_rows

    # ------------------------------------------------------------------ #
    # Dataset algebra
    # ------------------------------------------------------------------ #

    def take(self, indices: np.ndarray) -> "TabularDataset":
        """A new dataset holding the rows at ``indices`` (with repetition OK)."""
        indices = np.asarray(indices, dtype=np.int64)
        y = self._y[indices] if self._y is not None else None
        return TabularDataset(self.space, self._X[indices], y)

    def slice_rows(self, start: int, stop: int) -> "TabularDataset":
        """The contiguous row range ``[start, stop)`` as a dataset.

        Backed by numpy views, not copies -- this is what lets the
        streaming layer chunk and shard a table without duplicating it.
        """
        y = self._y[start:stop] if self._y is not None else None
        return TabularDataset(self.space, self._X[start:stop], y)

    @staticmethod
    def concat_many(datasets: Sequence["TabularDataset"]) -> "TabularDataset":
        """Concatenate datasets over one space with a single ``vstack``;
        a lone dataset is handed back as is."""
        if not datasets:
            raise InvalidParameterError("concat_many needs at least one dataset")
        if len(datasets) == 1:
            return datasets[0]
        space = datasets[0].space
        for d in datasets[1:]:
            if not space.compatible_with(d.space):
                raise SchemaError(
                    "cannot concatenate datasets over different spaces"
                )
        X = np.vstack([d.X for d in datasets])
        labels = [d.y for d in datasets]
        ys = [y for y in labels if y is not None]
        if len(ys) != len(labels):
            return TabularDataset(space, X)
        return TabularDataset(space, X, np.concatenate(ys))

    def filter(self, mask: np.ndarray) -> "TabularDataset":
        """A new dataset holding the rows where ``mask`` is True."""
        mask = np.asarray(mask, dtype=bool)
        y = self._y[mask] if self._y is not None else None
        return TabularDataset(self.space, self._X[mask], y)

    def concat(self, other: "TabularDataset") -> "TabularDataset":
        """Append another dataset over the same space (the paper's ``D + delta``)."""
        if not self.space.compatible_with(other.space):
            raise SchemaError("cannot concatenate datasets over different spaces")
        X = np.vstack([self._X, other._X])
        y1, y2 = self._y, other._y
        if y1 is None or y2 is None:
            return TabularDataset(self.space, X)
        return TabularDataset(self.space, X, np.concatenate([y1, y2]))

    def relabel(self, y: np.ndarray) -> "TabularDataset":
        """Same tuples with the class labels replaced (used for ``D^T``, §5.2.1)."""
        return TabularDataset(self.space, self._X, y)

    def class_distribution(self) -> dict[int, float]:
        """Fraction of rows per class label."""
        if self._y is None:
            return {}
        out: dict[int, float] = {}
        for label in self.space.class_labels:
            out[label] = float(np.mean(self._y == label)) if self.n_rows else 0.0
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        labelled = "labelled" if self._y is not None else "unlabelled"
        return (
            f"TabularDataset(n={self.n_rows}, d={self.space.n_attributes}, "
            f"{labelled})"
        )


def from_rows(
    space: AttributeSpace,
    rows: Iterable[Sequence[float]],
    labels: Iterable[int] | None = None,
) -> TabularDataset:
    """Build a dataset from Python row sequences (mostly for tests/examples)."""
    X = np.array([list(r) for r in rows], dtype=np.float64)
    if X.size == 0:
        X = X.reshape(0, space.n_attributes)
    y = None if labels is None else np.array(list(labels), dtype=np.int64)
    return TabularDataset(space, X, y)
