"""The fleet-wide itemset vocabulary: lits pairs as id-array gathers.

For lits-models the GCR of two models is the union of their itemsets
(Proposition 4.1), and delta* (Definition 4.1) scores an itemset absent
from one model as ``|s - 0|``. So every quantity in an all-pairs lits
matrix is a gather over *one* fleet-wide itemset collection -- the
fleet's :func:`probe_itemsets`. :class:`LitsVocabulary` numbers that
collection once (id order is canonical order, i.e.
:class:`~repro.core.model.LitsStructure` order) and turns each store
into a membership row plus a support row:

* **a pair's GCR** is ``flatnonzero(member[i] | member[j])`` -- sorted
  ids, hence the GCR's itemsets in exactly the order ``gcr()`` would
  produce them;
* **a pair's deviation** is ``g(f(counts[i, u], counts[j, u], n1, n2))``:
  the arithmetic of
  :func:`~repro.core.deviation.deviation_from_counts`, in the same
  order, over the same integer counts -- so values are bit-equal;
* **a pair's delta*** is ``g(|sup[i, u] - sup[j, u]|)``: an itemset
  missing from one model has support row value 0, and ``|s - 0| == s``
  exactly, which is Definition 4.1's one-model term.

Every reduction runs over the gathered GCR only. Summing a zero-padded
full-vocabulary row would give the same real number but a different
float summation order, so no batched reduction replaces the per-pair
``g`` call. Memory is ``stores x vocabulary x 8`` bytes for the support
rows (and again for each engine's count matrix) -- a 24-store fleet
over 2.3k itemsets holds under half a MiB per matrix.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.aggregate import AggregateFunction
from repro.core.lits import LitsModel
from repro.core.model import _Canonical


def probe_itemsets(models: Sequence[LitsModel]) -> _Canonical:
    """The fleet's probe collection: the union of all stores' itemsets.

    A sketch over this collection covers every pairwise GCR (each GCR is
    the union of *two* stores' itemsets), so one sketch per store makes
    every pair exactly comparable. Sites learn which itemsets to count
    from the fleet's models -- model payloads are what travels first.
    """
    union: set[frozenset[int]] = set()
    for model in models:
        union.update(model.structure.itemsets)
    # the structures' itemsets are canonical already: sort, never rebuild
    return _Canonical.ordered(union)


class LitsVocabulary:
    """A lits fleet's itemsets as one canonical id space.

    Attributes
    ----------
    itemsets:
        :func:`probe_itemsets` of the models; position is the id.
    member:
        ``(stores, vocabulary)`` bool -- does store ``i`` hold itemset
        ``k``?
    supports:
        ``(stores, vocabulary)`` float64 -- the stored support, 0 where
        the store's model lacks the itemset.
    """

    __slots__ = ("itemsets", "member", "supports", "_position")

    def __init__(self, models: Sequence[LitsModel]) -> None:
        self.itemsets = probe_itemsets(models)
        self._position = {s: k for k, s in enumerate(self.itemsets)}
        shape = (len(models), len(self.itemsets))
        self.member = np.zeros(shape, dtype=bool)
        self.supports = np.zeros(shape)
        position = self._position
        for i, model in enumerate(models):
            ids = np.fromiter(
                (position[s] for s in model.supports),
                dtype=np.intp, count=len(model.supports),
            )
            self.member[i, ids] = True
            self.supports[i, ids] = np.fromiter(
                model.supports.values(), dtype=np.float64,
                count=len(ids),
            )

    def __len__(self) -> int:
        return len(self.itemsets)

    def ids(self, itemsets: Sequence[frozenset[int]]) -> np.ndarray:
        """Vocabulary ids of ``itemsets``, ``-1`` where one is absent."""
        position = self._position
        return np.fromiter(
            (position.get(s, -1) for s in itemsets),
            dtype=np.intp, count=len(itemsets),
        )

    def union(self, i: int, j: int) -> np.ndarray:
        """The ids of stores ``i`` and ``j``'s GCR, in canonical order."""
        return np.flatnonzero(self.member[i] | self.member[j])

    def same_structure(self, i: int, j: int) -> bool:
        """Do the two stores' models hold exactly the same itemsets?"""
        return bool(np.array_equal(self.member[i], self.member[j]))

    def model_counts(self, store: int, ids: np.ndarray, n_rows: int) -> np.ndarray:
        """Counts read from the store's stored supports (no scan).

        ``np.rint`` rounds half to even, exactly like the ``round()`` of
        the models' stored-measures fast path (Section 7.1).
        """
        return np.rint(self.supports[store, ids] * n_rows).astype(np.int64)

    def bound(self, i: int, j: int, g: AggregateFunction) -> float:
        """delta* of stores ``i`` and ``j`` (Definition 4.1)."""
        u = self.union(i, j)
        return g(np.abs(self.supports[i, u] - self.supports[j, u]))

    def bound_matrix(self, g: AggregateFunction) -> np.ndarray:
        """The symmetric pairwise delta* matrix (zero diagonal)."""
        n = len(self.member)
        out = np.zeros((n, n))
        for i in range(n):
            self.fill_bound_row(out, i, g, start=i + 1)
        return out

    def fill_bound_row(
        self, bounds: np.ndarray, i: int, g: AggregateFunction, start: int = 0
    ) -> None:
        """Write store ``i``'s delta* against stores ``start..`` into
        row and column ``i`` of ``bounds``."""
        for j in range(start, len(self.member)):
            if j != i:
                bounds[i, j] = bounds[j, i] = self.bound(i, j, g)

    def remap(
        self, previous: "LitsVocabulary", rows: np.ndarray
    ) -> np.ndarray | None:
        """Carry per-store rows over ``previous``'s ids into this vocabulary.

        Itemsets the new vocabulary dropped are discarded. ``None`` if it
        holds an itemset ``previous`` lacked: no row has a value for it.
        """
        ids = previous.ids(self.itemsets)
        if (ids < 0).any():
            return None
        return rows[:, ids]
