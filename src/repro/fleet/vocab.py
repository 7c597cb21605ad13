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

Ids are assigned from keys, not from a dict of frozensets. Each model's
itemsets carry their ``(sizes, items)`` arrays; per itemset length, the
rows of every model become exact keys
(:func:`~repro.data.transactions.row_keys`, whose byte order is
lexicographic order), and one ``np.unique`` with inverse over them
yields the union in canonical order plus each model itemset's id, which
one scatter turns into ``member`` and ``supports``. The union reuses
the frozenset each itemset has in the first model holding it -- what a
set union keeps -- and builds none. :meth:`LitsVocabulary.ids` and
:meth:`LitsVocabulary.remap` ``searchsorted`` other collections' keys
into the vocabulary's.

Every reduction runs over the gathered GCR only. Summing a zero-padded
full-vocabulary row would give the same real number but a different
float summation order, so no batched reduction replaces the per-pair
``g`` call. Memory is ``stores x vocabulary x 8`` bytes for the support
rows (and again for each engine's count matrix) -- a 24-store fleet
over 2.3k itemsets holds under half a MiB per matrix.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np

from repro.core.aggregate import AggregateFunction
from repro.core.lits import LitsModel
from repro.core.model import _Canonical
from repro.data.transactions import (
    _length_blocks,
    _read_only,
    itemset_arrays,
    row_keys,
)

#: per itemset length: the first id of that length and the sorted keys
#: of the collection's rows of that length
_Blocks = dict[int, tuple[int, np.ndarray]]


def probe_itemsets(models: Sequence[LitsModel]) -> _Canonical:
    """The fleet's probe collection: the union of all stores' itemsets.

    A sketch over this collection covers every pairwise GCR (each GCR is
    the union of *two* stores' itemsets), so one sketch per store makes
    every pair exactly comparable. Sites learn which itemsets to count
    from the fleet's models -- model payloads are what travels first.
    """
    return _union([model.itemsets for model in models])[0]


def _union(
    tables: Sequence[_Canonical],
) -> tuple[_Canonical, np.ndarray, _Blocks]:
    """The canonical union of canonical collections, by key.

    Returns the union (each itemset as the object of the first
    collection holding it), the union id of every input itemset, end to
    end, and the union's key blocks.
    """
    arrays = [itemset_arrays(table) for table in tables]
    sizes = np.concatenate([np.empty(0, np.int64), *(a[0] for a in arrays)])
    items = np.concatenate([np.empty(0, np.int64), *(a[1] for a in arrays)])
    ids = np.empty(sizes.size, dtype=np.intp)
    picks, rows = [np.empty(0, np.intp)], [np.empty(0, np.int64)]
    blocks: _Blocks = {}
    offset = 0
    for length, positions, block in _length_blocks(sizes, items):
        keys, first, inverse = np.unique(
            row_keys(block), return_index=True, return_inverse=True
        )
        ids[positions] = offset + inverse
        blocks[length] = (offset, keys)
        picks.append(positions[first])
        rows.append(block[first].ravel())
        offset += keys.size
    order = np.concatenate(picks)
    objects = list(chain.from_iterable(tables))
    union = _Canonical(map(objects.__getitem__, order.tolist()))
    union._arrays = _read_only(sizes[order], np.concatenate(rows))
    return union, ids, blocks


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

    __slots__ = ("itemsets", "member", "supports", "_blocks")

    def __init__(self, models: Sequence[LitsModel]) -> None:
        self.itemsets, ids, self._blocks = _union(
            [model.itemsets for model in models]
        )
        shape = (len(models), len(self.itemsets))
        self.member = np.zeros(shape, dtype=bool)
        self.supports = np.zeros(shape)
        store = np.repeat(
            np.arange(len(models)), [len(model.itemsets) for model in models]
        )
        self.member[store, ids] = True
        self.supports[store, ids] = np.concatenate(
            [np.empty(0), *(model.support_vector for model in models)]
        )

    def __len__(self) -> int:
        return len(self.itemsets)

    def ids(self, itemsets: Sequence[frozenset[int]]) -> np.ndarray:
        """Vocabulary ids of ``itemsets``, ``-1`` where one is absent."""
        sizes, items = itemset_arrays(itemsets)
        out = np.full(sizes.size, -1, dtype=np.intp)
        for length, positions, block in _length_blocks(sizes, items):
            if length not in self._blocks:
                continue
            offset, keys = self._blocks[length]
            query = row_keys(block)
            at = np.minimum(np.searchsorted(keys, query), keys.size - 1)
            found = keys[at] == query
            out[positions[found]] = offset + at[found]
        return out

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
