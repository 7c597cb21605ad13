"""lits-models: sets of frequent itemsets as 2-component models (Section 4.1).

The structural component is the set of frequent itemsets at minimum
support ``ms``; each itemset's measure is its support. The refinement
relation is the superset relation on itemset collections, under which the
set of structural components forms a meet-semilattice (Proposition 4.1) --
the GCR of two lits-models is simply the union of their itemset sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Mapping

import numpy as np

from repro.core.model import LitsStructure, Model, _Canonical
from repro.data.transactions import TransactionDataset, _read_only
from repro.errors import InvalidParameterError
from repro.mining.apriori import apriori_levels


@dataclass(frozen=True)
class LitsModel(Model):
    """A frequent-itemset model: itemset -> support, at a support level.

    Attributes
    ----------
    supports:
        Mapping from itemset (frozenset of item ids) to relative support
        in the inducing dataset.
    min_support:
        The mining threshold ``ms`` (needed by the delta* upper bound,
        Definition 4.1).
    n_items:
        Size of the item universe.
    support_vector:
        The supports as a read-only float64 vector aligned with
        :attr:`itemsets` (derived; what the fleet vocabulary and the
        wire codec read).
    """

    supports: Mapping[frozenset[int], float]
    min_support: float
    n_items: int
    _structure: LitsStructure = field(init=False, repr=False, compare=False)
    support_vector: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_min_support(self.min_support)
        object.__setattr__(
            self, "supports", dict(self.supports)
        )
        structure = LitsStructure(tuple(self.supports.keys()))
        object.__setattr__(self, "_structure", structure)
        _set_vector(self, np.fromiter(
            map(self.supports.__getitem__, structure.itemsets),
            dtype=np.float64, count=len(structure.itemsets),
        ))

    @classmethod
    def _from_canonical(
        cls,
        itemsets: _Canonical,
        supports: np.ndarray,
        min_support: float,
        n_items: int,
    ) -> "LitsModel":
        """Internal fast path: trusted canonical itemsets, aligned float64
        supports.

        The wire decoder validates canonical order itself, and Apriori
        emits it, so the models they build skip the re-sort
        ``__post_init__`` would pay, and keep ``supports`` as their
        :attr:`support_vector`.
        """
        _check_min_support(min_support)
        self = object.__new__(cls)
        object.__setattr__(
            self, "supports", dict(zip(itemsets, supports.tolist()))
        )
        object.__setattr__(self, "min_support", min_support)
        object.__setattr__(self, "n_items", n_items)
        object.__setattr__(self, "_structure", LitsStructure(itemsets))
        _set_vector(self, supports)
        return self

    @classmethod
    def mine(
        cls,
        dataset: TransactionDataset,
        min_support: float,
        max_len: int | None = None,
    ) -> "LitsModel":
        """Mine the lits-model of a dataset with Apriori.

        Apriori's levels come out in canonical order, so the model is
        built through :meth:`_from_canonical` without a re-sort, and its
        itemsets keep the levels' id matrices as their array form.
        """
        index = dataset.index
        ids, counts = apriori_levels(index, min_support, max_len)
        itemsets = _Canonical(
            chain.from_iterable(map(frozenset, level.tolist()) for level in ids)
        )
        itemsets._arrays = _read_only(
            np.repeat([level.shape[1] for level in ids], list(map(len, ids))),
            np.concatenate([np.empty(0, np.int64), *(lv.ravel() for lv in ids)]),
        )
        supports = np.concatenate([np.empty(0), *counts]) / index.n_transactions
        return cls._from_canonical(
            itemsets, supports, min_support, dataset.n_items
        )

    @property
    def structure(self) -> LitsStructure:
        return self._structure

    @property
    def itemsets(self) -> tuple[frozenset[int], ...]:
        """The frequent itemsets in canonical order."""
        return self._structure.itemsets

    def support(self, itemset: Iterable[int]) -> float | None:
        """The stored support of an itemset, or ``None`` if not frequent."""
        return self.supports.get(frozenset(itemset))

    def __len__(self) -> int:
        return len(self.supports)


def _set_vector(model: LitsModel, vector: np.ndarray) -> None:
    vector.flags.writeable = False
    object.__setattr__(model, "support_vector", vector)


def _check_min_support(min_support: float) -> None:
    if not 0.0 < min_support <= 1.0:
        raise InvalidParameterError(
            f"min_support must be in (0, 1], got {min_support}"
        )
