"""lits-models: sets of frequent itemsets as 2-component models (Section 4.1).

The structural component is the set of frequent itemsets at minimum
support ``ms``; each itemset's measure is its support. The refinement
relation is the superset relation on itemset collections, under which the
set of structural components forms a meet-semilattice (Proposition 4.1) --
the GCR of two lits-models is simply the union of their itemset sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.core.model import LitsStructure, Model, _Canonical
from repro.data.transactions import TransactionDataset
from repro.errors import InvalidParameterError
from repro.mining.apriori import apriori


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
    """

    supports: Mapping[frozenset[int], float]
    min_support: float
    n_items: int
    _structure: LitsStructure = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_min_support(self.min_support)
        object.__setattr__(
            self, "supports", dict(self.supports)
        )
        object.__setattr__(
            self, "_structure", LitsStructure(tuple(self.supports.keys()))
        )

    @classmethod
    def _from_canonical(
        cls,
        itemsets: _Canonical,
        supports: Iterable[float],
        min_support: float,
        n_items: int,
    ) -> "LitsModel":
        """Internal fast path: trusted canonical itemsets, aligned supports.

        The wire decoder validates canonical order itself, so the model
        it rebuilds skips the re-sort ``__post_init__`` would pay.
        """
        _check_min_support(min_support)
        self = object.__new__(cls)
        object.__setattr__(self, "supports", dict(zip(itemsets, supports)))
        object.__setattr__(self, "min_support", min_support)
        object.__setattr__(self, "n_items", n_items)
        object.__setattr__(self, "_structure", LitsStructure(itemsets))
        return self

    @classmethod
    def mine(
        cls,
        dataset: TransactionDataset,
        min_support: float,
        max_len: int | None = None,
    ) -> "LitsModel":
        """Mine the lits-model of a dataset with Apriori."""
        supports = apriori(dataset, min_support, max_len=max_len)
        return cls(supports, min_support, dataset.n_items)

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


def _check_min_support(min_support: float) -> None:
    if not 0.0 < min_support <= 1.0:
        raise InvalidParameterError(
            f"min_support must be in (0, 1], got {min_support}"
        )
