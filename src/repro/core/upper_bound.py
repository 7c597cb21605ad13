"""The ``delta*`` upper bound for lits-model deviations (Section 4.1.1).

``delta*`` bounds ``delta_(f_a, g)`` *without scanning either dataset*:
it needs only the two models (itemsets plus their stored supports), which
"will probably fit in main memory, unlike the datasets". Per
Definition 4.1, an itemset frequent in both models contributes the exact
``f_a`` term; an itemset frequent in only one contributes its full
support (its unknown support in the other dataset lies below ``ms``, so
this majorises the true difference).

Theorem 4.2: ``delta*(g) >= delta_(f_a, g)``, ``delta*`` satisfies the
triangle inequality, and it needs no dataset scan -- all three are
enforced by the property-based tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.aggregate import SUM, AggregateFunction
from repro.core.lits import LitsModel
from repro.core.model import _Canonical
from repro.errors import IncompatibleModelsError


@dataclass(frozen=True)
class UpperBoundResult:
    """``delta*`` plus its per-itemset breakdown."""

    value: float
    g_name: str
    itemsets: tuple[frozenset[int], ...]
    per_itemset: np.ndarray

    def __float__(self) -> float:
        return self.value


def upper_bound_deviation(
    model1: LitsModel,
    model2: LitsModel,
    g: AggregateFunction = SUM,
) -> UpperBoundResult:
    """Compute ``delta*_(g)(M1, M2)`` from the models alone."""
    for model in (model1, model2):
        if not isinstance(model, LitsModel):
            raise IncompatibleModelsError(
                f"delta* (Definition 4.1) is defined for lits-models only, "
                f"got a {type(model).__name__}"
            )
    union = _Canonical.ordered(set(model1.itemsets) | set(model2.itemsets))
    values = np.empty(len(union))
    for i, itemset in enumerate(union):
        s1 = model1.supports.get(itemset)
        s2 = model2.supports.get(itemset)
        if s1 is not None and s2 is not None:
            values[i] = abs(s1 - s2)
        elif s1 is not None:
            values[i] = s1  # f_a(nu1, 0): support below ms majorised by s1
        else:
            assert s2 is not None
            values[i] = s2
    return UpperBoundResult(
        value=g(values),
        g_name=g.name,
        itemsets=tuple(union),
        per_itemset=values,
    )
