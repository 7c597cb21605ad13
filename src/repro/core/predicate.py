"""Predicate algebra for regions.

Each region of the attribute space is identified by a predicate
(Definition 3.1). This module implements the conjunctive predicates that
arise from the paper's three model classes:

* :class:`Interval` -- ``lo <= x < hi`` for numeric attributes (decision
  tree splits produce half-open intervals; overlaying two trees
  intersects them, which stays half-open).
* :class:`ValueSet` -- ``x in S`` for categorical attributes.
* :class:`Conjunction` -- an AND of per-attribute constraints. An
  attribute absent from the conjunction is unconstrained.

Conjunctions are closed under intersection, which is exactly what the
greatest common refinement of two dt-models requires: "anding all
possible pairs of predicates from both structural components"
(Section 4.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Iterable, Mapping, Union

import numpy as np

from repro.errors import InvalidParameterError


@dataclass(frozen=True)
class Interval:
    """A half-open interval ``[lo, hi)`` over a numeric attribute."""

    lo: float = -math.inf
    hi: float = math.inf

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise InvalidParameterError("interval bounds must not be NaN")

    @property
    def is_empty(self) -> bool:
        return not self.lo < self.hi

    @property
    def is_universal(self) -> bool:
        return self.lo == -math.inf and self.hi == math.inf

    def intersect(self, other: "Interval") -> "Interval":
        """The (possibly empty) intersection of two intervals."""
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def contains(self, value: float) -> bool:
        return self.lo <= value < self.hi

    def contains_interval(self, other: "Interval") -> bool:
        """Whether ``other`` (non-empty) is a subset of this interval."""
        if other.is_empty:
            return True
        return self.lo <= other.lo and other.hi <= self.hi

    def mask(self, column: np.ndarray) -> np.ndarray:
        """Vectorised membership test over a data column."""
        out = np.ones(column.shape, dtype=bool)
        if self.lo != -math.inf:
            out &= column >= self.lo
        if self.hi != math.inf:
            out &= column < self.hi
        return out

    def describe(self, name: str) -> str:
        if self.is_universal:
            return f"{name}: any"
        if self.lo == -math.inf:
            return f"{name} < {self.hi:g}"
        if self.hi == math.inf:
            return f"{name} >= {self.lo:g}"
        return f"{self.lo:g} <= {name} < {self.hi:g}"


@dataclass(frozen=True)
class ValueSet:
    """A finite set of admissible integer codes for a categorical attribute."""

    values: frozenset[int]

    def __init__(self, values: Iterable[int]) -> None:
        object.__setattr__(self, "values", frozenset(int(v) for v in values))

    @property
    def is_empty(self) -> bool:
        return not self.values

    def intersect(self, other: "ValueSet") -> "ValueSet":
        return ValueSet(self.values & other.values)

    def contains(self, value: float) -> bool:
        return int(value) in self.values and value == int(value)

    def contains_set(self, other: "ValueSet") -> bool:
        return other.values <= self.values

    def mask(self, column: np.ndarray) -> np.ndarray:
        if not self.values:
            return np.zeros(column.shape, dtype=bool)
        return np.isin(column, np.array(sorted(self.values), dtype=column.dtype))

    def describe(self, name: str) -> str:
        vals = ",".join(str(v) for v in sorted(self.values))
        return f"{name} in {{{vals}}}"


Constraint = Union[Interval, ValueSet]

UNIVERSAL_INTERVAL = Interval()


def _constraints_intersect(a: Constraint, b: Constraint) -> Constraint:
    if isinstance(a, Interval) != isinstance(b, Interval):
        raise InvalidParameterError(
            "cannot intersect an Interval with a ValueSet on the same attribute"
        )
    return a.intersect(b)  # type: ignore[arg-type]


@dataclass(frozen=True)
class Conjunction:
    """An AND of per-attribute constraints; the predicate of a box region.

    The empty conjunction is the always-true predicate (the whole
    attribute space). Conjunctions are hashable and comparable so they
    can serve as structural-component keys.
    """

    constraints: Mapping[str, Constraint]

    def __init__(self, constraints: Mapping[str, Constraint] | None = None) -> None:
        items = dict(constraints or {})
        # Drop universal constraints so that equal predicates hash equally.
        items = {
            name: c
            for name, c in items.items()
            if not (isinstance(c, Interval) and c.is_universal)
        }
        object.__setattr__(self, "constraints", MappingProxyType(items))

    def __reduce__(self) -> tuple[Any, ...]:
        # a mapping proxy does not pickle; process fans ship partition
        # plans, whose regions carry conjunctions
        return (Conjunction, (dict(self.constraints),))

    def __hash__(self) -> int:
        return hash(frozenset(self.constraints.items()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Conjunction):
            return NotImplemented
        return dict(self.constraints) == dict(other.constraints)

    @property
    def is_universal(self) -> bool:
        return not self.constraints

    @property
    def is_empty(self) -> bool:
        return any(c.is_empty for c in self.constraints.values())

    def intersect(self, other: "Conjunction") -> "Conjunction":
        """Per-attribute intersection; may produce an empty conjunction."""
        merged: dict[str, Constraint] = dict(self.constraints)
        for name, c in other.constraints.items():
            if name in merged:
                merged[name] = _constraints_intersect(merged[name], c)
            else:
                merged[name] = c
        return Conjunction(merged)

    def contains_point(self, point: Mapping[str, float]) -> bool:
        """Whether a point (attribute name -> value) satisfies the predicate."""
        for name, c in self.constraints.items():
            if name not in point or not c.contains(point[name]):
                return False
        return True

    def contains_conjunction(self, other: "Conjunction") -> bool:
        """Whether ``other``'s box is a subset of this box (both non-empty)."""
        for name, c in self.constraints.items():
            other_c = other.constraints.get(name)
            if other_c is None:
                return False
            if isinstance(c, Interval):
                if not isinstance(other_c, Interval):
                    return False
                if not c.contains_interval(other_c):
                    return False
            else:
                if not isinstance(other_c, ValueSet):
                    return False
                if not c.contains_set(other_c):
                    return False
        return True

    def mask(self, columns: Mapping[str, np.ndarray], n_rows: int) -> np.ndarray:
        """Vectorised membership over named columns of equal length."""
        out = np.ones(n_rows, dtype=bool)
        for name, c in self.constraints.items():
            if name not in columns:
                from repro.errors import SchemaError

                raise SchemaError(f"predicate references unknown attribute {name!r}")
            out &= c.mask(columns[name])
        return out

    def describe(self) -> str:
        if self.is_universal:
            return "true"
        parts = [
            self.constraints[name].describe(name)
            for name in sorted(self.constraints)
        ]
        return " and ".join(parts)


TRUE = Conjunction()


def interval_constraint(name: str, lo: float = -math.inf, hi: float = math.inf) -> Conjunction:
    """A conjunction with a single interval constraint, e.g. ``age < 30``."""
    return Conjunction({name: Interval(lo, hi)})


def value_constraint(name: str, values: Iterable[int]) -> Conjunction:
    """A conjunction with a single categorical constraint, e.g. ``elevel in {0,1}``."""
    return Conjunction({name: ValueSet(values)})
