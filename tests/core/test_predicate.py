"""Unit tests for the predicate algebra (intervals, value sets, conjunctions)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.predicate import (
    Conjunction,
    Interval,
    TRUE,
    ValueSet,
    interval_constraint,
    value_constraint,
)
from repro.errors import InvalidParameterError


class TestInterval:
    def test_universal_interval_contains_everything(self):
        i = Interval()
        assert i.is_universal
        assert i.contains(-1e300)
        assert i.contains(0.0)
        assert i.contains(1e300)

    def test_half_open_semantics(self):
        i = Interval(10, 20)
        assert i.contains(10)
        assert not i.contains(20)
        assert i.contains(19.999)
        assert not i.contains(9.999)

    def test_intersection_overlapping(self):
        a = Interval(0, 10)
        b = Interval(5, 15)
        c = a.intersect(b)
        assert (c.lo, c.hi) == (5, 10)

    def test_intersection_disjoint_is_empty(self):
        assert Interval(0, 5).intersect(Interval(5, 10)).is_empty
        assert Interval(0, 5).intersect(Interval(7, 10)).is_empty

    def test_empty_interval_detected(self):
        assert Interval(5, 5).is_empty
        assert Interval(6, 5).is_empty
        assert not Interval(5, 6).is_empty

    def test_contains_interval(self):
        assert Interval(0, 10).contains_interval(Interval(2, 8))
        assert Interval(0, 10).contains_interval(Interval(0, 10))
        assert not Interval(0, 10).contains_interval(Interval(2, 12))
        # The empty interval is a subset of anything.
        assert Interval(0, 1).contains_interval(Interval(5, 5))

    def test_mask(self):
        col = np.array([1.0, 5.0, 10.0, 15.0])
        mask = Interval(5, 15).mask(col)
        assert mask.tolist() == [False, True, True, False]

    def test_mask_unbounded_sides(self):
        col = np.array([-5.0, 0.0, 5.0])
        assert Interval(hi=0).mask(col).tolist() == [True, False, False]
        assert Interval(lo=0).mask(col).tolist() == [False, True, True]

    def test_nan_bounds_rejected(self):
        with pytest.raises(InvalidParameterError):
            Interval(math.nan, 1.0)

    def test_describe(self):
        assert "age" in Interval(0, 30).describe("age")
        assert Interval().describe("x") == "x: any"


class TestValueSet:
    def test_membership(self):
        vs = ValueSet([1, 2, 3])
        assert vs.contains(2)
        assert not vs.contains(4)
        assert not vs.contains(2.5)

    def test_intersection(self):
        a = ValueSet([1, 2, 3])
        b = ValueSet([2, 3, 4])
        assert a.intersect(b).values == frozenset({2, 3})

    def test_empty(self):
        assert ValueSet([]).is_empty
        assert ValueSet([1]).intersect(ValueSet([2])).is_empty

    def test_mask(self):
        col = np.array([1.0, 2.0, 3.0, 4.0])
        assert ValueSet([2, 4]).mask(col).tolist() == [False, True, False, True]

    def test_mask_empty_set(self):
        col = np.array([1.0, 2.0])
        assert ValueSet([]).mask(col).tolist() == [False, False]

    def test_contains_set(self):
        assert ValueSet([1, 2, 3]).contains_set(ValueSet([1, 2]))
        assert not ValueSet([1, 2]).contains_set(ValueSet([1, 3]))


class TestConjunction:
    def test_true_is_universal(self):
        assert TRUE.is_universal
        assert not TRUE.is_empty

    def test_pickle_round_trip(self):
        """Process fans ship partition plans, whose regions carry
        conjunctions over a read-only mapping."""
        import pickle

        c = interval_constraint("age", 0, 50).intersect(
            value_constraint("car", [1, 2])
        )
        copy = pickle.loads(pickle.dumps(c))
        assert copy == c and hash(copy) == hash(c)
        assert set(copy.constraints) == {"age", "car"}

    def test_universal_constraints_dropped(self):
        c = Conjunction({"x": Interval()})
        assert c.is_universal
        assert c == TRUE

    def test_intersect_merges_attributes(self):
        a = interval_constraint("age", hi=30)
        b = interval_constraint("salary", lo=100_000)
        c = a.intersect(b)
        assert set(c.constraints) == {"age", "salary"}

    def test_intersect_same_attribute_narrows(self):
        a = interval_constraint("age", 0, 50)
        b = interval_constraint("age", 30, 100)
        c = a.intersect(b)
        constraint = c.constraints["age"]
        assert (constraint.lo, constraint.hi) == (30, 50)

    def test_intersect_to_empty(self):
        a = interval_constraint("age", hi=30)
        b = interval_constraint("age", lo=30)
        assert a.intersect(b).is_empty

    def test_mixed_kind_intersection_rejected(self):
        a = interval_constraint("x", 0, 1)
        b = value_constraint("x", [1, 2])
        with pytest.raises(InvalidParameterError):
            a.intersect(b)

    def test_hash_equality_order_independent(self):
        a = Conjunction({"x": Interval(0, 1), "y": ValueSet([1])})
        b = Conjunction({"y": ValueSet([1]), "x": Interval(0, 1)})
        assert a == b
        assert hash(a) == hash(b)

    def test_contains_point(self):
        c = interval_constraint("age", 20, 30).intersect(
            value_constraint("elevel", [1, 2])
        )
        assert c.contains_point({"age": 25, "elevel": 1})
        assert not c.contains_point({"age": 35, "elevel": 1})
        assert not c.contains_point({"age": 25, "elevel": 3})
        assert not c.contains_point({"age": 25})  # missing attribute

    def test_contains_conjunction(self):
        outer = interval_constraint("age", 0, 50)
        inner = interval_constraint("age", 10, 20)
        assert outer.contains_conjunction(inner)
        assert not inner.contains_conjunction(outer)
        # Unconstrained attribute in other: not contained.
        other = interval_constraint("salary", 0, 10)
        assert not outer.contains_conjunction(other)

    def test_mask_over_columns(self):
        cols = {"age": np.array([10.0, 25.0, 40.0])}
        mask = interval_constraint("age", 20, 30).mask(cols, 3)
        assert mask.tolist() == [False, True, False]

    def test_mask_unknown_attribute_raises(self):
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            interval_constraint("ghost", 0, 1).mask({"age": np.zeros(2)}, 2)

    def test_describe_sorted_and_readable(self):
        c = interval_constraint("b", 0, 1).intersect(value_constraint("a", [3]))
        text = c.describe()
        assert text.index("a in") < text.index("b")
        assert TRUE.describe() == "true"
