"""Hypothesis properties: partition shard-merge correctness.

The partition-sketch siblings of the ``SupportSketch`` invariants in
``test_sketch_properties.py``:

* **merge**: for ANY partition of a tabular row bag into shards
  (including empty shards), the sum of per-shard
  :class:`PartitionSketch` histograms equals the single-scan
  ``PartitionStructure.counts`` over the whole bag -- for the labelled
  (dt-model) case and the unlabelled (cluster-model) case alike;
* **retirement**: ``whole - prefix == suffix``, the sliding-window
  subtraction step.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from wide_executors import WideSerial

from repro.core.attribute import AttributeSpace, categorical, numeric
from repro.core.model import PartitionStructure
from repro.core.predicate import interval_constraint
from repro.core.region import BoxRegion
from repro.data.tabular import TabularDataset
from repro.mining.cluster.grid import Grid
from repro.stream.executor import sharded_partition_sketch
from repro.stream.sketch import PartitionSketch

LABELS = (3, 1, 7)
LABELLED_SPACE = AttributeSpace(
    (numeric("age", 0.0, 1.0), categorical("colour", (4, 2, 9))),
    class_labels=LABELS,
)
UNLABELLED_SPACE = AttributeSpace(
    (numeric("age", 0.0, 1.0), categorical("colour", (4, 2, 9)))
)
_GRID_L = Grid.uniform(LABELLED_SPACE, bins=3)
_GRID_U = Grid.uniform(UNLABELLED_SPACE, bins=3)


def _structure(grid, class_labels) -> PartitionStructure:
    n_cells = int(np.prod(grid.shape()))
    cells = tuple(grid.cell_predicate(i) for i in range(n_cells))
    return PartitionStructure(
        cells=cells, class_labels=class_labels, assigner=grid.assign
    )


LABELLED = _structure(_GRID_L, LABELS)
UNLABELLED = _structure(_GRID_U, ())


rows_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=0.999),
        st.sampled_from([4, 2, 9]),
        st.sampled_from(LABELS),
    ),
    max_size=60,
)


def _dataset(rows, labelled: bool) -> TabularDataset:
    space = LABELLED_SPACE if labelled else UNLABELLED_SPACE
    X = np.array([[age, colour] for age, colour, _ in rows]).reshape(-1, 2)
    y = (
        np.array([label for _, _, label in rows], dtype=np.int64)
        if labelled
        else None
    )
    return TabularDataset(space, X, y)


@st.composite
def partitioned_rows(draw):
    """A row bag plus an arbitrary partition into shards."""
    rows = draw(rows_strategy)
    n_shards = draw(st.integers(min_value=1, max_value=6))
    assignment = draw(
        st.lists(
            st.integers(min_value=0, max_value=n_shards - 1),
            min_size=len(rows),
            max_size=len(rows),
        )
    )
    shards: list[list] = [[] for _ in range(n_shards)]
    for row, shard in zip(rows, assignment):
        shards[shard].append(row)
    return rows, shards


class TestPartitionShardMergeProperty:
    @given(data=partitioned_rows(), labelled=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_sum_of_shard_sketches_equals_single_scan(self, data, labelled):
        rows, shards = data
        structure = LABELLED if labelled else UNLABELLED
        whole = _dataset(rows, labelled)
        merged = sum(
            (
                PartitionSketch.from_dataset(_dataset(s, labelled), structure)
                for s in shards
            ),
            PartitionSketch.empty(structure),
        )
        assert merged.n_rows == len(rows)
        np.testing.assert_array_equal(merged.counts, structure.counts(whole))
        # The single-scan sketch is the same object-level value.
        assert merged == PartitionSketch.from_dataset(whole, structure)
        # Region counts conserve mass: every row lands in exactly one
        # cell (x its class for the labelled structure).
        assert merged.counts.sum() == len(rows)

    @given(data=partitioned_rows(), labelled=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_sharded_helper_equals_single_scan(self, data, labelled):
        rows, _ = data
        structure = LABELLED if labelled else UNLABELLED
        whole = _dataset(rows, labelled)
        # more workers than rows leaves trailing shards empty
        for workers in (1, 3, len(rows) + 1):
            merged = sharded_partition_sketch(
                whole, structure.plan, WideSerial(workers)
            )
            assert merged == PartitionSketch.from_dataset(whole, structure)

    @given(data=partitioned_rows(), labelled=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_prefix_subtraction_equals_suffix_scan(self, data, labelled):
        """whole - prefix == suffix: the sliding-window retirement step."""
        rows, _ = data
        structure = LABELLED if labelled else UNLABELLED
        cut = len(rows) // 2
        whole = PartitionSketch.from_dataset(_dataset(rows, labelled), structure)
        prefix = PartitionSketch.from_dataset(
            _dataset(rows[:cut], labelled), structure
        )
        suffix = PartitionSketch.from_dataset(
            _dataset(rows[cut:], labelled), structure
        )
        assert whole - prefix == suffix


class TestSketchAgainstFocussedStructure:
    @given(data=rows_strategy)
    @settings(max_examples=25, deadline=None)
    def test_focussed_structure_sketches_consistently(self, data):
        """Sketches over a focussed overlay still merge and align."""
        focussed = LABELLED.focussed(
            BoxRegion(interval_constraint("age", hi=0.5))
        )
        whole = _dataset(data, True)
        sketch = PartitionSketch.from_dataset(whole, focussed)
        np.testing.assert_array_equal(sketch.counts, focussed.counts(whole))
