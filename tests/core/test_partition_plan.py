"""Tests for the precompiled partition counting plan.

Covers the vectorised label routing (including the
``IncompatibleModelsError`` raised for labels outside the structure's
alphabet), the ``SchemaError`` parity with ``TabularDataset.box_mask``
for class-restricted structures over unlabelled data, the memoised
assigner passes (GCR overlays and repeat measurements reuse one scan),
and the batched deviation path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.attribute import AttributeSpace, numeric
from repro.core.deviation import (
    deviation_over_structure,
    deviation_over_structure_many,
)
from repro.core.gcr import gcr
from repro.core.model import PartitionStructure
from repro.core.partition_plan import LabelEncoder, PartitionCountingPlan
from repro.core.predicate import interval_constraint
from repro.core.region import BoxRegion
from repro.data.tabular import TabularDataset
from repro.errors import IncompatibleModelsError, SchemaError

LABELLED = AttributeSpace((numeric("age", 0, 100),), class_labels=(3, 1, 7))
UNLABELLED = AttributeSpace((numeric("age", 0, 100),))


def _age_partition(class_labels, cut=50.0):
    """A two-cell partition of the age axis, optionally with classes."""
    low = interval_constraint("age", hi=cut)
    high = interval_constraint("age", lo=cut)

    def assigner(dataset):
        return (dataset.column("age") >= cut).astype(np.int64)

    return PartitionStructure(
        cells=(low, high), class_labels=class_labels, assigner=assigner
    )


def _counts_python_loop(structure, dataset):
    """The seed's per-row reference implementation (labelled, unfocussed)."""
    cell_idx = np.asarray(structure.assigner(dataset), dtype=np.int64)
    label_code = {label: i for i, label in enumerate(structure.class_labels)}
    codes = np.array([label_code[int(v)] for v in dataset.y], dtype=np.int64)
    k = len(structure.class_labels)
    flat = cell_idx * k + codes
    return np.bincount(flat, minlength=len(structure.cells) * k)


def _dataset(ages, labels=None, space=None):
    if space is None:
        space = LABELLED if labels is not None else UNLABELLED
    X = np.asarray(ages, dtype=np.float64).reshape(-1, 1)
    y = None if labels is None else np.asarray(labels, dtype=np.int64)
    return TabularDataset(space, X, y)


class TestVectorisedCounts:
    def test_matches_python_loop_reference(self):
        rng = np.random.default_rng(5)
        structure = _age_partition((3, 1, 7))
        dataset = _dataset(
            rng.uniform(0, 100, size=500),
            rng.choice([3, 1, 7], size=500),
        )
        np.testing.assert_array_equal(
            structure.counts(dataset), _counts_python_loop(structure, dataset)
        )

    def test_unlabelled_partition_counts(self):
        structure = _age_partition(())
        dataset = _dataset([10.0, 60.0, 70.0])
        assert structure.counts(dataset).tolist() == [1, 2]

    def test_empty_dataset(self):
        structure = _age_partition((3, 1, 7))
        empty = _dataset(np.empty(0), np.empty(0, dtype=np.int64))
        assert structure.counts(empty).tolist() == [0] * 6

    def test_deviation_many_equals_per_snapshot_deviation(self):
        """The batched deviation path, empty snapshot included, matches
        one ``deviation_over_structure`` per snapshot bit for bit."""
        rng = np.random.default_rng(6)
        structure = _age_partition((3, 1, 7))
        reference = _dataset(
            rng.uniform(0, 100, size=90), rng.choice([3, 1, 7], size=90)
        )
        snapshots = [
            _dataset(
                rng.uniform(0, 100, size=n), rng.choice([3, 1, 7], size=n)
            )
            for n in (0, 17, 120)
        ]
        batch = deviation_over_structure_many(structure, reference, snapshots)
        assert len(batch) == len(snapshots)
        for snapshot, result in zip(snapshots, batch):
            single = deviation_over_structure(structure, reference, snapshot)
            assert result.value == single.value
            assert (result.n1, result.n2) == (single.n1, single.n2)
            for field in ("per_region", "counts1", "counts2"):
                np.testing.assert_array_equal(
                    getattr(result, field), getattr(single, field)
                )


class TestLabelRouting:
    def test_unseen_class_label_raises_incompatible(self):
        """An out-of-alphabet label names itself instead of a KeyError."""
        structure = _age_partition((3, 1))  # 7 is not in the alphabet
        snapshot = _dataset([10.0, 60.0, 80.0], [3, 1, 7])
        with pytest.raises(IncompatibleModelsError, match="label 7"):
            structure.counts(snapshot)

    def test_unlabelled_dataset_with_class_regions_raises(self):
        structure = _age_partition((3, 1, 7))
        with pytest.raises(IncompatibleModelsError, match="unlabelled"):
            structure.counts(_dataset([10.0, 60.0]))

    def test_label_encoder_declaration_order(self):
        encoder = LabelEncoder((3, 1, 7))
        codes, bad = encoder.encode(np.array([7, 3, 1, 3]))
        assert codes.tolist() == [2, 0, 1, 0]
        assert not bad.any()

    def test_label_encoder_flags_unknown(self):
        encoder = LabelEncoder((3, 1, 7))
        codes, bad = encoder.encode(np.array([3, 5, 7]))
        assert bad.tolist() == [False, True, False]


class TestFocusClassParity:
    """The satellite regression: counts and box_mask agree on unlabelled data."""

    def test_focus_class_on_unlabelled_raises_schema_error(self):
        structure = _age_partition(()).focussed(
            BoxRegion(interval_constraint("age", hi=100), class_label=1)
        )
        unlabelled = _dataset([10.0, 60.0])
        with pytest.raises(SchemaError):
            structure.counts(unlabelled)

    def test_counts_and_box_mask_agree(self):
        """Both measurement paths raise SchemaError on the same input."""
        region = BoxRegion(interval_constraint("age", hi=50), class_label=1)
        structure = _age_partition(()).focussed(region)
        unlabelled = _dataset([10.0, 60.0])
        with pytest.raises(SchemaError):
            unlabelled.box_mask(region)
        with pytest.raises(SchemaError):
            structure.counts(unlabelled)

    def test_focus_class_still_counts_labelled_data(self):
        structure = _age_partition((3, 1, 7)).focussed(
            BoxRegion(interval_constraint("age", hi=100), class_label=1)
        )
        dataset = _dataset([10.0, 60.0, 70.0, 20.0], [1, 1, 3, 7])
        assert structure.counts(dataset).tolist() == [1, 1]


class TestAssignmentMemo:
    def _counting_structure(self, class_labels=(), cut=50.0):
        calls = {"n": 0}
        low = interval_constraint("age", hi=cut)
        high = interval_constraint("age", lo=cut)

        def assigner(dataset):
            calls["n"] += 1
            return (dataset.column("age") >= cut).astype(np.int64)

        structure = PartitionStructure(
            cells=(low, high), class_labels=class_labels, assigner=assigner
        )
        return structure, calls

    def test_repeat_counts_share_one_assigner_pass(self):
        structure, calls = self._counting_structure()
        dataset = _dataset([10.0, 60.0, 70.0])
        structure.counts(dataset)
        structure.counts(dataset)
        structure.selectivities(dataset)
        assert calls["n"] == 1

    def test_focussed_overlay_reuses_the_pass(self):
        structure, calls = self._counting_structure()
        focussed = structure.focussed(
            BoxRegion(interval_constraint("age", hi=80))
        )
        dataset = _dataset([10.0, 60.0, 70.0])
        structure.counts(dataset)
        focussed.counts(dataset)
        assert calls["n"] == 1

    def test_gcr_overlay_reuses_base_passes(self):
        s1, calls1 = self._counting_structure(cut=50.0)
        s2, calls2 = self._counting_structure(cut=30.0)
        overlay = gcr(s1, s2)
        dataset = _dataset([10.0, 40.0, 60.0, 70.0])
        s1.counts(dataset)
        s2.counts(dataset)
        overlay.counts(dataset)  # composes the two memoised base passes
        assert calls1["n"] == 1
        assert calls2["n"] == 1

    def test_distinct_datasets_are_assigned_separately(self):
        structure, calls = self._counting_structure()
        structure.counts(_dataset([10.0, 60.0]))
        structure.counts(_dataset([10.0, 60.0]))  # different object
        assert calls["n"] == 2

    def test_grown_log_is_reassigned(self):
        from repro.stream.chunks import TabularLog

        structure, calls = self._counting_structure()
        log = TabularLog(UNLABELLED)
        log.append(np.array([[10.0], [60.0]]))
        assert structure.counts(log).tolist() == [1, 1]
        log.append(np.array([[70.0]]))
        assert structure.counts(log).tolist() == [1, 2]
        assert calls["n"] == 2


class TestBatchedDeviation:
    def test_deviation_over_structure_many_partition(self):
        rng = np.random.default_rng(11)
        structure = _age_partition((3, 1, 7))
        reference = _dataset(
            rng.uniform(0, 100, 300), rng.choice([3, 1, 7], 300)
        )
        snapshots = [
            _dataset(rng.uniform(0, 100, 200), rng.choice([3, 1, 7], 200))
            for _ in range(4)
        ]
        results = deviation_over_structure_many(
            structure, reference, snapshots
        )
        assert len(results) == 4
        for snapshot, result in zip(snapshots, results):
            np.testing.assert_array_equal(
                result.counts2, structure.counts(snapshot)
            )

    def test_plan_is_cached_on_structure(self):
        structure = _age_partition((3, 1, 7))
        assert structure.plan is structure.plan
        assert isinstance(structure.plan, PartitionCountingPlan)


def _reordered_pair():
    """Two structures over the same cell *set* in opposite orders."""
    low = interval_constraint("age", hi=50)
    high = interval_constraint("age", lo=50)

    def fwd(dataset):
        return (dataset.column("age") >= 50).astype(np.int64)

    def rev(dataset):
        return (dataset.column("age") < 50).astype(np.int64)

    a = PartitionStructure(cells=(low, high), class_labels=(), assigner=fwd)
    b = PartitionStructure(cells=(high, low), class_labels=(), assigner=rev)
    return a, b


class TestCountsAlignmentKey:
    """Regression: equal region *sets* in different orders never share
    positionally-aligned counts."""

    def test_counts_key_is_order_sensitive(self):
        a, b = _reordered_pair()
        assert a.key == b.key  # same set: mathematically the same structure
        assert a.counts_key != b.counts_key  # but counts do not align

    def test_reordered_sketches_refuse_to_merge(self):
        from repro.errors import IncompatibleModelsError
        from repro.stream.sketch import PartitionSketch

        a, b = _reordered_pair()
        dataset = _dataset([10.0, 60.0, 70.0])
        sa = PartitionSketch.from_dataset(dataset, a)
        sb = PartitionSketch.from_dataset(dataset, b)
        assert sa.counts.tolist() == [1, 2]
        assert sb.counts.tolist() == [2, 1]
        with pytest.raises(IncompatibleModelsError):
            sa + sb

    def test_memo_is_bounded_per_dataset(self):
        from repro.core.partition_plan import (
            _ASSIGNMENTS,
            _MAX_PASSES_PER_DATASET,
            cell_assignments,
        )

        dataset = _dataset([10.0, 60.0])
        assigners = [
            (lambda cut: lambda d: (d.column("age") >= cut).astype(np.int64))(c)
            for c in range(0, 4 * _MAX_PASSES_PER_DATASET)
        ]
        for assigner in assigners:
            cell_assignments(assigner, dataset)
        assert len(_ASSIGNMENTS[dataset]) == _MAX_PASSES_PER_DATASET
        # most-recently-used survive; the first ones were evicted
        kept = {id(a) for a in assigners[-_MAX_PASSES_PER_DATASET:]}
        assert set(_ASSIGNMENTS[dataset]) == kept


class TestRegionAssignments:
    """The per-row form behind the count-space bootstrap: ``counts``
    must equal the bincount of ``region_assignments`` with the
    excluded-rows sentinel bin dropped, under every focus configuration."""

    def _assert_consistent(self, structure, dataset):
        plan = PartitionCountingPlan(structure)
        flat = plan.region_assignments(dataset)
        r = plan.n_regions
        assert flat.shape == (len(dataset),)
        assert ((flat >= 0) & (flat <= r)).all()
        np.testing.assert_array_equal(
            np.bincount(flat, minlength=r + 1)[:r], plan.counts(dataset)
        )

    def test_labelled_partition(self):
        rng = np.random.default_rng(12)
        structure = _age_partition((3, 1, 7))
        dataset = _dataset(
            rng.uniform(0, 100, size=200), rng.choice([3, 1, 7], size=200)
        )
        assert structure.plan.n_regions == 6
        self._assert_consistent(structure, dataset)

    def test_unlabelled_partition(self):
        structure = _age_partition(())
        assert structure.plan.n_regions == 2
        self._assert_consistent(structure, _dataset([10.0, 60.0, 70.0]))

    def test_focus_predicate_rows_go_to_sentinel(self):
        structure = _age_partition(()).focussed(
            BoxRegion(interval_constraint("age", hi=30))
        )
        dataset = _dataset([10.0, 20.0, 60.0, 80.0])
        plan = PartitionCountingPlan(structure)
        flat = plan.region_assignments(dataset)
        # ages >= 30 are outside the focus: sentinel bin n_regions
        assert flat.tolist() == [0, 0, 2, 2]
        self._assert_consistent(structure, dataset)

    def test_focus_class_rows_go_to_sentinel(self):
        structure = _age_partition((3, 1, 7)).focussed(
            BoxRegion(interval_constraint("age", hi=100), class_label=1)
        )
        dataset = _dataset([10.0, 60.0, 70.0, 20.0], [1, 1, 3, 7])
        plan = PartitionCountingPlan(structure)
        assert plan.n_regions == 2
        flat = plan.region_assignments(dataset)
        assert flat.tolist() == [0, 1, 2, 2]
        self._assert_consistent(structure, dataset)

    def test_unseen_label_raises(self):
        structure = _age_partition((3, 1))
        snapshot = _dataset([10.0, 60.0], [3, 7])
        with pytest.raises(IncompatibleModelsError, match="label 7"):
            PartitionCountingPlan(structure).region_assignments(snapshot)

    def test_focus_class_on_unlabelled_raises(self):
        structure = _age_partition(()).focussed(
            BoxRegion(interval_constraint("age", hi=100), class_label=1)
        )
        with pytest.raises(SchemaError):
            PartitionCountingPlan(structure).region_assignments(
                _dataset([10.0])
            )
