"""Property suite: the count-space bootstrap engine vs the loop oracle.

The engine's contract is *exact* equivalence, not statistical
similarity: when the vectorized plan and the per-replicate resampling
loop consume the same multiplicity draws, the two null vectors must be
equal bit for bit -- for lits structures (overlapping itemset regions,
including never-occurring itemsets and the empty itemset), for
partition structures (disjoint cell x class regions, including empty
ones), at ``n1 = 1``, at ``B = 1`` and under tied deviations. The
row-level plans go further: they draw from the stream the loop
consumes, so their null equals the loop's under the same seed.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.deviation import deviation_from_counts, deviation_over_structure
from repro.core.difference import ABSOLUTE, SCALED, chi_squared_difference
from repro.core.aggregate import MAX, SUM
from repro.core.dtree_model import DtModel
from repro.core.model import LitsStructure
from repro.data.quest_classify import generate_classification
from repro.data.transactions import TransactionDataset
from repro.errors import InvalidParameterError
from repro.mining.tree.builder import TreeParams
from repro.stats.bootstrap import significance_of_statistic
from repro.stats.resample_plan import (
    CountsResamplePlan,
    LitsResamplePlan,
    PackedLitsResamplePlan,
    PartitionResamplePlan,
    compile_resample_plan,
    draw_multiplicities,
    lits_membership,
    multiplicities_from_indices,
)

N_ITEMS = 10


def oracle_null(structure, pooled, idx1, idx2, f=None, g=None):
    """The per-replicate loop: materialise each resample and rescan it."""
    kwargs = {}
    if f is not None:
        kwargs["f"] = f
    if g is not None:
        kwargs["g"] = g
    return np.array(
        [
            deviation_over_structure(
                structure, pooled.take(i1), pooled.take(i2), **kwargs
            ).value
            for i1, i2 in zip(idx1, idx2)
        ]
    )


transactions_strategy = st.lists(
    st.lists(st.integers(min_value=0, max_value=N_ITEMS - 1), max_size=5),
    min_size=2,
    max_size=40,
)

# Itemsets may reference items the data never contains (empty regions)
# and always include the empty itemset (support = everything).
itemsets_strategy = st.lists(
    st.lists(st.integers(min_value=0, max_value=N_ITEMS - 1), max_size=4),
    max_size=12,
).map(lambda sets: [*sets, [], [N_ITEMS - 1, N_ITEMS - 2, N_ITEMS - 3]])


@st.composite
def lits_cases(draw):
    txns = draw(transactions_strategy)
    structure = LitsStructure(
        [frozenset(s) for s in draw(itemsets_strategy)]
    )
    n = len(txns)
    n1 = draw(st.integers(min_value=1, max_value=n - 1))
    n_boot = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return txns, structure, n1, n_boot, seed


class TestLitsExactEquality:
    @given(case=lits_cases())
    @settings(max_examples=60, deadline=None)
    def test_engine_equals_loop_oracle_under_shared_draws(self, case):
        txns, structure, n1, n_boot, seed = case
        pooled = TransactionDataset(txns, N_ITEMS)
        n = len(pooled)
        n2 = n - n1
        d1 = pooled.take(np.arange(n1))
        d2 = pooled.take(np.arange(n1, n))

        plan = compile_resample_plan(structure, d1, d2)
        assert isinstance(plan, LitsResamplePlan)

        rng = np.random.default_rng(seed)
        idx1 = rng.integers(0, n, size=(n_boot, n1))
        idx2 = rng.integers(0, n, size=(n_boot, n2))
        slow = oracle_null(structure, pooled, idx1, idx2)
        fast = plan.null_from_multiplicities(
            multiplicities_from_indices(idx1, n),
            multiplicities_from_indices(idx2, n),
        )
        assert np.array_equal(slow, fast)

    @given(case=lits_cases())
    @settings(max_examples=25, deadline=None)
    def test_observed_counts_match_direct_scan(self, case):
        txns, structure, n1, _, _ = case
        pooled = TransactionDataset(txns, N_ITEMS)
        d1 = pooled.take(np.arange(n1))
        d2 = pooled.take(np.arange(n1, len(pooled)))
        plan = compile_resample_plan(structure, d1, d2)
        counts1, counts2 = plan.observed_counts()
        assert np.array_equal(counts1, structure.counts(d1))
        assert np.array_equal(counts2, structure.counts(d2))

    @given(case=lits_cases())
    @settings(max_examples=20, deadline=None)
    def test_non_default_f_g_also_exact(self, case):
        txns, structure, n1, n_boot, seed = case
        pooled = TransactionDataset(txns, N_ITEMS)
        n = len(pooled)
        d1 = pooled.take(np.arange(n1))
        d2 = pooled.take(np.arange(n1, n))
        plan = compile_resample_plan(structure, d1, d2)
        rng = np.random.default_rng(seed)
        idx1 = rng.integers(0, n, size=(n_boot, n1))
        idx2 = rng.integers(0, n, size=(n_boot, n - n1))
        slow = oracle_null(structure, pooled, idx1, idx2, f=SCALED, g=MAX)
        fast = plan.null_from_multiplicities(
            multiplicities_from_indices(idx1, n),
            multiplicities_from_indices(idx2, n),
            f=SCALED,
            g=MAX,
        )
        assert np.array_equal(slow, fast)


class TestPackedPlanRegression:
    """The bit-packed block-streaming plan is the dense GEMM, exactly.

    ``PackedLitsResamplePlan`` exists to lift the dense membership cap;
    its correctness contract is that under shared draws its observed
    counts and null vector equal both the dense ``LitsResamplePlan`` and
    the per-replicate loop oracle bit for bit -- including when the
    block budget forces multi-block row streaming.
    """

    @given(case=lits_cases())
    @settings(max_examples=40, deadline=None)
    def test_packed_equals_dense_and_oracle_under_shared_draws(self, case):
        txns, structure, n1, n_boot, seed = case
        pooled = TransactionDataset(txns, N_ITEMS)
        n = len(pooled)
        d1 = pooled.take(np.arange(n1))
        d2 = pooled.take(np.arange(n1, n))

        dense = LitsResamplePlan.from_datasets(structure, d1, d2)
        packed = PackedLitsResamplePlan.from_datasets(structure, d1, d2)
        # force the streaming path: at most one byte-block of rows at a
        # time, so every case with > 8 pooled rows exercises multi-block
        packed._block_rows = 8

        assert np.array_equal(
            packed.observed_counts()[0], dense.observed_counts()[0]
        )
        assert np.array_equal(
            packed.observed_counts()[1], dense.observed_counts()[1]
        )

        rng = np.random.default_rng(seed)
        idx1 = rng.integers(0, n, size=(n_boot, n1))
        idx2 = rng.integers(0, n, size=(n_boot, n - n1))
        m1 = multiplicities_from_indices(idx1, n)
        m2 = multiplicities_from_indices(idx2, n)
        slow = oracle_null(structure, pooled, idx1, idx2)
        assert np.array_equal(packed.null_from_multiplicities(m1, m2), slow)
        assert np.array_equal(
            packed.null_from_multiplicities(m1, m2),
            dense.null_from_multiplicities(m1, m2),
        )

    def test_small_cap_routes_to_packed_with_identical_significance(
        self, monkeypatch
    ):
        from repro.stats import resample_plan as rp

        txns = [(0,), (0, 1), (1,), (2,), (0, 2), (1, 2)] * 4
        pooled = TransactionDataset(txns, N_ITEMS)
        structure = LitsStructure(
            [frozenset([0]), frozenset([1]), frozenset([0, 1]), frozenset()]
        )
        d1 = pooled.take(np.arange(12))
        d2 = pooled.take(np.arange(12, 24))
        dense = compile_resample_plan(structure, d1, d2)
        monkeypatch.setattr(rp, "_MAX_MEMBERSHIP_BYTES", 1)
        packed = compile_resample_plan(structure, d1, d2)
        assert isinstance(dense, LitsResamplePlan)
        assert isinstance(packed, PackedLitsResamplePlan)
        ref = dense.significance(16, np.random.default_rng(7))
        got = packed.significance(16, np.random.default_rng(7))
        assert got.observed == ref.observed
        assert np.array_equal(got.null_values, ref.null_values)


@st.composite
def partition_cases(draw):
    n = draw(st.integers(min_value=12, max_value=80))
    n1 = draw(st.integers(min_value=1, max_value=n - 1))
    n_boot = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    function = draw(st.integers(min_value=1, max_value=3))
    return n, n1, n_boot, seed, function


class TestPartitionExactEquality:
    @given(case=partition_cases())
    @settings(max_examples=40, deadline=None)
    def test_engine_equals_loop_oracle_under_shared_draws(self, case):
        n, n1, n_boot, seed, function = case
        pooled = generate_classification(n, function=function, seed=seed)
        # The structure is induced from the pooled data (so every class
        # label is in its alphabet) and then held fixed, as the paper's
        # null construction does. Class-crossed leaf regions are often
        # empty at these sizes -- the empty-region edge rides along.
        structure = DtModel.fit(
            pooled, TreeParams(max_depth=3, min_leaf=3)
        ).structure
        d1 = pooled.take(np.arange(n1))
        d2 = pooled.take(np.arange(n1, n))

        plan = compile_resample_plan(structure, d1, d2)
        assert isinstance(plan, PartitionResamplePlan)

        rng = np.random.default_rng(seed)
        idx1 = rng.integers(0, n, size=(n_boot, n1))
        idx2 = rng.integers(0, n, size=(n_boot, n - n1))
        slow = oracle_null(structure, pooled, idx1, idx2)
        fast = plan.null_from_multiplicities(
            multiplicities_from_indices(idx1, n),
            multiplicities_from_indices(idx2, n),
        )
        assert np.array_equal(slow, fast)

    @given(case=partition_cases())
    @settings(max_examples=20, deadline=None)
    def test_observed_counts_match_direct_scan(self, case):
        n, n1, _, seed, function = case
        pooled = generate_classification(n, function=function, seed=seed)
        structure = DtModel.fit(
            pooled, TreeParams(max_depth=3, min_leaf=3)
        ).structure
        d1 = pooled.take(np.arange(n1))
        d2 = pooled.take(np.arange(n1, n))
        plan = compile_resample_plan(structure, d1, d2)
        counts1, counts2 = plan.observed_counts()
        assert np.array_equal(counts1, structure.counts(d1))
        assert np.array_equal(counts2, structure.counts(d2))


def loop_null_same_seed(structure, d1, d2, n_boot, seed):
    """The per-replicate loop oracle, drawing from its own seeded rng."""
    return significance_of_statistic(
        d1,
        d2,
        lambda a, b: deviation_over_structure(structure, a, b).value,
        n_boot=n_boot,
        rng=np.random.default_rng(seed),
    ).null_values


class TestSameSeedLoopOracle:
    """Row-level plans draw the very stream the loop oracle consumes.

    Replicate ``b`` picks ``n1`` and then ``n2`` pool rows, exactly as
    ``bootstrap_pair`` does, so under the same seed the count-space null
    equals ``significance_of_statistic``'s value for value -- no shared
    draws handed over.
    """

    @given(case=lits_cases())
    @example(
        case=(
            [(0,), (0, 1), (1,)],
            LitsStructure([frozenset([0]), frozenset([0, 1]), frozenset()]),
            1,
            1,
            3,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_dense_and_packed_lits_plans(self, case):
        txns, structure, n1, n_boot, seed = case
        pooled = TransactionDataset(txns, N_ITEMS)
        d1 = pooled.take(np.arange(n1))
        d2 = pooled.take(np.arange(n1, len(pooled)))
        loop = loop_null_same_seed(structure, d1, d2, n_boot, seed)
        dense = LitsResamplePlan.from_datasets(structure, d1, d2)
        packed = PackedLitsResamplePlan.from_datasets(structure, d1, d2)
        packed._block_rows = 8  # multi-block streaming past 8 rows
        for plan in (dense, packed):
            null = plan.null_deviations(n_boot, np.random.default_rng(seed))
            assert np.array_equal(null, loop)

    @given(case=partition_cases())
    @example(case=(12, 1, 1, 5, 1))
    @settings(max_examples=25, deadline=None)
    def test_partition_plan(self, case):
        n, n1, n_boot, seed, function = case
        pooled = generate_classification(n, function=function, seed=seed)
        structure = DtModel.fit(
            pooled, TreeParams(max_depth=3, min_leaf=3)
        ).structure
        d1 = pooled.take(np.arange(n1))
        d2 = pooled.take(np.arange(n1, n))
        plan = PartitionResamplePlan.from_datasets(structure, d1, d2)
        null = plan.null_deviations(n_boot, np.random.default_rng(seed))
        assert np.array_equal(
            null, loop_null_same_seed(structure, d1, d2, n_boot, seed)
        )


class TestDrawHelpers:
    def test_multiplicities_shape_and_mass(self):
        w = draw_multiplicities(30, 12, 5, np.random.default_rng(1))
        assert w.shape == (5, 30)
        assert (w.sum(axis=1) == 12).all()
        assert w.min() >= 0

    def test_empty_pool_rejected(self):
        with pytest.raises(InvalidParameterError):
            draw_multiplicities(0, 3, 2, np.random.default_rng(1))

    def test_indices_round_trip(self):
        idx = np.array([[0, 0, 2], [1, 1, 1]])
        w = multiplicities_from_indices(idx, 4)
        assert w.tolist() == [[2, 0, 1, 0], [0, 3, 0, 0]]

    def test_indices_must_be_2d(self):
        with pytest.raises(InvalidParameterError):
            multiplicities_from_indices(np.array([1, 2, 3]), 4)

    def test_out_of_range_indices_rejected(self):
        # offset bins would silently spill into the next replicate's row
        with pytest.raises(InvalidParameterError):
            multiplicities_from_indices(np.array([[0, 4]]), 4)
        with pytest.raises(InvalidParameterError):
            multiplicities_from_indices(np.array([[-1, 0]]), 4)

    @staticmethod
    def _captured_draws(plan, monkeypatch):
        seen = []
        real = plan.replicate_counts

        def capture(w, **kwargs):
            seen.append(w)
            return real(w, **kwargs)

        monkeypatch.setattr(plan, "replicate_counts", capture)
        plan.null_deviations(6, np.random.default_rng(2))
        (w,) = seen
        return w

    @pytest.mark.parametrize(
        "exact_rows, dtype", [(1 << 24, np.float32), (20, np.float64)],
        ids=["float32", "float64"],
    )
    def test_plan_draws_in_exact_float_dtype(
        self, monkeypatch, exact_rows, dtype
    ):
        """Stacked sides, exact side sums, non-negative, drawn in the
        lits GEMM's dtype: float32 below the float32-exact pool size,
        float64 at or above it; the same picks either way."""
        from repro.stats import resample_plan as rp

        monkeypatch.setattr(rp, "_FLOAT32_EXACT_ROWS", exact_rows)
        txns = [(0,), (1,), (0, 1), (2,)] * 5
        pooled = TransactionDataset(txns, N_ITEMS)
        plan = compile_resample_plan(
            LitsStructure([frozenset([0])]),
            pooled.take(np.arange(7)),
            pooled.take(np.arange(7, 20)),
        )
        w = self._captured_draws(plan, monkeypatch)
        assert w.dtype == dtype
        assert w.shape == (12, 20)
        assert (w[:6].sum(axis=1) == 7).all()
        assert (w[6:].sum(axis=1) == 13).all()
        assert w.min() >= 0
        assert np.array_equal(
            w, draw_multiplicities(20, (7, 13), 6, np.random.default_rng(2))
        )

    def test_partition_plan_draws_float64(self, monkeypatch):
        """The weighted bincount's own dtype: no per-replicate cast."""
        pooled = generate_classification(60, function=1, seed=3)
        structure = DtModel.fit(
            pooled, TreeParams(max_depth=3, min_leaf=3)
        ).structure
        plan = compile_resample_plan(
            structure, pooled.take(np.arange(25)),
            pooled.take(np.arange(25, 60)),
        )
        assert isinstance(plan, PartitionResamplePlan)
        w = self._captured_draws(plan, monkeypatch)
        assert w.dtype == np.float64
        assert (w[:6].sum(axis=1) == 25).all()
        assert (w[6:].sum(axis=1) == 35).all()

    @pytest.mark.parametrize("dtype", [np.int64, np.float32, np.float64])
    def test_chunked_pair_draws_equal_one_call(self, dtype):
        """Replicates drawn in consecutive chunks consume the stream of
        one call: the same side-major rows, in any dtype."""
        sizes, n_rows = (7, 13), 20
        whole = draw_multiplicities(
            n_rows, sizes, 9, np.random.default_rng(4), dtype=dtype
        )
        assert whole.dtype == dtype
        rng = np.random.default_rng(4)
        chunks = [
            draw_multiplicities(n_rows, sizes, b, rng, dtype=dtype)
            for b in (4, 1, 4)
        ]
        for side in range(2):
            assert np.array_equal(
                np.vstack([c.reshape(2, -1, n_rows)[side] for c in chunks]),
                whole.reshape(2, -1, n_rows)[side],
            )

    def test_multiplicity_moments_match_the_multinomial(self):
        """Every cell is Binomial(n, 1/N) marginally -- mean n/N,
        variance n(1/N)(1 - 1/N) -- on both sides of a pair draw."""
        n_rows, sizes, n_boot = 10, (30, 60), 20_000
        w = draw_multiplicities(
            n_rows, sizes, n_boot, np.random.default_rng(12)
        )
        p = 1.0 / n_rows
        for side, n in enumerate(sizes):
            block = w[side * n_boot : (side + 1) * n_boot]
            mean, var = n * p, n * p * (1 - p)
            # about five standard errors on each estimate
            assert np.allclose(
                block.mean(axis=0), mean, rtol=0,
                atol=5 * np.sqrt(var / n_boot),
            )
            assert np.allclose(block.var(axis=0), var, rtol=0.05)

    def test_membership_columns_are_support_vectors(self):
        txns = [(0, 1), (1,), (0, 2), (), (0, 1, 2)]
        dataset = TransactionDataset(txns, 3)
        structure = LitsStructure(
            [frozenset(), frozenset([0]), frozenset([0, 1]), frozenset([2])]
        )
        membership = lits_membership(structure, dataset.index)
        assert membership.shape == (5, 4)
        assert np.array_equal(
            membership.sum(axis=0), structure.counts(dataset)
        )
        empty_col = structure.itemsets.index(frozenset())
        assert (membership[:, empty_col] == 1).all()


@st.composite
def count_pair_cases(draw):
    """Stacked replicate counts of a pool, one side possibly empty."""
    n1 = draw(st.integers(min_value=0, max_value=30))
    n2 = draw(st.integers(min_value=0 if n1 else 1, max_value=30))
    n_boot = draw(st.integers(min_value=1, max_value=6))
    n_regions = draw(st.integers(min_value=0, max_value=7))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    counts1 = rng.integers(0, n1 + 1, size=(n_boot, n_regions))
    counts2 = rng.integers(0, n2 + 1, size=(n_boot, n_regions))
    return n1, n2, counts1, counts2


class TestOneShotNull:
    """``f`` over the stacked count matrices and ``g`` per row give the
    per-replicate ``deviation_from_counts`` values bit for bit."""

    @pytest.mark.parametrize("g", [SUM, MAX], ids=["g_sum", "g_max"])
    @pytest.mark.parametrize(
        "f", [ABSOLUTE, SCALED, chi_squared_difference()],
        ids=["f_a", "f_s", "f_chi"],
    )
    @given(case=count_pair_cases())
    @settings(max_examples=40, deadline=None)
    def test_equals_the_per_replicate_loop(self, f, g, case):
        n1, n2, counts1, counts2 = case
        n_regions = counts1.shape[1]
        structure = LitsStructure(
            [frozenset([i]) for i in range(n_regions)]
        )
        plan = LitsResamplePlan(
            structure, [np.zeros((n1 + n2, n_regions))], n1, n2
        )
        loop = np.array(
            [
                deviation_from_counts(structure, c1, c2, n1, n2, f, g).value
                for c1, c2 in zip(counts1, counts2)
            ]
        )
        one_shot = plan._null_from_count_pairs(counts1, counts2, f, g)
        assert one_shot.dtype == np.float64
        assert np.array_equal(one_shot, loop)

    def test_no_result_object_per_replicate(self, monkeypatch):
        """The null path builds no ``DeviationResult``: only the observed
        deviation goes through ``deviation_from_counts``."""
        from repro.stats import resample_plan as rp

        calls = []
        real = rp.deviation_from_counts

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(rp, "deviation_from_counts", counting)
        txns = [(0,), (1,), (0, 1), (2,)] * 10
        pooled = TransactionDataset(txns, N_ITEMS)
        plan = compile_resample_plan(
            LitsStructure([frozenset([0]), frozenset([0, 1])]),
            pooled.take(np.arange(15)),
            pooled.take(np.arange(15, 40)),
        )
        result = plan.significance(12, np.random.default_rng(5))
        assert result.null_values.shape == (12,)
        assert len(calls) == 1


class TestTiedDeviations:
    def test_all_replicates_tie_with_observed(self):
        """Identical single-row datasets: every resample reproduces the
        observed counts, so the whole null ties at the observed value
        -- significance must be 0 (strict ``<``) and p must be 1."""
        txns = [(0, 1)] * 2
        pooled = TransactionDataset(txns, N_ITEMS)
        d1 = pooled.take(np.arange(1))  # n1 = 1
        d2 = pooled.take(np.arange(1, 2))
        structure = LitsStructure([frozenset([0]), frozenset([0, 1])])
        plan = compile_resample_plan(structure, d1, d2)
        result = plan.significance(5, np.random.default_rng(0))
        assert result.observed == 0.0
        assert (result.null_values == 0.0).all()
        assert result.significance_percent == 0.0
        assert result.p_value == 1.0
        assert result.p_value_raw == 1.0


class TestCountsResamplePlan:
    @pytest.fixture(scope="class")
    def fixed_structure_pair(self):
        pooled = generate_classification(300, function=1, seed=9)
        structure = DtModel.fit(
            pooled, TreeParams(max_depth=3, min_leaf=10)
        ).structure
        d1 = pooled.take(np.arange(180))
        d2 = pooled.take(np.arange(180, 300))
        return structure, d1, d2

    def test_counts_plan_matches_observed_scan(self, fixed_structure_pair):
        structure, d1, d2 = fixed_structure_pair
        counts1 = structure.counts(d1)
        counts2 = structure.counts(d2)
        plan = CountsResamplePlan(structure, counts1, counts2, len(d1), len(d2))
        observed = plan.observed_deviation().value
        assert observed == pytest.approx(
            deviation_over_structure(structure, d1, d2).value
        )

    def test_replicates_conserve_mass(self, fixed_structure_pair):
        structure, d1, d2 = fixed_structure_pair
        plan = CountsResamplePlan(
            structure,
            structure.counts(d1),
            structure.counts(d2),
            len(d1),
            len(d2),
        )
        c1, c2 = plan._replicate_count_pairs(7, np.random.default_rng(2))
        # partition regions are exhaustive here: every resampled row
        # lands in exactly one region
        assert (c1.sum(axis=1) == len(d1)).all()
        assert (c2.sum(axis=1) == len(d2)).all()

    def test_same_seed_is_deterministic(self, fixed_structure_pair):
        structure, d1, d2 = fixed_structure_pair
        plan = CountsResamplePlan(
            structure,
            structure.counts(d1),
            structure.counts(d2),
            len(d1),
            len(d2),
        )
        a = plan.null_deviations(6, np.random.default_rng(4))
        b = plan.null_deviations(6, np.random.default_rng(4))
        assert np.array_equal(a, b)

    def test_overlapping_regions_rejected(self):
        """Lits counts sum past the pool size -- the counts-only plan
        must refuse rather than draw from a wrong multinomial."""
        structure = LitsStructure([frozenset(), frozenset([0])])
        with pytest.raises(InvalidParameterError, match="overlap"):
            CountsResamplePlan(
                structure,
                np.array([10, 8]),
                np.array([10, 9]),
                10,
                10,
            )

    def test_misaligned_counts_rejected(self, fixed_structure_pair):
        structure, d1, d2 = fixed_structure_pair
        with pytest.raises(InvalidParameterError):
            CountsResamplePlan(
                structure, np.array([1.0]), np.array([1.0]), 1, 1
            )


class TestUnseededWarning:
    def test_null_deviations_without_rng_warns(self):
        txns = [(0,), (1,), (0, 1)] * 4
        pooled = TransactionDataset(txns, N_ITEMS)
        structure = LitsStructure([frozenset([0])])
        plan = compile_resample_plan(
            structure, pooled.take(np.arange(6)), pooled.take(np.arange(6, 12))
        )
        with pytest.warns(UserWarning, match="not reproducible"):
            plan.null_deviations(2)

    def test_seed_argument_is_silent_and_deterministic(self):
        txns = [(0,), (1,), (0, 1)] * 4
        pooled = TransactionDataset(txns, N_ITEMS)
        structure = LitsStructure([frozenset([0]), frozenset([1])])
        plan = compile_resample_plan(
            structure, pooled.take(np.arange(6)), pooled.take(np.arange(6, 12))
        )
        a = plan.null_deviations(4, seed=7)
        b = plan.null_deviations(4, seed=7)
        assert np.array_equal(a, b)


class TestCompileFrontEnd:
    def test_unknown_structure_returns_none(self):
        class Opaque:
            pass

        d = TransactionDataset([(0,)], 2)
        assert compile_resample_plan(Opaque(), d, d) is None

    def test_lits_membership_part_validation(self):
        structure = LitsStructure([frozenset([0])])
        with pytest.raises(InvalidParameterError, match="cover"):
            LitsResamplePlan(
                structure, [np.zeros((3, 1), dtype=np.uint8)], 3, 1
            )
        with pytest.raises(InvalidParameterError, match="columns"):
            LitsResamplePlan(
                structure, [np.zeros((4, 2), dtype=np.uint8)], 3, 1
            )

    def test_multiplicity_shape_validation(self):
        structure = LitsStructure([frozenset([0])])
        plan = LitsResamplePlan(
            structure, [np.ones((4, 1), dtype=np.uint8)], 2, 2
        )
        with pytest.raises(InvalidParameterError, match="multiplicities"):
            plan.replicate_counts(np.ones((2, 5), dtype=np.int64))


class TestEdgeShapes:
    def test_single_pooled_part_straddles_the_split(self):
        """A caller may hand one pooled membership block instead of two
        per-side blocks; observed_counts must split it at n1."""
        txns = [(0,), (0, 1), (1,), (2,), (0, 2)]
        pooled = TransactionDataset(txns, N_ITEMS)
        structure = LitsStructure(
            [frozenset([0]), frozenset([1]), frozenset([0, 1])]
        )
        whole = lits_membership(structure, pooled.index)
        plan = LitsResamplePlan(structure, [whole], 2, 3)
        counts1, counts2 = plan.observed_counts()
        assert np.array_equal(
            counts1, structure.counts(pooled.take(np.arange(2)))
        )
        assert np.array_equal(
            counts2, structure.counts(pooled.take(np.arange(2, 5)))
        )

    def test_structure_with_no_regions(self):
        """Zero tracked regions: the null is identically zero (g over an
        empty region set), and nothing crashes."""
        txns = [(0,), (1,)] * 3
        pooled = TransactionDataset(txns, N_ITEMS)
        structure = LitsStructure([])
        plan = compile_resample_plan(
            structure, pooled.take(np.arange(3)), pooled.take(np.arange(3, 6))
        )
        result = plan.significance(3, np.random.default_rng(1))
        assert result.observed == 0.0
        assert (result.null_values == 0.0).all()

    def test_negative_draw_sizes_rejected(self):
        with pytest.raises(InvalidParameterError):
            draw_multiplicities(5, -1, 2, np.random.default_rng(0))

    def test_n_boot_validation(self):
        txns = [(0,), (1,)] * 3
        pooled = TransactionDataset(txns, N_ITEMS)
        plan = compile_resample_plan(
            LitsStructure([frozenset([0])]),
            pooled.take(np.arange(3)),
            pooled.take(np.arange(3, 6)),
        )
        with pytest.raises(InvalidParameterError):
            plan.null_deviations(0, np.random.default_rng(1))

    def test_empty_pool_compiles_to_none(self):
        empty = TransactionDataset([], N_ITEMS)
        assert (
            compile_resample_plan(LitsStructure([]), empty, empty) is None
        )

    def test_lits_counts_below_pool_size_also_rejected(self):
        """The dangerous case: lits supports summing *below* the pool
        size pass a naive sum check, but the multinomial would still
        destroy cross-region correlations -- the type is rejected."""
        structure = LitsStructure([frozenset([0]), frozenset([0, 1])])
        with pytest.raises(InvalidParameterError, match="overlap"):
            CountsResamplePlan(
                structure, np.array([3, 1]), np.array([2, 1]), 10, 10
            )


class TestChunkedDraws:
    def test_chunked_draws_match_unchunked_same_seed(self, monkeypatch):
        """Shrinking the draw-matrix cap forces the chunked path; the
        generator stream is sequential, so the null is bit-identical."""
        from repro.stats import resample_plan as rp

        txns = [(0,), (1,), (0, 1), (2,)] * 25
        pooled = TransactionDataset(txns, N_ITEMS)
        structure = LitsStructure(
            [frozenset([0]), frozenset([1]), frozenset([0, 1])]
        )
        plan = compile_resample_plan(
            structure, pooled.take(np.arange(50)), pooled.take(np.arange(50, 100))
        )
        unchunked = plan.null_deviations(20, np.random.default_rng(6))
        # cap of 8*n_pooled bytes -> one replicate row per chunk
        monkeypatch.setattr(rp, "_MAX_DRAW_BYTES", 8 * plan.n_pooled)
        chunked = plan.null_deviations(20, np.random.default_rng(6))
        assert np.array_equal(unchunked, chunked)

    def test_oversized_membership_pool_routes_to_packed(self, monkeypatch):
        """Past the membership-bytes cap the dense lits plan would not
        fit in memory; compile hands over to the bit-packed
        block-streaming plan instead of the old None fallback."""
        from repro.stats import resample_plan as rp

        txns = [(0,), (1,), (0, 1)] * 10
        pooled = TransactionDataset(txns, N_ITEMS)
        structure = LitsStructure([frozenset([0]), frozenset([1])])
        d1 = pooled.take(np.arange(15))
        d2 = pooled.take(np.arange(15, 30))
        dense = compile_resample_plan(structure, d1, d2)
        assert isinstance(dense, LitsResamplePlan)
        assert not isinstance(dense, PackedLitsResamplePlan)
        monkeypatch.setattr(rp, "_MAX_MEMBERSHIP_BYTES", 4 * 30 * 2 - 1)
        packed = compile_resample_plan(structure, d1, d2)
        assert isinstance(packed, PackedLitsResamplePlan)

    def test_membership_cap_accounts_for_float64_pools(self, monkeypatch):
        """Past 2**24 pooled rows the dense plan's columns are 8-byte
        float64, so the routing cap must budget 8 bytes/entry, not 4."""
        from repro.stats import resample_plan as rp

        class Huge:
            """Index-bearing stub: routing must decide on size alone."""

            def __init__(self, n):
                self._n = n
                self.index = object()

            def __len__(self):
                return self._n

        # intercept both constructors so the routing decision is
        # observable without materialising a 2**24-row pool
        monkeypatch.setattr(
            rp.PackedLitsResamplePlan,
            "from_datasets",
            classmethod(lambda cls, *a, **k: "packed"),
        )
        monkeypatch.setattr(
            rp.LitsResamplePlan,
            "from_datasets",
            classmethod(lambda cls, *a, **k: "dense"),
        )
        structure = LitsStructure([frozenset([0]), frozenset([1])])
        half = rp._FLOAT32_EXACT_ROWS // 2
        # 2 regions x 2**24 rows x 8 bytes = 256 MiB; a 4-byte budget
        # would wrongly admit this pool dense under a 192 MiB cap
        monkeypatch.setattr(rp, "_MAX_MEMBERSHIP_BYTES", 192 * (1 << 20))
        assert (
            compile_resample_plan(structure, Huge(half), Huge(half))
            == "packed"
        )
