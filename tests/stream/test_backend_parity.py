"""Backend parity: the mmap stripe store is bit-identical to RAM.

The out-of-core backend's whole contract is *indistinguishability*:
every count, label routing, sketch merge, and bootstrap null computed
over memory-mapped stripes must equal the in-RAM arrays bit for bit,
across the serial / thread / process executors. The hypothesis suite
pins that over arbitrary row bags; the process-fan tests additionally
pin the zero-copy invariant (``storage.bytes_shipped == 0`` on the mmap
backend) and that a dataset larger than the scan budget still completes
a full chunked scan with exact row accounting.

Stores are created in ``tempfile.TemporaryDirectory`` blocks inside the
test bodies (not the function-scoped ``tmp_path`` fixture), so the
hypothesis health checks see no fixture reuse across examples.
"""

from __future__ import annotations

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attribute import AttributeSpace, numeric
from repro.core.lits import LitsModel
from repro.core.model import LitsStructure
from repro.data.transactions import SupportCountingPlan
from repro.fleet.counting import count_lits_stores
from repro.obs import MetricsRegistry, use_registry
from repro.stats.bootstrap import deviation_significance
from repro.stream.chunks import TabularLog, TransactionLog
from repro.stream.executor import sharded_index_sketch
from repro.stream.sketch import PartitionSketch, SupportSketch

N_ITEMS = 10

transactions_strategy = st.lists(
    st.lists(st.integers(min_value=0, max_value=N_ITEMS - 1), max_size=5),
    max_size=50,
)

itemsets_strategy = st.lists(
    st.lists(st.integers(min_value=0, max_value=N_ITEMS - 1), max_size=3),
    min_size=1,
    max_size=8,
).map(lambda sets: [*sets, []])


def _both_logs(txns, stripe_dir):
    ram = TransactionLog(N_ITEMS, txns)
    mm = TransactionLog(N_ITEMS, txns, backend="mmap", stripe_dir=stripe_dir)
    return ram, mm


# --------------------------------------------------------------------- #
# Support counts
# --------------------------------------------------------------------- #


class TestSupportCountParity:
    @given(txns=transactions_strategy, itemsets=itemsets_strategy)
    @settings(max_examples=40, deadline=None)
    def test_counts_and_chunked_scans_match(self, txns, itemsets):
        with tempfile.TemporaryDirectory() as d:
            ram, mm = _both_logs(txns, d)
            ref = ram.index.support_counts(itemsets)
            assert np.array_equal(mm.index.support_counts(itemsets), ref)
            # a chunked scan under an absurdly small budget must agree
            # with the one-shot count on both backends
            for log in (ram, mm):
                assert np.array_equal(
                    log.index.scan_counts(itemsets, budget_bytes=64), ref
                )

    @given(
        txns=transactions_strategy,
        itemsets=itemsets_strategy,
        n_shards=st.integers(min_value=1, max_value=5),
        executor=st.sampled_from(["serial", "thread"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_sharded_index_sketch_matches(
        self, txns, itemsets, n_shards, executor
    ):
        ref = SupportSketch.from_transactions(txns, itemsets, N_ITEMS)
        with tempfile.TemporaryDirectory() as d:
            ram, mm = _both_logs(txns, d)
            for log in (ram, mm):
                merged = sharded_index_sketch(
                    log.index, itemsets, n_shards=n_shards, executor=executor
                )
                assert np.array_equal(merged.counts, ref.counts)
                assert merged.n_transactions == ref.n_transactions

    @given(txns=transactions_strategy)
    @settings(max_examples=25, deadline=None)
    def test_rows_round_trip(self, txns):
        canonical = [tuple(sorted(set(t))) for t in txns]
        with tempfile.TemporaryDirectory() as d:
            _, mm = _both_logs(txns, d)
            assert mm.transactions == canonical
            assert list(iter(mm)) == canonical
            if canonical:
                picks = [0, len(canonical) - 1, len(canonical) // 2]
                taken = mm.take(picks)
                assert list(taken) == [canonical[i] for i in picks]


# --------------------------------------------------------------------- #
# Partition label routing (TabularLog)
# --------------------------------------------------------------------- #

SPACE = AttributeSpace(
    (numeric("age", 0.0, 1.0), numeric("height", 0.0, 1.0)),
    class_labels=(0, 1),
)

tabular_rows = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=0.999),
        st.floats(min_value=0.0, max_value=0.999),
        st.integers(min_value=0, max_value=1),
    ),
    max_size=60,
)


def _tab_structure():
    from repro.core.model import PartitionStructure
    from repro.core.predicate import interval_constraint

    def assigner(dataset):
        return (dataset.column("age") >= 0.5).astype(np.int64)

    return PartitionStructure(
        cells=(
            interval_constraint("age", hi=0.5),
            interval_constraint("age", lo=0.5),
        ),
        class_labels=(0, 1),
        assigner=assigner,
    )


class TestTabularLogParity:
    @given(rows=tabular_rows)
    @settings(max_examples=30, deadline=None)
    def test_rows_labels_and_partition_counts_match(self, rows):
        X = np.array([[a, h] for a, h, _ in rows]).reshape(-1, 2)
        y = np.array([label for _, _, label in rows], dtype=np.int64)
        structure = _tab_structure()
        ram = TabularLog(SPACE, capacity=1)
        ram.append(X, y)
        with tempfile.TemporaryDirectory() as d:
            mm = TabularLog(SPACE, capacity=1, backend="mmap", stripe_dir=d)
            mm.append(X, y)
            assert np.array_equal(mm.X, ram.X)
            assert np.array_equal(mm.y, ram.y)
            s_ram = PartitionSketch.from_dataset(ram.to_dataset(), structure)
            s_mm = PartitionSketch.from_dataset(mm.to_dataset(), structure)
            assert np.array_equal(s_ram.counts, s_mm.counts)


# --------------------------------------------------------------------- #
# Bootstrap nulls
# --------------------------------------------------------------------- #


class TestBootstrapParity:
    @given(
        txns1=transactions_strategy.filter(lambda t: len(t) >= 2),
        txns2=transactions_strategy.filter(lambda t: len(t) >= 2),
    )
    @settings(max_examples=15, deadline=None)
    def test_null_identical_across_backends_and_plans(self, txns1, txns2):
        def sig(d1, d2, **kw):
            m1 = LitsModel.mine(d1, 0.2, max_len=2)
            m2 = LitsModel.mine(d2, 0.2, max_len=2)
            return deviation_significance(
                d1, d2, n_boot=12, rng=np.random.default_rng(11),
                models=(m1, m2), **kw,
            )

        with tempfile.TemporaryDirectory() as d:
            ram1 = TransactionLog(N_ITEMS, txns1).to_dataset(share_index=True)
            ram2 = TransactionLog(N_ITEMS, txns2).to_dataset(share_index=True)
            mm1 = TransactionLog(
                N_ITEMS, txns1, backend="mmap", stripe_dir=d + "/1"
            ).to_dataset(share_index=True)
            mm2 = TransactionLog(
                N_ITEMS, txns2, backend="mmap", stripe_dir=d + "/2"
            ).to_dataset(share_index=True)
            ref = sig(ram1, ram2)
            for kw in (
                {},  # mmap, dense plan
                {"max_membership_bytes": 1},  # mmap, packed plan
            ):
                got = sig(mm1, mm2, **kw)
                assert got.observed == ref.observed
                assert np.array_equal(got.null_values, ref.null_values)


# --------------------------------------------------------------------- #
# Zero-copy process fans + budget-exceeded windowed scans
# --------------------------------------------------------------------- #


class TestZeroCopyFan:
    ITEMSETS = [(0,), (1, 2), (3,), (2, 4), ()]

    def _rows(self, n=600):
        rng = np.random.default_rng(5)
        return [
            tuple(
                sorted(rng.choice(N_ITEMS, size=rng.integers(1, 5), replace=False))
            )
            for _ in range(n)
        ]

    def test_process_fan_ships_zero_bytes_on_mmap(self, tmp_path):
        rows = self._rows()
        mm = TransactionLog(
            N_ITEMS, rows, backend="mmap", stripe_dir=tmp_path / "s"
        )
        ref = SupportSketch.from_transactions(rows, self.ITEMSETS, N_ITEMS)
        registry = MetricsRegistry()
        with use_registry(registry):
            merged = sharded_index_sketch(
                mm.index, self.ITEMSETS, n_shards=4, executor="process"
            )
        counters = registry.snapshot()["counters"]
        assert counters.get("storage.bytes_shipped", 0) == 0
        assert counters["stream.shards.sketched"] == 4
        assert np.array_equal(merged.counts, ref.counts)

    def test_process_fan_on_ram_backend_pays_the_bytes(self):
        """A RAM index ships its occupied packed bits once per shipped
        copy, never the spare append capacity behind them
        (``BitmapIndex.__reduce_ex__`` pickles only ``_bits``)."""
        ram = TransactionLog(N_ITEMS, self._rows())
        ram.append(self._rows(30))
        index = ram.index
        assert index._bits.nbytes < index._buf.nbytes  # spare capacity
        fans = (
            lambda: sharded_index_sketch(
                index, self.ITEMSETS, n_shards=3, executor="process"
            ),
            lambda: count_lits_stores(
                [index] * 3, SupportCountingPlan(self.ITEMSETS), executor="process"
            ),
        )
        for fan_out in fans:
            registry = MetricsRegistry()
            with use_registry(registry):
                fan_out()
            counters = registry.snapshot()["counters"]
            assert counters["storage.bytes_shipped"] == 3 * index._bits.nbytes

    def test_budget_exceeded_scan_completes_with_exact_accounting(
        self, tmp_path
    ):
        rows = self._rows(1200)
        mm = TransactionLog(
            N_ITEMS, rows, backend="mmap", stripe_dir=tmp_path / "s"
        )
        # a budget far below the stripe bytes: the scan must chunk
        budget = 128
        assert mm.index._buf.nbytes > budget
        registry = MetricsRegistry()
        with use_registry(registry):
            counts = mm.index.scan_counts(self.ITEMSETS, budget_bytes=budget)
        assert np.array_equal(
            counts, mm.index.support_counts(self.ITEMSETS)
        )
        counters = registry.snapshot()["counters"]
        assert counters["storage.rows_scanned"] == len(rows)
        assert counters["storage.chunks_scanned"] > 1

    def test_pickled_mmap_index_is_attached_readonly(self, tmp_path):
        import pickle

        from repro.errors import InvalidParameterError

        rows = self._rows(100)
        mm = TransactionLog(
            N_ITEMS, rows, backend="mmap", stripe_dir=tmp_path / "s"
        )
        clone = pickle.loads(pickle.dumps(mm.index))
        assert np.array_equal(
            clone.support_counts(self.ITEMSETS),
            mm.index.support_counts(self.ITEMSETS),
        )
        with pytest.raises(InvalidParameterError):
            clone.append([(0,)])
