"""The vocabulary kernel against the per-pair oracle, bit for bit.

Both lits fleet engines -- the row-level :class:`FleetDeviationMatrix`
and the federated :class:`SketchFleet` -- compute every pair as a gather
over one fleet-wide itemset vocabulary (:mod:`repro.fleet.vocab`). The
oracle is the per-pair loop the kernel replaced: ``gcr`` of the two
models, that structure's counts (the stored-measures fast path for
identical, non-stale structures, else a scan), ``deviation_from_counts``,
and ``upper_bound_deviation`` for delta*.

Hypothesis drives random fleets of 1-4 stores through random call
sequences -- including identical-structure pairs, a store whose log grew
without ``update()`` (stale), and ``update()`` re-mining a store into
new itemsets -- under ``f_a`` / ``f_s`` / chi-squared and ``g_sum`` /
``g_max``. Every matrix, every bound matrix, the per-matrix pair
counters, and ``scan_counts()`` must equal the oracle's exactly. The
scan oracle is one scan per store per reset: a store is scanned when a
pair needs its counts and it has not been scanned since its log grew,
it was re-mined, or ``update()`` brought an itemset new to the fleet.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.aggregate import MAX, SUM
from repro.core.deviation import _counts_from_models, deviation_from_counts
from repro.core.difference import ABSOLUTE, SCALED, chi_squared_difference
from repro.core.gcr import gcr
from repro.core.lits import LitsModel
from repro.core.model import _Canonical
from repro.core.upper_bound import upper_bound_deviation
from repro.fleet import FleetDeviationMatrix, LitsVocabulary, probe_itemsets
from repro.stream.chunks import TransactionLog
from repro.stream.sketch import SupportSketch, canonical_itemsets
from repro.wire import pack

N_ITEMS = 7
MIN_SUPPORT = 0.2
F_CHOICES = (ABSOLUTE, SCALED, chi_squared_difference())
G_CHOICES = (SUM, MAX)


def mine(log) -> LitsModel:
    return LitsModel.mine(log, MIN_SUPPORT, max_len=3)


def rows(min_size: int = 5, max_size: int = 20):
    return st.lists(
        st.lists(
            st.integers(0, N_ITEMS - 1), min_size=1, max_size=4, unique=True
        ).map(tuple),
        min_size=min_size, max_size=max_size,
    )


@st.composite
def fleets(draw):
    """``(models, logs)``; optionally with an identical-structure twin."""
    n_stores = draw(st.integers(1, 4))
    logs = [TransactionLog(N_ITEMS, draw(rows())) for _ in range(n_stores)]
    models = [mine(log) for log in logs]
    if n_stores < 4 and draw(st.booleans()):
        # a twin: store 0's structure, so the pair (0, twin) takes the
        # stored-measures fast path; its supports come from other rows
        # than its log's, so support x rows is rarely a whole number and
        # the fast path's rounding is exercised
        measured = TransactionLog(N_ITEMS, draw(rows()))
        log = TransactionLog(N_ITEMS, draw(rows()))
        structure = models[0].structure
        twin = LitsModel(
            dict(zip(structure.itemsets, structure.selectivities(measured))),
            MIN_SUPPORT, N_ITEMS,
        )
        logs.append(log)
        models.append(twin)
    return models, logs


# --------------------------------------------------------------------- #
# The oracle
# --------------------------------------------------------------------- #


class PairOracle:
    """The per-pair engine: GCR, counts, deviation; per-store scan flags."""

    def __init__(self, models, logs, f, g):
        self.models = list(models)
        self.logs = logs
        self.f, self.g = f, g
        self.model_rows = [len(log) for log in logs]
        self.memo_rows = [len(log) for log in logs]
        self.scanned = [False] * len(logs)
        self.scans = [0] * len(logs)
        self.cached: set[tuple[int, int]] = set()

    def _refresh(self):
        for i, log in enumerate(self.logs):
            if len(log) != self.memo_rows[i]:
                self._invalidate(i)

    def _invalidate(self, i):
        self.scanned[i] = False
        self.memo_rows[i] = len(self.logs[i])
        self.cached = {p for p in self.cached if i not in p}

    def stale(self, i):
        return len(self.logs[i]) != self.model_rows[i]

    def value(self, i, j):
        """One pair's exact deviation and whether it needed a scan."""
        mi, mj = self.models[i], self.models[j]
        structure = gcr(mi.structure, mj.structure)
        n1, n2 = len(self.logs[i]), len(self.logs[j])
        fast = (
            None
            if self.stale(i) or self.stale(j)
            else _counts_from_models(mi, mj, structure, n1, n2)
        )
        if fast is None:
            counts = structure.counts(self.logs[i]), structure.counts(
                self.logs[j]
            )
        else:
            counts = fast
        value = deviation_from_counts(
            structure, *counts, n1, n2, f=self.f, g=self.g
        ).value
        return value, fast is None

    def bounds(self):
        n = len(self.models)
        out = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                out[i, j] = out[j, i] = upper_bound_deviation(
                    self.models[i], self.models[j], g=self.g
                ).value
        return out

    def _ensure(self, pairs):
        """Scan accounting of measuring ``pairs``: one scan per store
        with an uncached scanned pair and no scan since its last reset."""
        for i, j in pairs:
            if (i, j) in self.cached or not self.value(i, j)[1]:
                continue
            for store in (i, j):
                if not self.scanned[store]:
                    self.scans[store] += 1
                    self.scanned[store] = True
        self.cached.update(pairs)

    def pair(self, i, j):
        self._refresh()
        self._ensure([(i, j)])
        return self.value(i, j)[0]

    def matrix(self, threshold=None):
        """``(values, counters)`` of exhaustive() / pruned(threshold)."""
        self._refresh()
        n = len(self.models)
        bounds = self.bounds() if threshold is not None else None
        values = np.zeros((n, n))
        counters: dict[str, int] = {}
        exact = []
        for i in range(n):
            for j in range(i + 1, n):
                if (
                    bounds is not None
                    and bounds[i, j] <= threshold
                    and not (self.stale(i) or self.stale(j))
                ):
                    values[i, j] = values[j, i] = bounds[i, j]
                    key = "fleet.pairs.pruned"
                else:
                    value, scanned = self.value(i, j)
                    values[i, j] = values[j, i] = value
                    key = "fleet.pairs." + ("scanned" if scanned else "model_only")
                    exact.append((i, j))
                counters[key] = counters.get(key, 0) + 1
        self._ensure(exact)
        return values, counters

    def update(self, i, model):
        before = set(probe_itemsets(self.models))
        self.models[i] = model
        if not set(probe_itemsets(self.models)) <= before:
            self.scanned = [False] * len(self.models)
        self._invalidate(i)
        self.model_rows[i] = len(self.logs[i])


def federated_oracle(models, logs, f, g):
    """The federated per-pair values: always the pair's scanned counts."""
    n = len(models)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            structure = gcr(models[i].structure, models[j].structure)
            out[i, j] = out[j, i] = deviation_from_counts(
                structure,
                structure.counts(logs[i]),
                structure.counts(logs[j]),
                len(logs[i]),
                len(logs[j]),
                f=f,
                g=g,
            ).value
    return out


def pick_threshold(data, bounds):
    n = len(bounds)
    off_diag = [float(v) for v in bounds[np.triu_indices(n, k=1)]]
    return data.draw(
        st.sampled_from([*off_diag, -1.0, 1e9]), label="threshold"
    )


def assert_matrix(result, values, counters):
    assert np.array_equal(result.values, values)
    assert dict(result.metrics) == counters


# --------------------------------------------------------------------- #
# Row-level engine
# --------------------------------------------------------------------- #

OPS = ("exhaustive", "pruned", "bounds", "grow", "update", "pair")


@settings(max_examples=40, deadline=None)
@given(
    fleets(),
    st.sampled_from(F_CHOICES),
    st.sampled_from(G_CHOICES),
    st.lists(st.sampled_from(OPS), min_size=1, max_size=6),
    st.data(),
)
def test_row_level_engine_matches_pair_oracle(fleet, f, g, ops, data):
    models, logs = fleet
    engine = FleetDeviationMatrix(models, logs, f=f, g=g, model_builder=mine)
    oracle = PairOracle(models, logs, f, g)
    n = len(models)
    prunable = f is ABSOLUTE
    for op in ops:
        if op == "exhaustive":
            assert_matrix(engine.exhaustive(), *oracle.matrix())
        elif op == "pruned" and prunable:
            t = pick_threshold(data, oracle.bounds())
            assert_matrix(engine.pruned(t), *oracle.matrix(t))
        elif op == "bounds":
            assert np.array_equal(engine.bound_matrix(), oracle.bounds())
        elif op in ("grow", "update"):
            i = data.draw(st.integers(0, n - 1), label="store")
            logs[i].append(data.draw(rows(1, 12), label="appended"))
            if op == "update":
                oracle.update(i, engine.update(i))
        elif op == "pair" and n > 1:
            i, j = data.draw(
                st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                         unique=True),
                label="pair",
            )
            assert engine.pair(i, j) == oracle.pair(*sorted((i, j)))
        assert engine.scan_counts() == oracle.scans
    assert np.array_equal(engine.bound_matrix(), oracle.bounds())


def test_update_with_new_itemsets_remaps_the_memo():
    """update() renumbers the vocabulary; other stores keep their counts
    unless the new model brings an itemset no store has counted."""
    logs = [
        TransactionLog(N_ITEMS, [(0, 1), (1, 2), (0, 1, 2)] * 4),
        TransactionLog(N_ITEMS, [(0, 1), (2,), (1, 2)] * 4),
        TransactionLog(N_ITEMS, [(1,), (0, 2), (1, 2)] * 4),
    ]
    models = [mine(log) for log in logs]
    engine = FleetDeviationMatrix(models, logs, model_builder=mine)
    engine.exhaustive()
    assert engine.scan_counts() == [1, 1, 1]
    # same itemsets: only the updated store's memo is dropped
    engine.update(0, model=models[0])
    engine.exhaustive()
    assert engine.scan_counts() == [2, 1, 1]
    logs[0].append([(4, 5, 6)] * 30)  # itemsets no store held before
    new_model = engine.update(0)
    assert frozenset({4, 5, 6}) in new_model.supports
    result = engine.exhaustive()
    # no store has counted the new itemsets: every row is rescanned
    assert engine.scan_counts() == [3, 2, 2]
    fresh = FleetDeviationMatrix([new_model, *models[1:]], logs)
    assert np.array_equal(result.values, fresh.exhaustive().values)
    assert np.array_equal(engine.bound_matrix(), fresh.bound_matrix())
    # the rescanned counts serve every later matrix
    assert np.array_equal(
        engine.exhaustive().values, fresh.exhaustive().values
    )
    assert engine.scan_counts() == [3, 2, 2]


# --------------------------------------------------------------------- #
# Federated engine
# --------------------------------------------------------------------- #


@settings(max_examples=40, deadline=None)
@given(
    fleets(), st.sampled_from(F_CHOICES), st.sampled_from(G_CHOICES),
    st.data(),
)
def test_federated_engine_matches_pair_oracle(fleet, f, g, data):
    models, logs = fleet
    probes = probe_itemsets(models)
    payloads = [
        (pack(m), pack(SupportSketch.from_dataset(log, probes)))
        for m, log in zip(models, logs)
    ]
    fleet_ = FleetDeviationMatrix.from_sketches(payloads, f=f, g=g)
    values = federated_oracle(models, logs, f, g)
    oracle = PairOracle(models, logs, f, g)
    n = len(models)
    n_pairs = n * (n - 1) // 2
    exhaustive = fleet_.exhaustive()
    assert np.array_equal(exhaustive.values, values)
    assert dict(exhaustive.metrics) == (
        {"fleet.pairs.sketch_exact": n_pairs} if n_pairs else {}
    )
    assert np.array_equal(fleet_.bound_matrix(), oracle.bounds())
    for i in range(n):
        for j in range(i + 1, n):
            assert fleet_.pair(i, j) == values[i, j]
    if f is ABSOLUTE:
        bounds = oracle.bounds()
        t = pick_threshold(data, bounds)
        pruned = fleet_.pruned(t)
        upper = np.triu(np.ones((n, n), dtype=bool), k=1)
        n_pruned = int((bounds[upper] <= t).sum())
        expected = np.where(bounds <= t, bounds, values)
        assert np.array_equal(pruned.values, expected)
        counters = {}
        if n_pruned:
            counters["fleet.pairs.pruned"] = n_pruned
        if n_pairs - n_pruned:
            counters["fleet.pairs.sketch_exact"] = n_pairs - n_pruned
        assert dict(pruned.metrics) == counters


def test_vocabulary_is_the_canonical_probe_collection():
    logs = [
        TransactionLog(N_ITEMS, [(0, 1), (1, 2), (0, 1, 2)] * 3),
        TransactionLog(N_ITEMS, [(3, 4), (4,), (3, 4, 5)] * 3),
    ]
    models = [mine(log) for log in logs]
    vocab = LitsVocabulary(models)
    assert vocab.itemsets == probe_itemsets(models)
    for i, model in enumerate(models):
        ids = np.flatnonzero(vocab.member[i])
        # sorted ids ARE the model's canonical itemset order
        assert tuple(vocab.itemsets[k] for k in ids) == model.itemsets
        assert vocab.supports[i, ids].tolist() == [
            model.supports[s] for s in model.itemsets
        ]
    gcr_ids = vocab.union(0, 1)
    structure = gcr(models[0].structure, models[1].structure)
    assert tuple(vocab.itemsets[k] for k in gcr_ids) == structure.itemsets
    # stores x vocabulary x 8 bytes per float/int matrix
    assert vocab.supports.nbytes == 2 * len(vocab) * 8


@settings(max_examples=25, deadline=None)
@given(fleets())
def test_probe_itemsets_sorts_the_union_into_canonical_order(fleet):
    """The structures' itemsets are canonical already, so sorting their
    union gives exactly what canonicalising it from scratch would."""
    models, _ = fleet
    union = {s for model in models for s in model.structure.itemsets}
    probes = probe_itemsets(models)
    assert isinstance(probes, _Canonical)
    assert probes == canonical_itemsets(union)


def test_pruned_then_exhaustive_scans_each_store_once():
    """A scan counts a store's whole vocabulary row, so the pairs a
    pruned() call skipped need no second scan later."""
    logs = [
        TransactionLog(N_ITEMS, [(0, 1), (1, 2), (0, 1, 2)] * 4),
        TransactionLog(N_ITEMS, [(0, 1), (2,), (1, 2)] * 4),
        TransactionLog(N_ITEMS, [(3, 4), (4,), (3, 4, 5)] * 4),
    ]
    models = [mine(log) for log in logs]
    engine = FleetDeviationMatrix(models, logs)
    bounds = engine.bound_matrix()
    t = float(np.min(bounds[np.triu_indices(3, k=1)]))
    assert engine.pruned(t).n_pruned == 1
    engine.exhaustive()
    assert engine.scan_counts() == [1, 1, 1]
