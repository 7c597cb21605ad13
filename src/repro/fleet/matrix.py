"""Fleet-scale all-pairs deviation with delta*-based pruning.

The paper's headline marketing scenario -- "based on the deviation
between pairs of datasets, a set of stores can be grouped together and
earmarked for the same marketing strategy" -- is an all-pairs workload:
``N`` stores, ``N (N - 1) / 2`` deviations. Computed naively that is a
dataset scan per *pair*; this engine restores the paper's intended
economics:

1. **bound first** -- the delta* upper bound (Theorem 4.2) needs only
   the models, so the full bound matrix costs zero dataset scans;
2. **prune** -- a pair whose bound is at or below the caller's
   significance threshold is *certified* to deviate by at most that
   much ("analyze the data thoroughly only if the current snapshot
   differs significantly"); only pairs whose bound crosses the
   threshold are re-scanned exactly, and the exhaustive path is kept as
   the oracle;
3. **scan once per store** -- every exact lits pair is a gather over
   one fleet-wide itemset vocabulary (:mod:`repro.fleet.vocab`): one
   scan counts a store's whole vocabulary row, so each dataset is
   scanned once, not once per pair
   (:mod:`repro.fleet.counting`);
4. **fan out** -- the scans ride the serial/thread/process executors of
   :mod:`repro.stream.executor`.

Pruned entries report the delta* bound itself, flagged by
``exact_mask``. Because the bound majorises the exact deviation, every
threshold decision (``deviation <= threshold``?) agrees exactly with
the exhaustive matrix -- which is why :meth:`FleetMatrix.components`
grouping at the pruning threshold is exact despite the skipped scans.

Both lits- and partition-model fleets are supported; delta* exists only
for lits-models, so partition fleets use the exhaustive path (their
per-store reuse comes from the memoised assigner passes). Appendable
stores (:class:`~repro.stream.chunks.TransactionLog` /
:class:`~repro.stream.chunks.TabularLog`) make the matrix incremental:
after appending, :meth:`FleetDeviationMatrix.update` re-mines only that
store's model and recomputes only its row/column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from repro import obs

from repro._typing import ExecutorLike, ModelBuilder, ModelLike
from repro.core.aggregate import MAX, SUM, AggregateFunction
from repro.core.deviation import deviation_from_counts
from repro.core.difference import ABSOLUTE, DifferenceFunction
from repro.core.gcr import gcr
from repro.core.lits import LitsModel
from repro.core.model import PartitionStructure
# span target ``core.bound`` of pipebench's traced run, which patches
# the name here; lits bounds come from the vocabulary kernel
from repro.core.upper_bound import upper_bound_deviation  # noqa: F401
from repro.errors import IncompatibleModelsError, InvalidParameterError
from repro.fleet.counting import count_lits_stores, prime_partition_passes
from repro.fleet.vocab import LitsVocabulary
from repro.stream.executor import get_executor, release

if TYPE_CHECKING:  # circular at runtime: federated builds FleetMatrix
    from repro.fleet.federated import SketchFleet

#: How a cached exact pair value was obtained: the counter it tallies.
_SCAN, _MODEL_ONLY = "fleet.pairs.scanned", "fleet.pairs.model_only"


def _model_kind(model: ModelLike) -> str:
    """``"lits"`` / ``"partition"`` / the class name for anything else."""
    if isinstance(model, LitsModel):
        return "lits"
    if isinstance(getattr(model, "structure", None), PartitionStructure):
        return "partition"
    return type(model).__name__


def _store_index(names: tuple[str, ...], store: str | int) -> int:
    """A store's position, by name or index."""
    if isinstance(store, str):
        try:
            return names.index(store)
        except ValueError:
            raise InvalidParameterError(
                f"unknown store {store!r}; fleet stores are {names}"
            ) from None
    i = int(store)
    if not 0 <= i < len(names):
        raise InvalidParameterError(
            f"store index {i} out of range for a {len(names)}-store fleet"
        )
    return i


def _pruning_threshold(
    threshold: float, f: DifferenceFunction, g: AggregateFunction
) -> float:
    """``threshold`` as a float, once delta* pruning is known sound."""
    threshold = float(threshold)
    if not np.isfinite(threshold):
        raise InvalidParameterError(
            f"threshold must be finite, got {threshold}"
        )
    if f.name != ABSOLUTE.name or g.name not in (SUM.name, MAX.name):
        raise InvalidParameterError(
            "delta* pruning is only sound for the f_a difference with "
            f"g_sum or g_max (Theorem 4.2); this fleet uses "
            f"f={f.name}, g={g.name} -- use exhaustive()"
        )
    return threshold


@dataclass(frozen=True)
class FleetMatrix:
    """An all-pairs deviation matrix plus its provenance.

    ``values[i, j]`` is the exact deviation wherever ``exact_mask`` is
    true; elsewhere it is the pair's delta* bound (an upper bound on the
    exact value, itself at most ``threshold``). The matrix is symmetric
    with a zero diagonal.

    ``metrics`` is the matrix's :mod:`repro.obs` counter snapshot --
    the single source of truth for the pruning statistics; the
    ``n_scanned`` / ``n_model_only`` / ``n_pruned`` properties,
    :meth:`to_report`, and the CLI all read from it.
    """

    names: tuple[str, ...]
    values: np.ndarray
    exact_mask: np.ndarray
    kind: str
    f_name: str
    g_name: str
    bounds: np.ndarray | None = None
    threshold: float | None = None
    metrics: Mapping[str, int] = field(default_factory=dict)

    @property
    def n_scanned(self) -> int:
        """Pairs measured by a real dataset scan."""
        return int(self.metrics.get("fleet.pairs.scanned", 0))

    @property
    def n_model_only(self) -> int:
        """Pairs measured exactly from stored model measures (no scan)."""
        return int(self.metrics.get("fleet.pairs.model_only", 0))

    @property
    def n_pruned(self) -> int:
        """Pairs certified by the delta* bound and never scanned."""
        return int(self.metrics.get("fleet.pairs.pruned", 0))

    @property
    def n_sketch_exact(self) -> int:
        """Pairs measured exactly from exchanged sketch payloads.

        Non-zero only for matrices built by the federated path
        (:meth:`FleetDeviationMatrix.from_sketches`), where no dataset
        rows are accessible to the comparer.
        """
        return int(self.metrics.get("fleet.pairs.sketch_exact", 0))

    @property
    def n_stores(self) -> int:
        return len(self.names)

    @property
    def n_pairs(self) -> int:
        n = self.n_stores
        return n * (n - 1) // 2

    def embedding(self, k: int = 2) -> np.ndarray:
        """Classical MDS coordinates of the stores (``(n, k)``).

        ``n`` points embed exactly in at most ``n - 1`` dimensions, so
        for tiny fleets the extra requested axes carry no information;
        they are zero-padded rather than rejected (a 2-store fleet in
        the default ``k=2`` is a line plus a zero column).
        """
        from repro.core.embedding import classical_mds

        if k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {k}")
        n = self.n_stores
        if n == 1:
            return np.zeros((1, k))
        k_eff = min(k, n - 1)
        coords = classical_mds(self.values, k=k_eff)
        if k_eff < k:
            coords = np.pad(coords, ((0, 0), (0, k - k_eff)))
        return coords

    def groups(
        self, n_groups: int, linkage: str = "average"
    ) -> dict[int, list[str | int]]:
        """Agglomerative grouping into ``n_groups`` marketing strategies."""
        from repro.core.grouping import group_stores

        if self.n_stores == 1:
            if n_groups != 1:
                raise InvalidParameterError(
                    "a single-store fleet only supports n_groups=1"
                )
            return {0: [self.names[0]]}
        return group_stores(self.values, n_groups, linkage, names=self.names)

    def components(
        self, threshold: float | None = None
    ) -> dict[int, list[str | int]]:
        """Connected components under ``deviation <= threshold``.

        At the pruning threshold this grouping is *exact*: a pruned
        entry is certified at or below the threshold (hence an edge)
        and every other entry is the exact deviation. See
        :mod:`repro.fleet.analysis`.
        """
        from repro.fleet.analysis import components

        if threshold is None:
            threshold = self.threshold
        if threshold is None:
            raise InvalidParameterError(
                "components() needs a threshold (none was recorded on "
                "this matrix; pass one explicitly)"
            )
        return components(self.values, threshold, names=self.names)

    def to_report(
        self, k: int = 2, n_groups: int | None = None, linkage: str = "average"
    ) -> dict[str, Any]:
        """JSON-able report: matrix + embedding + groups + pruning stats."""
        from repro.fleet.analysis import fleet_report

        return fleet_report(self, k=k, n_groups=n_groups, linkage=linkage)

    def to_csv(self) -> str:
        """The deviation matrix as CSV (header row + one row per store)."""
        from repro.fleet.analysis import matrix_to_csv

        return matrix_to_csv(self)


class FleetDeviationMatrix:
    """All-pairs deviation engine over an aligned fleet of stores.

    Parameters
    ----------
    models, datasets:
        The per-store models and the datasets that induced them,
        aligned. All stores must share one model kind (lits or
        partition); mixing raises :class:`IncompatibleModelsError`.
        Datasets may be appendable logs -- see :meth:`update`.
    names:
        Optional store names (default ``store-0`` ... ``store-N-1``).
    f, g:
        Difference and aggregate functions for the exact deviations.
        Pruning requires ``f_a`` with ``g_sum`` or ``g_max`` -- the
        combinations delta* provably majorises.
    executor:
        Backend for fanning the per-store scans: ``"serial"``,
        ``"thread"``, ``"process"``, or an object with ``.map``.
    model_builder:
        Optional ``dataset -> model`` callable so :meth:`update` can
        re-mine a store after its log grew.
    """

    def __init__(
        self,
        models: Sequence[ModelLike],
        datasets: Sequence[Any],
        names: Sequence[str] | None = None,
        *,
        f: DifferenceFunction = ABSOLUTE,
        g: AggregateFunction = SUM,
        executor: ExecutorLike = "serial",
        model_builder: ModelBuilder | None = None,
    ) -> None:
        models = list(models)
        datasets = list(datasets)
        if not models:
            raise InvalidParameterError(
                "cannot build a fleet matrix over an empty fleet: give at "
                "least one (model, dataset) store"
            )
        if len(models) != len(datasets):
            raise InvalidParameterError(
                f"models and datasets must align store-for-store: got "
                f"{len(models)} models vs {len(datasets)} datasets"
            )
        kinds = {_model_kind(m) for m in models}
        if len(kinds) > 1:
            raise IncompatibleModelsError(
                f"a fleet must hold one model kind; got {sorted(kinds)} "
                "(deviation between different model classes is undefined)"
            )
        self.kind = kinds.pop()
        if self.kind not in ("lits", "partition"):
            raise IncompatibleModelsError(
                f"unsupported fleet model kind {self.kind!r}; expected "
                "lits-models or partition (dt-/cluster-) models"
            )
        if names is None:
            names = [f"store-{i}" for i in range(len(models))]
        names = [str(n) for n in names]
        if len(names) != len(models):
            raise InvalidParameterError(
                f"names must align with the fleet: got {len(names)} names "
                f"for {len(models)} stores"
            )
        if len(set(names)) != len(names):
            raise InvalidParameterError("store names must be unique")
        if self.kind == "lits":
            universes = {m.n_items for m in models}
            if len(universes) > 1:
                raise IncompatibleModelsError(
                    f"lits fleet stores disagree on the item universe: "
                    f"n_items in {sorted(universes)}"
                )

        self._models = models
        self._datasets = datasets
        self.names = tuple(names)
        self._f = f
        self._g = g
        # Resolved once: pooled executors reuse their workers across
        # every matrix computation of this engine (per-call resolution
        # would spawn and abandon a pool per call).
        self._executor = get_executor(executor)
        self._model_builder = model_builder
        self._vocab = LitsVocabulary(models) if self.kind == "lits" else None
        #: lits counts per (store, vocabulary id); ``_scanned[i]`` says
        #: store ``i``'s row was counted since its last reset
        n_vocab = 0 if self._vocab is None else len(self._vocab)
        self._counts = np.zeros((len(models), n_vocab), dtype=np.int64)
        self._scanned = [False] * len(models)
        self._n_scans = [0] * len(models) if self.kind == "lits" else []
        self._n_rows = [len(d) for d in datasets]
        #: Rows each store had when its *model* was supplied. A store
        #: whose log outgrew this is "stale": its model no longer
        #: describes its data, so neither the delta* bound nor the
        #: stored-measures fast path may speak for it (see pruned()).
        self._model_rows = [len(d) for d in datasets]
        #: (i, j) i<j -> (exact value, _SCAN | _MODEL_ONLY)
        self._exact: dict[tuple[int, int], tuple[float, str]] = {}
        self._bounds: np.ndarray | None = None
        self.n_pair_computations = 0

    @classmethod
    def from_sketches(
        cls,
        payloads: "Sequence[bytes | tuple[bytes, bytes]]",
        names: Sequence[str] | None = None,
        *,
        f: DifferenceFunction = ABSOLUTE,
        g: AggregateFunction = SUM,
    ) -> "SketchFleet":
        """A federated fleet, from exchanged wire payloads alone.

        Each store's shipment is either one partition-sketch payload
        (bytes; its dt-/cluster-model travels embedded) or a
        ``(lits-model payload, support-sketch payload)`` pair. The
        returned :class:`~repro.fleet.federated.SketchFleet` computes
        the same exact deviations and the same delta*-certified pruning
        decisions as this row-level engine, but no dataset rows are
        accessible to the comparer -- the kilobyte payloads are all that
        crossed the wire. See :mod:`repro.fleet.federated`.
        """
        from repro.fleet.federated import SketchFleet

        return SketchFleet(payloads, names, f=f, g=g)

    def close(self) -> None:
        """Release the engine's executor pool, if it has one.

        A no-op for the serial backend. An engine built from a backend
        *name* owns the pool it resolved; one handed an executor
        instance shares its owner's (``shutdown`` is idempotent, and
        pooled backends respawn workers lazily if reused).
        """
        release(self._executor)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._models)

    @property
    def models(self) -> tuple[ModelLike, ...]:
        return tuple(self._models)

    @property
    def datasets(self) -> tuple[Any, ...]:
        return tuple(self._datasets)

    def scan_counts(self) -> list[int]:
        """Batched scans performed per store so far (lits fleets)."""
        return list(self._n_scans)

    # ------------------------------------------------------------------ #
    # The delta* bound matrix (no dataset scans)
    # ------------------------------------------------------------------ #

    def bound_matrix(self) -> np.ndarray:
        """The pairwise delta* matrix, from the models alone (cached)."""
        if self.kind != "lits":
            raise IncompatibleModelsError(
                "the delta* upper bound (Definition 4.1) exists only for "
                "lits-models; partition fleets must use exhaustive()"
            )
        if self._bounds is None:
            assert self._vocab is not None
            with obs.metrics().span("fleet.bound_matrix"):
                self._bounds = self._vocab.bound_matrix(self._g)
            n = len(self._models)
            obs.metrics().inc("fleet.bounds.filled", n * (n - 1) // 2)
        return self._bounds

    # ------------------------------------------------------------------ #
    # Exact computation with per-store scan reuse
    # ------------------------------------------------------------------ #

    def _refresh_grown_stores(self) -> None:
        """Invalidate cached pair values of stores whose log grew.

        The store's *model* is kept as-is (deviation of the stored model
        against the grown snapshot is the monitoring view); call
        :meth:`update` to re-mine it.
        """
        for i, dataset in enumerate(self._datasets):
            if len(dataset) != self._n_rows[i]:
                self._invalidate_store(i)

    def _invalidate_store(self, i: int) -> None:
        self._exact = {
            pair: v for pair, v in self._exact.items() if i not in pair
        }
        self._scanned[i] = False
        self._n_rows[i] = len(self._datasets[i])

    def _stale_stores(self) -> set[int]:
        """Stores whose dataset grew past the rows their model was built on."""
        return {
            i
            for i, d in enumerate(self._datasets)
            if len(d) != self._model_rows[i]
        }

    def _ensure_exact(self, pairs: Sequence[tuple[int, int]]) -> None:
        """Compute and cache the exact deviation of every listed pair."""
        missing = [p for p in pairs if p not in self._exact]
        if not missing:
            return
        if self.kind == "lits":
            self._ensure_exact_lits(missing)
        else:
            self._ensure_exact_partition(missing)
        self.n_pair_computations += len(missing)

    def _ensure_exact_lits(self, missing: Sequence[tuple[int, int]]) -> None:
        vocab = self._vocab
        assert vocab is not None
        stale = self._stale_stores()
        # The stored-measures fast path (Section 7.1) needs identical
        # structures and speaks for the datasets the models were induced
        # from; a store whose log grew past its model is measured by a
        # real scan.
        model_only = {
            (i, j)
            for i, j in missing
            if i not in stale and j not in stale and vocab.same_structure(i, j)
        }
        self._scan(sorted({
            store
            for pair in missing
            if pair not in model_only
            for store in pair
            if not self._scanned[store]
        }))
        counts, n_rows = self._counts, self._n_rows
        for i, j in missing:
            u = vocab.union(i, j)
            n1, n2 = n_rows[i], n_rows[j]
            if (i, j) in model_only:
                counts1 = vocab.model_counts(i, u, n1)
                counts2 = vocab.model_counts(j, u, n2)
                tag = _MODEL_ONLY
            else:
                counts1, counts2 = counts[i, u], counts[j, u]
                tag = _SCAN
            value = self._g(self._f(counts1, counts2, n1, n2))
            self._exact[(i, j)] = (value, tag)

    def _scan(self, stores: list[int]) -> None:
        """Count the whole vocabulary in each store: one batched scan each."""
        assert self._vocab is not None
        scans = count_lits_stores(
            [self._datasets[i].index for i in stores],
            self._vocab.itemsets.plan(),
            executor=self._executor,
        )
        for i, counts in zip(stores, scans):
            self._counts[i] = counts
            self._scanned[i] = True
            self._n_scans[i] += 1

    def _ensure_exact_partition(
        self, missing: Sequence[tuple[int, int]]
    ) -> None:
        datasets = self._datasets
        structures = {
            (i, j): gcr(self._models[i].structure, self._models[j].structure)
            for i, j in missing
        }
        stores = {i for pair in missing for i in pair}
        prime_partition_passes(
            self._models, datasets, stores, executor=self._executor
        )
        # Identical GCR structures share each store's measured counts
        # (the deviation_many trick, keyed order-sensitively).
        counts_by: dict[tuple[int, object], np.ndarray] = {}
        for (i, j), s in structures.items():
            key = s.counts_key
            counts: list[np.ndarray] = []
            for store in (i, j):
                cached = counts_by.get((store, key))
                if cached is None:
                    cached = np.asarray(s.counts(datasets[store]))
                    counts_by[(store, key)] = cached
                counts.append(cached)
            result = deviation_from_counts(
                s, counts[0], counts[1], len(datasets[i]), len(datasets[j]),
                f=self._f, g=self._g,
            )
            self._exact[(i, j)] = (result.value, _SCAN)

    def pair(self, store_a: str | int, store_b: str | int) -> float:
        """The exact deviation of one pair (computed or cached)."""
        i, j = sorted((
            _store_index(self.names, store_a), _store_index(self.names, store_b)
        ))
        if i == j:
            return 0.0
        self._refresh_grown_stores()
        self._ensure_exact([(i, j)])
        return self._exact[(i, j)][0]

    # ------------------------------------------------------------------ #
    # Matrices
    # ------------------------------------------------------------------ #

    def exhaustive(self) -> FleetMatrix:
        """The oracle: every pair computed exactly (scans memoised).

        The result never carries a bound matrix -- exhaustive output is
        about exact values, and attaching bounds only when an earlier
        call happened to compute them would make the report schema
        depend on call history. Use :meth:`bound_matrix` or
        :meth:`pruned` when the bounds are the point.
        """
        self._refresh_grown_stores()
        n = len(self._models)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        self._ensure_exact(pairs)
        return _assemble(
            self, {p: self._exact[p] for p in pairs}, None, threshold=None
        )

    def pruned(self, threshold: float) -> FleetMatrix:
        """delta*-pruned matrix: scan only pairs the bound cannot clear.

        A pair whose delta* bound is at or below ``threshold`` is
        certified insignificant at that level (its exact deviation is at
        most the bound, Theorem 4.2) and is **not** scanned; its entry
        reports the bound with ``exact_mask`` false. Every other pair is
        computed exactly. All ``<= threshold`` decisions therefore agree
        with :meth:`exhaustive`; with a threshold below every off-
        diagonal bound nothing is pruned and the matrices are equal.

        A store whose log grew past its model (appended without
        :meth:`update`) is never certified: its delta* bound describes
        the rows its model was mined from, not the grown snapshot, so
        every pair involving it is scanned exactly regardless of the
        bound -- which keeps the agreement guarantee intact.
        """
        threshold = _pruning_threshold(threshold, self._f, self._g)
        bounds = self.bound_matrix()  # raises for partition fleets
        self._refresh_grown_stores()
        stale = self._stale_stores()
        n = len(self._models)
        pairs = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if bounds[i, j] > threshold or i in stale or j in stale
        ]
        self._ensure_exact(pairs)
        return _assemble(
            self, {p: self._exact[p] for p in pairs}, bounds, threshold
        )

    # ------------------------------------------------------------------ #
    # Incremental maintenance
    # ------------------------------------------------------------------ #

    def update(
        self, store: str | int, *, model: ModelLike | None = None
    ) -> ModelLike:
        """Refresh one store after its log appended; returns its new model.

        Re-mines the store's model (``model_builder``, unless ``model``
        is given), drops the cached pair values and counting memo of
        that store *only*, and refreshes its row/column of the bound
        matrix. The next matrix call recomputes ``N - 1`` pairs instead
        of ``N (N - 1) / 2``.
        """
        i = _store_index(self.names, store)
        if model is None:
            if self._model_builder is None:
                raise InvalidParameterError(
                    "update() needs a model: pass model=... or construct "
                    "the fleet with model_builder="
                )
            model = self._model_builder(self._datasets[i])
        if _model_kind(model) != self.kind:
            raise IncompatibleModelsError(
                f"update would change store {self.names[i]!r} from a "
                f"{self.kind} model to {_model_kind(model)}; a fleet holds "
                "one model kind"
            )
        self._models[i] = model
        self._invalidate_store(i)
        self._model_rows[i] = len(self._datasets[i])
        if self._vocab is not None:
            # the new model may add or drop itemsets: renumber, and carry
            # every other store's counts over to the new ids -- unless an
            # itemset is new to the fleet, which no store has counted
            previous, self._vocab = self._vocab, LitsVocabulary(self._models)
            counts = self._vocab.remap(previous, self._counts)
            if counts is None:
                counts = np.zeros(
                    (len(self._models), len(self._vocab)), dtype=np.int64
                )
                self._scanned = [False] * len(self._models)
            self._counts = counts
            if self._bounds is not None:
                self._vocab.fill_bound_row(self._bounds, i, self._g)
                obs.metrics().inc("fleet.bounds.filled", len(self._models) - 1)
        return model


def _assemble(
    engine: "FleetDeviationMatrix | SketchFleet",
    exact: Mapping[tuple[int, int], tuple[float, str]],
    bounds: np.ndarray | None,
    threshold: float | None,
) -> FleetMatrix:
    """A :class:`FleetMatrix` from exact pair values and the bounds.

    ``exact`` maps each exactly measured pair ``(i, j)``, ``i < j``, to
    its value and the counter it tallies; every other pair reports its
    delta* bound and tallies ``fleet.pairs.pruned``.
    """
    n = len(engine.names)
    values = np.zeros((n, n))
    exact_mask = np.zeros((n, n), dtype=bool)
    np.fill_diagonal(exact_mask, True)
    # Tally through an obs registry so the matrix's pruning stats and
    # any ambient `--metrics` collection share one counting path.
    tally = obs.MetricsRegistry()
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) in exact:
                value, counter = exact[(i, j)]
                exact_mask[i, j] = exact_mask[j, i] = True
                tally.inc(counter)
            else:
                assert bounds is not None
                value = bounds[i, j]
                tally.inc("fleet.pairs.pruned")
            values[i, j] = values[j, i] = value
    obs.metrics().absorb(tally)
    return FleetMatrix(
        names=engine.names,
        values=values,
        exact_mask=exact_mask,
        kind=engine.kind,
        f_name=engine._f.name,
        g_name=engine._g.name,
        bounds=None if bounds is None else bounds.copy(),
        threshold=threshold,
        metrics=tally.snapshot()["counters"],
    )
