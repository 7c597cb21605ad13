"""Federated fleet comparison: the matrix from exchanged payloads alone.

The paper's promise is comparing data characteristics *without pooling
the data*. This module is where that becomes operational: every site
packs its model and sketch into kilobyte-scale wire payloads
(:mod:`repro.wire`), ships the bytes, and :class:`SketchFleet` -- built
by :meth:`repro.fleet.FleetDeviationMatrix.from_sketches` -- computes
the all-pairs deviation matrix with **no dataset rows accessible to the
comparer**. The decisions are exact, not approximate:

* **lits fleets** -- a store ships ``(lits-model payload, support-sketch
  payload)``. If every sketch covers the fleet's probe collection
  (:func:`probe_itemsets` -- the union of all stores' itemsets), then
  every pairwise GCR (the union of *two* stores' itemsets) is a
  subvector of both sketches, and the integer counts equal what a
  row-level scan would count. Each sketch is mapped into the fleet's
  :class:`~repro.fleet.vocab.LitsVocabulary` once, so a pair is the
  same id-array gather the row-level engine runs -- bit-equal values to
  the exhaustive oracle. The delta* bound needs only the models, so
  :meth:`SketchFleet.pruned` certifies insignificant pairs exactly as
  the row-level engine does.
* **partition fleets** -- a store ships one partition-sketch payload
  (its dt-/cluster-model travels embedded). Federated exactness needs a
  fleet-shared structure: the GCR of two *identical* partitions is the
  same partition (half-open, disjoint cells), so sketch counts over the
  shared structure are exactly the oracle's GCR counts. Pair
  significance is bootstrappable from counts alone
  (:meth:`SketchFleet.qualify`, via
  :meth:`~repro.stats.resample_plan.CountsResamplePlan.from_sketches`)
  because partition regions are disjoint; lits itemset regions overlap,
  so no counts-only bootstrap exists for them and the certified delta*
  bound is their qualification story.

Every payload byte is CRC-verified before an object is constructed, and
``wire.bytes_shipped`` tallies exactly what crossed the wire -- the
federated sibling of the storage layer's ``storage.bytes_shipped``.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro import obs
from repro._typing import ExecutorLike
from repro.core.aggregate import SUM, AggregateFunction
from repro.core.deviation import deviation_from_counts
from repro.core.difference import ABSOLUTE, DifferenceFunction
# span targets ``core.gcr`` and ``core.bound`` of pipebench's traced
# run, which patches the names here; lits GCRs and bounds come from the
# vocabulary kernel
from repro.core.gcr import gcr  # noqa: F401
from repro.core.lits import LitsModel
from repro.core.upper_bound import upper_bound_deviation  # noqa: F401
from repro.errors import IncompatibleModelsError, InvalidParameterError
from repro.fleet.matrix import (
    FleetMatrix,
    _assemble,
    _pruning_threshold,
    _store_index,
)
from repro.fleet.vocab import LitsVocabulary, probe_itemsets
from repro.stats.bootstrap import BootstrapResult
from repro.stats.resample_plan import CountsResamplePlan
from repro.stream.sketch import PartitionSketch, SupportSketch
from repro.wire.format import (
    KIND_LITS_MODEL,
    KIND_PARTITION_SKETCH,
    KIND_SUPPORT_SKETCH,
    read_envelope,
)
from repro.wire.models import model_from_envelope
from repro.wire.sketches import (
    PartitionModel,
    _partition_from_envelope,
    _support_from_envelope,
)

#: One store's shipment: a partition-sketch payload, or a (lits-model
#: payload, support-sketch payload) pair.
StorePayload = Union[bytes, tuple[bytes, bytes]]

#: The counter a pair measured from sketch counts tallies.
_SKETCH_EXACT = "fleet.pairs.sketch_exact"


class SketchFleet:
    """All-pairs deviation over a fleet reconstructed from payloads.

    Build via :meth:`repro.fleet.FleetDeviationMatrix.from_sketches`.
    The API mirrors the row-level engine where the mirror is sound:
    :meth:`exhaustive` (every pair exact from sketch counts),
    :meth:`pruned` (delta*-certified pruning, lits fleets), plus the
    federated-only :meth:`qualify` (counts-bootstrap significance,
    partition fleets).
    """

    def __init__(
        self,
        payloads: Sequence[StorePayload],
        names: Sequence[str] | None = None,
        *,
        f: DifferenceFunction = ABSOLUTE,
        g: AggregateFunction = SUM,
    ) -> None:
        payloads = list(payloads)
        if not payloads:
            raise InvalidParameterError(
                "cannot build a fleet from zero payloads: give at least "
                "one store's shipment"
            )
        if names is None:
            names = [f"store-{i}" for i in range(len(payloads))]
        names = [str(n) for n in names]
        if len(names) != len(payloads):
            raise InvalidParameterError(
                f"names must align with the payloads: got {len(names)} "
                f"names for {len(payloads)} stores"
            )
        if len(set(names)) != len(names):
            raise InvalidParameterError("store names must be unique")
        self.names = tuple(names)
        self._f = f
        self._g = g
        self._bounds: np.ndarray | None = None
        self._vocab: LitsVocabulary | None = None

        kinds: set[str] = set()
        bytes_per_store: list[int] = []
        lits_models: list[LitsModel] = []
        support_sketches: list[SupportSketch] = []
        partition_models: list[PartitionModel] = []
        partition_sketches: list[PartitionSketch] = []
        for name, shipment in zip(self.names, payloads):
            if isinstance(shipment, (bytes, bytearray)):
                sketch, model = self._unpack_partition(name, bytes(shipment))
                partition_sketches.append(sketch)
                partition_models.append(model)
                bytes_per_store.append(len(shipment))
                kinds.add("partition")
            elif (
                isinstance(shipment, tuple)
                and len(shipment) == 2
                and all(isinstance(p, (bytes, bytearray)) for p in shipment)
            ):
                model_payload, sketch_payload = (
                    bytes(shipment[0]), bytes(shipment[1]),
                )
                model, sketch = self._unpack_lits(
                    name, model_payload, sketch_payload
                )
                lits_models.append(model)
                support_sketches.append(sketch)
                bytes_per_store.append(len(model_payload) + len(sketch_payload))
                kinds.add("lits")
            else:
                raise InvalidParameterError(
                    f"store {name!r}: a shipment is either one "
                    "partition-sketch payload (bytes) or a (lits-model "
                    "payload, support-sketch payload) pair of bytes, got "
                    f"{type(shipment).__name__}"
                )
        if len(kinds) > 1:
            raise IncompatibleModelsError(
                "a fleet must hold one model kind; got both lits and "
                "partition shipments (deviation between different model "
                "classes is undefined)"
            )
        self.kind = kinds.pop()
        #: Exactly what crossed the wire, per store.
        self.payload_bytes = tuple(bytes_per_store)
        obs.metrics().inc("wire.bytes_shipped", sum(bytes_per_store))

        if self.kind == "lits":
            universes = {m.n_items for m in lits_models}
            if len(universes) > 1:
                raise IncompatibleModelsError(
                    f"lits fleet stores disagree on the item universe: "
                    f"n_items in {sorted(universes)}"
                )
            self._models: list[LitsModel] | list[PartitionModel] = lits_models
            self._sketches: (
                list[SupportSketch] | list[PartitionSketch]
            ) = support_sketches
            self._vocab = LitsVocabulary(lits_models)
            shape = (len(lits_models), len(self._vocab))
            #: each store's sketch counts per vocabulary id; ``_covered``
            #: marks the ids its sketch counted at all
            self._counts = np.zeros(shape, dtype=np.int64)
            self._covered = np.zeros(shape, dtype=bool)
            for i, sketch in enumerate(support_sketches):
                ids = self._vocab.ids(sketch.itemsets)
                tracked = ids >= 0
                self._counts[i, ids[tracked]] = sketch.counts[tracked]
                self._covered[i, ids[tracked]] = True
        else:
            shared = {s.key for s in partition_sketches}
            if len(shared) > 1:
                raise IncompatibleModelsError(
                    "federated partition comparison needs a fleet-shared "
                    f"structure; the {len(partition_sketches)} sketches "
                    f"measure {len(shared)} different partitions. Agree on "
                    "one reference model, ship its payload to every site, "
                    "and sketch each site's rows over that structure."
                )
            self._models = partition_models
            self._sketches = partition_sketches

    # ------------------------------------------------------------------ #
    # Payload decoding
    # ------------------------------------------------------------------ #

    @staticmethod
    def _unpack_partition(
        name: str, payload: bytes
    ) -> tuple[PartitionSketch, PartitionModel]:
        envelope = read_envelope(payload)
        if envelope.kind != KIND_PARTITION_SKETCH:
            raise InvalidParameterError(
                f"store {name!r}: a single-payload shipment must be a "
                f"partition-sketch, got a {envelope.kind_name} (lits "
                "stores ship a (model, sketch) payload pair)"
            )
        return _partition_from_envelope(envelope)

    @staticmethod
    def _unpack_lits(
        name: str, model_payload: bytes, sketch_payload: bytes
    ) -> tuple[LitsModel, SupportSketch]:
        model_envelope = read_envelope(model_payload)
        if model_envelope.kind != KIND_LITS_MODEL:
            raise InvalidParameterError(
                f"store {name!r}: the first payload of a pair must be a "
                f"lits-model, got a {model_envelope.kind_name}"
            )
        model = model_from_envelope(model_envelope)
        assert isinstance(model, LitsModel)
        sketch_envelope = read_envelope(sketch_payload)
        if sketch_envelope.kind != KIND_SUPPORT_SKETCH:
            raise InvalidParameterError(
                f"store {name!r}: the second payload of a pair must be a "
                f"support-sketch, got a {sketch_envelope.kind_name}"
            )
        sketch = _support_from_envelope(sketch_envelope)
        if sketch.n_items != model.n_items:
            raise IncompatibleModelsError(
                f"store {name!r}: its sketch counts a {sketch.n_items}-item "
                f"universe but its model was mined over {model.n_items} "
                "items"
            )
        return model, sketch

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._models)

    @property
    def models(self) -> tuple[LitsModel, ...] | tuple[PartitionModel, ...]:
        """The reconstructed per-store models."""
        return tuple(self._models)

    @property
    def sketches(
        self,
    ) -> tuple[SupportSketch, ...] | tuple[PartitionSketch, ...]:
        """The reconstructed per-store sketches."""
        return tuple(self._sketches)

    # ------------------------------------------------------------------ #
    # Exact pair values from sketch counts
    # ------------------------------------------------------------------ #

    def _vocab_counts(self, store: int, ids: np.ndarray) -> np.ndarray:
        """The store's exact counts of a GCR's vocabulary ids."""
        gap = ids[~self._covered[store, ids]]
        if gap.size:
            assert self._vocab is not None
            missing = self._vocab.itemsets[int(gap[0])]
            raise IncompatibleModelsError(
                f"store {self.names[store]!r}'s sketch does not cover "
                f"itemset {sorted(missing)}, which this pair's GCR needs; "
                "sketch every store over probe_itemsets(models) (the "
                "union of all stores' itemsets) so any pair is comparable"
            )
        return self._counts[store, ids]

    def _exact_value(self, i: int, j: int) -> float:
        """One pair's exact deviation, computed from sketches alone."""
        n1, n2 = self._sketches[i].n_rows, self._sketches[j].n_rows
        if self.kind == "lits":
            assert self._vocab is not None
            u = self._vocab.union(i, j)
            return self._g(self._f(
                self._vocab_counts(i, u), self._vocab_counts(j, u), n1, n2
            ))
        sketch_i, sketch_j = self._sketches[i], self._sketches[j]
        assert isinstance(sketch_i, PartitionSketch)
        assert isinstance(sketch_j, PartitionSketch)
        # the GCR of two identical partitions is that partition with its
        # regions in the original order (disjoint half-open cells), so
        # the shared structure *is* the pair's GCR and the sketch counts
        # are its exact measures
        result = deviation_from_counts(
            sketch_i.plan.structure, sketch_i.counts, sketch_j.counts,
            n1, n2, f=self._f, g=self._g,
        )
        return float(result.value)

    def pair(self, store_a: str | int, store_b: str | int) -> float:
        """The exact deviation of one pair, from the payloads alone."""
        i, j = sorted((
            _store_index(self.names, store_a), _store_index(self.names, store_b)
        ))
        if i == j:
            return 0.0
        return self._exact_value(i, j)

    # ------------------------------------------------------------------ #
    # Matrices
    # ------------------------------------------------------------------ #

    def bound_matrix(self) -> np.ndarray:
        """The pairwise delta* matrix from the shipped models (cached)."""
        if self.kind != "lits":
            raise IncompatibleModelsError(
                "the delta* upper bound (Definition 4.1) exists only for "
                "lits-models; partition fleets use exhaustive() and "
                "qualify()"
            )
        if self._bounds is None:
            assert self._vocab is not None
            with obs.metrics().span("fleet.bound_matrix"):
                self._bounds = self._vocab.bound_matrix(self._g)
            n = len(self._models)
            obs.metrics().inc("fleet.bounds.filled", n * (n - 1) // 2)
        return self._bounds

    def exhaustive(self) -> FleetMatrix:
        """Every pair exact, from sketch counts -- no rows anywhere.

        Reproduces the row-level engine's ``exhaustive()`` values
        bit-for-bit (same arithmetic over the same integer counts),
        which the test suite pins against the per-pair oracle.
        """
        n = len(self._models)
        exact = {
            (i, j): (self._exact_value(i, j), _SKETCH_EXACT)
            for i in range(n)
            for j in range(i + 1, n)
        }
        return _assemble(self, exact, None, threshold=None)

    def pruned(self, threshold: float) -> FleetMatrix:
        """delta*-pruned federated matrix (lits fleets).

        Pairs whose bound is at or below ``threshold`` are certified
        from the models alone and never touch the sketches; the rest are
        computed exactly from sketch counts. Threshold decisions agree
        with :meth:`exhaustive` -- the bound majorises the exact value.
        """
        threshold = _pruning_threshold(threshold, self._f, self._g)
        bounds = self.bound_matrix()  # raises for partition fleets
        n = len(self._models)
        exact = {
            (i, j): (self._exact_value(i, j), _SKETCH_EXACT)
            for i in range(n)
            for j in range(i + 1, n)
            if bounds[i, j] > threshold
        }
        return _assemble(self, exact, bounds, threshold)

    # ------------------------------------------------------------------ #
    # Qualification
    # ------------------------------------------------------------------ #

    def qualify(
        self,
        store_a: str | int,
        store_b: str | int,
        n_boot: int = 1000,
        rng: np.random.Generator | None = None,
        *,
        seed: int | None = None,
        executor: ExecutorLike = "serial",
        n_blocks: int = 1,
    ) -> BootstrapResult:
        """Bootstrap one pair's significance from the sketches alone.

        Partition fleets only: disjoint regions make the pooled counts a
        sufficient statistic for the resampling null
        (:class:`~repro.stats.resample_plan.CountsResamplePlan`), so the
        comparer can attach a p-value without any site revealing a row.
        Lits itemset regions overlap -- their counts do not determine
        the null -- so for lits fleets the certified delta* bound
        (:meth:`pruned`) is the qualification mechanism and this method
        raises.
        """
        if self.kind != "partition":
            raise InvalidParameterError(
                "counts-only bootstrap qualification needs disjoint "
                "regions; lits itemset regions overlap, so qualify() is "
                "partition-only -- for lits fleets the certified delta* "
                "bound (pruned()) is the qualification mechanism"
            )
        i = _store_index(self.names, store_a)
        j = _store_index(self.names, store_b)
        if i == j:
            raise InvalidParameterError(
                "qualify() compares two distinct stores"
            )
        sketch_i, sketch_j = self._sketches[i], self._sketches[j]
        assert isinstance(sketch_i, PartitionSketch)
        assert isinstance(sketch_j, PartitionSketch)
        plan = CountsResamplePlan.from_sketches(sketch_i, sketch_j)
        return plan.significance(
            n_boot,
            rng,
            f=self._f,
            g=self._g,
            seed=seed,
            executor=executor,
            n_blocks=n_blocks,
        )
