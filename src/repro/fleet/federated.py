"""Federated fleet comparison: the fleet engine over shipped sketches.

The paper's promise is comparing data characteristics *without pooling
the data*. This module is where that becomes operational: every site
packs its model and sketch into kilobyte-scale wire payloads
(:mod:`repro.wire`), ships the bytes, and :class:`SketchFleet` -- built
by :meth:`repro.fleet.FleetDeviationMatrix.from_sketches` -- computes
the all-pairs deviation matrix with **no dataset rows accessible to the
comparer**. It is the engine of :mod:`repro.fleet.matrix` (pairs,
memo, delta* bounds, pruning, matrices) over a second count source: the
decoded sketches. The decisions are exact, not approximate:

* **lits fleets** -- a store ships ``(lits-model payload, support-sketch
  payload)``. If every sketch covers the fleet's probe collection
  (:func:`~repro.fleet.vocab.probe_itemsets` -- the union of all
  stores' itemsets), then every pairwise GCR (the union of *two*
  stores' itemsets) is a subvector of both sketches, and the integer
  counts equal what a row-level scan would count. Each sketch is mapped
  into the fleet's :class:`~repro.fleet.vocab.LitsVocabulary` once, so
  a pair is the same id-array gather the row-level source feeds --
  bit-equal values to the exhaustive oracle. A pair whose GCR a sketch
  does not cover fails typed. Every store ships the same probe table,
  so one call decodes each distinct table's bytes once, and its decode
  context (:class:`~repro.wire.encoding.TableMemo`) interns itemsets:
  the models' tables are subsets of the probe table, so the call builds
  one frozenset per probe itemset and every decoded model shares them.
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

from typing import Iterator, Sequence, Union

import numpy as np

from repro import obs
from repro.core.aggregate import SUM, AggregateFunction
# span targets ``core.deviate``, ``core.gcr`` and ``core.bound`` of
# pipebench's traced run, which patches the names here; pair values,
# lits GCRs and bounds come from the engine and its vocabulary kernel
from repro.core.deviation import deviation_from_counts  # noqa: F401
from repro.core.difference import ABSOLUTE, DifferenceFunction
from repro.core.gcr import gcr  # noqa: F401
from repro.core.lits import LitsModel
from repro.core.upper_bound import upper_bound_deviation  # noqa: F401
from repro.errors import IncompatibleModelsError, InvalidParameterError
from repro.fleet.matrix import (
    _FleetEngine,
    _PairCounts,
    _store_index,
    _store_names,
)
from repro.stats.bootstrap import BootstrapResult
from repro.stats.resample_plan import CountsResamplePlan
from repro.stream.sketch import PartitionSketch, SupportSketch
from repro.wire.encoding import TableMemo
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


class SketchFleet(_FleetEngine):
    """All-pairs deviation over a fleet reconstructed from payloads.

    Build via :meth:`repro.fleet.FleetDeviationMatrix.from_sketches`.
    It is the fleet engine over sketch counts: :meth:`pair`,
    :meth:`exhaustive` (every pair exact from sketch counts) and
    :meth:`pruned` (delta*-certified pruning, lits fleets) are the
    row-level engine's, plus the federated-only :meth:`qualify`
    (counts-bootstrap significance, partition fleets).
    """

    _counted = _SKETCH_EXACT
    # span targets of pipebench's traced run, which patches each fleet
    # class's own names; engine-owned spans (ROADMAP item 4) delete these
    exhaustive = _FleetEngine.exhaustive
    pruned = _FleetEngine.pruned
    bound_matrix = _FleetEngine.bound_matrix

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
        names = _store_names(names, len(payloads))
        # this call's decode context: one decode per distinct itemset
        # table, one frozenset per distinct itemset
        tables = TableMemo()
        bytes_per_store: list[int] = []
        models: list[LitsModel | PartitionModel] = []
        sketches: list[SupportSketch | PartitionSketch] = []
        for name, shipment in zip(names, payloads):
            sketch: SupportSketch | PartitionSketch
            model: LitsModel | PartitionModel
            if isinstance(shipment, (bytes, bytearray)):
                sketch, model = self._unpack_partition(name, bytes(shipment))
                bytes_per_store.append(len(shipment))
            elif (
                isinstance(shipment, tuple)
                and len(shipment) == 2
                and all(isinstance(p, (bytes, bytearray)) for p in shipment)
            ):
                model_payload, sketch_payload = (
                    bytes(shipment[0]), bytes(shipment[1]),
                )
                model, sketch = self._unpack_lits(
                    name, model_payload, sketch_payload, tables
                )
                bytes_per_store.append(len(model_payload) + len(sketch_payload))
            else:
                raise InvalidParameterError(
                    f"store {name!r}: a shipment is either one "
                    "partition-sketch payload (bytes) or a (lits-model "
                    "payload, support-sketch payload) pair of bytes, got "
                    f"{type(shipment).__name__}"
                )
            models.append(model)
            sketches.append(sketch)
        #: Exactly what crossed the wire, per store.
        self.payload_bytes = tuple(bytes_per_store)
        obs.metrics().inc("wire.bytes_shipped", sum(bytes_per_store))
        super().__init__(
            models, names, [s.n_rows for s in sketches], f=f, g=g
        )
        self._sketches = sketches
        #: the vocabulary ids each store's sketch counted at all
        self._covered = np.zeros(self._counts.shape, dtype=bool)
        if self._vocab is not None:
            # stores sharing a probe table share its decoded object
            ids_of: dict[int, np.ndarray] = {}
            for i, sketch in enumerate(sketches):
                assert isinstance(sketch, SupportSketch)
                ids = ids_of.get(id(sketch.itemsets))
                if ids is None:
                    ids = ids_of[id(sketch.itemsets)] = self._vocab.ids(
                        sketch.itemsets
                    )
                tracked = ids >= 0
                self._counts[i, ids[tracked]] = sketch.counts[tracked]
                self._covered[i, ids[tracked]] = True
        else:
            shared = {s.key for s in sketches if isinstance(s, PartitionSketch)}
            if len(shared) > 1:
                raise IncompatibleModelsError(
                    "federated partition comparison needs a fleet-shared "
                    f"structure; the {len(sketches)} sketches measure "
                    f"{len(shared)} different partitions. Agree on one "
                    "reference model, ship its payload to every site, and "
                    "sketch each site's rows over that structure."
                )

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
        name: str, model_payload: bytes, sketch_payload: bytes,
        tables: TableMemo,
    ) -> tuple[LitsModel, SupportSketch]:
        model_envelope = read_envelope(model_payload)
        if model_envelope.kind != KIND_LITS_MODEL:
            raise InvalidParameterError(
                f"store {name!r}: the first payload of a pair must be a "
                f"lits-model, got a {model_envelope.kind_name}"
            )
        model = model_from_envelope(model_envelope, tables)
        assert isinstance(model, LitsModel)
        sketch_envelope = read_envelope(sketch_payload)
        if sketch_envelope.kind != KIND_SUPPORT_SKETCH:
            raise InvalidParameterError(
                f"store {name!r}: the second payload of a pair must be a "
                f"support-sketch, got a {sketch_envelope.kind_name}"
            )
        sketch = _support_from_envelope(sketch_envelope, tables)
        if sketch.n_items != model.n_items:
            raise IncompatibleModelsError(
                f"store {name!r}: its sketch counts a {sketch.n_items}-item "
                f"universe but its model was mined over {model.n_items} "
                "items"
            )
        return model, sketch

    @property
    def sketches(self) -> tuple[SupportSketch | PartitionSketch, ...]:
        """The reconstructed per-store sketches."""
        return tuple(self._sketches)

    # ------------------------------------------------------------------ #
    # The count source: shipped sketches
    # ------------------------------------------------------------------ #

    def _count_lits(
        self, missing: Sequence[tuple[int, int]]
    ) -> set[tuple[int, int]]:
        """Check every listed pair's GCR is covered by both sketches.

        The counts were mapped into ``_counts`` at construction; no pair
        is read from stored model measures.
        """
        vocab = self._vocab
        assert vocab is not None
        gappy = ~self._covered.all(axis=1)
        for i, j in missing:
            if not (gappy[i] or gappy[j]):
                continue
            ids = vocab.union(i, j)
            for store in (i, j):
                gap = ids[~self._covered[store, ids]]
                if gap.size:
                    missed = vocab.itemsets[int(gap[0])]
                    raise IncompatibleModelsError(
                        f"store {self.names[store]!r}'s sketch does not "
                        f"cover itemset {sorted(missed)}, which this pair's "
                        "GCR needs; sketch every store over "
                        "probe_itemsets(models) (the union of all stores' "
                        "itemsets) so any pair is comparable"
                    )
        return set()

    def _partition_counts(
        self, missing: Sequence[tuple[int, int]]
    ) -> Iterator[_PairCounts]:
        # the GCR of two identical partitions is that partition with its
        # regions in the original order (disjoint half-open cells), so
        # the shared structure *is* the pair's GCR and the sketch counts
        # are its exact measures
        for i, j in missing:
            sketch_i, sketch_j = self._sketches[i], self._sketches[j]
            assert isinstance(sketch_i, PartitionSketch)
            assert isinstance(sketch_j, PartitionSketch)
            yield (i, j), sketch_i.plan.structure, sketch_i.counts, sketch_j.counts

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
        return plan.significance(n_boot, rng, f=self._f, g=self._g, seed=seed)
