"""Sketch codecs: mergeable counts as kilobyte-scale payloads.

A sketch is the thing a federated site actually ships: absolute counts
of a fixed structure over its local rows. These codecs make the two
sketch kinds travel:

* **support-sketch** -- ``meta`` (n_transactions, n_items), the itemset
  table (``sizes``/``items``), and the aligned int64 ``counts``. A few
  hundred itemsets fit in a couple of KiB.
* **partition-sketch** -- ``meta`` (n_rows), a ``model`` section holding
  a *nested model envelope* (dt- or cluster-model), and the aligned
  int64 ``counts``. A partition structure's assigner is an arbitrary
  callable and cannot be serialised; the model it came from can, and
  rebuilding the model rebuilds the structure -- so the payload carries
  the model, and unpacking yields a sketch whose ``counts_key`` equals
  the original's (frozen predicate dataclasses + exact float round-trip
  make the rebuilt regions compare equal). GCR-overlay sketches have no
  inducing model and are therefore not packable.

Decoded sketches are fully validated before construction: counts must
align with the structure, be non-negative, and not exceed the row count
-- invariants every honest producer satisfies, so a violation means the
payload is forged or the producer is broken, and the decoder says so
instead of handing the deviation engine poisoned counts.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.cluster_model import ClusterModel
from repro.core.dtree_model import DtModel
from repro.errors import InvalidParameterError, WireFormatError
from repro.stream.sketch import PartitionSketch, SupportSketch
from repro.wire.encoding import (
    TableMemo,
    itemset_sections,
    itemset_table,
    pack_array,
    pack_json,
    unpack_array,
    unpack_json_object,
)
from repro.wire.format import (
    KIND_PARTITION_SKETCH,
    KIND_SUPPORT_SKETCH,
    Envelope,
    pack_envelope,
    read_envelope,
)
from repro.wire.models import model_from_envelope, pack_model

#: Model classes that can induce (and therefore ship) a partition sketch.
PartitionModel = DtModel | ClusterModel

_SUPPORT_SECTIONS = ("meta", "sizes", "items", "counts")
_PARTITION_SECTIONS = ("meta", "model", "counts")


def pack_support_sketch(sketch: SupportSketch) -> bytes:
    """Encode a support sketch."""
    sizes, items = itemset_sections(sketch.itemsets)
    meta = pack_json(
        {
            "n_transactions": sketch.n_transactions,
            "n_items": sketch.n_items,
        }
    )
    return pack_envelope(
        KIND_SUPPORT_SKETCH,
        [
            ("meta", meta),
            ("sizes", sizes),
            ("items", items),
            ("counts", pack_array(np.asarray(sketch.counts, dtype=np.int64))),
        ],
    )


def _counts_from_payload(
    payload: bytes, n_expected: int, n_rows: int, what: str
) -> np.ndarray:
    """Decode and validate an aligned counts vector."""
    counts = unpack_array(payload, "counts")
    if counts.shape != (n_expected,):
        raise WireFormatError(
            f"counts array of shape {counts.shape} does not align with "
            f"the {n_expected} {what}",
            section="counts",
        )
    counts = counts.astype(np.int64)
    if counts.size and (
        int(counts.min()) < 0 or int(counts.max()) > n_rows
    ):
        raise WireFormatError(
            f"counts must lie in [0, {n_rows}] (the sketched row count); "
            "the payload violates the sketch invariant",
            section="counts",
        )
    return counts


def _support_from_envelope(
    envelope: Envelope, tables: TableMemo | None = None
) -> SupportSketch:
    meta_payload, sizes, items, counts_payload = envelope.expect(
        _SUPPORT_SECTIONS
    )
    meta = unpack_json_object(
        meta_payload, "meta", ("n_transactions", "n_items")
    )
    try:
        n_transactions = int(meta["n_transactions"])
        n_items = int(meta["n_items"])
    except (OverflowError, TypeError, ValueError) as exc:
        raise WireFormatError(
            f"support-sketch metadata is invalid: {exc}", section="meta"
        ) from None
    if n_transactions < 0 or n_items < 0:
        raise WireFormatError(
            "n_transactions and n_items must be >= 0", section="meta"
        )
    itemsets = itemset_table(sizes, items, n_items, tables)
    counts = _counts_from_payload(
        counts_payload, len(itemsets), n_transactions, "itemsets"
    )
    return SupportSketch(itemsets, counts, n_transactions, n_items)


def unpack_support_sketch(data: bytes) -> SupportSketch:
    """Decode a support-sketch payload (checksums verified first)."""
    return _support_from_envelope(
        read_envelope(data, expect_kind=KIND_SUPPORT_SKETCH)
    )


def pack_partition_sketch(
    sketch: PartitionSketch, model: PartitionModel
) -> bytes:
    """Encode a partition sketch together with its inducing model.

    ``model`` must be the dt- or cluster-model whose structure the
    sketch counts -- the receiver rebuilds the structure from it. A
    sketch over a GCR overlay (or any structure without an inducing
    model) cannot travel; ship the two originals instead.
    """
    return partition_sketch_packer(model)(sketch)


def partition_sketch_packer(
    model: PartitionModel,
) -> Callable[[PartitionSketch], bytes]:
    """:func:`pack_partition_sketch` with ``model`` encoded once.

    The returned function packs any sketch over ``model``'s structure
    to the same bytes, reusing one model section: a caller that packs
    many sketches of one reference (a checkpoint's window ring) skips
    re-encoding the model per sketch.
    """
    if not isinstance(model, (DtModel, ClusterModel)):
        raise InvalidParameterError(
            f"a partition sketch ships with its inducing dt- or "
            f"cluster-model, got {type(model).__name__}"
        )
    model_payload = pack_model(model)
    key = model.structure.counts_key

    def packer(sketch: PartitionSketch) -> bytes:
        if sketch.key != key:
            raise InvalidParameterError(
                "model structure does not match the sketch: the sketch "
                "counts a different partition (GCR-overlay sketches have "
                "no inducing model and are not packable -- ship the "
                "original sketches)"
            )
        meta = pack_json({"n_rows": sketch.n_rows})
        counts = pack_array(np.asarray(sketch.counts, dtype=np.int64))
        return pack_envelope(
            KIND_PARTITION_SKETCH,
            [("meta", meta), ("model", model_payload), ("counts", counts)],
        )

    return packer


def _partition_from_envelope(
    envelope: Envelope,
) -> tuple[PartitionSketch, PartitionModel]:
    meta_payload, model_payload, counts_payload = envelope.expect(
        _PARTITION_SECTIONS
    )
    meta = unpack_json_object(meta_payload, "meta", ("n_rows",))
    try:
        n_rows = int(meta["n_rows"])
    except (OverflowError, TypeError, ValueError) as exc:
        raise WireFormatError(
            f"partition-sketch metadata is invalid: {exc}", section="meta"
        ) from None
    if n_rows < 0:
        raise WireFormatError("n_rows must be >= 0", section="meta")
    # the nested envelope goes through read_envelope like any payload,
    # so the model section is CRC-verified twice: outer and inner
    model = model_from_envelope(read_envelope(model_payload))
    if not isinstance(model, (DtModel, ClusterModel)):
        raise WireFormatError(
            f"a partition sketch must embed a dt- or cluster-model, "
            f"found a {type(model).__name__}",
            section="model",
        )
    structure = model.structure
    counts = _counts_from_payload(
        counts_payload, len(structure.regions), n_rows, "structure regions"
    )
    return PartitionSketch(structure, counts, n_rows), model


def unpack_partition_sketch(data: bytes) -> PartitionSketch:
    """Decode a partition-sketch payload (checksums verified first)."""
    sketch, _ = _partition_from_envelope(
        read_envelope(data, expect_kind=KIND_PARTITION_SKETCH)
    )
    return sketch


def unpack_partition_payload(
    data: bytes,
) -> tuple[PartitionSketch, PartitionModel]:
    """Decode a partition-sketch payload *and* its embedded model.

    The federated comparer wants both: the sketch for exact counts, the
    model for structure/bound bookkeeping.
    """
    return _partition_from_envelope(
        read_envelope(data, expect_kind=KIND_PARTITION_SKETCH)
    )
