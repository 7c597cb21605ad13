"""repro.wire: the sketch-exchange wire format.

Compact, versioned, checksummed binary payloads for sketches and
reference models -- the serialization boundary that turns the fleet
subsystem federated: sites exchange kilobyte-scale payloads, and the
comparer (:meth:`repro.fleet.FleetDeviationMatrix.from_sketches`) never
sees a row.

Layering:

* :mod:`~repro.wire.format` -- the envelope: magic, version, kind tag,
  per-section CRC32. The single trust boundary
  (:func:`~repro.wire.format.read_envelope`).
* :mod:`~repro.wire.encoding` -- section payload primitives (arrays,
  JSON metadata, itemset tables).
* :mod:`~repro.wire.models` / :mod:`~repro.wire.sketches` -- per-kind
  codecs.
* :mod:`~repro.wire.api` -- one-call :func:`pack` / :func:`unpack` /
  :func:`payload_info`.

Malformed input raises :class:`repro.errors.WireFormatError` naming the
bad section; ``wire.bytes_packed`` / ``wire.payloads_unpacked`` /
``wire.checksum_failures`` / ``wire.itemset_tables_decoded`` (distinct
itemset tables decoded) counters tally through :mod:`repro.obs`.
"""

from repro.wire.api import WirePayload, pack, payload_info, unpack
from repro.wire.format import (
    KIND_CLUSTER_MODEL,
    KIND_DT_MODEL,
    KIND_LITS_MODEL,
    KIND_NAMES,
    KIND_PARTITION_SKETCH,
    KIND_SUPPORT_SKETCH,
    MAGIC,
    VERSION,
    Envelope,
    kind_of,
    pack_envelope,
    read_envelope,
)
from repro.wire.models import (
    WireModel,
    pack_cluster_model,
    pack_dt_model,
    pack_lits_model,
    pack_model,
    unpack_cluster_model,
    unpack_dt_model,
    unpack_lits_model,
    unpack_model,
)
from repro.wire.sketches import (
    pack_partition_sketch,
    pack_support_sketch,
    unpack_partition_payload,
    unpack_partition_sketch,
    unpack_support_sketch,
)

__all__ = [
    "Envelope",
    "KIND_CLUSTER_MODEL",
    "KIND_DT_MODEL",
    "KIND_LITS_MODEL",
    "KIND_NAMES",
    "KIND_PARTITION_SKETCH",
    "KIND_SUPPORT_SKETCH",
    "MAGIC",
    "VERSION",
    "WireModel",
    "WirePayload",
    "kind_of",
    "pack",
    "pack_cluster_model",
    "pack_dt_model",
    "pack_envelope",
    "pack_lits_model",
    "pack_model",
    "pack_partition_sketch",
    "pack_support_sketch",
    "payload_info",
    "read_envelope",
    "unpack",
    "unpack_cluster_model",
    "unpack_dt_model",
    "unpack_lits_model",
    "unpack_model",
    "unpack_partition_payload",
    "unpack_partition_sketch",
    "unpack_support_sketch",
]
