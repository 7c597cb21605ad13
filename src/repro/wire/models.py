"""Model codecs: lits-, dt-, and cluster-models on the wire.

The delta* workflow keeps mined models around ("which will probably fit
in main memory, unlike the datasets"); these codecs put them *on the
wire* in the same envelope sketches travel in, so a federated site ships
its model + sketch as two small verified payloads.

Layouts (section order is canonical per kind; see
:meth:`repro.wire.format.Envelope.expect`):

* **lits-model** -- ``meta`` (min_support, n_items JSON), the itemset
  table (``sizes``/``items`` int64 arrays), and the aligned ``supports``
  float64 array. Binary-exact: supports travel as raw float64, not
  decimal strings.
* **dt-model** / **cluster-model** -- one ``model`` JSON section holding
  the canonical dict form shared with :mod:`repro.data.model_io` (floats
  round-trip exactly through JSON repr). Trees and grids are small and
  irregular; JSON-in-envelope keeps one canonical form while still
  getting versioning + CRC from the frame.

:func:`unpack_model` dispatches on the envelope's kind tag; every byte
is CRC-verified by :func:`~repro.wire.format.read_envelope` before any
model object is constructed.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.core.cluster_model import ClusterModel
from repro.core.dtree_model import DtModel
from repro.core.lits import LitsModel
from repro.data.model_io import (
    cluster_model_from_dict,
    cluster_model_to_dict,
    dt_model_from_dict,
    dt_model_to_dict,
)
from repro.errors import InvalidParameterError, WireFormatError
from repro.wire.encoding import (
    itemset_sections,
    itemsets_from_sections,
    pack_array,
    pack_json,
    unpack_array,
    unpack_json_object,
)
from repro.wire.format import (
    KIND_CLUSTER_MODEL,
    KIND_DT_MODEL,
    KIND_LITS_MODEL,
    Envelope,
    pack_envelope,
    read_envelope,
)

#: The model classes the wire knows how to carry.
WireModel = Union[LitsModel, DtModel, ClusterModel]

_LITS_SECTIONS = ("meta", "sizes", "items", "supports")
_DICT_SECTIONS = ("model",)


def pack_lits_model(model: LitsModel) -> bytes:
    """Encode a lits-model (binary-exact supports)."""
    itemsets = model.itemsets
    supports = np.array(
        [model.supports[s] for s in itemsets], dtype=np.float64
    )
    sizes, items = itemset_sections(itemsets)
    meta = pack_json(
        {"min_support": model.min_support, "n_items": model.n_items}
    )
    return pack_envelope(
        KIND_LITS_MODEL,
        [
            ("meta", meta),
            ("sizes", sizes),
            ("items", items),
            ("supports", pack_array(supports)),
        ],
    )


def _lits_from_envelope(envelope: Envelope) -> LitsModel:
    meta_payload, sizes, items, supports_payload = envelope.expect(
        _LITS_SECTIONS
    )
    meta = unpack_json_object(
        meta_payload, "meta", ("min_support", "n_items")
    )
    itemsets = itemsets_from_sections(sizes, items)
    supports = unpack_array(supports_payload, "supports")
    if supports.shape != (len(itemsets),):
        raise WireFormatError(
            f"supports array of shape {supports.shape} does not align "
            f"with the {len(itemsets)} itemsets",
            section="supports",
        )
    try:
        return LitsModel._from_canonical(
            itemsets,
            supports.astype(np.float64).tolist(),
            float(meta["min_support"]),
            int(meta["n_items"]),
        )
    except (InvalidParameterError, TypeError, ValueError) as exc:
        raise WireFormatError(
            f"lits-model metadata is invalid: {exc}", section="meta"
        ) from None


def unpack_lits_model(data: bytes) -> LitsModel:
    """Decode a lits-model payload (checksums verified first)."""
    return _lits_from_envelope(
        read_envelope(data, expect_kind=KIND_LITS_MODEL)
    )


def pack_dt_model(model: DtModel) -> bytes:
    """Encode a dt-model (canonical dict form in one JSON section)."""
    return pack_envelope(
        KIND_DT_MODEL, [("model", pack_json(dt_model_to_dict(model)))]
    )


def _dt_from_envelope(envelope: Envelope) -> DtModel:
    (payload,) = envelope.expect(_DICT_SECTIONS)
    obj = unpack_json_object(payload, "model", ("kind", "space", "root"))
    try:
        return dt_model_from_dict(obj)
    except (InvalidParameterError, KeyError, TypeError, ValueError) as exc:
        raise WireFormatError(
            f"dt-model payload is malformed: {exc!r}", section="model"
        ) from None


def unpack_dt_model(data: bytes) -> DtModel:
    """Decode a dt-model payload (checksums verified first)."""
    return _dt_from_envelope(read_envelope(data, expect_kind=KIND_DT_MODEL))


def pack_cluster_model(model: ClusterModel) -> bytes:
    """Encode a cluster-model (canonical dict form in one JSON section)."""
    return pack_envelope(
        KIND_CLUSTER_MODEL,
        [("model", pack_json(cluster_model_to_dict(model)))],
    )


def _cluster_from_envelope(envelope: Envelope) -> ClusterModel:
    (payload,) = envelope.expect(_DICT_SECTIONS)
    obj = unpack_json_object(
        payload,
        "model",
        (
            "kind",
            "space",
            "attributes",
            "cuts",
            "densities",
            "dense_cells",
            "cluster_of_cell",
            "n_clusters",
        ),
    )
    try:
        return cluster_model_from_dict(obj)
    except (InvalidParameterError, KeyError, TypeError, ValueError) as exc:
        raise WireFormatError(
            f"cluster-model payload is malformed: {exc!r}", section="model"
        ) from None


def unpack_cluster_model(data: bytes) -> ClusterModel:
    """Decode a cluster-model payload (checksums verified first)."""
    return _cluster_from_envelope(
        read_envelope(data, expect_kind=KIND_CLUSTER_MODEL)
    )


def pack_model(model: WireModel) -> bytes:
    """Encode any reference model, dispatching on its class."""
    if isinstance(model, LitsModel):
        return pack_lits_model(model)
    if isinstance(model, DtModel):
        return pack_dt_model(model)
    if isinstance(model, ClusterModel):
        return pack_cluster_model(model)
    raise InvalidParameterError(
        f"{type(model).__name__} is not a wire-packable model "
        "(expected LitsModel, DtModel, or ClusterModel)"
    )


def model_from_envelope(envelope: Envelope) -> WireModel:
    """Decode a model from an already-verified envelope."""
    if envelope.kind == KIND_LITS_MODEL:
        return _lits_from_envelope(envelope)
    if envelope.kind == KIND_DT_MODEL:
        return _dt_from_envelope(envelope)
    if envelope.kind == KIND_CLUSTER_MODEL:
        return _cluster_from_envelope(envelope)
    raise WireFormatError(
        f"payload is a {envelope.kind_name}, not a model", section="header"
    )


def unpack_model(data: bytes) -> WireModel:
    """Decode any model payload, dispatching on the verified kind tag."""
    return model_from_envelope(read_envelope(data))
