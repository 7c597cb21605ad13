"""Golden-file suite: the committed v1 payloads are frozen.

The fixtures under ``golden/`` were written once by ``make_golden.py``
from the hand-built objects in ``golden_objects.py`` and committed.
These tests pin three promises against those bytes:

* **stability** -- today's ``unpack`` decodes yesterday's payloads to
  exactly the objects that produced them (a format change cannot slip
  through: the committed bytes never regenerate on CI);
* **determinism** -- repacking the decoded object, or packing a freshly
  built equal object, reproduces the committed bytes byte-for-byte;
* **refusal** -- a payload from a future format version, or with an
  unknown kind tag, raises a typed ``WireFormatError`` naming the
  header, instead of being misparsed into garbage counts.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import golden_objects as g
import numpy as np
import pytest

from repro.data.model_io import (
    cluster_model_to_dict,
    dt_model_to_dict,
    lits_model_to_dict,
)
from repro.errors import WireFormatError
from repro.wire import (
    kind_of,
    pack,
    payload_info,
    unpack,
    unpack_partition_payload,
)

GOLDEN = Path(__file__).parent / "golden"
EXPECTED = json.loads((GOLDEN / "expected.json").read_text())

#: fixture file -> (builder of the equal object, its pack() kwargs)
BUILDERS = {
    "lits_model.bin": (g.lits_model, {}),
    "support_sketch.bin": (g.support_sketch, {}),
    "dt_model.bin": (g.dt_model, {}),
    "cluster_model.bin": (g.cluster_model, {}),
    "partition_sketch_dt.bin": (
        g.dt_partition_sketch,
        {"model": g.dt_model},
    ),
    "partition_sketch_cluster.bin": (
        g.cluster_partition_sketch,
        {"model": g.cluster_model},
    ),
}


def _golden_bytes(name: str) -> bytes:
    return (GOLDEN / name).read_bytes()


def _repack(name: str) -> bytes:
    builder, kwargs = BUILDERS[name]
    return pack(builder(), **{k: v() for k, v in kwargs.items()})


class TestCommittedBytes:
    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_fixture_is_intact(self, name):
        payload = _golden_bytes(name)
        assert hashlib.sha256(payload).hexdigest() == EXPECTED[name]["sha256"]
        assert len(payload) == EXPECTED[name]["total_bytes"]

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_payload_info_matches_manifest(self, name):
        info = payload_info(_golden_bytes(name))
        assert info["kind"] == EXPECTED[name]["kind"]
        assert info["version"] == 1
        assert info["sections"] == EXPECTED[name]["sections"]

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_fresh_pack_reproduces_committed_bytes(self, name):
        # equal objects -> byte-identical payloads, across sessions
        assert _repack(name) == _golden_bytes(name)


class TestDecode:
    def test_lits_model(self):
        model = unpack(_golden_bytes("lits_model.bin"))
        assert lits_model_to_dict(model) == lits_model_to_dict(g.lits_model())

    def test_support_sketch(self):
        sketch = unpack(_golden_bytes("support_sketch.bin"))
        assert sketch == g.support_sketch()
        assert sketch.n_transactions == 10

    def test_dt_model(self):
        model = unpack(_golden_bytes("dt_model.bin"))
        assert dt_model_to_dict(model) == dt_model_to_dict(g.dt_model())
        # the unbounded attribute survives the signed-"inf" encoding
        score = model.tree.space.attribute("score")
        assert np.isinf(score.low) and score.low < 0
        assert np.isinf(score.high) and score.high > 0

    def test_cluster_model(self):
        model = unpack(_golden_bytes("cluster_model.bin"))
        assert cluster_model_to_dict(model) == cluster_model_to_dict(
            g.cluster_model()
        )

    @pytest.mark.parametrize(
        "name, sketch_builder, model_dict",
        [
            ("partition_sketch_dt.bin", g.dt_partition_sketch, dt_model_to_dict),
            (
                "partition_sketch_cluster.bin",
                g.cluster_partition_sketch,
                cluster_model_to_dict,
            ),
        ],
    )
    def test_partition_sketches(self, name, sketch_builder, model_dict):
        sketch, model = unpack_partition_payload(_golden_bytes(name))
        reference = sketch_builder()
        assert sketch == reference
        assert sketch.key == reference.key
        # the embedded model round-trips too
        builder = BUILDERS[name][1]["model"]
        assert model_dict(model) == model_dict(builder())

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_decode_then_repack_is_identity(self, name):
        payload = _golden_bytes(name)
        if name.startswith("partition_sketch"):
            sketch, model = unpack_partition_payload(payload)
            assert pack(sketch, model=model) == payload
        else:
            assert pack(unpack(payload)) == payload


    @pytest.mark.parametrize("buffer", [bytes, bytearray, memoryview])
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_every_bytes_like_input_decodes(self, name, buffer):
        # read_envelope is the one place the input type is normalised
        payload = _golden_bytes(name)
        if name.startswith("partition_sketch"):
            sketch, model = unpack_partition_payload(buffer(payload))
            assert pack(sketch, model=model) == payload
        else:
            assert pack(unpack(buffer(payload))) == payload
        assert payload_info(buffer(payload)) == payload_info(payload)


class TestRefusal:
    def test_future_version_is_rejected_not_guessed(self):
        payload = _golden_bytes("unknown_version.bin")
        with pytest.raises(WireFormatError, match="version 2") as info:
            unpack(payload)
        assert info.value.section == "header"
        with pytest.raises(WireFormatError, match="version 2"):
            kind_of(payload)

    def test_unknown_kind_is_rejected(self):
        payload = _golden_bytes("unknown_kind.bin")
        with pytest.raises(WireFormatError, match="kind code 9") as info:
            unpack(payload)
        assert info.value.section == "header"
        with pytest.raises(WireFormatError, match="kind code 9"):
            payload_info(payload)
