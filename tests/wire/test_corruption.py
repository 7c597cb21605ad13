"""Corruption fuzz: every mangled payload is rejected, loudly and typed.

A federated comparer consumes bytes from the network; the one outcome
the wire format must never produce is a *silently wrong* object. These
tests mangle valid payloads three ways and demand a
:class:`~repro.errors.WireFormatError` (never a crash, never success)
that names the offending section:

* truncation at **every** byte offset, for every golden fixture;
* single-bit flips (every byte position, plus random bits under
  Hypothesis) -- CRC32 detects all single-bit errors by construction;
* whole-section swaps and renames -- the per-kind canonical section
  order turns a transposed payload into an error, not transposed
  counts;
* CRC-valid values out of range -- a support that is NaN, infinite or
  outside [0, 1], an item outside the payload's ``n_items`` universe.

A ``bytearray`` payload decodes exactly as its ``bytes`` do, and is
rejected the same way when mangled.
"""

from __future__ import annotations

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden_objects as g
from repro.core.lits import LitsModel
from repro.errors import WireFormatError
from repro.obs import MetricsRegistry, use_registry
from repro.stream.sketch import SupportSketch
from repro.wire import pack, pack_envelope, read_envelope, unpack
from repro.wire.encoding import pack_array, pack_json

FIXTURES = {
    "lits_model": lambda: pack(g.lits_model()),
    "support_sketch": lambda: pack(g.support_sketch()),
    "dt_model": lambda: pack(g.dt_model()),
    "cluster_model": lambda: pack(g.cluster_model()),
    "partition_sketch": lambda: pack(
        g.dt_partition_sketch(), model=g.dt_model()
    ),
}


def _assert_rejected(payload: bytes) -> WireFormatError:
    with pytest.raises(WireFormatError) as info:
        unpack(payload)
    return info.value


class TestTruncation:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_every_prefix_is_rejected(self, name):
        payload = FIXTURES[name]()
        for cut in range(len(payload)):
            error = _assert_rejected(payload[:cut])
            assert error.section is not None, (
                f"{name} truncated at {cut}: error names no section"
            )

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_trailing_garbage_is_rejected(self, name):
        error = _assert_rejected(FIXTURES[name]() + b"\x00")
        assert error.section == "trailer"


class TestBitFlips:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_one_flip_per_byte_is_rejected(self, name):
        payload = FIXTURES[name]()
        for offset in range(len(payload)):
            flipped = bytearray(payload)
            flipped[offset] ^= 1 << (offset % 8)
            error = _assert_rejected(bytes(flipped))
            assert error.section is not None, (
                f"{name} flipped at byte {offset}: error names no section"
            )

    @given(
        name=st.sampled_from(sorted(FIXTURES)),
        position=st.integers(min_value=0),
        bit=st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_flip_is_rejected(self, name, position, bit):
        payload = bytearray(FIXTURES[name]())
        payload[position % len(payload)] ^= 1 << bit
        _assert_rejected(bytes(payload))

    def test_checksum_failure_is_counted(self):
        payload = bytearray(FIXTURES["lits_model"]())
        payload[-10] ^= 0x40  # inside the last section's body
        registry = MetricsRegistry()
        with use_registry(registry):
            error = _assert_rejected(bytes(payload))
        assert "checksum mismatch" in str(error)
        counters = registry.snapshot()["counters"]
        assert counters.get("wire.checksum_failures", 0) >= 1


class TestSectionTampering:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_any_section_swap_is_rejected(self, name):
        payload = FIXTURES[name]()
        envelope = read_envelope(payload)
        sections = list(envelope.sections)
        if len(sections) < 2:
            pytest.skip("single-section payload: nothing to swap")
        for i in range(len(sections)):
            for j in range(i + 1, len(sections)):
                swapped = list(sections)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                # re-framed with valid CRCs: only the canonical order
                # check can catch this
                error = _assert_rejected(
                    pack_envelope(envelope.kind, swapped)
                )
                assert error.section in {
                    sections[i][0], sections[j][0]
                }, f"{name}: swap ({i},{j}) blamed {error.section!r}"

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_renamed_section_is_rejected(self, name):
        payload = FIXTURES[name]()
        envelope = read_envelope(payload)
        sections = list(envelope.sections)
        sections[0] = ("bogus", sections[0][1])
        error = _assert_rejected(pack_envelope(envelope.kind, sections))
        assert error.section == "bogus"

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_dropped_section_is_rejected(self, name):
        payload = FIXTURES[name]()
        envelope = read_envelope(payload)
        _assert_rejected(pack_envelope(envelope.kind, envelope.sections[1:]))

    def test_cross_kind_body_transplant_is_rejected(self):
        # a support-sketch's sections framed under the lits-model kind:
        # every CRC passes, but "counts" is not a lits section
        sketch_envelope = read_envelope(FIXTURES["support_sketch"]())
        model_envelope = read_envelope(FIXTURES["lits_model"]())
        error = _assert_rejected(
            pack_envelope(model_envelope.kind, sketch_envelope.sections)
        )
        assert error.section == "counts"


class TestBytesLike:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_bytearray_payload_decodes_like_bytes(self, name):
        payload = FIXTURES[name]()
        model = {"model": g.dt_model()} if name == "partition_sketch" else {}
        assert pack(unpack(bytearray(payload)), **model) == payload
        flipped = bytearray(payload)
        flipped[-1] ^= 1
        _assert_rejected(flipped)


class TestValueRanges:
    """CRC-valid payloads whose values no honest producer emits."""

    @staticmethod
    def _reframed(payload: bytes, **replace: bytes) -> bytes:
        envelope = read_envelope(payload)
        return pack_envelope(
            envelope.kind,
            [(name, replace.get(name, body))
             for name, body in envelope.sections],
        )

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), -float("inf"), -3.0, 7.0]
    )
    def test_support_outside_unit_interval_is_rejected(self, bad):
        model = g.lits_model()
        supports = np.array([model.supports[s] for s in model.itemsets])
        supports[1] = bad
        error = _assert_rejected(self._reframed(
            FIXTURES["lits_model"](), supports=pack_array(supports)
        ))
        assert error.section == "supports"

    def test_item_outside_the_model_universe_is_rejected(self):
        model = LitsModel(
            {frozenset({1}): 0.5, frozenset({50}): 0.25},
            min_support=0.2, n_items=10,
        )
        error = _assert_rejected(pack(model))
        assert error.section == "items"

    def test_item_outside_the_sketch_universe_is_rejected(self):
        sketch = SupportSketch(
            [frozenset({0}), frozenset({99})], np.array([3, 1]), 10, 5
        )
        error = _assert_rejected(pack(sketch))
        assert error.section == "items"

    @pytest.mark.parametrize("name", ["lits_model", "support_sketch"])
    def test_top_item_at_the_universe_edge_is_rejected(self, name):
        # the fixtures' largest item is 2: a 2-item universe refuses it,
        # a 3-item one accepts it
        payload = FIXTURES[name]()
        meta = json.loads(dict(read_envelope(payload).sections)["meta"])
        for n_items, ok in ((2, False), (3, True)):
            meta["n_items"] = n_items
            edited = self._reframed(payload, meta=pack_json(meta))
            if ok:
                assert unpack(edited).n_items == n_items
            else:
                assert _assert_rejected(edited).section == "items"

    @pytest.mark.parametrize("name, field", [
        ("lits_model", b'"n_items":5'),
        ("support_sketch", b'"n_items":5'),
        ("partition_sketch", b'"n_rows":8'),
    ])
    def test_infinite_count_is_a_meta_error(self, name, field):
        # json.loads accepts Infinity; int() of it overflows
        payload = FIXTURES[name]()
        meta = dict(read_envelope(payload).sections)["meta"]
        edited = meta.replace(field, field.split(b":")[0] + b":Infinity")
        assert edited != meta
        error = _assert_rejected(self._reframed(payload, meta=edited))
        assert error.section == "meta"

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_infinity_in_any_json_number_is_typed(self, name):
        # every integer literal of every JSON section, in turn
        payload = FIXTURES[name]()
        for section, body in read_envelope(payload).sections:
            if not body.startswith(b"{"):
                continue
            for match in re.finditer(rb"(?<=[\[,:])\d+(?=[,\]}])", body):
                edited = self._reframed(payload, **{
                    section: body[:match.start()] + b"Infinity"
                    + body[match.end():]
                })
                try:
                    unpack(edited)
                except WireFormatError:
                    pass
