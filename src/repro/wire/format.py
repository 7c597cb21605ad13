"""The sketch-exchange envelope: versioned, checksummed, little-endian.

Every payload :mod:`repro.wire` emits is one *envelope*::

    magic "RPRW" | version u16 | kind u8 | n_sections u8 | section*

and every section is length-prefixed and individually checksummed::

    name_len u8 | name (ascii) | payload_len u64 | payload | crc32 u32

with the CRC32 computed over the section's *entire* prefix (name length,
name, payload length, payload) so a bit flip anywhere inside a section
-- including its framing -- fails that section's checksum, and a swap of
two section bodies fails both. All integers are little-endian.

Design rules the test suites pin:

* **versioned** -- the version is rejected, not ignored, when it is not
  one this reader implements; an old reader never misparses a future
  payload as garbage counts.
* **kind-tagged** -- the payload says what it is; decoding a partition
  sketch as a support sketch is impossible by construction.
* **verify before construct** -- :func:`read_envelope` checks magic,
  version, kind, framing, and every section CRC *before* any caller
  sees a byte of payload (reprolint rule RL009 enforces that unpackers
  go through it).
* **canonical order** -- each kind fixes its section names *and their
  order* (:meth:`Envelope.expect`), which both rejects section-swapped
  payloads and makes ``pack`` deterministic: equal objects produce
  byte-identical payloads.

Failures raise :class:`~repro.errors.WireFormatError` naming the bad
section (``error.section``); checksum failures additionally increment
the ``wire.checksum_failures`` counter. Successful packs and unpacks
tally ``wire.bytes_packed`` and ``wire.payloads_unpacked``.
"""

from __future__ import annotations

import struct
import zlib
from typing import Sequence

from repro.errors import WireFormatError
from repro.obs import metrics

#: Wire magic: "RePRo Wire". A payload not starting with it is not ours.
MAGIC = b"RPRW"

#: The format version this module reads and writes.
VERSION = 1

#: Kind tags (u8). New kinds append; existing codes are frozen forever.
KIND_SUPPORT_SKETCH = 1
KIND_PARTITION_SKETCH = 2
KIND_LITS_MODEL = 3
KIND_DT_MODEL = 4
KIND_CLUSTER_MODEL = 5

#: kind code -> human name, for error messages and the CLI.
KIND_NAMES: dict[int, str] = {
    KIND_SUPPORT_SKETCH: "support-sketch",
    KIND_PARTITION_SKETCH: "partition-sketch",
    KIND_LITS_MODEL: "lits-model",
    KIND_DT_MODEL: "dt-model",
    KIND_CLUSTER_MODEL: "cluster-model",
}

_HEADER = struct.Struct("<4sHBB")  # magic, version, kind, n_sections
_SECTION_LEN = struct.Struct("<Q")
_CRC = struct.Struct("<I")

#: Section names are short ascii identifiers; 255 is the u8 ceiling.
_MAX_NAME_LEN = 255
_MAX_SECTIONS = 255


def _crc32(chunks: Sequence[bytes]) -> int:
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    return crc & 0xFFFFFFFF


class Envelope:
    """A decoded envelope: kind, version, and the ordered sections.

    Instances only come out of :func:`read_envelope`, so holding one
    certifies that the header parsed, the kind is known, and every
    section passed its CRC and framing checks.
    """

    __slots__ = ("kind", "version", "sections")

    def __init__(
        self,
        kind: int,
        version: int,
        sections: tuple[tuple[str, bytes], ...],
    ) -> None:
        self.kind = kind
        self.version = version
        self.sections = sections

    @property
    def kind_name(self) -> str:
        return KIND_NAMES.get(self.kind, f"kind-{self.kind}")

    def expect(self, names: Sequence[str]) -> tuple[bytes, ...]:
        """The section payloads, after enforcing the exact name *order*.

        Each kind's codec declares its canonical section sequence; a
        payload whose sections are missing, extra, renamed, or reordered
        is rejected here -- which is what turns a section swap into a
        loud :class:`WireFormatError` instead of transposed counts.
        """
        got = tuple(name for name, _ in self.sections)
        if got != tuple(names):
            raise WireFormatError(
                f"{self.kind_name} payload carries sections {list(got)}, "
                f"expected exactly {list(names)} in that order",
                section=next(
                    (g for g, n in zip(got, names) if g != n),
                    got[len(names)] if len(got) > len(names) else None,
                ),
            )
        return tuple(payload for _, payload in self.sections)


def pack_envelope(kind: int, sections: Sequence[tuple[str, bytes]]) -> bytes:
    """Frame the sections into one versioned, checksummed payload."""
    if kind not in KIND_NAMES:
        raise WireFormatError(f"unknown wire kind code {kind}")
    if len(sections) > _MAX_SECTIONS:
        raise WireFormatError(
            f"an envelope holds at most {_MAX_SECTIONS} sections, "
            f"got {len(sections)}"
        )
    out = [_HEADER.pack(MAGIC, VERSION, kind, len(sections))]
    for name, payload in sections:
        encoded = name.encode("ascii")
        if not 0 < len(encoded) <= _MAX_NAME_LEN:
            raise WireFormatError(
                f"section name {name!r} must be 1-{_MAX_NAME_LEN} ascii bytes",
                section=name,
            )
        prefix = bytes([len(encoded)]) + encoded + _SECTION_LEN.pack(len(payload))
        out.append(prefix)
        out.append(payload)
        out.append(_CRC.pack(_crc32((prefix, payload))))
    data = b"".join(out)
    metrics().inc("wire.bytes_packed", len(data))
    return data


def _read_header(data: bytes) -> tuple[int, int, int]:
    """(version, kind, n_sections) after magic/version/kind checks."""
    if len(data) < _HEADER.size:
        raise WireFormatError(
            f"payload of {len(data)} bytes is shorter than the "
            f"{_HEADER.size}-byte envelope header",
            section="header",
        )
    magic, version, kind, n_sections = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise WireFormatError(
            f"bad magic {magic!r}: not a repro wire payload "
            f"(expected {MAGIC!r})",
            section="header",
        )
    if version != VERSION:
        raise WireFormatError(
            f"unsupported wire format version {version}; this reader "
            f"implements version {VERSION} -- refusing to guess at a "
            "future layout",
            section="header",
        )
    if kind not in KIND_NAMES:
        raise WireFormatError(
            f"unknown wire kind code {kind}; known kinds are "
            f"{sorted(KIND_NAMES)} ({', '.join(KIND_NAMES.values())})",
            section="header",
        )
    return version, kind, n_sections


def kind_of(data: bytes) -> int:
    """The payload's kind code, from the header alone (fully validated)."""
    _, kind, _ = _read_header(data)
    return kind


def read_envelope(data: bytes, *, expect_kind: int | None = None) -> Envelope:
    """Parse and verify a payload: header, framing, and every section CRC.

    This is the single trust boundary of the wire format: nothing
    constructs an object from payload bytes without the bytes having
    passed through here first. Any malformation -- truncation, trailing
    garbage, a failing checksum, an unexpected kind -- raises
    :class:`WireFormatError` before a caller sees section data. Any
    bytes-like input is read as ``bytes``, so every section payload a
    decoder sees is ``bytes`` too (a ``memoryview`` slice has no
    ``decode``).
    """
    data = bytes(data)
    version, kind, n_sections = _read_header(data)
    if expect_kind is not None and kind != expect_kind:
        raise WireFormatError(
            f"expected a {KIND_NAMES[expect_kind]} payload, got "
            f"{KIND_NAMES[kind]}",
            section="header",
        )
    offset = _HEADER.size
    sections: list[tuple[str, bytes]] = []
    for index in range(n_sections):
        where = f"section {index}"
        if offset + 1 > len(data):
            raise WireFormatError(
                f"payload truncated before {where}'s name length",
                section=where,
            )
        name_len = data[offset]
        name_end = offset + 1 + name_len
        if name_len == 0 or name_end > len(data):
            raise WireFormatError(
                f"payload truncated inside {where}'s name", section=where
            )
        try:
            name = data[offset + 1 : name_end].decode("ascii")
        except UnicodeDecodeError:
            raise WireFormatError(
                f"{where} name is not ascii", section=where
            ) from None
        len_end = name_end + _SECTION_LEN.size
        if len_end > len(data):
            raise WireFormatError(
                f"payload truncated inside section {name!r}'s length prefix",
                section=name,
            )
        (payload_len,) = _SECTION_LEN.unpack_from(data, name_end)
        body_end = len_end + payload_len
        crc_end = body_end + _CRC.size
        if crc_end > len(data):
            raise WireFormatError(
                f"payload truncated inside section {name!r} "
                f"(declared {payload_len} payload bytes)",
                section=name,
            )
        payload = data[len_end:body_end]
        (stored_crc,) = _CRC.unpack_from(data, body_end)
        computed = _crc32((data[offset:len_end], payload))
        if stored_crc != computed:
            metrics().inc("wire.checksum_failures")
            raise WireFormatError(
                f"checksum mismatch in section {name!r}: stored "
                f"{stored_crc:#010x}, computed {computed:#010x} -- the "
                "payload is corrupted",
                section=name,
            )
        sections.append((name, payload))
        offset = crc_end
    if offset != len(data):
        raise WireFormatError(
            f"{len(data) - offset} trailing bytes after the last section",
            section="trailer",
        )
    metrics().inc("wire.payloads_unpacked")
    return Envelope(kind, version, tuple(sections))
