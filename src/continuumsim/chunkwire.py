"""Chunked transfer protocol: fragmentation, JSON envelopes, reassembly.

An image payload is split into fixed-size segments. Each segment travels as a
self-describing JSON envelope carrying a CRC-32 of the raw segment bytes; a
leading metadata message announces the transfer (total size, chunk count,
whole-payload CRC). The receiver accepts chunks in any order, tolerates
duplicates, and only reports COMPLETE once every sequence number is present
and the full-payload CRC matches.

Checksums are CRC-32/ISO-HDLC (the zlib/PNG polynomial, reflected, init and
final xor 0xFFFFFFFF), which gives the well-known check value 0xCBF43926 for
the ASCII bytes "123456789".

Every wire message is compact JSON (``encode_object``). A chunk envelope is
written by filling one ``%``-format template, whose output is byte-identical
to ``encode_object`` on the same fields: wire size feeds the fitted link
bandwidth. A receiver parses a message once (``parse_object``) and hands the
dict to the decoder of its type; ``decode_upload`` does that for the far
edge's meta and chunk messages. Decoders check a message's exact key set
with one set comparison and work out which key is missing or unknown only
when that fails.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .domain import MIN_CHUNK_SIZE


class ChunkError(Exception):
    """Base class for protocol errors."""


class EmptyPayload(ChunkError):
    pass


class ChunkSizeTooSmall(ChunkError):
    pass


class MalformedJson(ChunkError):
    pass


class MissingField(ChunkError):
    def __init__(self, name: str):
        super().__init__(f"missing field: {name}")
        self.name = name


class UnknownField(ChunkError):
    pass


class Base64Error(ChunkError):
    pass


def crc32(data: bytes) -> int:
    """CRC-32/ISO-HDLC of ``data`` as an unsigned 32-bit integer."""
    return binascii.crc32(data) & 0xFFFFFFFF


@dataclass(frozen=True)
class TransferMetadata:
    image_id: str
    total_bytes: int
    total_chunks: int
    chunk_size_bytes: int
    crc32_full: int
    width_px: int
    height_px: int
    format: str

    def __post_init__(self) -> None:
        if self.total_bytes < 1:
            raise ValueError("total_bytes must be >= 1")
        expected = math.ceil(self.total_bytes / self.chunk_size_bytes)
        if self.total_chunks != expected:
            raise ValueError("total_chunks inconsistent with total_bytes")


@dataclass(frozen=True)
class ChunkEnvelope:
    image_id: str
    seq: int
    total_chunks: int
    payload_len: int
    payload_b64: str
    crc32_chunk: int
    # The bytes ``payload_b64`` decodes to, once ``decode_envelope`` has
    # checked them, so that reassembly does not decode them again. Not part
    # of the envelope's value, and not copied by ``dataclasses.replace``.
    decoded: Optional[bytes] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not 0 <= self.seq < self.total_chunks:
            raise ValueError("seq out of range")
        if self.payload_len < 1:
            raise ValueError("payload_len must be >= 1")

    def payload(self) -> bytes:
        try:
            raw = base64.b64decode(self.payload_b64, validate=True)
        except (binascii.Error, ValueError, TypeError) as exc:
            raise Base64Error(str(exc)) from None
        return raw


def fragment(
    payload: bytes,
    image_id: str,
    chunk_size: int,
    image_dims: tuple[int, int],
    format: str,
) -> tuple[TransferMetadata, list[ChunkEnvelope]]:
    """Split ``payload`` into envelopes of at most ``chunk_size`` raw bytes.

    Every chunk except possibly the last is exactly ``chunk_size`` bytes, and
    decoding the envelopes in sequence order reproduces the payload.
    """
    if len(payload) < 1:
        raise EmptyPayload("payload must be at least 1 byte")
    if chunk_size < MIN_CHUNK_SIZE:
        raise ChunkSizeTooSmall(f"chunk_size must be >= {MIN_CHUNK_SIZE}")
    total_chunks = math.ceil(len(payload) / chunk_size)
    meta = TransferMetadata(
        image_id=image_id,
        total_bytes=len(payload),
        total_chunks=total_chunks,
        chunk_size_bytes=chunk_size,
        crc32_full=crc32(payload),
        width_px=image_dims[0],
        height_px=image_dims[1],
        format=format,
    )
    envelopes = []
    for seq in range(total_chunks):
        raw = payload[seq * chunk_size:(seq + 1) * chunk_size]
        envelopes.append(ChunkEnvelope(
            image_id=image_id,
            seq=seq,
            total_chunks=total_chunks,
            payload_len=len(raw),
            payload_b64=base64.b64encode(raw).decode("ascii"),
            crc32_chunk=crc32(raw),
        ))
    return meta, envelopes


class ReassemblyState(Enum):
    AWAITING = "AWAITING"
    INCOMPLETE = "INCOMPLETE"
    COMPLETE = "COMPLETE"
    FAILED = "FAILED"


class ReassemblyStatus(Enum):
    ACCEPTED = "ACCEPTED"
    DUPLICATE = "DUPLICATE"
    COMPLETE = "COMPLETE"
    ID_MISMATCH = "ID_MISMATCH"
    SEQ_OUT_OF_RANGE = "SEQ_OUT_OF_RANGE"
    CHUNK_CRC_MISMATCH = "CHUNK_CRC_MISMATCH"
    LENGTH_MISMATCH = "LENGTH_MISMATCH"
    FULL_CRC_MISMATCH = "FULL_CRC_MISMATCH"
    ALREADY_FAILED = "ALREADY_FAILED"


@dataclass
class ReassemblySession:
    """Receiver-side state for one transfer. Single-owner: exactly one
    activity may feed it."""

    metadata: TransferMetadata
    chunks: dict[int, bytes] = field(default_factory=dict)
    state: ReassemblyState = ReassemblyState.AWAITING
    payload: Optional[bytes] = None

    def accept(self, env: ChunkEnvelope) -> ReassemblyStatus:
        """Feed one envelope. Duplicates are no-ops; a chunk whose CRC fails
        is discarded (retransmission is the sender's concern); a full-payload
        CRC failure is unrecoverable and latches the FAILED state."""
        if self.state is ReassemblyState.FAILED:
            return ReassemblyStatus.ALREADY_FAILED
        if env.image_id != self.metadata.image_id:
            return ReassemblyStatus.ID_MISMATCH
        if not 0 <= env.seq < self.metadata.total_chunks:
            return ReassemblyStatus.SEQ_OUT_OF_RANGE
        if self.state is ReassemblyState.COMPLETE or env.seq in self.chunks:
            return ReassemblyStatus.DUPLICATE
        raw = env.decoded if env.decoded is not None else env.payload()
        if len(raw) != env.payload_len:
            return ReassemblyStatus.LENGTH_MISMATCH
        if crc32(raw) != env.crc32_chunk:
            return ReassemblyStatus.CHUNK_CRC_MISMATCH
        self.chunks[env.seq] = raw
        if len(self.chunks) < self.metadata.total_chunks:
            self.state = ReassemblyState.INCOMPLETE
            return ReassemblyStatus.ACCEPTED
        assembled = b"".join(self.chunks[i] for i in range(self.metadata.total_chunks))
        if len(assembled) != self.metadata.total_bytes:
            self.state = ReassemblyState.FAILED
            return ReassemblyStatus.LENGTH_MISMATCH
        if crc32(assembled) != self.metadata.crc32_full:
            self.state = ReassemblyState.FAILED
            return ReassemblyStatus.FULL_CRC_MISMATCH
        self.payload = assembled
        self.state = ReassemblyState.COMPLETE
        return ReassemblyStatus.COMPLETE


# Wire field names are part of the protocol contract and must not drift.
_CHUNK_KEYS = ("msg_type", "image_id", "seq", "total_chunks",
               "payload_len", "payload_b64", "crc32_chunk")
_META_KEYS = ("msg_type", "image_id", "total_bytes", "total_chunks",
              "chunk_size_bytes", "crc32_full", "width_px", "height_px", "format")
_CHUNK_KEY_SET = frozenset(_CHUNK_KEYS)
_META_KEY_SET = frozenset(_META_KEYS)

# The chunk message in _CHUNK_KEYS order. String fields are filled in already
# quoted and escaped, the integer fields with %d.
_CHUNK_TEMPLATE = ('{"msg_type":"chunk","image_id":%s,"seq":%d,"total_chunks":%d,'
                   '"payload_len":%d,"payload_b64":%s,"crc32_chunk":%d}')
# The string encoder json.dumps itself uses with its default ensure_ascii.
_quote = json.encoder.encode_basestring_ascii


def encode_object(doc: dict) -> bytes:
    """``doc`` as compact JSON, the form of every wire message."""
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


def encode_envelope(env: ChunkEnvelope) -> bytes:
    """The chunk message of ``env``, byte-identical to ``encode_object`` on
    its fields in ``_CHUNK_KEYS`` order. Its integer fields must be ints, as
    ``fragment`` makes them."""
    return (_CHUNK_TEMPLATE % (
        _quote(env.image_id), env.seq, env.total_chunks, env.payload_len,
        _quote(env.payload_b64), env.crc32_chunk)).encode("ascii")


def encode_meta(meta: TransferMetadata) -> bytes:
    return encode_object({
        "msg_type": "meta",
        "image_id": meta.image_id,
        "total_bytes": meta.total_bytes,
        "total_chunks": meta.total_chunks,
        "chunk_size_bytes": meta.chunk_size_bytes,
        "crc32_full": meta.crc32_full,
        "width_px": meta.width_px,
        "height_px": meta.height_px,
        "format": meta.format,
    })


def parse_object(data: bytes) -> dict:
    """The JSON object a wire message holds; ``MalformedJson`` if the bytes
    are not UTF-8, not JSON, or not a JSON object."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedJson(str(exc)) from None
    if not isinstance(doc, dict):
        raise MalformedJson("wire message must be a JSON object")
    return doc


def check_keys(doc: dict, keys: tuple[str, ...], key_set: frozenset[str]) -> None:
    """Require ``doc`` to have exactly ``keys``; ``key_set`` is
    ``frozenset(keys)``. Raises ``MissingField`` for the first of ``keys``
    it lacks, else ``UnknownField`` naming the keys it has beyond them."""
    if doc.keys() == key_set:
        return
    for key in keys:
        if key not in doc:
            raise MissingField(key)
    raise UnknownField(f"unknown fields: {', '.join(sorted(doc.keys() - key_set))}")


def _parse(data: bytes | dict, expected_type: str, keys: tuple[str, ...],
           key_set: frozenset[str]) -> dict:
    doc = data if isinstance(data, dict) else parse_object(data)
    check_keys(doc, keys, key_set)
    if doc["msg_type"] != expected_type:
        raise MalformedJson(f"expected msg_type {expected_type!r}, got {doc['msg_type']!r}")
    return doc


def decode_envelope(data: bytes | dict) -> ChunkEnvelope:
    """A chunk message, as wire bytes or as the object ``parse_object``
    returned for them."""
    doc = _parse(data, "chunk", _CHUNK_KEYS, _CHUNK_KEY_SET)
    try:
        env = ChunkEnvelope(
            image_id=doc["image_id"],
            seq=doc["seq"],
            total_chunks=doc["total_chunks"],
            payload_len=doc["payload_len"],
            payload_b64=doc["payload_b64"],
            crc32_chunk=doc["crc32_chunk"],
        )
    except (TypeError, ValueError) as exc:
        raise MalformedJson(str(exc)) from None
    raw = env.payload()
    if len(raw) != env.payload_len:
        raise MalformedJson("payload_len does not match decoded payload")
    object.__setattr__(env, "decoded", raw)
    return env


def decode_meta(data: bytes | dict) -> TransferMetadata:
    """A meta message, as wire bytes or as the object ``parse_object``
    returned for them."""
    doc = _parse(data, "meta", _META_KEYS, _META_KEY_SET)
    try:
        return TransferMetadata(
            image_id=doc["image_id"],
            total_bytes=doc["total_bytes"],
            total_chunks=doc["total_chunks"],
            chunk_size_bytes=doc["chunk_size_bytes"],
            crc32_full=doc["crc32_full"],
            width_px=doc["width_px"],
            height_px=doc["height_px"],
            format=doc["format"],
        )
    except (TypeError, ValueError) as exc:
        raise MalformedJson(str(exc)) from None


def decode_upload(data: bytes) -> TransferMetadata | ChunkEnvelope:
    """A far-edge upload message, meta or chunk, parsed once and decoded by
    its ``msg_type``. Raises a ``ChunkError`` if it is neither."""
    doc = parse_object(data)
    if doc.get("msg_type") == "meta":
        return decode_meta(doc)
    return decode_envelope(doc)


def peek_msg_type(data: bytes) -> str:
    """The msg_type of a wire message. The tiers dispatch with
    ``decode_upload`` instead; ``perfbench/tracer.py`` still wraps this name."""
    doc = parse_object(data)
    if "msg_type" not in doc:
        raise MalformedJson("wire message lacks msg_type")
    return doc["msg_type"]
