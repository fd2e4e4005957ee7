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

Every wire message is compact JSON (``encode_object``). The far edge goes
from payload to wire messages in one step, ``encode_upload``: it slices,
base64-encodes and CRCs each chunk (``_chunks``, which ``fragment`` shares)
and fills each chunk message into one bytes template, with no
``ChunkEnvelope`` in between; ``encode_envelope`` fills the same template
from an envelope. The template's output is byte-identical to
``encode_object`` on the same fields, because wire size feeds the fitted
link bandwidth: the image id goes in quoted by the string encoder
``json.dumps`` uses, once per transfer, and the base64 text goes in as it
is, because its alphabet (RFC 4648 §4: ``A-Z a-z 0-9 + / =``) holds no
character that JSON escapes.

A receiver parses a message once (``parse_object``) and hands the dict to
the decoder of its type; ``decode_upload`` does that for the far edge's meta
and chunk messages. Decoders check a message's exact key set with one set
comparison and work out which key is missing or unknown only when that
fails. A string field must be a JSON string and an integer field a
JSON integer (not a float or a boolean), and an image id must be one pub/sub
key segment (``domain.is_key_segment``), since the tiers publish under keys
that end in it; anything else is ``MalformedJson``.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .domain import MIN_CHUNK_SIZE, is_key_segment


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
        if self.chunk_size_bytes < 1:
            raise ValueError("chunk_size_bytes must be >= 1")
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


def _transfer(
    payload: bytes,
    image_id: str,
    chunk_size: int,
    image_dims: tuple[int, int],
    format: str,
) -> TransferMetadata:
    """The metadata of sending ``payload`` in chunks of ``chunk_size``."""
    if len(payload) < 1:
        raise EmptyPayload("payload must be at least 1 byte")
    if chunk_size < MIN_CHUNK_SIZE:
        raise ChunkSizeTooSmall(f"chunk_size must be >= {MIN_CHUNK_SIZE}")
    return TransferMetadata(
        image_id=image_id,
        total_bytes=len(payload),
        total_chunks=math.ceil(len(payload) / chunk_size),
        chunk_size_bytes=chunk_size,
        crc32_full=crc32(payload),
        width_px=image_dims[0],
        height_px=image_dims[1],
        format=format,
    )


def _chunks(payload: bytes, chunk_size: int):
    """Each chunk of ``payload`` in sequence order, as its raw length, its
    base64 text as ASCII bytes and its CRC-32."""
    view = memoryview(payload)
    for start in range(0, len(payload), chunk_size):
        raw = view[start:start + chunk_size]
        yield len(raw), binascii.b2a_base64(raw, newline=False), crc32(raw)


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
    meta = _transfer(payload, image_id, chunk_size, image_dims, format)
    return meta, [
        ChunkEnvelope(image_id, seq, meta.total_chunks, length, b64.decode("ascii"), crc)
        for seq, (length, b64, crc) in enumerate(_chunks(payload, chunk_size))]


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
_META_INT_KEYS = ("total_bytes", "total_chunks", "chunk_size_bytes", "crc32_full",
                  "width_px", "height_px")

# The chunk message in _CHUNK_KEYS order. The image id is filled in already
# quoted and escaped, the base64 text as it is, the integer fields with %d.
_CHUNK_TEMPLATE = (b'{"msg_type":"chunk","image_id":%s,"seq":%d,"total_chunks":%d,'
                   b'"payload_len":%d,"payload_b64":"%s","crc32_chunk":%d}')
# The string encoder json.dumps itself uses with its default ensure_ascii.
_quote = json.encoder.encode_basestring_ascii


def encode_object(doc: dict) -> bytes:
    """``doc`` as compact JSON, the form of every wire message."""
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


def encode_envelope(env: ChunkEnvelope) -> bytes:
    """The chunk message of ``env``, byte-identical to ``encode_object`` on
    its fields in ``_CHUNK_KEYS`` order. Its integer fields must be ints and
    its ``payload_b64`` base64 text, as ``fragment`` and ``decode_envelope``
    make them."""
    return _CHUNK_TEMPLATE % (
        _quote(env.image_id).encode("ascii"), env.seq, env.total_chunks,
        env.payload_len, env.payload_b64.encode("ascii"), env.crc32_chunk)


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


def encode_upload(
    payload: bytes,
    image_id: str,
    chunk_size: int,
    image_dims: tuple[int, int],
    format: str,
) -> list[bytes]:
    """The wire messages that send ``payload``: the meta message, then the
    chunk messages in sequence order. Equal to ``encode_meta`` and
    ``encode_envelope`` on what ``fragment`` returns for the same arguments,
    without making the envelopes."""
    meta = _transfer(payload, image_id, chunk_size, image_dims, format)
    quoted_id = _quote(image_id).encode("ascii")
    total_chunks = meta.total_chunks
    messages = [encode_meta(meta)]
    messages.extend(
        _CHUNK_TEMPLATE % (quoted_id, seq, total_chunks, length, b64, crc)
        for seq, (length, b64, crc) in enumerate(_chunks(payload, chunk_size)))
    return messages


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
    image_id, seq, total_chunks = doc["image_id"], doc["seq"], doc["total_chunks"]
    payload_len, payload_b64, crc = doc["payload_len"], doc["payload_b64"], doc["crc32_chunk"]
    if not (type(image_id) is str and type(payload_b64) is str and type(seq) is int
            and type(total_chunks) is int and type(payload_len) is int
            and type(crc) is int):
        raise MalformedJson("chunk field of the wrong type")
    if not is_key_segment(image_id):
        raise MalformedJson(f"image_id {image_id!r} is not one key segment")
    try:
        env = ChunkEnvelope(image_id, seq, total_chunks, payload_len, payload_b64, crc)
    except ValueError as exc:
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
    if not (type(doc["image_id"]) is str and type(doc["format"]) is str
            and all(type(doc[key]) is int for key in _META_INT_KEYS)):
        raise MalformedJson("meta field of the wrong type")
    if not is_key_segment(doc["image_id"]):
        raise MalformedJson(f"image_id {doc['image_id']!r} is not one key segment")
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
    except ValueError as exc:
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
