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

Every wire message is a compact JSON object (``encode_object``) whose
``msg_type`` names one of seven types: ``meta``, ``chunk`` and ``result``
between far edge and edge, ``grant_request``, ``grant``, ``cloud_upload``
and ``upload_rejected`` between edge and cloud. ``SCHEMAS`` holds each
type's class and its fields in wire order with the JSON types each may
take, and the one ``encode`` and the one ``decode`` read it. ``decode``
parses a message once (``parse_object``), requires its type's exact key set
(one set comparison; which key is missing or unknown is worked out only when
that fails) and value types, requires its image id to be one pub/sub key
segment (``domain.is_key_segment``, since the tiers publish under keys that
end in it) and builds its class; anything else raises a ``ChunkError``.
A JSON integer is an ``int``, never a float or a boolean. Each tier's
handler is ``decode_as`` with the types it takes.

The far edge goes from payload to wire messages in one step,
``encode_upload``: it slices, base64-encodes and CRCs each chunk
(``_chunks``, which ``fragment`` shares) and fills each chunk message into
one bytes template, with no ``ChunkEnvelope`` in between;
``encode_envelope`` fills the same template from an envelope. The
template's output is byte-identical to ``encode`` on the same envelope,
because wire size feeds the fitted link bandwidth: the image id goes in
quoted by the string encoder ``json.dumps`` uses, once per transfer, and the
base64 text goes in as it is, because its alphabet (RFC 4648 §4:
``A-Z a-z 0-9 + / =``) holds no character that JSON escapes.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from operator import contains
from typing import NamedTuple, Optional, Union

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
    """The meta message that opens a transfer of one image's payload."""
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


# Not frozen: a frozen dataclass sets each field through
# ``object.__setattr__``, and one envelope is built per wire chunk.
@dataclass(slots=True)
class ChunkEnvelope:
    """The chunk message: one segment of a payload, in base64, with its CRC-32."""
    image_id: str
    seq: int
    total_chunks: int
    payload_len: int
    payload_b64: str
    crc32_chunk: int
    # The bytes ``payload_b64`` decodes to, once ``decode`` has checked
    # them, so that reassembly does not decode them again. Not part of the
    # envelope's value, and not copied by ``dataclasses.replace``.
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


@dataclass(frozen=True)
class ResultMessage:
    """The answer for one uploaded image, from the edge or the cloud."""
    image_id: str
    origin: str  # "edge" | "cloud"
    recognized: bool
    label: Optional[str]
    is_false_positive: bool

    def __post_init__(self) -> None:
        if self.origin not in ("edge", "cloud"):
            raise ValueError(f"origin must be 'edge' or 'cloud', got {self.origin!r}")


class GrantRequest(NamedTuple):
    image_id: str


class Grant(NamedTuple):
    """The cloud's single-use permission to upload one image."""
    image_id: str
    upload_token: str
    expires_at: float


class CloudUpload(NamedTuple):
    image_id: str
    upload_token: str
    payload_b64: str


class UploadRejected(NamedTuple):
    image_id: str
    reason: str


Message = Union[TransferMetadata, ChunkEnvelope, ResultMessage, GrantRequest, Grant,
                CloudUpload, UploadRejected]


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
    activity may feed it.

    ``discarded`` holds the sequence numbers whose only copies so far failed
    the length or CRC check; a clean copy moves its number to ``chunks``.
    The two are disjoint, so every number has arrived once when together
    they hold ``total_chunks`` of them."""

    metadata: TransferMetadata
    chunks: dict[int, bytes] = field(default_factory=dict)
    state: ReassemblyState = ReassemblyState.AWAITING
    payload: Optional[bytes] = None
    discarded: set[int] = field(default_factory=set)

    def accept(self, env: ChunkEnvelope) -> ReassemblyStatus:
        """Feed one envelope. Duplicates are no-ops; a chunk whose length or
        CRC fails is discarded (retransmission is the sender's concern); a
        full-payload failure is unrecoverable and latches the FAILED state."""
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
            self.discarded.add(env.seq)
            return ReassemblyStatus.LENGTH_MISMATCH
        if crc32(raw) != env.crc32_chunk:
            self.discarded.add(env.seq)
            return ReassemblyStatus.CHUNK_CRC_MISMATCH
        self.chunks[env.seq] = raw
        if self.discarded:
            self.discarded.discard(env.seq)
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


_STR, _INT, _BOOL = (str,), (int,), (bool,)

# msg_type -> (class, ((field, JSON types), ...)). The fields are in wire
# order, which is also the order of the class's constructor arguments, and
# every type has an image id. Wire field names are part of the protocol
# contract and must not drift.
SCHEMAS = {
    "meta": (TransferMetadata, (
        ("image_id", _STR), ("total_bytes", _INT), ("total_chunks", _INT),
        ("chunk_size_bytes", _INT), ("crc32_full", _INT), ("width_px", _INT),
        ("height_px", _INT), ("format", _STR))),
    "chunk": (ChunkEnvelope, (
        ("image_id", _STR), ("seq", _INT), ("total_chunks", _INT),
        ("payload_len", _INT), ("payload_b64", _STR), ("crc32_chunk", _INT))),
    "result": (ResultMessage, (
        ("image_id", _STR), ("origin", _STR), ("recognized", _BOOL),
        ("label", (str, type(None))), ("is_false_positive", _BOOL))),
    "grant_request": (GrantRequest, (("image_id", _STR),)),
    "grant": (Grant, (
        ("image_id", _STR), ("upload_token", _STR), ("expires_at", (int, float)))),
    "cloud_upload": (CloudUpload, (
        ("image_id", _STR), ("upload_token", _STR), ("payload_b64", _STR))),
    "upload_rejected": (UploadRejected, (("image_id", _STR), ("reason", _STR))),
}


def _decoding(cls: type, fields: tuple) -> tuple:
    names = tuple(name for name, _ in fields)
    return cls, names, frozenset(("msg_type",) + names), tuple(types for _, types in fields)


# What ``decode`` reads off SCHEMAS by msg_type, and ``encode`` by class.
_DECODING = {msg_type: _decoding(*schema) for msg_type, schema in SCHEMAS.items()}
_ENCODING = {cls: (msg_type, names) for msg_type, (cls, names, _, _) in _DECODING.items()}

# The chunk message in wire order. The image id is filled in already
# quoted and escaped, the base64 text as it is, the integer fields with %d.
_CHUNK_TEMPLATE = (b'{"msg_type":"chunk","image_id":%s,"seq":%d,"total_chunks":%d,'
                   b'"payload_len":%d,"payload_b64":"%s","crc32_chunk":%d}')
# The string encoder json.dumps itself uses with its default ensure_ascii.
_quote = json.encoder.encode_basestring_ascii


def encode_object(doc: dict) -> bytes:
    """``doc`` as compact JSON, the form of every wire message."""
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


def encode(msg: Message) -> bytes:
    """``msg`` on the wire: its ``msg_type``, then its fields in
    ``SCHEMAS`` order."""
    msg_type, names = _ENCODING[type(msg)]
    doc = {"msg_type": msg_type}
    for name in names:
        doc[name] = getattr(msg, name)
    return encode_object(doc)


def encode_envelope(env: ChunkEnvelope) -> bytes:
    """``encode(env)``, byte for byte, from one template. Its integer
    fields must be ints and its ``payload_b64`` base64 text, as ``fragment``
    and ``decode`` make them."""
    return _CHUNK_TEMPLATE % (
        _quote(env.image_id).encode("ascii"), env.seq, env.total_chunks,
        env.payload_len, env.payload_b64.encode("ascii"), env.crc32_chunk)


def encode_meta(meta: TransferMetadata) -> bytes:
    return encode(meta)


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


def decode(data: bytes) -> Message:
    """The message ``data`` holds, as the class ``SCHEMAS`` gives its
    ``msg_type``. ``MissingField`` or ``UnknownField`` if its keys are not
    exactly its type's; ``MalformedJson`` if it is not a JSON object, its
    ``msg_type`` is unknown, a value is not of its field's JSON types, its
    image id is not one key segment or its class rejects the values. A
    chunk's base64 text is decoded here, once, and must hold
    ``payload_len`` bytes."""
    doc = parse_object(data)
    msg_type = doc.get("msg_type")
    schema = _DECODING.get(msg_type) if type(msg_type) is str else None
    if schema is None:
        if "msg_type" not in doc:
            raise MissingField("msg_type")
        raise MalformedJson(f"unknown msg_type {msg_type!r}")
    cls, names, key_set, types = schema
    if doc.keys() != key_set:
        for name in names:
            if name not in doc:
                raise MissingField(name)
        raise UnknownField(f"unknown fields: {', '.join(sorted(doc.keys() - key_set))}")
    values = list(map(doc.__getitem__, names))
    if not all(map(contains, types, map(type, values))):
        raise MalformedJson(f"{msg_type} field of the wrong type")
    if not is_key_segment(doc["image_id"]):
        raise MalformedJson(f"image_id {doc['image_id']!r} is not one key segment")
    try:
        msg = cls(*values)
    except ValueError as exc:
        raise MalformedJson(str(exc)) from None
    if cls is ChunkEnvelope:
        msg.decoded = msg.payload()
        if len(msg.decoded) != msg.payload_len:
            raise MalformedJson("payload_len does not match decoded payload")
    return msg


def decode_as(data: bytes, kinds: type | tuple[type, ...]) -> Message:
    """``decode(data)``, which must be an instance of ``kinds``: a
    well-formed message of another type is ``MalformedJson`` too."""
    msg = decode(data)
    if not isinstance(msg, kinds):
        raise MalformedJson(f"unexpected {_ENCODING[type(msg)][0]} message")
    return msg


def decode_envelope(data: bytes) -> ChunkEnvelope:
    return decode_as(data, ChunkEnvelope)


def decode_meta(data: bytes) -> TransferMetadata:
    return decode_as(data, TransferMetadata)


def decode_result(data: bytes) -> ResultMessage:
    return decode_as(data, ResultMessage)


def peek_msg_type(data: bytes) -> str:
    """The msg_type of a wire message. The tiers decode with ``decode_as``
    instead; ``perfbench/tracer.py`` still wraps this name."""
    doc = parse_object(data)
    if "msg_type" not in doc:
        raise MalformedJson("wire message lacks msg_type")
    return doc["msg_type"]
