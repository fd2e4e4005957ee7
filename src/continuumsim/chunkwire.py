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
and ``upload_rejected`` between edge and cloud. ``SCHEMAS`` maps each
type to its class, whose constructor fields are the type's wire fields in
order; each takes the JSON values of its annotation (``domain.JSON_TYPES``).
The one ``encode`` and the one general decoder, ``decode_json``, read it.
``decode_json`` parses a message once (``parse_object``, with
``domain.read_json``), requires its type's exact key set (one set
comparison; which key is missing or unknown is worked out only when that
fails) and value types, requires its image id to be one pub/sub key segment
(``domain.is_key_segment``, since the tiers publish under keys that end in
it) and builds its class; anything else raises a ``ChunkError``. What
``read_json`` refuses (not UTF-8, ``NaN``, an integer over the digit limit,
deep nesting) is ``MalformedJson``. A JSON integer fills an ``int`` or
``float`` field, a boolean only a ``bool`` one. Each tier's handler is
``decode_as`` with the types it takes.

``read_chunk`` reads the one form the far edge writes, a chunk message in
``_CHUNK_TEMPLATE``'s canonical compact bytes, with one compiled pattern,
and returns the chunk's image id, number, bytes and CRC without making an
envelope. The pattern admits only text whose JSON value is the captured
text: an image id of printable ASCII without ``"``, ``\\``, ``/`` or
``*``, integers without sign or leading zeros, and base64 text that the
decode and the padding rule prove holds only its alphabet. On any miss (no
match, an integer over the digit limit, a value the envelope rejects, bad
base64, a length that does not match) it returns None, and the caller
hands the bytes to ``decode_json``, the path for every other message and
for valid JSON in another form; tests hold ``read_chunk`` to it. It and
``ChunkEnvelope.payload`` check base64 text with one rule, ``_b64decode``.

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

import binascii
import json
import re
from dataclasses import dataclass, field, fields
from enum import Enum
from operator import contains
from typing import Callable, NamedTuple, Optional, Union

from .domain import JSON_TYPES, is_csv_field, is_key_segment, read_json


class ChunkError(Exception):
    """Base class for protocol errors."""


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


# CRC-32/ISO-HDLC of a bytes-like object. On Python 3 ``binascii.crc32``
# already returns it as an unsigned 32-bit integer.
crc32 = binascii.crc32


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
        expected = -(-self.total_bytes // self.chunk_size_bytes)
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
    # The bytes ``payload_b64`` decodes to, once ``decode_json`` has
    # checked them, so that reassembly does not decode them again. Not part
    # of the envelope's value, and not copied by ``dataclasses.replace``.
    decoded: Optional[bytes] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not 0 <= self.seq < self.total_chunks:
            raise ValueError("seq out of range")
        if self.payload_len < 1:
            raise ValueError("payload_len must be >= 1")

    def payload(self) -> bytes:
        """The bytes ``payload_b64`` holds (``_b64decode``)."""
        return _b64decode(self.payload_b64)


def _b64decode(text: Union[str, bytes]) -> bytes:
    """The bytes ``text`` holds as standard padded base64, else
    ``Base64Error``: its length must be a multiple of 4, with ``=`` only as
    its last one or two characters. Python 3.10 to 3.12 decode some text
    that breaks this rule and 3.13 does not, and 3.10 has no strict decode.
    The lenient decode skips characters outside the alphabet and stops at
    padding, so text it does not read whole is longer than the standard
    encoding of the bytes it gives, which is what the rule compares."""
    try:
        raw = binascii.a2b_base64(text)
    except (ValueError, TypeError) as exc:
        raise Base64Error(str(exc)) from None
    if len(text) != (len(raw) + 2) // 3 * 4:
        raise Base64Error("base64 text is not standard padded base64")
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
        if self.label is not None and not is_csv_field(self.label):
            raise ValueError(f"label {self.label!r} is not one CSV field")


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
    """The metadata of sending ``payload``, not empty, in chunks of
    ``chunk_size``, at least 1."""
    return TransferMetadata(
        image_id=image_id,
        total_bytes=len(payload),
        total_chunks=-(-len(payload) // chunk_size),
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


# Read per chunk: a member read through its enum class costs 0.2 us on 3.11.
_ACCEPTED = ReassemblyStatus.ACCEPTED


@dataclass
class ReassemblySession:
    """Receiver-side state for one transfer. Single-owner: exactly one
    activity may feed it.

    ``chunks`` holds each number's clean bytes. ``discarded`` holds the
    numbers whose only copies so far failed the length or CRC check; a
    clean copy moves its number to ``chunks``. Once ``chunks`` holds every
    number, the whole is checked: ``payload`` is set if it passes, else
    ``failed`` is, and every later chunk is ``ALREADY_FAILED``. The
    transfer has ``ended`` once every number has arrived, clean or
    discarded; then ``payload`` is set, the whole failed, or a number is
    still discarded."""

    metadata: TransferMetadata
    chunks: dict[int, bytes] = field(default_factory=dict)
    payload: Optional[bytes] = None
    failed: bool = False
    discarded: set[int] = field(default_factory=set)

    @property
    def ended(self) -> bool:
        """Whether every number has arrived once, clean or discarded. The
        two sets are disjoint, so that is when together they hold
        ``total_chunks`` numbers."""
        return len(self.chunks) + len(self.discarded) == self.metadata.total_chunks

    def accept(self, env: ChunkEnvelope) -> ReassemblyStatus:
        """:meth:`add` of one envelope. One built by hand, not by a decoder,
        has its text decoded once its number is known to be in range and new."""
        return self.add(env.image_id, env.seq, env.decoded, env.crc32_chunk,
                        env.payload_len, env.payload)

    def add(self, image_id: str, seq: int, raw: Optional[bytes], crc: int,
            payload_len: int, decode: Optional[Callable[[], bytes]] = None) -> ReassemblyStatus:
        """Feed one chunk's bytes (``decode()`` if ``raw`` is None) and its
        fields. Duplicates are no-ops; a chunk whose length or CRC fails is
        discarded (retransmission is the sender's concern); a full-payload
        failure is unrecoverable and sets ``failed``."""
        if self.failed:
            return ReassemblyStatus.ALREADY_FAILED
        if image_id != self.metadata.image_id:
            return ReassemblyStatus.ID_MISMATCH
        if not 0 <= seq < self.metadata.total_chunks:
            return ReassemblyStatus.SEQ_OUT_OF_RANGE
        if seq in self.chunks:
            return ReassemblyStatus.DUPLICATE
        if raw is None:
            raw = decode()
        if len(raw) != payload_len:
            self.discarded.add(seq)
            return ReassemblyStatus.LENGTH_MISMATCH
        if crc32(raw) != crc:
            self.discarded.add(seq)
            return ReassemblyStatus.CHUNK_CRC_MISMATCH
        self.chunks[seq] = raw
        self.discarded.discard(seq)
        if len(self.chunks) < self.metadata.total_chunks:
            return _ACCEPTED
        assembled = b"".join(self.chunks[i] for i in range(self.metadata.total_chunks))
        if len(assembled) != self.metadata.total_bytes:
            self.failed = True
            return ReassemblyStatus.LENGTH_MISMATCH
        if crc32(assembled) != self.metadata.crc32_full:
            self.failed = True
            return ReassemblyStatus.FULL_CRC_MISMATCH
        self.payload = assembled
        return ReassemblyStatus.COMPLETE


# msg_type -> class. A type's wire fields are its class's constructor
# fields, in order, and each takes the JSON values of its annotation
# (``domain.JSON_TYPES``); every type has an image id. Wire field names are
# part of the protocol contract and must not drift.
SCHEMAS = {"meta": TransferMetadata, "chunk": ChunkEnvelope, "result": ResultMessage,
           "grant_request": GrantRequest, "grant": Grant, "cloud_upload": CloudUpload,
           "upload_rejected": UploadRejected}


def _decoding(cls: type) -> tuple:
    # The constructor fields and their annotations: a NamedTuple's fields,
    # whose annotations are ForwardRefs of their text, or a dataclass's
    # init fields.
    if hasattr(cls, "_fields"):
        params = [(n, cls.__annotations__[n]) for n in cls._fields]
    else:
        params = [(f.name, f.type) for f in fields(cls) if f.init]
    names = tuple(name for name, _ in params)
    types = tuple(JSON_TYPES[getattr(a, "__forward_arg__", a)][1] for _, a in params)
    return cls, names, frozenset(("msg_type",) + names), types


# What ``decode_json`` reads off SCHEMAS by msg_type, and ``encode`` by class.
_DECODING = {msg_type: _decoding(cls) for msg_type, cls in SCHEMAS.items()}
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
    and ``decode_json`` make them."""
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
    """The JSON object a wire message holds (``domain.read_json``);
    ``MalformedJson`` if the bytes are not UTF-8, not JSON, or not a JSON
    object."""
    try:
        doc = read_json(data)
    except ValueError as exc:
        raise MalformedJson(str(exc)) from None
    if not isinstance(doc, dict):
        raise MalformedJson("wire message must be a JSON object")
    return doc


# _CHUNK_TEMPLATE as a pattern: each %d an unsigned JSON integer, the
# image id a quoted string that needs no escape and is one key segment
# (printable ASCII but '"', '*', '/' and backslash), and the base64 text
# anything up to the next quote, which the base64 decode checks.
_UINT = rb"(0|[1-9][0-9]*)"
_match_chunk = re.compile(re.escape(_CHUNK_TEMPLATE).replace(b"%d", b"%s") % (
    rb'"([ !#-)+-.0-\[\]-~]+)"', _UINT, _UINT, _UINT, rb'([^"]*)', _UINT)).fullmatch


def read_chunk(data: bytes) -> Optional[tuple[str, int, bytes, int]]:
    """The image id, sequence number, bytes and CRC-32 of a canonical chunk
    message that passes every check ``decode_json`` makes, else None."""
    match = _match_chunk(data)
    if match is None:
        return None
    image_id, seq, total_chunks, payload_len, payload_b64, crc = match.groups()
    # ValueError: an integer over the digit limit.
    try:
        seq, raw, crc = int(seq), _b64decode(payload_b64), int(crc)
        if seq < int(total_chunks) and 0 < len(raw) == int(payload_len):
            return image_id.decode("ascii"), seq, raw, crc
    except (ValueError, Base64Error):
        pass
    return None


def decode_json(data: bytes) -> Message:
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
    """``decode_json(data)``, which must be an instance of ``kinds``: a
    well-formed message of another type is ``MalformedJson`` too."""
    msg = decode_json(data)
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
