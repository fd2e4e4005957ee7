import base64
import binascii
import dataclasses
import itertools
import json

import pytest

from continuumsim import chunkwire
from continuumsim.chunkwire import (
    Base64Error,
    ChunkEnvelope,
    ChunkError,
    CloudUpload,
    Grant,
    GrantRequest,
    MalformedJson,
    MissingField,
    ReassemblySession,
    ReassemblyStatus,
    ResultMessage,
    TransferMetadata,
    UnknownField,
    UploadRejected,
    crc32,
    decode_envelope,
    decode_json,
    decode_meta,
    encode,
    encode_envelope,
    encode_meta,
    encode_object,
    encode_upload,
    fragment,
)
from continuumsim.domain import MIN_CHUNK_SIZE
from continuumsim.workload import Prng


def crc32_bitwise(data: bytes) -> int:
    """Independent bit-by-bit oracle: reflected 0x04C11DB7, init/xorout all
    ones, processing each input bit LSB-first."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ 0xEDB88320  # 0x04C11DB7 reflected
            else:
                crc >>= 1
    return crc ^ 0xFFFFFFFF


def test_crc_reference_check_value():
    assert crc32(b"123456789") == 0xCBF43926
    assert crc32_bitwise(b"123456789") == 0xCBF43926


def test_crc_matches_bitwise_oracle_on_random_buffers():
    rng = Prng(17)
    for _ in range(50):
        data = rng.randbytes(1 + rng.randrange(300))
        assert crc32(data) == crc32_bitwise(data)


def test_fragment_chunk_count_and_sizes():
    payload = b"\x5a" * 3000
    meta, envs = fragment(payload, "img", 1024, (64, 64), "PNG")
    assert meta.total_chunks == 3
    assert [e.payload_len for e in envs] == [1024, 1024, 952]
    assert [e.seq for e in envs] == [0, 1, 2]
    assert b"".join(e.payload() for e in envs) == payload


def test_fragment_exact_boundary_is_single_chunk():
    payload = b"\x01" * 1024
    meta, envs = fragment(payload, "img", 1024, (64, 64), "PNG")
    assert meta.total_chunks == 1
    assert envs[0].seq == 0
    assert envs[0].total_chunks == 1


def test_fragment_rejects_empty_payload():
    with pytest.raises(ValueError, match="total_bytes"):
        fragment(b"", "img", 1024, (1, 1), "PNG")


def _session_for(payload: bytes, chunk_size: int = 1024):
    meta, envs = fragment(payload, "img", chunk_size, (64, 64), "PNG")
    return ReassemblySession(meta), envs


def test_reassembly_in_order():
    payload = b"\x5a" * 3000
    session, envs = _session_for(payload)
    statuses = [session.accept(env) for env in envs]
    assert statuses[-1] is ReassemblyStatus.COMPLETE
    assert session.payload == payload and not session.failed


def test_reassembly_out_of_order_with_duplicate():
    payload = b"\xab" * 3000
    session, envs = _session_for(payload)
    assert session.accept(envs[2]) is ReassemblyStatus.ACCEPTED
    assert session.accept(envs[0]) is ReassemblyStatus.ACCEPTED
    assert session.accept(envs[1]) is ReassemblyStatus.COMPLETE
    assert session.accept(envs[1]) is ReassemblyStatus.DUPLICATE
    assert session.payload == payload


def test_reassembly_rejects_seq_out_of_range():
    session, envs = _session_for(b"\x01" * 3000)
    # internally consistent envelope whose seq exceeds the session's 3 chunks
    bad = ChunkEnvelope("img", 5, 9, envs[0].payload_len,
                        envs[0].payload_b64, envs[0].crc32_chunk)
    before = dict(session.chunks)
    assert session.accept(bad) is ReassemblyStatus.SEQ_OUT_OF_RANGE
    assert session.chunks == before == {}
    assert session.discarded == set()


def test_reassembly_rejects_id_mismatch():
    session, _ = _session_for(b"\x01" * 100, chunk_size=64)
    _, other = fragment(b"\x02" * 100, "other", 64, (1, 1), "PNG")
    assert session.accept(other[0]) is ReassemblyStatus.ID_MISMATCH


def test_corrupt_chunk_is_discarded_then_recovered_by_clean_copy():
    payload = b"\x10" * 2048
    session, envs = _session_for(payload)
    corrupt = ChunkEnvelope(envs[0].image_id, envs[0].seq, envs[0].total_chunks,
                            envs[0].payload_len, envs[0].payload_b64,
                            envs[0].crc32_chunk ^ 1)
    assert session.accept(corrupt) is ReassemblyStatus.CHUNK_CRC_MISMATCH
    assert session.payload is None
    assert session.accept(envs[1]) is ReassemblyStatus.ACCEPTED
    assert session.accept(envs[0]) is ReassemblyStatus.COMPLETE
    assert session.payload == payload


def test_full_crc_mismatch_is_unrecoverable():
    payload = b"\x77" * 1500
    meta, envs = fragment(payload, "img", 1024, (64, 64), "PNG")
    forged = TransferMetadata(meta.image_id, meta.total_bytes, meta.total_chunks,
                              meta.chunk_size_bytes, meta.crc32_full ^ 1,
                              meta.width_px, meta.height_px, meta.format)
    session = ReassemblySession(forged)
    session.accept(envs[0])
    assert session.accept(envs[1]) is ReassemblyStatus.FULL_CRC_MISMATCH
    assert session.failed and session.payload is None
    # no way back from a failed whole
    assert session.accept(envs[0]) is ReassemblyStatus.ALREADY_FAILED
    assert session.failed and session.payload is None


def _shuffle(rng: Prng, items: list) -> None:
    """Fisher-Yates shuffle of ``items`` in place, drawing from ``rng``."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.randrange(i + 1)
        items[i], items[j] = items[j], items[i]


def test_chunks_short_of_total_bytes_fail_the_transfer():
    # Each chunk passes its own length and CRC checks, but together they
    # hold one byte less than the meta's total_bytes.
    meta, envs = fragment(b"\x55" * 2048, "img", 1024, (2, 2), "RAW")
    raw = envs[1].payload()[:-1]
    short = ChunkEnvelope("img", 1, 2, len(raw), base64.b64encode(raw).decode("ascii"),
                          crc32(raw))
    session = ReassemblySession(meta)
    assert session.accept(envs[0]) is ReassemblyStatus.ACCEPTED
    assert session.accept(short) is ReassemblyStatus.LENGTH_MISMATCH
    assert session.failed
    assert session.accept(envs[1]) is ReassemblyStatus.ALREADY_FAILED


def test_chunk_of_other_than_its_payload_len_is_discarded():
    meta, envs = fragment(b"\x55" * 2048, "img", 1024, (2, 2), "RAW")
    long = ChunkEnvelope("img", 0, 2, 1023, envs[0].payload_b64, envs[0].crc32_chunk)
    session = ReassemblySession(meta)
    assert session.accept(long) is ReassemblyStatus.LENGTH_MISMATCH
    assert session.discarded == {0} and not session.chunks and not session.failed
    assert session.accept(envs[0]) is ReassemblyStatus.ACCEPTED
    assert session.discarded == set()


def test_a_transfer_with_a_number_missing_has_not_ended():
    session, envs = _session_for(b"\x31" * 3000)
    assert not session.ended
    session.accept(envs[0])
    session.accept(envs[2])
    assert not session.ended and session.payload is None and not session.failed


def test_a_transfer_whose_chunks_all_arrive_clean_ends_with_its_payload():
    payload = b"\x32" * 3000
    session, envs = _session_for(payload)
    for env in envs:
        session.accept(env)
    assert session.ended and session.payload == payload and not session.failed


def test_a_transfer_with_a_number_discarded_ends_until_a_clean_copy_completes_it():
    payload = b"\x33" * 3000
    session, envs = _session_for(payload)
    corrupt = dataclasses.replace(envs[1], crc32_chunk=envs[1].crc32_chunk ^ 1)
    assert session.accept(envs[0]) is ReassemblyStatus.ACCEPTED
    assert session.accept(corrupt) is ReassemblyStatus.CHUNK_CRC_MISMATCH
    assert session.accept(envs[2]) is ReassemblyStatus.ACCEPTED
    assert session.ended and session.payload is None and not session.failed
    assert session.accept(envs[1]) is ReassemblyStatus.COMPLETE
    assert session.ended and session.payload == payload and not session.discarded


def test_a_transfer_whose_whole_fails_ends_failed():
    meta, envs = fragment(b"\x34" * 3000, "img", 1024, (64, 64), "PNG")
    session = ReassemblySession(dataclasses.replace(meta, crc32_full=meta.crc32_full ^ 1))
    for env in envs[:-1]:
        session.accept(env)
    assert session.accept(envs[-1]) is ReassemblyStatus.FULL_CRC_MISMATCH
    assert session.ended and session.failed and session.payload is None
    assert session.accept(envs[0]) is ReassemblyStatus.ALREADY_FAILED


def test_shuffled_duplicated_round_trip_over_seeded_payloads():
    rng = Prng(404)
    for case in range(60):
        size = 1 + rng.randrange(8192)
        payload = rng.randbytes(size)
        chunk_size = (64, 512, 1024, 4096)[case % 4]
        meta, envs = fragment(payload, f"case{case}", chunk_size, (8, 8), "RAW")
        feed = list(envs) + [envs[rng.randrange(len(envs))] for _ in range(3)]
        _shuffle(rng, feed)
        session = ReassemblySession(meta)
        done = False
        for env in feed:
            if session.accept(env) is ReassemblyStatus.COMPLETE:
                done = True
        assert done and session.payload == payload


def test_envelope_base64_example_and_round_trip():
    env = ChunkEnvelope("img", 0, 1, 2, "QUI=", crc32(b"AB"))
    wire = encode_envelope(env)
    assert b'"payload_b64":"QUI="' in wire
    assert decode_envelope(wire) == env
    assert env.payload() == b"AB"


def test_accept_checks_a_hand_built_envelope_before_its_text():
    # An envelope built by hand has its text decoded only once its number
    # is in range and new: bad base64 on a chunk that is refused anyway
    # gets the refusal, not a Base64Error.
    meta, envs = fragment(b"\x01" * 100, "img", 64, (1, 1), "PNG")

    def bad(**changes):
        return dataclasses.replace(envs[0], payload_b64="!!!!", **changes)

    session = ReassemblySession(meta)
    assert session.accept(bad(image_id="other")) is ReassemblyStatus.ID_MISMATCH
    assert session.accept(bad(seq=5, total_chunks=9)) is ReassemblyStatus.SEQ_OUT_OF_RANGE
    assert session.accept(envs[0]) is ReassemblyStatus.ACCEPTED
    assert session.accept(bad()) is ReassemblyStatus.DUPLICATE
    with pytest.raises(Base64Error):
        session.accept(bad(seq=1))
    failed = ReassemblySession(dataclasses.replace(meta, crc32_full=meta.crc32_full ^ 1))
    assert [failed.accept(env) for env in envs][-1] is ReassemblyStatus.FULL_CRC_MISMATCH
    assert failed.accept(bad()) is ReassemblyStatus.ALREADY_FAILED


def test_wire_chunk_is_base64_decoded_once(monkeypatch):
    payload = Prng(3).randbytes(300)
    meta, envs = fragment(payload, "img", 64, (1, 1), "PNG")
    decoded = [decode_envelope(encode_envelope(env)) for env in envs]
    assert decoded == envs and list(map(repr, decoded)) == list(map(repr, envs))
    # Every base64 decode is a call of ``binascii.a2b_base64``.
    calls = []
    original = binascii.a2b_base64
    monkeypatch.setattr(binascii, "a2b_base64",
                        lambda text, **kw: calls.append(len(text)) or original(text, **kw))
    session = ReassemblySession(meta)
    for env in envs:
        session.accept(decode_envelope(encode_envelope(env)))
    assert session.payload == payload
    assert calls == [len(env.payload_b64) for env in envs]


def test_envelope_wire_field_names_are_exact():
    _, envs = fragment(b"\x01" * 100, "img", 64, (1, 1), "PNG")
    import json
    doc = json.loads(encode_envelope(envs[0]))
    assert list(doc) == ["msg_type", "image_id", "seq", "total_chunks",
                         "payload_len", "payload_b64", "crc32_chunk"]
    meta_doc = json.loads(encode_meta(fragment(b"\x01" * 100, "img", 64, (1, 1), "PNG")[0]))
    assert list(meta_doc) == ["msg_type", "image_id", "total_bytes", "total_chunks",
                              "chunk_size_bytes", "crc32_full", "width_px",
                              "height_px", "format"]


def test_decode_missing_field():
    _, envs = fragment(b"\x01" * 100, "img", 64, (1, 1), "PNG")
    import json
    doc = json.loads(encode_envelope(envs[0]))
    del doc["crc32_chunk"]
    with pytest.raises(MissingField) as err:
        decode_envelope(json.dumps(doc).encode())
    assert err.value.name == "crc32_chunk"


def test_decode_rejects_unknown_field():
    _, envs = fragment(b"\x01" * 100, "img", 64, (1, 1), "PNG")
    import json
    doc = json.loads(encode_envelope(envs[0]))
    doc["hop_count"] = 3
    with pytest.raises(UnknownField):
        decode_envelope(json.dumps(doc).encode())


def test_decode_malformed_json_and_bad_base64():
    with pytest.raises(MalformedJson):
        decode_envelope(b"{nope")
    import json
    doc = {"msg_type": "chunk", "image_id": "x", "seq": 0, "total_chunks": 1,
           "payload_len": 2, "payload_b64": "@@@", "crc32_chunk": 0}
    with pytest.raises((Base64Error, MalformedJson)):
        decode_envelope(json.dumps(doc).encode())


def test_an_image_id_that_utf8_cannot_encode_is_malformed():
    # A JSON escape can name a lone surrogate, which no key can hold.
    with pytest.raises(MalformedJson, match="not one key segment"):
        decode_json(b'{"msg_type":"grant_request","image_id":"img\\udc80"}')


def test_meta_round_trip():
    meta, _ = fragment(b"\x01" * 5000, "img9", 512, (320, 240), "PNG")
    assert decode_meta(encode_meta(meta)) == meta


def test_meta_chunk_count_is_exact_past_float_precision():
    # 2**53 + 1 bytes in 1-byte chunks: a float quotient rounds to 2**53.
    def meta(total_chunks):
        return encode_object({
            "msg_type": "meta", "image_id": "img", "total_bytes": 2**53 + 1,
            "total_chunks": total_chunks, "chunk_size_bytes": 1, "crc32_full": 0,
            "width_px": 1, "height_px": 1, "format": "RAW"})

    assert decode_json(meta(2**53 + 1)).total_chunks == 2**53 + 1
    with pytest.raises(MalformedJson):
        decode_json(meta(2**53))


def test_seeded_random_envelopes_round_trip():
    rng = Prng(9009)
    for i in range(300):
        payload = rng.randbytes(1 + rng.randrange(2000))
        _, envs = fragment(payload, f"rt{i}", 1024, (4, 4), "RAW")
        env = envs[rng.randrange(len(envs))]
        assert decode_envelope(encode_envelope(env)) == env


def test_wire_overhead_shrinks_with_chunk_size():
    rng = Prng(5)
    payload = rng.randbytes(65536)
    ratios = []
    for chunk_size in (64, 512, 1024, 4096):
        meta, envs = fragment(payload, "img", chunk_size, (1, 1), "RAW")
        wire = len(encode_meta(meta)) + sum(len(encode_envelope(e)) for e in envs)
        ratios.append(wire / len(payload))
    assert all(r > 1.0 for r in ratios)
    assert ratios == sorted(ratios, reverse=True)


def _json_oracle(doc: dict) -> bytes:
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


# Characters json.dumps escapes: a quote, a backslash, non-ASCII and U+2028.
ODD_IMAGE_IDS = ['img"q', "img\\q", "img\u00e9", "img\u2028", 'a"\\\u00e9\u2028b']


@pytest.mark.parametrize("chunk_size", sorted({MIN_CHUNK_SIZE, 64, 1000, 1024}))
def test_encoders_match_json_dumps_byte_for_byte(chunk_size):
    rng = Prng(2028 + chunk_size)
    # Payloads that fill their last chunk, then ones of random size.
    sizes = [chunk_size, 2 * chunk_size, 3 * chunk_size]
    sizes += [1 + rng.randrange(3 * chunk_size) for _ in range(40)]
    for case, size in enumerate(sizes):
        payload = rng.randbytes(size)
        image_id = ODD_IMAGE_IDS[case % len(ODD_IMAGE_IDS)] + str(case)
        args = (payload, image_id, chunk_size,
                (1 + rng.randrange(4096), 1 + rng.randrange(4096)), "PNG")
        meta, envs = fragment(*args)
        expected = [_json_oracle({
            "msg_type": "meta", "image_id": image_id, "total_bytes": meta.total_bytes,
            "total_chunks": meta.total_chunks, "chunk_size_bytes": chunk_size,
            "crc32_full": meta.crc32_full, "width_px": meta.width_px,
            "height_px": meta.height_px, "format": "PNG"})]
        expected += [_json_oracle({
            "msg_type": "chunk", "image_id": image_id, "seq": env.seq,
            "total_chunks": env.total_chunks, "payload_len": env.payload_len,
            "payload_b64": env.payload_b64, "crc32_chunk": env.crc32_chunk})
            for env in envs]
        assert [encode_meta(meta)] + [encode_envelope(env) for env in envs] == expected
        assert encode_upload(*args) == expected
        assert [encode_envelope(decode_envelope(msg)) for msg in expected[1:]] == expected[1:]


def test_decode_upload_dispatches_on_msg_type():
    meta, envs = fragment(b"\x42" * 200, 'img"\u2028', 64, (3, 4), "PNG")
    assert decode_json(encode_meta(meta)) == meta
    assert [decode_json(encode_envelope(env)) for env in envs] == envs
    with pytest.raises(MissingField) as err:
        decode_json(b'{"image_id":"img"}')
    assert err.value.name == "msg_type"


def _outcome(decoder, data: bytes):
    """What ``decoder`` makes of ``data``: the message, its repr and its
    decoded payload, or the type and text of the error it raises."""
    try:
        msg = decoder(data)
    except ChunkError as exc:
        return type(exc), str(exc)
    return msg, repr(msg), msg.decoded


def _fed(session, status):
    """A status and the session state it left."""
    return (status, session.failed, session.payload, sorted(session.chunks),
            sorted(session.discarded))


def _read_then_add(session, data: bytes):
    """What the edge does with ``data``: ``read_chunk`` and ``add``, or
    "fell through" where it hands ``data`` to the decoder instead."""
    chunk = chunkwire.read_chunk(data)
    if chunk is None:
        return "fell through"
    image_id, seq, raw, crc = chunk
    return _fed(session, session.add(image_id, seq, raw, crc, len(raw)))


def _decode_then_accept(session, data: bytes):
    """``decode_json`` and ``accept`` of ``data``, or "fell through" where
    ``data`` is not in the chunk pattern, ``decode_json`` refuses it, or it
    is not the canonical encoding of what it decodes to (as base64 text
    with a ``\\u`` escape is)."""
    if chunkwire._match_chunk(data) is None:
        return "fell through"
    try:
        env = decode_json(data)
    except ChunkError:
        return "fell through"
    if encode(env) != data:
        return "fell through"
    return _fed(session, session.accept(env))


def _edits(data: bytes) -> list[bytes]:
    """A copy of ``data`` with a wrong CRC, ``data``, then copies that a
    session must refuse or that are not canonical: a duplicate, a sequence
    number past the meta's chunk count (still below the message's), and a
    key out of order."""
    doc = json.loads(data)
    crc = b'"crc32_chunk":%d' % doc["crc32_chunk"]
    seq = b'"seq":%d,"total_chunks":%d' % (doc["seq"], doc["total_chunks"])
    return [data.replace(crc, b'"crc32_chunk":%d' % ((doc["crc32_chunk"] + 1) % 2**32)),
            data, data,
            data.replace(seq, b'"seq":%d,"total_chunks":%d' % (
                doc["total_chunks"], doc["total_chunks"] + 1)),
            encode_object(dict(reversed(doc.items())))]


# Each chunk fed with its edits, in reverse order so that the last chunk is
# not last. The last chunk of 1000 bytes is short at all three sizes.
@pytest.mark.parametrize("chunk_size", [64, 1000, 1024])
@pytest.mark.parametrize("image_id", ["img00007", "img 7", "img-._~7"])
def test_read_chunk_and_add_equal_decode_json_and_accept(chunk_size, image_id):
    payload = Prng(chunk_size).randbytes(3000)
    meta_msg, *chunks = encode_upload(payload, image_id, chunk_size, (2, 2), "RAW")
    read_session = ReassemblySession(decode_json(meta_msg))
    decode_session = ReassemblySession(decode_json(meta_msg))
    outcomes = []
    for data in [edit for msg in reversed(chunks) for edit in _edits(msg)]:
        outcome = _read_then_add(read_session, data)
        assert outcome == _decode_then_accept(decode_session, data)
        outcomes.append(outcome if outcome == "fell through" else outcome[0])
    assert read_session.payload == decode_session.payload == payload
    assert set(outcomes) == {
        ReassemblyStatus.ACCEPTED, ReassemblyStatus.COMPLETE, ReassemblyStatus.DUPLICATE,
        ReassemblyStatus.CHUNK_CRC_MISMATCH, ReassemblyStatus.SEQ_OUT_OF_RANGE,
        "fell through"}


_CANONICAL = encode_upload(Prng(11).randbytes(100), "img0", 64, (2, 2), "RAW")[1]
_B64 = json.loads(_CANONICAL)["payload_b64"].encode()


def _with_b64(text: bytes) -> bytes:
    return _CANONICAL.replace(_B64, text)


# Chunk messages one edit away from _CANONICAL (seq 0, payload_len 64).
# Some are valid JSON for the same envelope, the rest are malformed.
NEAR_CANONICAL = {
    "escaped_id": _CANONICAL.replace(b'"img0"', b'"img\\u0030"'),
    "wildcard_id": _CANONICAL.replace(b'"img0"', b'"img*"'),
    "escaped_base64_char": _with_b64(b"\\u%04x" % _B64[0] + _B64[1:]),
    "escaped_slash_in_base64": _with_b64(b"\\/" + _B64[1:]),
    "backslash_in_base64": _with_b64(b"\\\\" + _B64[1:]),
    "non_ascii_in_base64": _with_b64("\u00e9".encode() + _B64[1:]),
    "non_utf8_in_base64": _with_b64(b"\xff" + _B64[1:]),
    "control_byte_in_base64": _with_b64(b"\x01" + _B64[1:]),
    "bad_padding": _with_b64(_B64[:-1]),
    "payload_len_plus_one": _CANONICAL.replace(b'"payload_len":64', b'"payload_len":65'),
    "payload_len_minus_one": _CANONICAL.replace(b'"payload_len":64', b'"payload_len":63'),
    "leading_zero": _CANONICAL.replace(b'"payload_len":64', b'"payload_len":064'),
    "huge_int": _CANONICAL.replace(b'"payload_len":64', b'"payload_len":' + b"6" * 5000),
    "negative_seq": _CANONICAL.replace(b'"seq":0', b'"seq":-1'),
    "seq_past_total": _CANONICAL.replace(b'"seq":0', b'"seq":2'),
    "reordered_keys": encode_object(dict(reversed(json.loads(_CANONICAL).items()))),
    "space_after_colon": _CANONICAL.replace(b'"seq":', b'"seq": '),
    "trailing_newline": _CANONICAL + b"\n",
}


# Base64 text and the bytes it holds, or None where it breaks the padding
# rule: a length that is a multiple of 4, with '=' only as the last one or
# two characters. Python 3.10-3.12 decode "QUJD=" and "QUJD==" to b"ABC",
# and 3.11-3.12 "QUJD====" too; 3.13 rejects all three. Each interpreter
# must give the results below.
BASE64_PADDING = {
    "QUJD": b"ABC",
    "QUI=": b"AB",
    "QQ==": b"A",
    "QUJDREVG": b"ABCDEF",
    "QUJD=": None,
    "QUJD==": None,
    "QUJD===": None,
    "QUJD====": None,
    "QUJ": None,
    "QQ=A": None,
    "Q===": None,
    "====": None,
    "QQ==QUJD": None,
    "=QUJ": None,
}


@pytest.mark.parametrize("text,raw", BASE64_PADDING.items(), ids=BASE64_PADDING.keys())
def test_base64_padding_rule_does_not_depend_on_the_interpreter(text, raw):
    env = ChunkEnvelope("img0", 0, 1, 3, text, crc32(b"ABC"))
    if raw is None:
        with pytest.raises(Base64Error):
            env.payload()
    else:
        assert env.payload() == raw
    # As a chunk message of payload_len 3, the text is accepted only if it
    # holds exactly b"ABC", by read_chunk and the JSON decoder alike.
    data = encode_envelope(env)
    outcome = _outcome(decode_json, data)
    if raw == b"ABC":
        assert outcome[0] == env and outcome[2] == b"ABC"
        assert chunkwire.read_chunk(data) == ("img0", 0, b"ABC", crc32(b"ABC"))
    else:
        assert outcome[0] is (Base64Error if raw is None else MalformedJson)
        assert chunkwire.read_chunk(data) is None


@pytest.mark.parametrize("data", NEAR_CANONICAL.values(), ids=NEAR_CANONICAL.keys())
def test_read_chunk_of_a_near_canonical_chunk_equals_decode(data):
    assert data != _CANONICAL
    session = ReassemblySession(TransferMetadata("img0", 100, 2, 64, 0, 2, 2, "RAW"))
    assert _read_then_add(session, data) == _decode_then_accept(
        ReassemblySession(session.metadata), data)


def _strict_b64(text: str):
    """Standard padded base64, by the strict decode: the bytes ``text``
    holds, if it is as long as their standard encoding; else None."""
    try:
        raw = base64.b64decode(text, validate=True)
    except binascii.Error:
        return None
    return raw if len(text) == (len(raw) + 2) // 3 * 4 else None


# Every text of up to 6 characters over two base64 values, '/', '=' and a
# character outside the alphabet, and the texts of BASE64_PADDING. An
# envelope's payload and read_chunk take the same text.
@pytest.mark.parametrize("length", [*range(7), "padding_table"])
def test_read_chunk_takes_exactly_the_strict_base64_text(length):
    texts = (BASE64_PADDING if length == "padding_table"
             else map("".join, itertools.product("AQ/=@", repeat=length)))
    for text in texts:
        raw = _strict_b64(text)
        env = ChunkEnvelope("img0", 0, 1, 1, text, 7)
        if raw is None:
            with pytest.raises(Base64Error):
                env.payload()
        else:
            assert env.payload() == raw, text
        try:
            lenient = len(binascii.a2b_base64(text))
        except binascii.Error:
            lenient = 0
        for payload_len in {1, len(text) * 3 // 4, lenient} - {0}:
            data = encode_envelope(ChunkEnvelope("img0", 0, 1, payload_len, text, 7))
            expected = ("img0", 0, raw, 7) if raw and len(raw) == payload_len else None
            assert chunkwire.read_chunk(data) == expected, (text, payload_len)


# One sample of each message type and its exact wire bytes. Wire size feeds
# the link timing, so these bytes guard the golden metrics file too.
WIRE_CONTRACT = {
    "meta": (TransferMetadata("img00007", 200, 4, 64, 305419896, 3, 4, "PNG"),
             b'{"msg_type":"meta","image_id":"img00007","total_bytes":200,"total_chunks":4,'
             b'"chunk_size_bytes":64,"crc32_full":305419896,"width_px":3,"height_px":4,'
             b'"format":"PNG"}'),
    "chunk": (ChunkEnvelope("img00007", 0, 1, 2, "QUI=", 812207111),
              b'{"msg_type":"chunk","image_id":"img00007","seq":0,"total_chunks":1,'
              b'"payload_len":2,"payload_b64":"QUI=","crc32_chunk":812207111}'),
    "result": (ResultMessage("img00007", "cloud", True, "Celebrity 03", True),
               b'{"msg_type":"result","image_id":"img00007","origin":"cloud",'
               b'"recognized":true,"label":"Celebrity 03","is_false_positive":true}'),
    "result_without_label": (
        ResultMessage("img00001", "edge", False, None, False),
        b'{"msg_type":"result","image_id":"img00001","origin":"edge",'
        b'"recognized":false,"label":null,"is_false_positive":false}'),
    "grant_request": (GrantRequest("img00007"),
                      b'{"msg_type":"grant_request","image_id":"img00007"}'),
    "grant": (Grant("img00007", "grant-000001", 12.5),
              b'{"msg_type":"grant","image_id":"img00007","upload_token":"grant-000001",'
              b'"expires_at":12.5}'),
    "cloud_upload": (CloudUpload("img00007", "grant-000001", "QUI="),
                     b'{"msg_type":"cloud_upload","image_id":"img00007",'
                     b'"upload_token":"grant-000001","payload_b64":"QUI="}'),
    "upload_rejected": (UploadRejected("img00007", "grant expired for img00007"),
                        b'{"msg_type":"upload_rejected","image_id":"img00007",'
                        b'"reason":"grant expired for img00007"}'),
}


@pytest.mark.parametrize("msg,wire", WIRE_CONTRACT.values(), ids=WIRE_CONTRACT.keys())
def test_wire_contract(msg, wire):
    assert encode(msg) == wire
    decoded = decode_json(wire)
    assert type(decoded) is type(msg) and decoded == msg


# 2**1024 - 2**970 lies halfway between the largest double and 2**1024, and
# rounds to even, which is 2**1024: it is the smallest integer that converts
# to no finite double.
FLOAT_FIELD_VALUES = {
    "1e308": (b"1e308", True),
    "largest_integer_that_fits": (b"%d" % (2**1024 - 2**970 - 1), True),
    "1e400": (b"1e400", False),
    "-1e400": (b"-1e400", False),
    "smallest_integer_that_overflows": (b"%d" % (2**1024 - 2**970), False),
}


@pytest.mark.parametrize("text,finite", FLOAT_FIELD_VALUES.values(),
                         ids=FLOAT_FIELD_VALUES.keys())
def test_a_float_field_takes_only_a_finite_double(text, finite):
    # JSON puts no limit on a number; a number that is no finite double would
    # re-encode as Infinity, which no reader takes, or as an integer that
    # means nothing in seconds.
    wire = WIRE_CONTRACT["grant"][1].replace(b"12.5", text)
    if not finite:
        with pytest.raises(MalformedJson, match="grant field of the wrong type"):
            decode_json(wire)
        return
    grant = decode_json(wire)
    assert decode_json(encode(grant)) == grant
