import json

import pytest

from continuumsim.chunkwire import (
    Base64Error,
    ChunkEnvelope,
    ChunkSizeTooSmall,
    CloudUpload,
    EmptyPayload,
    Grant,
    GrantRequest,
    MalformedJson,
    MissingField,
    ReassemblySession,
    ReassemblyState,
    ReassemblyStatus,
    ResultMessage,
    TransferMetadata,
    UnknownField,
    UploadRejected,
    crc32,
    decode,
    decode_envelope,
    decode_meta,
    encode,
    encode_envelope,
    encode_meta,
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


def test_fragment_rejects_empty_payload_and_tiny_chunks():
    with pytest.raises(EmptyPayload):
        fragment(b"", "img", 1024, (1, 1), "PNG")
    with pytest.raises(ChunkSizeTooSmall):
        fragment(b"data", "img", 63, (1, 1), "PNG")


def _session_for(payload: bytes, chunk_size: int = 1024):
    meta, envs = fragment(payload, "img", chunk_size, (64, 64), "PNG")
    return ReassemblySession(meta), envs


def test_reassembly_in_order():
    payload = b"\x5a" * 3000
    session, envs = _session_for(payload)
    statuses = [session.accept(env) for env in envs]
    assert statuses[-1] is ReassemblyStatus.COMPLETE
    assert session.state is ReassemblyState.COMPLETE
    assert session.payload == payload


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
    assert session.chunks == before
    assert session.state is ReassemblyState.AWAITING


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
    assert session.state is not ReassemblyState.COMPLETE
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
    assert session.state is ReassemblyState.FAILED
    # no transition out of FAILED
    assert session.accept(envs[0]) is ReassemblyStatus.ALREADY_FAILED
    assert session.state is ReassemblyState.FAILED


def test_shuffled_duplicated_round_trip_over_seeded_payloads():
    rng = Prng(404)
    for case in range(60):
        size = 1 + rng.randrange(8192)
        payload = rng.randbytes(size)
        chunk_size = (64, 512, 1024, 4096)[case % 4]
        meta, envs = fragment(payload, f"case{case}", chunk_size, (8, 8), "RAW")
        feed = list(envs) + [envs[rng.randrange(len(envs))] for _ in range(3)]
        rng.shuffle(feed)
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


def test_wire_chunk_is_base64_decoded_once(monkeypatch):
    payload = Prng(3).randbytes(300)
    meta, envs = fragment(payload, "img", 64, (1, 1), "PNG")
    decoded = [decode_envelope(encode_envelope(env)) for env in envs]
    assert decoded == envs and list(map(repr, decoded)) == list(map(repr, envs))
    calls = []
    original = ChunkEnvelope.payload
    monkeypatch.setattr(ChunkEnvelope, "payload",
                        lambda env: calls.append(env.seq) or original(env))
    session = ReassemblySession(meta)
    for env in envs:
        session.accept(decode_envelope(encode_envelope(env)))
    assert session.payload == payload
    assert calls == [env.seq for env in envs]


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


def test_meta_round_trip():
    meta, _ = fragment(b"\x01" * 5000, "img9", 512, (320, 240), "PNG")
    assert decode_meta(encode_meta(meta)) == meta


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
    assert decode(encode_meta(meta)) == meta
    assert [decode(encode_envelope(env)) for env in envs] == envs
    with pytest.raises(MissingField) as err:
        decode(b'{"image_id":"img"}')
    assert err.value.name == "msg_type"


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
    decoded = decode(wire)
    assert type(decoded) is type(msg) and decoded == msg
