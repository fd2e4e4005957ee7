import gc
import json
import weakref
from dataclasses import replace

import pytest

from continuumsim import chunkwire, nodes
from continuumsim.chunkwire import MalformedJson, UnknownField
from continuumsim.domain import (
    LinkParams,
    ScenarioConfig,
    StageDurations,
    TransportKind,
)
from continuumsim.metrics import MetricsRecord
from continuumsim.netsim import EventLoop, SimCore
from continuumsim.nodes import (
    CloudService,
    Collector,
    EdgeService,
    ExpiredGrant,
    IncompleteRecord,
    InvalidGrant,
    ResultMessage,
    compute_rtts,
    decode_result,
    encode_result,
    run_scenario,
)
from continuumsim.transport import KEY_CLOUD_REQUESTS_PREFIX, KEY_CLOUD_UPLOADS_PREFIX
from continuumsim.workload import Prng, make_face_db


def tiny_config(transport=TransportKind.PUBSUB, parallelism=False, n=4,
                t_io=0.2, t_ai=0.3, cloud=False, **kwargs) -> ScenarioConfig:
    sd = StageDurations(t_read_decode=t_io, t_quality=t_ai, t_infer1=0.0,
                        t_infer2=0.0, t_identify=0.05,
                        cloud_latency_mean=kwargs.pop("cloud_latency", 0.2),
                        cloud_latency_jitter=0.0)
    defaults = dict(
        transport=transport, parallelism=parallelism, cloud_enabled=cloud,
        dataset_size=n, stage_durations=sd,
        link_far_to_edge=LinkParams(0.001, 1_000_000.0),
        link_edge_to_cloud=LinkParams(0.001, 1_000_000.0),
        rng_seed=5, payload_bytes=2048, face_prob=1.0, known_prob=0.5)
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


def no_upload_config(t_io, t_ai, n, parallelism) -> ScenarioConfig:
    return tiny_config(parallelism=parallelism, n=n, t_io=t_io, t_ai=t_ai,
                       face_prob=0.0, known_prob=0.0, payload_bytes=64)


# ---------------------------------------------------------------------------
# Pipeline timing.


def test_sequential_runtime_is_exactly_n_times_per_image_cost():
    r = run_scenario(no_upload_config(t_io=0.25, t_ai=0.5, n=8, parallelism=False))
    assert r.wall == pytest.approx(8 * 0.75, abs=1e-12)
    assert r.summary.core0_util == 0.0  # sequential baseline leaves core 0 idle
    assert r.summary.core1_util == pytest.approx(1.0)


def pipeline_oracle(t_io, t_ai, n, cap):
    """Brute-force event enumeration of the two-stage bounded-queue pipeline
    (pop-at-start consumer)."""
    put_time = [0.0] * n
    read_end = [0.0] * n
    det_start = [0.0] * n
    det_end = [0.0] * n
    for k in range(n):
        read_start = put_time[k - 1] if k else 0.0
        read_end[k] = read_start + t_io
        space_at = det_start[k - cap] if k >= cap else 0.0
        put_time[k] = max(read_end[k], space_at)
        det_start[k] = max(put_time[k], det_end[k - 1] if k else 0.0)
        det_end[k] = det_start[k] + t_ai
    return det_end[-1]


@pytest.mark.parametrize("t_io", [0.5, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("t_ai", [0.5, 1.0, 2.0, 4.0])
def test_parallel_runtime_matches_enumeration_oracle_and_closed_form(t_io, t_ai):
    for n in (1, 5, 10):
        r = run_scenario(no_upload_config(t_io, t_ai, n, parallelism=True))
        oracle = pipeline_oracle(t_io, t_ai, n, cap=4)
        closed_form = t_io + t_ai + (n - 1) * max(t_io, t_ai)
        assert oracle == pytest.approx(closed_form, abs=1e-9)
        assert r.wall == pytest.approx(closed_form, abs=1e-9)


def test_parallel_runtime_with_queue_capacity_one():
    cfg = replace(no_upload_config(2.0, 0.5, 6, parallelism=True), queue_capacity=1)
    r = run_scenario(cfg)
    assert r.wall == pytest.approx(pipeline_oracle(2.0, 0.5, 6, cap=1), abs=1e-9)


def test_parallelism_never_hurts():
    rng = Prng(314)
    for _ in range(8):
        t_io = 0.05 + rng.uniform()
        t_ai = 0.05 + rng.uniform()
        n = 3 + rng.randrange(4)
        for transport in (TransportKind.PUBSUB, TransportKind.BLOCKING_SESSION):
            seq = run_scenario(tiny_config(transport, False, n, t_io, t_ai))
            par = run_scenario(tiny_config(transport, True, n, t_io, t_ai))
            assert par.wall <= seq.wall + 1e-9


def test_pubsub_never_slower_than_blocking_session():
    for parallelism in (False, True):
        blocking = run_scenario(tiny_config(TransportKind.BLOCKING_SESSION,
                                            parallelism, n=5))
        pubsub = run_scenario(tiny_config(TransportKind.PUBSUB, parallelism, n=5))
        assert pubsub.wall <= blocking.wall + 1e-9


# ---------------------------------------------------------------------------
# Results and escalation.


def test_every_upload_yields_exactly_one_result():
    for transport in (TransportKind.PUBSUB, TransportKind.BLOCKING_SESSION):
        for parallelism in (False, True):
            r = run_scenario(tiny_config(transport, parallelism, n=6, cloud=True))
            ids = [rec.image_id for rec in r.records]
            assert len(ids) == 6 and len(set(ids)) == 6
            assert all(rec.origin in ("edge", "cloud") for rec in r.records)


def test_result_multiset_is_transport_and_parallelism_independent():
    outcomes = []
    for transport in (TransportKind.PUBSUB, TransportKind.BLOCKING_SESSION):
        for parallelism in (False, True):
            r = run_scenario(tiny_config(transport, parallelism, n=10, cloud=True))
            outcomes.append(r.result_multiset)
    assert all(o == outcomes[0] for o in outcomes[1:])


def test_identical_payloads_delivered_under_both_transports():
    crcs = []
    for transport in (TransportKind.PUBSUB, TransportKind.BLOCKING_SESSION):
        cfg = tiny_config(transport, True, n=5)
        from continuumsim.nodes import build_dataset
        _, dataset = build_dataset(cfg)
        crcs.append(sorted((img.id, chunkwire.crc32(img.payload)) for img in dataset))
    assert crcs[0] == crcs[1]


def test_locally_recognized_faces_never_touch_the_cloud():
    r = run_scenario(tiny_config(n=6, cloud=True, known_prob=1.0))
    assert all(rec.origin == "edge" and rec.recognized for rec in r.records)
    assert all(rec.cloud_rtt is None for rec in r.records)
    assert all(rec.label.startswith("Person") for rec in r.records)


def test_unknown_faces_take_the_cloud_path():
    r = run_scenario(tiny_config(n=6, cloud=True, known_prob=0.0))
    assert all(rec.origin == "cloud" for rec in r.records)
    assert all(rec.cloud_rtt is not None and rec.cloud_rtt > 0 for rec in r.records)
    for rec in r.records:
        if rec.recognized:
            assert rec.is_false_positive and rec.label.startswith("Celebrity")
        else:
            assert rec.label is None


def test_unknown_faces_without_cloud_get_negative_edge_result():
    r = run_scenario(tiny_config(n=4, cloud=False, known_prob=0.0))
    assert all(rec.origin == "edge" and not rec.recognized for rec in r.records)


def test_no_face_images_are_skipped_after_detection_cost():
    cfg = tiny_config(n=5, cloud=True, face_prob=0.0)
    r = run_scenario(cfg)
    assert all(rec.origin == "none" and rec.t_upload == 0.0 for rec in r.records)
    assert r.wall == pytest.approx(5 * 0.5, abs=1e-9)


def test_cloud_rtt_strictly_exceeds_edge_rtt():
    r = run_scenario(tiny_config(n=10, cloud=True, known_prob=0.5))
    edge = [rec.edge_rtt for rec in r.records if rec.origin == "edge"]
    cloud = [rec.cloud_rtt for rec in r.records if rec.origin == "cloud"]
    assert edge and cloud
    assert min(cloud) > max(edge)


def test_edge_rtt_is_additive_over_upload_identify_response():
    cfg = tiny_config(n=1, cloud=False, known_prob=1.0, t_io=0.1, t_ai=0.1)
    from continuumsim.nodes import build_dataset
    _, dataset = build_dataset(cfg)
    img = dataset[0]
    meta, envs = chunkwire.fragment(img.payload, img.id, cfg.chunk_size_bytes,
                                    (img.width_px, img.height_px), img.format.value)
    wire = len(chunkwire.encode_meta(meta)) + sum(
        len(chunkwire.encode_envelope(e)) for e in envs)
    bandwidth = wire / 2.0  # upload serialization lasts exactly 2 s
    cfg = replace(cfg, link_far_to_edge=LinkParams(0.0, bandwidth))
    sd = replace(cfg.stage_durations, t_identify=1.09)
    cfg = replace(cfg, stage_durations=sd)
    r = run_scenario(cfg)
    rec = r.records[0]
    assert rec.origin == "edge"
    assert rec.t_upload == pytest.approx(2.0, abs=1e-9)
    response = len(encode_result(ResultMessage(
        img.id, "edge", rec.recognized, rec.label, False))) / bandwidth
    assert rec.edge_rtt == pytest.approx(2.0 + 1.09 + response, abs=1e-9)


def test_compute_rtts_requires_complete_records():
    r = run_scenario(tiny_config(n=3, cloud=True))
    table = compute_rtts(r.records)
    assert set(table) == {rec.image_id for rec in r.records}
    with pytest.raises(IncompleteRecord):
        compute_rtts([MetricsRecord(image_id="ghost")])


# ---------------------------------------------------------------------------
# Failure paths.


def test_cloud_timeout_degrades_to_negative_cloud_result():
    cfg = tiny_config(n=2, cloud=True, known_prob=0.0,
                      cloud_latency=500.0, cloud_timeout_s=1.0)
    r = run_scenario(cfg)
    assert all(rec.origin == "cloud" and not rec.recognized for rec in r.records)
    assert all(rec.label is None for rec in r.records)
    assert r.failure is None  # the run itself completes


def test_image_timeout_is_recorded_and_run_continues():
    cfg = tiny_config(n=3, cloud=True, known_prob=0.0,
                      cloud_latency=500.0, cloud_timeout_s=400.0,
                      image_timeout_s=2.0)
    r = run_scenario(cfg)
    assert len(r.records) == 3
    assert all(rec.origin == "none" and not rec.recognized for rec in r.records)


def test_send_timeout_aborts_run_with_partial_records():
    cfg = tiny_config(TransportKind.BLOCKING_SESSION, n=3,
                      link_far_to_edge=LinkParams(0.0, 50.0),
                      send_timeout_s=0.5, image_timeout_s=5.0)
    r = run_scenario(cfg)
    assert r.failure is not None
    # only the image that was in flight is flushed; the rest never started
    assert 0 < len(r.records) < 3
    assert all(rec.origin == "none" for rec in r.records)


def _corrupt(env: chunkwire.ChunkEnvelope) -> chunkwire.ChunkEnvelope:
    return chunkwire.ChunkEnvelope(env.image_id, env.seq, env.total_chunks,
                                   env.payload_len, env.payload_b64, env.crc32_chunk ^ 1)


# Each case: the chunk count; the chunks the edge gets after the meta
# message, by index in sequence order (negative: with its CRC flipped); and
# whether the transfer completes.
REASSEMBLY_FEEDS = {
    "first_bad": (2, [~0, 1], False),
    "bad_then_ok": (3, [~0, 0, 1, 2], True),
    "last_bad": (3, [0, 1, ~2], False),
}


@pytest.mark.parametrize("total,feed,completes", REASSEMBLY_FEEDS.values(),
                         ids=REASSEMBLY_FEEDS.keys())
def test_reassembly_corruption_yields_negative_result_without_cloud_call(total, feed,
                                                                         completes):
    # A transfer ends with a negative edge result, and no cloud call, once
    # every chunk has arrived and one has only failed its CRC. A clean copy
    # of a discarded chunk still completes it: the image is then served,
    # and with no local match it goes to the cloud, which here never answers.
    loop = EventLoop()
    cfg = tiny_config(n=1, cloud=True)
    db = make_face_db(cfg.rng_seed, cfg.db_size)
    collector = Collector(loop)
    sent = []
    cloud_calls = []
    edge = EdgeService(loop, cfg, db, {}, collector, SimCore(loop, 2),
                       send_result=lambda _id, d: sent.append(d),
                       cloud_send=lambda key, _data: cloud_calls.append(key))
    meta, envs = chunkwire.fragment(b"\xee" * (1024 * total), "imgX", 1024, (2, 2), "RAW")
    edge.on_upload_message(chunkwire.encode_meta(meta))
    for i in feed:
        env = envs[i] if i >= 0 else _corrupt(envs[~i])
        edge.on_upload_message(chunkwire.encode_envelope(env))
    assert len(sent) == (0 if completes else 1)
    loop.run()
    assert edge.dropped_chunks == 0
    assert (collector.trace("imgX").reassembled_at is not None) == completes
    assert [decode_result(d) for d in sent] == [
        ResultMessage("imgX", "cloud" if completes else "edge", False, None, False)]
    assert cloud_calls == ([KEY_CLOUD_REQUESTS_PREFIX + "imgX"] if completes else [])


def test_failed_result_send_ends_the_run_with_one_record_per_image():
    # The edge's blocking result send times out while the far edge still
    # has images pending: the run returns its failure, and every image has
    # exactly one record.
    r = run_scenario(tiny_config(
        TransportKind.BLOCKING_SESSION, parallelism=True, n=12, cloud=True,
        known_prob=0.5, payload_bytes=64, chunk_size_bytes=64, t_io=0.01, t_ai=0.01,
        link_far_to_edge=LinkParams(0.0, 50.0), send_timeout_s=4.9, cloud_latency=7.5))
    assert r.failure is not None
    ids = [rec.image_id for rec in r.records]
    assert sorted(ids) == [f"img{i:05d}" for i in range(12)]
    origins = [rec.origin for rec in r.records]
    assert (origins.count("edge"), origins.count("cloud"), origins.count("none")) == (7, 2, 3)


@pytest.mark.parametrize("cloud", [False, True], ids=["no_cloud", "cloud"])
@pytest.mark.parametrize("transport", list(TransportKind), ids=lambda t: t.name.lower())
def test_duplicated_result_delivery_changes_nothing(transport, cloud, monkeypatch):
    cfg = tiny_config(transport, n=6, cloud=cloud)
    undisturbed = run_scenario(cfg)
    on_result_message = nodes.FarEdgeNode.on_result_message

    def deliver_twice(far, data):
        on_result_message(far, data)
        on_result_message(far, data)

    monkeypatch.setattr(nodes.FarEdgeNode, "on_result_message", deliver_twice)
    r = run_scenario(cfg)
    assert r.records == undisturbed.records
    assert r.summary.total_runtime == undisturbed.summary.total_runtime


def test_presigned_grants_are_single_use_and_expire():
    loop = EventLoop()
    cfg = tiny_config(n=1, cloud=True, grant_ttl_s=10.0)
    cloud = CloudService(loop, cfg, {}, send_to_edge=lambda _id, _d: None)
    grant = cloud.issue_grant("imgA")
    assert cloud.redeem(grant.upload_token, "imgA").used
    with pytest.raises(InvalidGrant):
        cloud.redeem(grant.upload_token, "imgA")  # single use
    with pytest.raises(InvalidGrant):
        cloud.redeem("grant-999999", "imgA")  # unknown token
    other = cloud.issue_grant("imgB")
    with pytest.raises(InvalidGrant):
        cloud.redeem(other.upload_token, "imgZ")  # bound to one image
    stale = cloud.issue_grant("imgC")
    loop.schedule(60.0, lambda: None)
    loop.run()
    with pytest.raises(ExpiredGrant):
        cloud.redeem(stale.upload_token, "imgC")


def test_rejected_upload_becomes_negative_cloud_result():
    cfg = tiny_config(n=2, cloud=True, known_prob=0.0, grant_ttl_s=0.0)
    r = run_scenario(cfg)
    assert all(rec.origin == "cloud" and not rec.recognized for rec in r.records)


def test_upload_for_unknown_image_is_rejected():
    loop = EventLoop()
    cfg = tiny_config(n=1, cloud=True)
    replies = []
    cloud = CloudService(loop, cfg, {},
                         send_to_edge=lambda _id, data: replies.append(json.loads(data)))
    cloud.on_message(b'{"msg_type":"grant_request","image_id":"ghost"}')
    cloud.on_message(json.dumps({
        "msg_type": "cloud_upload", "image_id": "ghost",
        "upload_token": replies[0]["upload_token"], "payload_b64": "",
    }).encode("utf-8"))
    loop.run()
    assert [r["msg_type"] for r in replies] == ["grant", "upload_rejected"]
    assert replies[1]["image_id"] == "ghost"


def _upload_messages(image_id: str, payload: bytes, chunk_size: int = 64) -> list[bytes]:
    meta, envs = chunkwire.fragment(payload, image_id, chunk_size, (2, 2), "RAW")
    return [chunkwire.encode_meta(meta)] + [chunkwire.encode_envelope(e) for e in envs]


def _edited(data: bytes, **fields) -> bytes:
    return chunkwire.encode_object({**json.loads(data), **fields})


_META, _CHUNK0, _CHUNK1 = _upload_messages("img00000", b"\x01" * 128)

MALFORMED_UPLOADS = {
    "non_utf8": b"\xff\xfe{}",
    "non_json": b"{not json",
    "non_object": b'["msg_type","meta"]',
    "missing_key": b'{"msg_type":"meta","image_id":"img00000"}',
    "unknown_key": _upload_messages("img00000", b"\x01" * 64)[1][:-1] + b',"hops":1}',
    "bad_base64": _upload_messages("img00000", b"\x01" * 64)[1].replace(
        b'"payload_b64":"', b'"payload_b64":"@@'),
    "non_string_base64": b'{"msg_type":"chunk","image_id":"img00000","seq":0,'
                         b'"total_chunks":1,"payload_len":1,"payload_b64":5,"crc32_chunk":0}',
    "non_string_image_id": _edited(_META, image_id=[]),
    "zero_chunk_size": _edited(_META, chunk_size_bytes=0),
    "bool_seq": _edited(_CHUNK1, seq=True),
    "float_seq": _edited(_CHUNK0, seq=0.0),
    "empty_image_id": _edited(_META, image_id=""),
    "wildcard_image_id": _edited(_META, image_id="*"),
    "image_id_with_slash": _edited(_META, image_id="a/b"),
    "chunk_image_id_with_wildcard": _edited(_CHUNK0, image_id="img*"),
}


@pytest.mark.parametrize("data", MALFORMED_UPLOADS.values(), ids=MALFORMED_UPLOADS.keys())
def test_malformed_upload_message_is_dropped_counted_and_times_out(data, monkeypatch):
    loop = EventLoop()
    cfg = tiny_config(n=1)
    edge = EdgeService(loop, cfg, make_face_db(cfg.rng_seed, cfg.db_size), {},
                       Collector(loop), SimCore(loop, 2), send_result=None)
    edge.on_upload_message(data)
    assert edge.malformed_messages == 1

    # In a run, the first image's meta message is replaced by ``data``: the
    # edge drops it and every chunk after it, and the image ends through the
    # far edge's image timeout with exactly one result.
    encode_meta = chunkwire.encode_meta
    monkeypatch.setattr(chunkwire, "encode_meta", lambda meta: (
        data if meta.image_id == "img00000" else encode_meta(meta)))
    for transport in TransportKind:
        r = run_scenario(tiny_config(transport, n=3, image_timeout_s=30.0))
        assert r.failure is None
        assert sorted(rec.image_id for rec in r.records) == ["img00000", "img00001", "img00002"]
        first = next(rec for rec in r.records if rec.image_id == "img00000")
        assert first.origin == "none" and first.completion_s >= 30.0
        assert all(rec.origin == "edge" for rec in r.records if rec is not first)


@pytest.mark.parametrize("bad_id", ["", "*", "a/b"], ids=["empty", "wildcard", "slash"])
@pytest.mark.parametrize("transport", list(TransportKind), ids=lambda t: t.name.lower())
def test_image_id_that_is_not_a_key_segment_ends_by_timeout(bad_id, transport, monkeypatch):
    # The far edge sends the first image under ``bad_id``: the edge drops
    # its messages, and the image ends through the far edge's image timeout.
    encode_upload = chunkwire.encode_upload
    monkeypatch.setattr(chunkwire, "encode_upload", lambda payload, image_id, *rest: encode_upload(
        payload, bad_id if image_id == "img00000" else image_id, *rest))
    r = run_scenario(tiny_config(transport, n=2, cloud=True, image_timeout_s=30.0))
    assert r.failure is None
    origins = {rec.image_id: rec.origin for rec in r.records}
    assert origins["img00000"] == "none"
    assert origins["img00001"] in ("edge", "cloud")
    assert len(r.records) == 2


def test_upload_message_is_parsed_once(monkeypatch):
    loop = EventLoop()
    cfg = tiny_config(n=1)
    edge = EdgeService(loop, cfg, make_face_db(cfg.rng_seed, cfg.db_size), {},
                       Collector(loop), SimCore(loop, 2), send_result=lambda _id, _d: None)
    messages = _upload_messages("imgP", Prng(8).randbytes(300))
    parses = []
    parse_object = chunkwire.parse_object
    monkeypatch.setattr(chunkwire, "parse_object",
                        lambda data: parses.append(data) or parse_object(data))
    for data in messages:
        edge.on_upload_message(data)
    assert parses == messages
    assert edge.malformed_messages == edge.dropped_chunks == 0


GRANT_WITHOUT_TOKEN = b'{"msg_type":"grant","image_id":"imgQ"}'
GRANT = b'{"msg_type":"grant","image_id":"imgQ","upload_token":"grant-000001","expires_at":9.0}'
RESULT_WITHOUT_LABEL = (b'{"msg_type":"result","image_id":"imgQ","origin":"cloud",'
                        b'"recognized":true,"is_false_positive":false}')
RESULT_OF_WRONG_TYPES = (b'{"msg_type":"result","image_id":"imgQ","origin":"moon",'
                         b'"recognized":"yes","label":7,"is_false_positive":0}')
BAD_CLOUD_REPLIES = {
    "grant_without_token": (GRANT_WITHOUT_TOKEN, RESULT_WITHOUT_LABEL),
    "result_without_label": (GRANT, RESULT_WITHOUT_LABEL),
    "result_of_wrong_types": (GRANT, RESULT_OF_WRONG_TYPES),
}


@pytest.mark.parametrize("grant,verdict", BAD_CLOUD_REPLIES.values(),
                         ids=BAD_CLOUD_REPLIES.keys())
def test_cloud_reply_without_its_keys_is_a_negative_counted_result(grant, verdict):
    # The edge drops the reply, and the image ends by the cloud timeout.
    loop = EventLoop()
    cfg = tiny_config(n=1, cloud=True)
    sent, cloud_keys = [], []
    replies = {"grant_request": grant, "cloud_upload": verdict}

    def cloud_send(key, data):
        cloud_keys.append(key)
        reply = replies[json.loads(data)["msg_type"]]
        loop.schedule(0.1, lambda: edge.on_cloud_message(reply))

    edge = EdgeService(loop, cfg, make_face_db(cfg.rng_seed, cfg.db_size), {},
                       Collector(loop), SimCore(loop, 2),
                       send_result=lambda _id, d: sent.append(d),
                       cloud_send=cloud_send)
    for data in _upload_messages("imgQ", b"\x33" * 200):
        edge.on_upload_message(data)
    loop.run()
    assert [decode_result(d) for d in sent] == [ResultMessage("imgQ", "cloud", False, None, False)]
    assert edge.malformed_messages == 1
    assert loop.now >= cfg.cloud_timeout_s
    expected_keys = [KEY_CLOUD_REQUESTS_PREFIX + "imgQ"]
    if grant is GRANT:
        expected_keys.append(KEY_CLOUD_UPLOADS_PREFIX + "imgQ")
    assert cloud_keys == expected_keys


MALFORMED_CLOUD_LEG = {
    "non_utf8": b"\xff\xfe{}",
    "non_json": b"{not json",
    "non_object": b'["msg_type","grant"]',
    "non_string_id": b'{"msg_type":"grant","image_id":[]}',
    "non_string_token": _edited(GRANT, upload_token=1),
    "rejection_with_extra_key": b'{"msg_type":"upload_rejected","image_id":"imgQ",'
                                b'"reason":"expired","hops":1}',
    "id_with_slash": b'{"msg_type":"upload_rejected","image_id":"a/b","reason":"expired"}',
}


@pytest.mark.parametrize("data", MALFORMED_CLOUD_LEG.values(), ids=MALFORMED_CLOUD_LEG.keys())
def test_malformed_cloud_leg_message_is_dropped_and_counted(data):
    loop = EventLoop()
    cfg = tiny_config(n=1, cloud=True)
    replies = []
    cloud = CloudService(loop, cfg, {}, send_to_edge=lambda _id, d: replies.append(d))
    edge = EdgeService(loop, cfg, make_face_db(cfg.rng_seed, cfg.db_size), {},
                       Collector(loop), SimCore(loop, 2),
                       send_result=lambda _id, d: replies.append(d),
                       cloud_send=lambda _id, d: replies.append(d))
    cloud.on_message(data)
    edge.on_cloud_message(data)
    loop.run()
    assert (cloud.malformed_messages, edge.malformed_messages) == (1, 1)
    assert replies == []


MALFORMED_CLOUD_REQUESTS = {
    "grant_request_without_id": {"msg_type": "grant_request"},
    "grant_request_with_extra_key": {"msg_type": "grant_request", "image_id": "imgA",
                                     "hops": "1"},
    "non_string_id": {"msg_type": "grant_request", "image_id": ["imgA"]},
    "upload_without_token": {"msg_type": "cloud_upload", "image_id": "imgA",
                             "payload_b64": ""},
    "non_string_token": {"msg_type": "cloud_upload", "image_id": "imgA",
                         "upload_token": [], "payload_b64": ""},
    "unknown_msg_type": {"msg_type": "grant", "image_id": "imgA"},
    "non_string_msg_type": {"msg_type": ["grant_request"], "image_id": "imgA"},
    "empty_id": {"msg_type": "grant_request", "image_id": ""},
    "wildcard_id": {"msg_type": "grant_request", "image_id": "*"},
    "upload_id_with_slash": {"msg_type": "cloud_upload", "image_id": "imgA/b",
                             "upload_token": "grant-000001", "payload_b64": ""},
}


@pytest.mark.parametrize("doc", MALFORMED_CLOUD_REQUESTS.values(),
                         ids=MALFORMED_CLOUD_REQUESTS.keys())
def test_malformed_cloud_request_is_dropped_and_counted(doc):
    loop = EventLoop()
    cfg = tiny_config(n=1, cloud=True)
    replies = []
    cloud = CloudService(loop, cfg, {"imgA": None},
                         send_to_edge=lambda _id, d: replies.append(d))
    cloud.issue_grant("imgA")
    cloud.on_message(chunkwire.encode_object(doc))
    loop.run()
    assert cloud.malformed_messages == 1
    assert replies == []


WRONG_TYPE_MESSAGES = {
    "meta_to_cloud": ("cloud", "on_message", _META),
    "grant_request_to_far_edge": ("far", "on_result_message",
                                  b'{"msg_type":"grant_request","image_id":"img00000"}'),
    "result_to_edge_upload_handler": ("edge", "on_upload_message", encode_result(
        ResultMessage("img00000", "edge", False, None, False))),
    "chunk_to_edge_cloud_leg": ("edge", "on_cloud_message", _CHUNK0),
}


@pytest.mark.parametrize("node,handler,data", WRONG_TYPE_MESSAGES.values(),
                         ids=WRONG_TYPE_MESSAGES.keys())
def test_handler_drops_and_counts_a_message_of_a_type_it_does_not_take(node, handler, data):
    loop = EventLoop()
    cfg = tiny_config(n=1, cloud=True)
    sent = []
    tiers = {
        "far": nodes.FarEdgeNode(loop, cfg, None, Collector(loop), SimCore(loop, 0),
                                 SimCore(loop, 1)),
        "edge": EdgeService(loop, cfg, make_face_db(cfg.rng_seed, cfg.db_size), {},
                            Collector(loop), SimCore(loop, 2),
                            send_result=lambda _id, d: sent.append(d),
                            cloud_send=lambda _key, d: sent.append(d)),
        "cloud": CloudService(loop, cfg, {"img00000": None},
                              send_to_edge=lambda _id, d: sent.append(d)),
    }
    getattr(tiers[node], handler)(data)
    loop.run()
    assert tiers[node].malformed_messages == 1
    assert sent == []


@pytest.mark.parametrize("transport", list(TransportKind), ids=lambda t: t.name.lower())
def test_refused_grant_request_leaves_no_timeout_running(transport, monkeypatch):
    # The cloud's grant for the first image becomes a refusal: the edge
    # answers at once, and the run ends with the last result, not with the
    # cloud timeout of the first image.
    encode_object = chunkwire.encode_object

    def refuse_first_grant(doc):
        if doc["msg_type"] == "grant" and doc["image_id"] == "img00000":
            doc = {"msg_type": "upload_rejected", "image_id": "img00000", "reason": "busy"}
        return encode_object(doc)

    monkeypatch.setattr(chunkwire, "encode_object", refuse_first_grant)
    r = run_scenario(tiny_config(transport, n=3, cloud=True, known_prob=0.0,
                                 cloud_timeout_s=50.0))
    assert r.failure is None and len(r.records) == 3
    first = next(rec for rec in r.records if rec.image_id == "img00000")
    assert first.origin == "cloud" and not first.recognized
    # A blocking session's last result is acknowledged one link latency
    # (1 ms) after it arrives.
    last = max(rec.completion_s for rec in r.records)
    assert r.summary.total_runtime == pytest.approx(last, abs=0.0011)


def test_grant_request_without_image_id_ends_in_a_negative_cloud_result(monkeypatch):
    # In a run, the edge's grant request for the first image loses its
    # image_id: the cloud drops it, and the edge's cloud timeout answers.
    encode_object = chunkwire.encode_object

    def drop_first_id(doc):
        if doc.get("msg_type") == "grant_request" and doc["image_id"] == "img00000":
            doc = {"msg_type": "grant_request"}
        return encode_object(doc)

    monkeypatch.setattr(chunkwire, "encode_object", drop_first_id)
    for transport in TransportKind:
        r = run_scenario(tiny_config(transport, n=3, cloud=True, known_prob=0.0,
                                     cloud_timeout_s=20.0))
        assert r.failure is None
        assert sorted(rec.image_id for rec in r.records) == ["img00000", "img00001", "img00002"]
        assert all(rec.origin == "cloud" for rec in r.records)
        first = next(rec for rec in r.records if rec.image_id == "img00000")
        assert not first.recognized and first.cloud_rtt >= 20.0


def _run_with_the_cyclic_collector_off(cfg, monkeypatch):
    """Run ``cfg`` with ``gc`` disabled; returns the result and a weak
    reference to each record of its dataset."""
    refs = []
    build_dataset = nodes.build_dataset

    def build_and_watch(cfg):
        db, dataset = build_dataset(cfg)
        refs.extend(weakref.ref(image) for image in dataset)
        return db, dataset

    monkeypatch.setattr(nodes, "build_dataset", build_and_watch)
    gc.disable()
    try:
        return run_scenario(cfg), refs
    finally:
        gc.enable()


@pytest.mark.parametrize("parallelism", [False, True], ids=["sequential", "parallel"])
@pytest.mark.parametrize("cloud", [False, True], ids=["no_cloud", "cloud"])
@pytest.mark.parametrize("transport", list(TransportKind), ids=lambda t: t.name.lower())
def test_run_frees_its_dataset_without_the_cyclic_collector(transport, cloud, parallelism,
                                                            monkeypatch):
    r, refs = _run_with_the_cyclic_collector_off(
        tiny_config(transport, parallelism, n=4, cloud=cloud), monkeypatch)
    assert len(r.records) == len(refs) == 4
    assert [ref() for ref in refs] == [None] * 4


# t_io 0.05: the reader waits on the full read queue when the send times
# out; t_io 0.2: it is still reading then, and fills the queue afterwards.
@pytest.mark.parametrize("t_io", [0.05, 0.2])
def test_failed_parallel_run_frees_its_dataset_without_the_cyclic_collector(
        t_io, monkeypatch):
    r, refs = _run_with_the_cyclic_collector_off(
        tiny_config(TransportKind.BLOCKING_SESSION, True, n=6, t_io=t_io,
                    link_far_to_edge=LinkParams(0.0, 50.0), send_timeout_s=0.5),
        monkeypatch)
    assert r.failure is not None
    assert len(refs) == 6
    assert [ref() for ref in refs] == [None] * 6


def test_failed_parallel_run_stops_reading_at_the_failure():
    # The send of the first image times out at 1.0 s; the reader has read
    # five images by then and must not book a sixth.
    summaries = [run_scenario(tiny_config(
        TransportKind.BLOCKING_SESSION, parallelism, n=8, t_io=0.2, t_ai=0.3,
        link_far_to_edge=LinkParams(0.0, 50.0), send_timeout_s=0.5)).summary
        for parallelism in (False, True)]
    sequential, parallel = summaries
    assert sequential.total_runtime == pytest.approx(1.0)
    assert parallel.total_runtime == pytest.approx(1.0)
    assert parallel.core1_util == pytest.approx(1.0)


@pytest.mark.parametrize("parallelism", [False, True], ids=["sequential", "parallel"])
@pytest.mark.parametrize("transport", list(TransportKind), ids=lambda t: t.name.lower())
def test_payload_bytes_are_made_once_per_uploaded_image(transport, parallelism,
                                                        monkeypatch):
    calls = []
    randbytes = Prng.randbytes
    monkeypatch.setattr(Prng, "randbytes",
                        lambda rng, n: calls.append(n) or randbytes(rng, n))
    r = run_scenario(tiny_config(transport, parallelism, n=5, face_prob=0.0,
                                 known_prob=0.0))
    assert len(r.records) == 5 and calls == []
    r = run_scenario(tiny_config(transport, parallelism, n=5, cloud=True))
    assert all(rec.origin in ("edge", "cloud") for rec in r.records)
    assert calls == [2048] * 5


# ---------------------------------------------------------------------------
# Result message wire format.


def test_result_message_rejects_unknown_fields():
    doc = json.loads(encode_result(ResultMessage("a", "edge", False, None, False)))
    doc["extra"] = 1
    with pytest.raises(UnknownField):
        decode_result(json.dumps(doc).encode())


BAD_RESULT_VALUES = {
    "non_string_image_id": {"image_id": 5},
    "image_id_with_slash": {"image_id": "a/b"},
    "wildcard_image_id": {"image_id": "*"},
    "unknown_origin": {"origin": "moon"},
    "string_recognized": {"recognized": "yes"},
    "integer_label": {"label": 7},
    "integer_false_positive_flag": {"is_false_positive": 0},
}


@pytest.mark.parametrize("fields", BAD_RESULT_VALUES.values(), ids=BAD_RESULT_VALUES.keys())
def test_result_message_rejects_values_of_the_wrong_type(fields):
    doc = json.loads(encode_result(ResultMessage("a", "cloud", True, "Person 1", False)))
    with pytest.raises(MalformedJson):
        decode_result(chunkwire.encode_object({**doc, **fields}))


MALFORMED_RESULTS = {
    "non_json": b"not json",
    "missing_keys": b'{"msg_type":"result"}',
    "wrong_types": b'{"msg_type":"result","image_id":"img00000","origin":"moon",'
                   b'"recognized":"yes","label":7,"is_false_positive":0}',
}


@pytest.mark.parametrize("data", MALFORMED_RESULTS.values(), ids=MALFORMED_RESULTS.keys())
def test_malformed_result_is_dropped_counted_and_times_out(data, monkeypatch):
    loop = EventLoop()
    cfg = tiny_config(n=1)
    far = nodes.FarEdgeNode(loop, cfg, None, Collector(loop), SimCore(loop, 0),
                            SimCore(loop, 1))
    far.on_result_message(data)
    assert far.malformed_messages == 1

    # In a run, the edge's result for the first image is replaced by
    # ``data``: the far edge drops it, and the image ends by its timeout.
    encode_result = nodes.encode_result
    monkeypatch.setattr(nodes, "encode_result", lambda msg: (
        data if msg.image_id == "img00000" else encode_result(msg)))
    for transport in TransportKind:
        r = run_scenario(tiny_config(transport, n=3, image_timeout_s=30.0))
        assert r.failure is None
        assert sorted(rec.image_id for rec in r.records) == ["img00000", "img00001", "img00002"]
        first = next(rec for rec in r.records if rec.image_id == "img00000")
        assert first.origin == "none" and first.completion_s >= 30.0
        assert all(rec.origin == "edge" for rec in r.records if rec is not first)


# ---------------------------------------------------------------------------
# Stage bookkeeping.


def test_records_carry_configured_stage_times():
    r = run_scenario(tiny_config(n=3, t_io=0.2, t_ai=0.3))
    for rec in r.records:
        assert rec.t_read_decode == pytest.approx(0.2)
        assert rec.t_detect_total == pytest.approx(0.3)
        assert rec.t_identify == pytest.approx(0.05)


def test_parallel_mode_uses_both_cores():
    r = run_scenario(no_upload_config(0.3, 0.4, 6, parallelism=True))
    assert r.summary.core0_util > 0.0
    assert r.summary.core1_util > 0.0


def test_jitter_spreads_detection_times_deterministically():
    cfg = tiny_config(n=8, jitter_pct=0.1)
    a = run_scenario(cfg)
    b = run_scenario(cfg)
    totals = [rec.t_detect_total for rec in a.records]
    assert totals == [rec.t_detect_total for rec in b.records]
    assert len(set(totals)) > 1
    assert all(0.3 * 0.9 - 1e-9 <= t <= 0.3 * 1.1 + 1e-9 for t in totals)
