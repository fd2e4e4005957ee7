import base64
import gc
import hashlib
import heapq
import itertools
import json
import sys
import weakref
from collections import Counter
from dataclasses import astuple, fields, replace
from functools import partial

import pytest

from continuumsim import chunkwire, netsim, nodes, workload
from continuumsim.chunkwire import MalformedJson, UnknownField, UploadRejected
from continuumsim.domain import (
    EmbeddingVec,
    ImageFormat,
    ImageRecord,
    LinkParams,
    ScenarioConfig,
    StageDurations,
    TimeMode,
    TransportKind,
)
from continuumsim.netsim import EventHandle, EventLoop, SimCore, SimLink
from continuumsim.nodes import (
    CloudService,
    EdgeService,
    ResultMessage,
    decode_result,
    encode_result,
    _ImageTrace,
    run_scenario,
)
from continuumsim.presets import base_config
from continuumsim.transport import (
    KEY_CLOUD_REQUESTS_PREFIX,
    KEY_CLOUD_RESULTS_PREFIX,
    KEY_CLOUD_UPLOADS_PREFIX,
    KEY_FACES_DETECTED,
    KEY_RESULTS_PREFIX,
    PubSubEndpoint,
    PubSubFabric,
    _Stream,
)
from continuumsim.workload import Prng, make_face_db
from test_random_configs import _edge_close_config, random_config


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
    assert r.summary.total_runtime == pytest.approx(8 * 0.75, abs=1e-12)
    assert r.summary.core0_util == 0.0  # sequential baseline leaves core 0 idle
    assert r.summary.core1_util == pytest.approx(1.0)


@pytest.mark.parametrize("t_io, t_ai", [(0.25, 0.0), (0.0, 0.5), (0.0, 0.0)])
def test_sequential_image_waits_for_its_read_and_its_detection(t_io, t_ai):
    """Image k ends at exactly (k + 1) x (t_io + t_ai), also when one stage
    or both take no time: a zero-duration detection still starts at the end
    of the read booked before it."""
    r = run_scenario(no_upload_config(t_io, t_ai, 8, parallelism=False))
    step = t_io + t_ai
    assert [rec.completion_s for rec in r.records] == [(k + 1) * step for k in range(8)]
    assert r.summary.total_runtime == (8 * step if step else 1e-9)
    assert r.summary.core1_util == (1.0 if step else 0.0)


@pytest.mark.parametrize("t_io, t_ai, ends", [
    (0.25, 0.0, [(k + 1) * 0.25 + 0.125 for k in range(8)]),
    (0.0, 0.5, [(k + 1) * 0.625 for k in range(8)]),
    (0.0, 0.0, [(k + 1) * 0.125 for k in range(8)]),
])
def test_parallel_worker_waits_once_for_detection_and_handoff(t_io, t_ai, ends):
    """Each image ends 0.125 s of hand-off after its detection's end: image
    k is read by (k + 1) x t_io, and the worker takes it once the image
    before it has ended."""
    cfg = replace(no_upload_config(t_io, t_ai, 8, parallelism=True),
                  parallel_handoff_s=0.125)
    r = run_scenario(cfg)
    assert [rec.completion_s for rec in r.records] == ends
    assert r.summary.total_runtime == ends[-1]


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
        assert r.summary.total_runtime == pytest.approx(closed_form, abs=1e-9)


def test_parallel_runtime_with_queue_capacity_one():
    cfg = replace(no_upload_config(2.0, 0.5, 6, parallelism=True), queue_capacity=1)
    r = run_scenario(cfg)
    assert r.summary.total_runtime == pytest.approx(pipeline_oracle(2.0, 0.5, 6, cap=1), abs=1e-9)


def test_parallelism_never_hurts():
    rng = Prng(314)
    for _ in range(8):
        t_io = 0.05 + rng.uniform()
        t_ai = 0.05 + rng.uniform()
        n = 3 + rng.randrange(4)
        for transport in (TransportKind.PUBSUB, TransportKind.BLOCKING_SESSION):
            seq = run_scenario(tiny_config(transport, False, n, t_io, t_ai))
            par = run_scenario(tiny_config(transport, True, n, t_io, t_ai))
            assert par.summary.total_runtime <= seq.summary.total_runtime + 1e-9


def test_pubsub_never_slower_than_blocking_session():
    for parallelism in (False, True):
        blocking = run_scenario(tiny_config(TransportKind.BLOCKING_SESSION,
                                            parallelism, n=5))
        pubsub = run_scenario(tiny_config(TransportKind.PUBSUB, parallelism, n=5))
        assert pubsub.summary.total_runtime <= blocking.summary.total_runtime + 1e-9


def _run_counting_events(cfg, monkeypatch):
    """Run ``cfg``; returns its result and the events its loop executed."""
    loops = []

    class CountedLoop(EventLoop):
        def __init__(self):
            super().__init__()
            loops.append(self)

    monkeypatch.setattr(nodes, "EventLoop", CountedLoop)
    r = run_scenario(cfg)
    (loop,) = loops
    return r, loop.executed


# Exact event counts: the engine must schedule no event these runs do not
# need. Each upload row sends 102 messages between far edge and edge: 33 per
# image (a meta frame and 32 chunks of 64 B) and three results.
# - A message costs one event on either transport, its delivery from its
#   link's FIFO. A pub/sub stream costs one more, its accepted gate, when
#   its last message waits for a queue slot (all three streams here); a
#   blocking stream one more, at its last ack, whatever its length: the
#   three uploads and the three one-message results.
# - Each run starts one process, the far edge's, and the edge one per upload.
# - A core booking costs no event, nor does a face-less frame. The far edge
#   waits on the loop before each upload, for its frame's handoff to end,
#   and once at its end for the last instant it booked, if it is not there
#   yet; the edge waits for each identification.
# So pubsub is 102 + 3 + (1 + 3) + 3 + 3 = 115, blocking 102 + (3 + 3) +
# (1 + 3) + 3 + 3 = 118, and each no-upload row its one start and its final
# wait.
@pytest.mark.parametrize("cfg, events", [
    (tiny_config(TransportKind.PUBSUB, True, n=3, cloud=True, chunk_size_bytes=64), 115),
    (tiny_config(TransportKind.BLOCKING_SESSION, True, n=3, cloud=True,
                 chunk_size_bytes=64), 118),
    (no_upload_config(0.25, 0.5, 8, parallelism=True), 2),
    (no_upload_config(0.25, 0.5, 8, parallelism=False), 2),
    (replace(no_upload_config(0.25, 0.5, 8, parallelism=True),
             parallel_handoff_s=0.125), 2),
], ids=["pubsub", "blocking", "no_upload", "no_upload_sequential", "no_upload_handoff"])
def test_event_count_is_pinned(cfg, events, monkeypatch):
    r, executed = _run_counting_events(cfg, monkeypatch)
    assert len(r.records) == cfg.dataset_size and r.failure is None
    assert executed == events


# ---------------------------------------------------------------------------
# Tie order: events due at the same instant may fire in any order.


class ShuffledTies(EventLoop):
    """Fires events due at the same instant in a seeded random order in
    place of their scheduling order. Every event enters through
    ``schedule_at``."""

    def __init__(self, seed: int):
        super().__init__()
        self._rng = Prng(seed)

    def schedule_at(self, fire_at, action):
        if fire_at < self.now:
            raise netsim.NegativeDelay(f"instant {fire_at} is before now")
        handle = EventHandle(action)
        heapq.heappush(self._heap, (fire_at, (self._rng.u64(), self._seq), handle))
        self._seq += 1
        return handle


def _is_delivery(action) -> bool:
    """Whether a scheduled ``action`` hands a message to its receiver: a
    link's delivery event, which makes the head delivery of its FIFO (every
    message of either transport goes through one)."""
    return getattr(action, "__func__", None) is SimLink._arrive


class TieCounting(EventLoop):
    """The ordered loop, which also counts its delivery ties: events that
    fire while another event due at the same instant waits in the queue,
    where one of the two is a delivery. The order of such a pair is the
    engine's choice."""

    def __init__(self):
        super().__init__()
        self.delivery_ties = 0

    def schedule_at(self, fire_at, action):
        return super().schedule_at(fire_at, partial(self._fire, action))

    def _fire(self, action):
        heap = self._heap
        if heap and heap[0][0] == self.now and not heap[0][2].cancelled:
            waiting = heap[0][2].action.args[0]
            self.delivery_ties += _is_delivery(action) or _is_delivery(waiting)
        action()


def _tie_order_matrix():
    """(label, config) of every run of the tie-order test. Under the plain
    timing same-instant events are rare and none is a delivery; the
    tie-dense timing (zero-latency links, equal stage times, an instant
    cloud) makes deliveries, acks and route events share instants. The
    failure rows take the send timeout, image timeout, cloud timeout and
    expired grant paths under both timings. The zero-wire rows (wire time
    below one ulp, no latency, every stage 0.25 s) put each delivery at the
    instant its message is sent, so a blocking stream's deliveries and
    acks tie with the pipeline's stages; with jitter, or in a sequential
    run, none tie, so those rows are left out."""
    timings = {
        "plain": {},
        "dense": dict(t_io=0.25, t_ai=0.25, cloud_latency=0.0,
                      link_far_to_edge=LinkParams(0.0, 1e6),
                      link_edge_to_cloud=LinkParams(0.0, 1e6)),
    }
    for (timing, times), transport, par, cloud, cap, chunk, jitter, n in itertools.product(
            timings.items(), TransportKind, (False, True), (False, True), (1, 4),
            (64, 1024, 4096), (0.0, 0.2), (6, 12)):
        yield ((timing, transport.name, par, cloud, cap, chunk, jitter, n),
               tiny_config(transport, par, n, cloud=cloud, queue_capacity=cap,
                           chunk_size_bytes=chunk, jitter_pct=jitter, **times))
    failures = {
        "send_timeout": dict(link_far_to_edge=LinkParams(0.001, 2000.0), send_timeout_s=0.5),
        "image_timeout": dict(image_timeout_s=0.055),
        "cloud_timeout": dict(cloud_timeout_s=0.0),
        "expired_grant": dict(grant_ttl_s=0.0),
    }
    for (name, fault), (timing, times), transport, par, cap in itertools.product(
            failures.items(), timings.items(), TransportKind, (False, True), (1, 4)):
        yield ((name, timing, transport.name, par, cap),
               tiny_config(transport, par, 6, cloud=True, queue_capacity=cap,
                           **{**times, **fault}))
    zero_wire = dict(
        stage_durations=StageDurations(0.25, 0.25, 0.0, 0.0, t_identify=0.25,
                                       cloud_latency_mean=0.0, cloud_latency_jitter=0.0),
        link_far_to_edge=LinkParams(0.0, 1e300), link_edge_to_cloud=LinkParams(0.0, 1e300))
    for transport, cloud, cap, chunk, n in itertools.product(
            TransportKind, (False, True), (1, 4), (64, 1024, 4096), (6, 12)):
        yield (("zero_wire", transport.name, True, cloud, cap, chunk, 0.0, n),
               tiny_config(transport, True, n, cloud=cloud, queue_capacity=cap,
                           chunk_size_bytes=chunk, **zero_wire))


def test_outputs_do_not_depend_on_the_order_of_same_instant_events(monkeypatch):
    # Deterministic simulation testing: the engine breaks ties between
    # same-instant events by scheduling order, which the model leaves free,
    # so every output must be the same under any other tie order.
    build = nodes.build_dataset
    datasets = {}

    def shared_dataset(cfg):
        # The matrix has two datasets; each is built once.
        key = (cfg.rng_seed, cfg.db_size, cfg.dataset_size, cfg.face_prob,
               cfg.known_prob, cfg.payload_bytes)
        if key not in datasets:
            datasets[key] = build(cfg)
        return datasets[key]

    monkeypatch.setattr(nodes, "build_dataset", shared_dataset)
    differ, runs = [], 0
    delivery_ties = dict.fromkeys(TransportKind, 0)
    for seed, (label, cfg) in enumerate(_tie_order_matrix()):
        ordered_loop = TieCounting()
        monkeypatch.setattr(nodes, "EventLoop", lambda: ordered_loop)
        ordered = run_scenario(cfg)
        monkeypatch.setattr(nodes, "EventLoop", partial(ShuffledTies, seed))
        shuffled = run_scenario(cfg)
        runs += 1
        delivery_ties[cfg.transport] += ordered_loop.delivery_ties
        if ((list(shuffled.records), shuffled.summary, shuffled.failure)
                != (list(ordered.records), ordered.summary, ordered.failure)):
            differ.append(label)
    assert runs == 496
    assert differ == []
    # The rows of each transport put deliveries in ties, so the shuffle
    # reorders deliveries on both.
    assert all(delivery_ties.values()), delivery_ties


@pytest.mark.parametrize("parallelism", [False, True], ids=["sequential", "parallel"])
def test_pubsub_run_with_a_deep_queue_completes(parallelism):
    # 513 messages an image all fit in the far edge's route queue, so every
    # put is taken at once: a process used to resume through one nested call
    # per put and overflowed the stack.
    r = run_scenario(tiny_config(n=3, parallelism=parallelism, cloud=True,
                                 queue_capacity=2000, chunk_size_bytes=64,
                                 payload_bytes=32768))
    assert r.failure is None
    assert sorted(rec.image_id for rec in r.records) == ["img00000", "img00001", "img00002"]


@pytest.mark.parametrize("transport", list(TransportKind), ids=lambda t: t.name.lower())
def test_far_edge_resumes_as_often_per_image_at_any_chunk_size(transport, monkeypatch):
    # An image's upload is one stream, whatever its message count: 2,048 B
    # is 3 messages at 1 KiB and 33 at 64 B. A capacity-1 queue makes the
    # pub/sub upload wait at both sizes.
    steps = []
    resume = netsim._resume

    def counting_resume(gen, value):
        if gen.gi_code.co_name in ("_sequential", "_pipelined"):
            steps[-1] += 1
        resume(gen, value)

    monkeypatch.setattr(netsim, "_resume", counting_resume)
    for chunk in (1024, 64):
        steps.append(0)
        r = run_scenario(tiny_config(transport, n=3, chunk_size_bytes=chunk,
                                     queue_capacity=1))
        assert len(r.records) == 3 and r.failure is None
    assert steps[0] == steps[1]


def test_every_connect_and_subscribe_comes_before_the_first_put(monkeypatch):
    # A put routes its messages once, at the call, and misses any later
    # connect or subscribe: the tiers must wire the whole topology first.
    calls = []

    def spy(log, call):
        def wrapper(*args):
            calls.append(log(*args))
            return call(*args)
        return wrapper

    monkeypatch.setattr(PubSubFabric, "connect",
                        spy(lambda *_a: "connect", PubSubFabric.connect))
    monkeypatch.setattr(PubSubEndpoint, "subscribe",
                        spy(lambda *_a: "subscribe", PubSubEndpoint.subscribe))
    monkeypatch.setattr(PubSubFabric, "put_all",
                        spy(lambda _f, pub, _p: str(pub.key), PubSubFabric.put_all))
    r = run_scenario(tiny_config(n=6, cloud=True))
    assert len(r.records) == 6 and r.failure is None
    first_put = next(i for i, c in enumerate(calls) if c not in ("connect", "subscribe"))
    assert calls[:first_put].count("connect") == 4
    puts = calls[first_put:]
    assert "connect" not in puts and "subscribe" not in puts
    # The far-edge uploads, the results and both directions of the cloud leg
    # all put.
    assert KEY_FACES_DETECTED in puts
    for prefix in (KEY_RESULTS_PREFIX, KEY_CLOUD_REQUESTS_PREFIX, KEY_CLOUD_UPLOADS_PREFIX,
                   KEY_CLOUD_RESULTS_PREFIX):
        assert any(key.startswith(prefix) for key in puts), prefix


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
    assert r.summary.total_runtime == pytest.approx(5 * 0.5, abs=1e-9)


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


@pytest.mark.parametrize("transport, ack_latency", [
    (TransportKind.BLOCKING_SESSION, 1.0), (TransportKind.PUBSUB, 0.0)],
    ids=["blocking", "pubsub"])
def test_image_ended_after_its_reassembly_counts_its_upload_to_the_reassembly(
        transport, ack_latency):
    # One image of 4 KiB in 1 KiB chunks over a 1 s link. A blocking upload
    # completes one latency after its reassembly, when its last ack is back,
    # and a pub/sub one at its reassembly. An image timeout half a second
    # before that (blocking) or after it (pub/sub) lands between the
    # reassembly and the result.
    cfg = tiny_config(transport, n=1, payload_bytes=4096, chunk_size_bytes=1024,
                      link_far_to_edge=LinkParams(1.0, 1e6))
    (full,) = run_scenario(cfg).records
    assert full.origin == "edge"
    timeout = full.t_upload - 0.5 if ack_latency else full.t_upload + 0.5
    (ended,) = run_scenario(replace(cfg, image_timeout_s=timeout)).records
    assert ended.origin == "none" and ended.edge_rtt == 0.0
    assert ended.t_upload == pytest.approx(full.t_upload - ack_latency)
    assert ended.t_upload > 0.0


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


def _shorten(env: chunkwire.ChunkEnvelope) -> chunkwire.ChunkEnvelope:
    """``env`` one byte shorter, with the length and CRC of what is left: a
    chunk that passes its own checks."""
    raw = env.payload()[:-1]
    return chunkwire.ChunkEnvelope(env.image_id, env.seq, env.total_chunks, len(raw),
                                   base64.b64encode(raw).decode("ascii"), chunkwire.crc32(raw))


# Each case: the chunk count; the chunks the edge gets after the meta
# message, each by its index in sequence order, or as (tamper, index) for
# that chunk changed by ``tamper``; and whether the transfer completes.
REASSEMBLY_FEEDS = {
    "first_bad": (2, [(_corrupt, 0), 1], False),
    "bad_then_ok": (3, [(_corrupt, 0), 0, 1, 2], True),
    "last_bad": (3, [0, 1, (_corrupt, 2)], False),
    # Every chunk passes, but the chunks add up to less than the meta's
    # total_bytes: the last one latches the session FAILED.
    "short_total": (2, [0, (_shorten, 1)], False),
}


@pytest.mark.parametrize("total,feed,completes", REASSEMBLY_FEEDS.values(),
                         ids=REASSEMBLY_FEEDS.keys())
def test_reassembly_corruption_yields_negative_result_without_cloud_call(total, feed,
                                                                         completes):
    # A transfer ends with a negative edge result, and no cloud call, once
    # every chunk has arrived and one has only failed its CRC, or once its
    # chunks add up to less than its total_bytes. A clean copy of a
    # discarded chunk still completes it: the image is then served, and with
    # no local match it goes to the cloud, which here never answers.
    loop = EventLoop()
    cfg = tiny_config(n=1, cloud=True)
    db = make_face_db(cfg.rng_seed, cfg.db_size)
    traces = {"imgX": _ImageTrace("imgX")}  # as the far edge makes at upload
    sent = []
    cloud_calls = []
    edge = EdgeService(loop, cfg, db, {}, traces, SimCore(loop),
                       send_result=lambda _id, d: sent.append(d),
                       cloud_send=lambda key, _data: cloud_calls.append(key))
    meta, envs = chunkwire.fragment(b"\xee" * (1024 * total), "imgX", 1024, (2, 2), "RAW")
    edge.on_upload_message(chunkwire.encode_meta(meta))
    for item in feed:
        env = envs[item] if isinstance(item, int) else item[0](envs[item[1]])
        edge.on_upload_message(chunkwire.encode_envelope(env))
    assert len(sent) == (0 if completes else 1)
    loop.run()
    assert edge.dropped_chunks == 0
    assert (traces["imgX"].reassembled_at is not None) == completes
    assert [decode_result(d) for d in sent] == [
        ResultMessage("imgX", "cloud" if completes else "edge", False, None, False)]
    assert cloud_calls == ([KEY_CLOUD_REQUESTS_PREFIX + "imgX"] if completes else [])


@pytest.mark.parametrize("jitter", [0.05, 0.5], ids=["below_mean", "above_mean"])
def test_cloud_latency_jitter_stays_within_its_band_and_replays(jitter, monkeypatch):
    # Each cloud service time is drawn from mean +- jitter and clipped at 0,
    # which a jitter above the mean reaches.
    mean = 0.2
    latencies = []
    latency = CloudService._latency
    monkeypatch.setattr(CloudService, "_latency",
                        lambda cloud: latencies.append(latency(cloud)) or latencies[-1])
    cfg = tiny_config(n=30, cloud=True, cloud_latency=mean, known_prob=0.0)
    cfg = replace(cfg, stage_durations=replace(cfg.stage_durations,
                                               cloud_latency_jitter=jitter))
    first = run_scenario(cfg)
    calls = len(latencies)
    assert calls == sum(rec.origin == "cloud" for rec in first.records) > 10
    assert all(max(0.0, mean - jitter) <= t <= mean + jitter for t in latencies)
    assert len(set(latencies)) > 1
    assert (0.0 in latencies) == (jitter > mean)
    again = run_scenario(cfg)
    assert again.records == first.records
    assert latencies[calls:] == latencies[:calls]


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
    replies = []
    images = {image_id: ImageRecord(image_id, 0, 1, 1, 1, ImageFormat.PNG, True,
                                    embedding_seed=(0, None))
              for image_id in ("imgA", "imgB", "imgC", "imgZ")}
    cloud = CloudService(loop, cfg, images,
                         send_to_edge=lambda _id, data: replies.append(json.loads(data)))

    def grant(image_id):
        cloud.on_message(chunkwire.encode(chunkwire.GrantRequest(image_id)))
        (reply,) = replies
        replies.clear()
        assert reply["msg_type"] == "grant"
        return reply["upload_token"]

    def upload(image_id, token):
        cloud.on_message(chunkwire.encode(chunkwire.CloudUpload(image_id, token, "")))
        loop.run()
        (reply,) = replies
        replies.clear()
        return reply

    def rejected(image_id, reason):
        return {"msg_type": "upload_rejected", "image_id": image_id, "reason": reason}

    token = grant("imgA")
    assert upload("imgA", token)["msg_type"] == "result"
    assert upload("imgA", token) == rejected("imgA", "grant rejected for imgA")  # single use
    assert upload("imgA", "grant-999999") == rejected(
        "imgA", "grant rejected for imgA")  # unknown token
    other = grant("imgB")
    assert upload("imgZ", other) == rejected(
        "imgZ", "grant rejected for imgZ")  # bound to one image
    stale = grant("imgC")
    loop.schedule(60.0, lambda: None)
    loop.run()
    assert upload("imgC", stale) == rejected("imgC", "grant expired for imgC")
    # A refused grant stays in the ledger; only the redeemed one has left it.
    assert sorted(cloud._grants) == sorted([other, stale])


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
    # Its chunk count as a float quotient would overflow.
    "inconsistent_huge_total_bytes": _edited(_META, total_bytes=10**400),
    "bool_seq": _edited(_CHUNK1, seq=True),
    "float_seq": _edited(_CHUNK0, seq=0.0),
    "empty_image_id": _edited(_META, image_id=""),
    "wildcard_image_id": _edited(_META, image_id="*"),
    "image_id_with_slash": _edited(_META, image_id="a/b"),
    "chunk_image_id_with_wildcard": _edited(_CHUNK0, image_id="img*"),
    "image_id_utf8_cannot_encode": _edited(_META, image_id="img\udc80"),
    "huge_int_seq": _CHUNK0.replace(b'"seq":0,', b'"seq":' + b"1" * 5000 + b","),
    "deeply_nested": _META.replace(b'"img00000"', b"[" * 100_000 + b"]" * 100_000),
    "zero_total_bytes": _edited(_META, total_bytes=0),
    "zero_payload_len": _edited(_CHUNK0, payload_len=0),
}


@pytest.mark.parametrize("data", MALFORMED_UPLOADS.values(), ids=MALFORMED_UPLOADS.keys())
def test_malformed_upload_message_is_dropped_counted_and_times_out(data, monkeypatch):
    loop = EventLoop()
    cfg = tiny_config(n=1)
    edge = EdgeService(loop, cfg, make_face_db(cfg.rng_seed, cfg.db_size), {},
                       {}, SimCore(loop), send_result=None)
    edge.on_upload_message(data)
    assert edge.malformed_messages == 1 and not edge._sessions

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


# Valid chunk messages in a JSON form other than the canonical one.
RESERIALIZED_CHUNKS = {
    "spaced_separators": lambda doc: json.dumps(doc).encode("utf-8"),
    "reversed_keys": lambda doc: chunkwire.encode_object(dict(reversed(doc.items()))),
}


@pytest.mark.parametrize("reserialize", RESERIALIZED_CHUNKS.values(),
                         ids=RESERIALIZED_CHUNKS.keys())
@pytest.mark.parametrize("transport", list(TransportKind), ids=lambda t: t.name.lower())
def test_non_canonical_chunk_is_malformed_and_its_image_times_out(
        transport, reserialize, monkeypatch):
    # The edge reads chunks with ``chunkwire.read_chunk`` alone, which takes
    # only the canonical form. The first image's chunks, sent in another
    # form, are each counted as malformed, and that image ends with no
    # result at its timeout; the other images complete.
    cfg = tiny_config(transport, n=3, cloud=True, image_timeout_s=30.0)
    canonical = run_scenario(cfg)
    encode_upload = chunkwire.encode_upload
    reserialized = []

    def reserialized_upload(payload, image_id, *rest):
        meta, *chunks = encode_upload(payload, image_id, *rest)
        if image_id == "img00000":
            chunks = [reserialize(json.loads(data)) for data in chunks]
            assert not any(map(chunkwire.read_chunk, chunks))
            reserialized.extend(chunks)
        return [meta, *chunks]

    edges = []

    class RecordedEdge(EdgeService):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            edges.append(self)

    monkeypatch.setattr(chunkwire, "encode_upload", reserialized_upload)
    monkeypatch.setattr(nodes, "EdgeService", RecordedEdge)
    r = run_scenario(cfg)
    assert r.failure is None
    (edge,) = edges
    assert reserialized and (edge.malformed_messages, edge.dropped_chunks) == (
        len(reserialized), 0)
    first, *others = sorted(r.records, key=lambda rec: rec.image_id)
    assert first.image_id == "img00000" and first.origin == "none"
    # The image was uploaded once its read and detection had ended.
    assert first.completion_s == (
        first.t_read_decode + first.t_detect_total + cfg.image_timeout_s)
    assert [(rec.image_id, rec.recognized, rec.label) for rec in others] == (
        canonical.result_multiset[1:])
    assert all(rec.origin in ("edge", "cloud") and rec.t_upload > 0.0 for rec in others)


def test_upload_message_is_parsed_once(monkeypatch):
    loop = EventLoop()
    cfg = tiny_config(n=1)
    edge = EdgeService(loop, cfg, make_face_db(cfg.rng_seed, cfg.db_size), {},
                       {}, SimCore(loop), send_result=lambda _id, _d: None)
    messages = _upload_messages("imgP", Prng(8).randbytes(300))
    # A canonical chunk is parsed by the compiled pattern, anything else
    # (here the meta message) by parse_object; each message exactly once.
    parses, matches = [], []
    parse_object, match_chunk = chunkwire.parse_object, chunkwire._match_chunk

    def counted_match(data):
        match = match_chunk(data)
        if match is not None:
            matches.append(data)
        return match

    monkeypatch.setattr(chunkwire, "parse_object",
                        lambda data: parses.append(data) or parse_object(data))
    monkeypatch.setattr(chunkwire, "_match_chunk", counted_match)
    for data in messages:
        edge.on_upload_message(data)
    assert parses == messages[:1]
    assert matches == messages[1:]
    assert edge.malformed_messages == edge.dropped_chunks == 0


@pytest.mark.parametrize("transport", list(TransportKind), ids=lambda t: t.name.lower())
def test_chunk_pattern_is_tried_once_per_upload_message(transport, monkeypatch):
    # Only the edge's read_chunk tries the pattern: meta messages, results
    # and cloud messages go straight to the JSON decoder.
    attempts, uploads = [], []
    match_chunk, on_upload_message = chunkwire._match_chunk, EdgeService.on_upload_message
    monkeypatch.setattr(chunkwire, "_match_chunk",
                        lambda data: attempts.append(data) or match_chunk(data))
    monkeypatch.setattr(EdgeService, "on_upload_message",
                        lambda self, data: uploads.append(data) or on_upload_message(self, data))
    r = run_scenario(base_config(transport, dataset_size=4))
    assert r.failure is None and len(r.records) == 4
    assert any(rec.origin == "cloud" for rec in r.records)
    assert len(uploads) > 4 and attempts == uploads


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
                       {}, SimCore(loop),
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


def _edge_with_scripted_cloud(loop, cfg, replies, sent):
    """An edge whose cloud answers each message type with ``replies[type]``:
    a list of (delay, data) pairs fed to ``on_cloud_message``."""
    def cloud_send(_key, data):
        for delay, reply in replies.get(json.loads(data)["msg_type"], ()):
            loop.schedule(delay, partial(edge.on_cloud_message, reply))

    edge = EdgeService(loop, cfg, make_face_db(cfg.rng_seed, cfg.db_size), {},
                       {}, SimCore(loop),
                       send_result=lambda _id, d: sent.append(d),
                       cloud_send=cloud_send)
    return edge


VERDICT = ResultMessage("imgQ", "cloud", True, "Celebrity 03", True)


def test_duplicated_grant_is_a_stale_reply_and_the_verdict_gets_through():
    # The second grant reaches the edge while it waits for the verdict.
    loop = EventLoop()
    cfg = tiny_config(n=1, cloud=True)
    sent = []
    edge = _edge_with_scripted_cloud(loop, cfg, {
        "grant_request": [(0.1, GRANT), (0.2, GRANT)],
        "cloud_upload": [(0.3, encode_result(VERDICT))],
    }, sent)
    for data in _upload_messages("imgQ", b"\x33" * 200):
        edge.on_upload_message(data)
    loop.run()
    assert [decode_result(d) for d in sent] == [VERDICT]
    assert (edge.stale_replies, edge.malformed_messages) == (1, 0)
    assert loop.now < cfg.cloud_timeout_s
    # A reply after the escalation has ended is stale too.
    edge.on_cloud_message(GRANT)
    edge.on_cloud_message(encode_result(VERDICT))
    loop.run()
    assert len(sent) == 1 and edge.stale_replies == 3


def test_refused_upload_ends_the_escalation_at_once():
    # A refusal answers the upload step itself, so it is not stale.
    loop = EventLoop()
    cfg = tiny_config(n=1, cloud=True)
    sent = []
    edge = _edge_with_scripted_cloud(loop, cfg, {
        "grant_request": [(0.1, GRANT)],
        "cloud_upload": [(0.1, chunkwire.encode(UploadRejected("imgQ", "expired")))],
    }, sent)
    for data in _upload_messages("imgQ", b"\x33" * 200):
        edge.on_upload_message(data)
    loop.run()
    assert [decode_result(d) for d in sent] == [ResultMessage("imgQ", "cloud", False, None, False)]
    assert (edge.stale_replies, edge.malformed_messages) == (0, 0)
    assert loop.now < cfg.cloud_timeout_s


def test_result_in_answer_to_a_grant_request_is_a_negative_cloud_result():
    # A reply for a step not yet reached is not stale: it does not fit the
    # step, so the escalation ends at once.
    loop = EventLoop()
    cfg = tiny_config(n=1, cloud=True)
    sent = []
    edge = _edge_with_scripted_cloud(loop, cfg, {
        "grant_request": [(0.1, encode_result(VERDICT))],
    }, sent)
    for data in _upload_messages("imgQ", b"\x33" * 200):
        edge.on_upload_message(data)
    loop.run()
    assert [decode_result(d) for d in sent] == [ResultMessage("imgQ", "cloud", False, None, False)]
    assert edge.stale_replies == 0
    assert loop.now < cfg.cloud_timeout_s


MALFORMED_CLOUD_LEG = {
    "non_utf8": b"\xff\xfe{}",
    "non_json": b"{not json",
    "non_object": b'["msg_type","grant"]',
    "non_string_id": b'{"msg_type":"grant","image_id":[]}',
    "non_string_token": _edited(GRANT, upload_token=1),
    "rejection_with_extra_key": b'{"msg_type":"upload_rejected","image_id":"imgQ",'
                                b'"reason":"expired","hops":1}',
    "id_with_slash": b'{"msg_type":"upload_rejected","image_id":"a/b","reason":"expired"}',
    "grant_with_nan_expiry": GRANT.replace(b"9.0", b"NaN"),
    # Neither converts to a finite double, which a float field requires.
    "grant_with_overflowing_expiry": GRANT.replace(b"9.0", b"1e400"),
    "grant_with_401_digit_expiry": GRANT.replace(b"9.0", b"1" + b"0" * 400),
}


@pytest.mark.parametrize("data", MALFORMED_CLOUD_LEG.values(), ids=MALFORMED_CLOUD_LEG.keys())
def test_malformed_cloud_leg_message_is_dropped_and_counted(data):
    loop = EventLoop()
    cfg = tiny_config(n=1, cloud=True)
    replies = []
    cloud = CloudService(loop, cfg, {}, send_to_edge=lambda _id, d: replies.append(d))
    edge = EdgeService(loop, cfg, make_face_db(cfg.rng_seed, cfg.db_size), {},
                       {}, SimCore(loop),
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
    cloud.on_message(chunkwire.encode(chunkwire.GrantRequest("imgA")))  # grant-000001
    granted = list(replies)
    cloud.on_message(chunkwire.encode_object(doc))
    loop.run()
    assert cloud.malformed_messages == 1
    assert replies == granted


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
        "far": nodes.FarEdgeNode(loop, cfg, None, SimCore(loop), SimCore(loop)),
        "edge": EdgeService(loop, cfg, make_face_db(cfg.rng_seed, cfg.db_size), {},
                            {}, SimCore(loop),
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
    """Run ``cfg`` with ``gc`` disabled. Returns the result, a weak reference
    to each record of its dataset, and the count by class of the
    ``continuumsim`` objects that a collection right after the run finds
    unreachable: those that only the cyclic collector would free."""
    refs = []
    build_dataset = nodes.build_dataset

    def build_and_watch(cfg):
        db, dataset = build_dataset(cfg)
        refs.extend(weakref.ref(image) for image in dataset)
        return db, dataset

    monkeypatch.setattr(nodes, "build_dataset", build_and_watch)
    gc.collect()
    gc.disable()
    try:
        result = run_scenario(cfg)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        cyclic = Counter(type(obj).__qualname__ for obj in gc.garbage
                         if type(obj).__module__.startswith("continuumsim."))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    return result, refs, cyclic


@pytest.mark.parametrize("parallelism", [False, True], ids=["sequential", "parallel"])
@pytest.mark.parametrize("cloud", [False, True], ids=["no_cloud", "cloud"])
@pytest.mark.parametrize("transport", list(TransportKind), ids=lambda t: t.name.lower())
def test_run_frees_its_dataset_without_the_cyclic_collector(transport, cloud, parallelism,
                                                            monkeypatch):
    r, refs, cyclic = _run_with_the_cyclic_collector_off(
        tiny_config(transport, parallelism, n=4, cloud=cloud), monkeypatch)
    assert len(r.records) == len(refs) == 4
    assert [ref() for ref in refs] == [None] * 4
    assert cyclic == {}


# t_io 0.05: the reader waits on the full read queue when the send times
# out; t_io 0.2: it is still reading then, and fills the queue afterwards.
@pytest.mark.parametrize("t_io", [0.05, 0.2])
def test_failed_parallel_run_frees_its_dataset_without_the_cyclic_collector(
        t_io, monkeypatch):
    r, refs, cyclic = _run_with_the_cyclic_collector_off(
        tiny_config(TransportKind.BLOCKING_SESSION, True, n=6, t_io=t_io,
                    link_far_to_edge=LinkParams(0.0, 50.0), send_timeout_s=0.5),
        monkeypatch)
    assert r.failure is not None
    assert len(refs) == 6
    assert [ref() for ref in refs] == [None] * 6
    assert cyclic == {}


def test_failed_sequential_run_frees_its_dataset_without_the_cyclic_collector(monkeypatch):
    r, refs, cyclic = _run_with_the_cyclic_collector_off(
        tiny_config(TransportKind.BLOCKING_SESSION, False, n=6,
                    link_far_to_edge=LinkParams(0.0, 50.0), send_timeout_s=0.5),
        monkeypatch)
    assert r.failure is not None
    assert [ref() for ref in refs] == [None] * 6
    assert cyclic == {}


# Each config field ``build_dataset`` reads, with a value that changes the
# dataset or the database of ``base_config(dataset_size=6)``.
_DATASET_FIELDS = {"rng_seed": 8, "db_size": 5, "dataset_size": 7, "face_prob": 0.5,
                   "known_prob": 0.0, "payload_bytes": 2048}


def test_shared_dataset_is_the_one_a_fresh_build_makes():
    base = base_config(dataset_size=6)
    fresh_base = nodes.build_dataset(base)
    varied = {name: replace(base, **{name: value}) for name, value in _DATASET_FIELDS.items()}
    fresh = {name: nodes.build_dataset(cfg) for name, cfg in varied.items()}
    assert all(dataset != fresh_base for dataset in fresh.values())
    with nodes.shared_datasets():
        for name, cfg in varied.items():
            assert nodes.build_dataset(base) == fresh_base
            assert nodes.build_dataset(cfg) == fresh[name], name
        # The transport is not part of the dataset: its runs share one.
        shared = nodes.build_dataset(base)
        assert nodes.build_dataset(replace(base, transport=TransportKind.BLOCKING_SESSION)) is shared
    assert shared == fresh_base
    assert nodes.build_dataset(base) is not shared


def test_shared_dataset_answers_a_smaller_one_with_its_first_records(monkeypatch):
    large, small = (replace(base_config(dataset_size=n, seed=2026), face_prob=0.7)
                    for n in (10, 6))
    fresh = nodes.build_dataset(small)
    builds = []
    generate = workload.generate_dataset

    def generate_and_count(*args):
        builds.append(args[1])
        return generate(*args)

    monkeypatch.setattr(workload, "generate_dataset", generate_and_count)
    with nodes.shared_datasets():
        db, dataset = nodes.build_dataset(large)
        assert nodes.build_dataset(small) == fresh == (db, dataset[:6])
        assert nodes.build_dataset(large)[1] is dataset
        # A larger dataset than the one kept is built anew.
        assert len(nodes.build_dataset(replace(large, dataset_size=11))[1]) == 11
    assert builds == [10, 11]
    assert [r.embedding for r in fresh[1]] == [r.embedding for r in dataset[:6]]


def test_shared_dataset_is_dropped_before_the_next_is_built_and_at_the_end(monkeypatch):
    refs = []
    generate = workload.generate_dataset

    def generate_and_watch(*args):
        assert [ref() for ref in refs] == [None] * len(refs)
        dataset = generate(*args)
        refs.extend(weakref.ref(image) for image in dataset)
        return dataset

    monkeypatch.setattr(workload, "generate_dataset", generate_and_watch)
    gc.disable()
    try:
        with nodes.shared_datasets():
            nodes.build_dataset(base_config(dataset_size=3))
            nodes.build_dataset(base_config(dataset_size=4))
            assert sum(ref() is not None for ref in refs) == 4
    finally:
        gc.enable()
    assert len(refs) == 7
    assert [ref() for ref in refs] == [None] * 7


@pytest.mark.parametrize("transport", list(TransportKind), ids=lambda t: t.name.lower())
def test_tcp_run_leaves_nothing_for_the_cyclic_collector(transport, monkeypatch):
    r, refs, cyclic = _run_with_the_cyclic_collector_off(
        tiny_config(transport, True, n=4, cloud=True, time_mode=TimeMode.WALLCLOCK_TCP,
                    time_scale=0.001), monkeypatch)
    assert r.failure is None and len(r.records) == 4
    assert [ref() for ref in refs] == [None] * 4
    assert cyclic == {}


# Images end by their result, at detection (no face) and by the image
# timeout, which in a blocking run fires before the edge has served them.
@pytest.mark.parametrize("image_timeout_s", [30.0, 0.055])
@pytest.mark.parametrize("transport", list(TransportKind), ids=lambda t: t.name.lower())
def test_run_holds_no_trace_once_every_image_has_ended(transport, image_timeout_s,
                                                       monkeypatch):
    fars = []

    class Watched(nodes.FarEdgeNode):
        def __init__(self, *args):
            super().__init__(*args)
            fars.append(self)

    monkeypatch.setattr(nodes, "FarEdgeNode", Watched)
    r = run_scenario(tiny_config(transport, True, n=8, cloud=True, face_prob=0.5,
                                 image_timeout_s=image_timeout_s))
    assert r.failure is None and len(r.records) == 8
    assert {rec.origin for rec in r.records} >= {"none"}
    (far,) = fars
    assert far.traces == {}


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


def test_failed_parallel_run_starts_no_read_at_the_failure_instant():
    # With no ack time allowed, the first upload fails at once, at X = 0.25,
    # the end of the first read: detection and hand-off take no time. The
    # timeout is armed in the cascade that takes the first image, where the
    # next read could start at X too. No read starts at the failure instant,
    # so the run ends at X and core 1 was busy only for the first read.
    r = run_scenario(tiny_config(TransportKind.BLOCKING_SESSION, True, n=4, t_io=0.25,
                                 t_ai=0.0, send_timeout_s=0.0, parallel_handoff_s=0.0))
    assert r.failure is not None
    assert r.summary.total_runtime == 0.25
    assert r.summary.core1_util == 1.0  # 0.25 s busy over the 0.25 s run
    assert [(rec.image_id, rec.origin) for rec in r.records] == [("img00000", "none")]


def _only_first_image_has_a_face(build, cfg):
    db, dataset = build(cfg)
    return db, dataset[:1] + [replace(image, has_face=False, ground_truth=None,
                                      embedding_seed=None) for image in dataset[1:]]


@pytest.mark.parametrize("parallelism", [False, True], ids=["sequential", "parallel"])
def test_failure_raised_at_the_edge_reaches_the_far_edge_at_its_next_upload(
        parallelism, monkeypatch):
    # The edge's result for the one face image is too large to be acked
    # within the send timeout, so its send closes the session and fails the
    # run from the edge. Neither pipeline stops for a failure it did not
    # raise before its next upload fails on the closed session; with no face
    # left to upload, every face-less image after it is still recorded.
    build = nodes.build_dataset
    monkeypatch.setattr(nodes, "build_dataset", partial(_only_first_image_has_a_face, build))
    monkeypatch.setattr(nodes, "encode_result", lambda _msg: b"x" * 10_000)
    r = run_scenario(tiny_config(TransportKind.BLOCKING_SESSION, parallelism, n=12,
                                 t_io=0.25, t_ai=0.25, payload_bytes=2048,
                                 chunk_size_bytes=1024,
                                 link_far_to_edge=LinkParams(0.0, 10_000.0),
                                 send_timeout_s=0.5))
    assert r.failure.startswith("session-b")  # the edge's end of the session
    assert len(r.records) == 12
    assert [rec.origin for rec in r.records if rec.image_id == "img00000"] == ["none"]
    assert r.summary.total_runtime == max(rec.completion_s for rec in r.records)


def _records_digest(records) -> str:
    text = "\n".join(",".join(v.hex() if type(v) is float else repr(v) for v in astuple(r))
                     for r in records)
    return hashlib.sha256(text.encode()).hexdigest()


def test_edge_close_during_an_upload_keeps_the_records_of_the_chain_of_acks(monkeypatch):
    # Configs 1064 and 1437 of _edge_close_config at Prng(5), the only two
    # of its first 3,000 in which the edge's timeout closes the session
    # while the far edge's upload stream still has messages to send: the
    # stream is cut, and the far edge fails as closed at its next ack. The
    # records and failure were computed when each ack event booked the next
    # message.
    cut = _Stream.cut
    cuts = []

    def counted(stream):
        was = stream._cut
        cut(stream)
        cuts.append(stream._cut and not was)

    monkeypatch.setattr(_Stream, "cut", counted)
    pins = {
        1064: (5, "99a63893530a7614c4ebdbb926392b60ec938605d84e6acd94ac4fbe00f7906c"),
        1437: (9, "e811566decf115e1675904ead72b0f9f4076f5cd1fc282dfb9afef48c6debf6e"),
    }
    rng = Prng(5)
    for index in range(max(pins) + 1):
        cfg = _edge_close_config(rng)
        if index in pins:
            cuts.clear()
            r = run_scenario(cfg)
            assert any(cuts), index
            assert r.failure == "session-a: send on closed connection", index
            assert (len(r.records), _records_digest(r.records)) == pins[index], index


@pytest.mark.parametrize("parallelism", [False, True], ids=["sequential", "parallel"])
@pytest.mark.parametrize("transport", list(TransportKind), ids=lambda t: t.name.lower())
def test_payload_bytes_are_made_once_per_uploaded_image(transport, parallelism,
                                                        monkeypatch):
    # Every embedding takes its words from one randbytes block too; those
    # calls, from workload._gaussians, are no payload and are not counted.
    calls = []
    randbytes = Prng.randbytes

    def counted(rng, n):
        if sys._getframe(1).f_code is not workload._gaussians.__code__:
            calls.append(n)
        return randbytes(rng, n)

    monkeypatch.setattr(Prng, "randbytes", counted)
    r = run_scenario(tiny_config(transport, parallelism, n=5, face_prob=0.0,
                                 known_prob=0.0))
    assert len(r.records) == 5 and calls == []
    r = run_scenario(tiny_config(transport, parallelism, n=5, cloud=True))
    assert all(rec.origin in ("edge", "cloud") for rec in r.records)
    assert calls == [2048] * 5


@pytest.mark.parametrize("cloud", [False, True], ids=["cloud_off", "cloud_on"])
@pytest.mark.parametrize("transport", list(TransportKind), ids=lambda t: t.name.lower())
def test_embeddings_are_made_once_per_identified_image(transport, cloud, monkeypatch):
    # A record holds the state its embedding's draws start at, and for a
    # known face the database vector it perturbs. The edge makes the
    # embedding when it identifies the image, once, and nothing makes one
    # while the dataset is built.
    made = []
    embedding = ImageRecord.embedding
    monkeypatch.setattr(ImageRecord, "embedding",
                        property(lambda image: made.append(image.id) or embedding.fget(image)))
    built = []
    build = nodes.build_dataset

    def checked_build(cfg):
        db, dataset = build(cfg)
        assert made == []
        bases = [vec for _person, vec in db.entries]
        for image in dataset:
            assert not any(isinstance(getattr(image, f.name), EmbeddingVec)
                           for f in fields(image))
            if image.embedding_seed is not None:
                base = image.embedding_seed[1]
                assert base is None or any(base is vec for vec in bases)
        built.extend(dataset)
        return db, dataset

    monkeypatch.setattr(nodes, "build_dataset", checked_build)
    r = run_scenario(tiny_config(transport, n=8, cloud=cloud, face_prob=0.6))
    faces = sorted(image.id for image in built if image.has_face)
    assert 0 < len(faces) < 8
    assert sorted(made) == faces
    assert all(rec.origin in ("edge", "cloud") for rec in r.records if rec.image_id in faces)


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
    "label_of_more_than_one_csv_field": {"label": 'Person 1,"x"\nimg99999'},
    "label_with_a_delete_character": {"label": "Person\x7f1"},
    "label_that_utf8_cannot_encode": {"label": "Person \udc80"},
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
    "label_of_more_than_one_csv_field":
        b'{"msg_type":"result","image_id":"img00000","origin":"edge","recognized":true,'
        b'"label":"Person 1,\\"x\\"\\nimg99999","is_false_positive":false}',
    "label_that_utf8_cannot_encode":
        b'{"msg_type":"result","image_id":"img00000","origin":"edge","recognized":true,'
        b'"label":"Person \\udc80","is_false_positive":false}',
}


@pytest.mark.parametrize("data", MALFORMED_RESULTS.values(), ids=MALFORMED_RESULTS.keys())
def test_malformed_result_is_dropped_counted_and_times_out(data, monkeypatch):
    loop = EventLoop()
    cfg = tiny_config(n=1)
    far = nodes.FarEdgeNode(loop, cfg, None, SimCore(loop), SimCore(loop))
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


_STAGE_FIELDS = ("t_read_decode", "t_quality", "t_infer1", "t_infer2", "t_detect_total")


def _frame_stage_reference(cfg, jitter):
    """A frame's read time and detection stages at jitter factor ``jitter``,
    each written out as the far edge computed it per frame."""
    d = cfg.stage_durations
    if cfg.parallelism:
        t_io = d.t_read_decode * jitter + cfg.parallel_io_penalty_s
    else:
        t_io = d.t_read_decode * jitter
    t_quality, t_infer1, t_infer2 = d.t_quality * jitter, d.t_infer1 * jitter, d.t_infer2 * jitter
    return [t.hex() for t in (t_io, t_quality, t_infer1, t_infer2,
                              (t_quality + t_infer1) + t_infer2)]


def _stage_config(transport, parallelism, jitter_pct):
    # The preset stage times, with face and face-less frames and uploads.
    return replace(base_config(transport, parallelism, cloud_enabled=False, dataset_size=24),
                   face_prob=0.5, payload_bytes=2048, jitter_pct=jitter_pct)


@pytest.mark.parametrize("parallelism", [False, True], ids=["sequential", "parallel"])
@pytest.mark.parametrize("transport", list(TransportKind), ids=lambda t: t.name)
def test_a_jitter_free_run_shares_one_set_of_stage_values(transport, parallelism):
    # The stage values are a function of the jitter factor alone, so the
    # records of a run at factor 1.0 hold the same float objects, each the
    # per-frame expression's value.
    cfg = _stage_config(transport, parallelism, 0.0)
    r = run_scenario(cfg)
    assert r.failure is None and len(r.records) == cfg.dataset_size
    assert {rec.origin for rec in r.records} == {"none", "edge"}
    first = r.records[0]
    for rec in r.records:
        assert all(getattr(rec, f) is getattr(first, f) for f in _STAGE_FIELDS)
    assert [getattr(first, f).hex() for f in _STAGE_FIELDS] == _frame_stage_reference(cfg, 1.0)


@pytest.mark.parametrize("parallelism", [False, True], ids=["sequential", "parallel"])
@pytest.mark.parametrize("transport", list(TransportKind), ids=lambda t: t.name)
def test_a_jittered_run_draws_one_factor_per_frame_and_computes_its_stages(transport,
                                                                           parallelism):
    # Frame k's factor is the jitter stream's k-th draw, and each of its
    # stage values is the per-frame expression's at that factor.
    cfg = _stage_config(transport, parallelism, 0.3)
    r = run_scenario(cfg)
    assert r.failure is None and len(r.records) == cfg.dataset_size
    rng = Prng(workload.substream(cfg.rng_seed, 2))
    frames = sorted(r.records, key=lambda rec: rec.image_id)
    for k, rec in enumerate(frames):
        assert rec.image_id == f"img{k:05d}"
        jitter = 1.0 + cfg.jitter_pct * (2.0 * rng.uniform() - 1.0)
        reference = _frame_stage_reference(cfg, jitter)
        assert [getattr(rec, f).hex() for f in _STAGE_FIELDS] == reference
    assert len({rec.t_detect_total for rec in frames}) == cfg.dataset_size


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
