"""Three-tier orchestration: far-edge pipeline, edge service, cloud service.

The far edge reads and decodes an image, runs detection, and uploads detected
faces as a metadata frame plus chunk envelopes. The edge reassembles, tries
local identification against its face database, and either answers directly
or escalates to the cloud through a presigned-grant upload flow. Every
uploaded image yields exactly one result back at the far edge.

With parallelism off, all stages of image k finish before image k+1 starts
and both read/decode and detection run on core 1 (core 0 stays idle). With
parallelism on, read/decode of image k+1 overlaps detection of image k on
separate cores, and the upload overlaps both whenever the transport allows
it: a pub/sub put returns at enqueue time while a blocking session send holds
the detect stage until the ack returns.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from typing import Callable, Optional

from . import chunkwire, workload
from .chunkwire import (
    MalformedJson,
    MissingField,
    ReassemblySession,
    ReassemblyState,
    ReassemblyStatus,
    UnknownField,
)
from .domain import ScenarioConfig, TimeMode, TransportKind, validate_config
from .metrics import MetricsRecord, RunSummary, summarize
from .netsim import BoundedQueue, EventLoop, Gate, SimCore, SimLink, spawn
from .transport import (
    KEY_CLOUD_REQUESTS_PREFIX,
    KEY_CLOUD_RESULTS_PREFIX,
    KEY_CLOUD_UPLOADS_PREFIX,
    KEY_FACES_DETECTED,
    KEY_RESULTS_PREFIX,
    PubSubFabric,
    Publisher,
    PutTicket,
    SendReceipt,
    SessionEndpoint,
    TransportError,
    session_pair,
)


class IncompleteRecord(ValueError):
    pass


# ---------------------------------------------------------------------------
# Result message wire format.

_RESULT_KEYS = ("msg_type", "image_id", "origin", "recognized", "label",
                "is_false_positive")


@dataclass(frozen=True)
class ResultMessage:
    image_id: str
    origin: str  # "edge" | "cloud"
    recognized: bool
    label: Optional[str]
    is_false_positive: bool


def encode_result(msg: ResultMessage) -> bytes:
    doc = {
        "msg_type": "result",
        "image_id": msg.image_id,
        "origin": msg.origin,
        "recognized": msg.recognized,
        "label": msg.label,
        "is_false_positive": msg.is_false_positive,
    }
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


def decode_result(data: bytes) -> ResultMessage:
    doc = chunkwire.parse_object(data)
    for key in _RESULT_KEYS:
        if key not in doc:
            raise MissingField(key)
    unknown = sorted(set(doc) - set(_RESULT_KEYS))
    if unknown:
        raise UnknownField(f"unknown fields: {', '.join(unknown)}")
    if doc["msg_type"] != "result":
        raise MalformedJson("msg_type must be 'result'")
    return ResultMessage(
        image_id=doc["image_id"],
        origin=doc["origin"],
        recognized=doc["recognized"],
        label=doc["label"],
        is_false_positive=doc["is_false_positive"],
    )


# ---------------------------------------------------------------------------
# Per-image measurement state, shared by the nodes of one run.


@dataclass
class _ImageTrace:
    image_id: str
    t_read_decode: float = 0.0
    t_quality: float = 0.0
    t_infer1: float = 0.0
    t_infer2: float = 0.0
    uploaded: bool = False
    transfer_start: Optional[float] = None
    first_ticket: Optional[PutTicket] = None
    upload_end: Optional[float] = None
    reassembled_at: Optional[float] = None
    t_identify: float = 0.0
    timeout_handle: Optional[object] = None
    finalized: bool = False


class Collector:
    """Run-global observer assembling MetricsRecords from both tiers."""

    def __init__(self, loop: EventLoop):
        self._loop = loop
        self.traces: dict[str, _ImageTrace] = {}
        self.records: list[MetricsRecord] = []

    def trace(self, image_id: str) -> _ImageTrace:
        if image_id not in self.traces:
            self.traces[image_id] = _ImageTrace(image_id)
        return self.traces[image_id]

    def _resolve_transfer_start(self, tr: _ImageTrace) -> Optional[float]:
        if tr.transfer_start is not None:
            return tr.transfer_start
        if tr.first_ticket is not None and tr.first_ticket.transmissions:
            return tr.first_ticket.transmissions[0].wire_start
        return None

    def finalize(self, tr: _ImageTrace, origin: str, recognized: bool,
                 label: Optional[str], is_fp: bool) -> None:
        if tr.finalized:
            return
        tr.finalized = True
        if tr.timeout_handle is not None:
            tr.timeout_handle.cancel()
        now = self._loop.now
        start = self._resolve_transfer_start(tr)
        t_upload = 0.0
        if tr.uploaded and start is not None:
            upload_end = tr.upload_end if tr.upload_end is not None else tr.reassembled_at
            if upload_end is not None:
                t_upload = upload_end - start
        span = (now - start) if (start is not None and origin in ("edge", "cloud")) else 0.0
        self.records.append(MetricsRecord(
            image_id=tr.image_id,
            t_read_decode=tr.t_read_decode,
            t_quality=tr.t_quality,
            t_infer1=tr.t_infer1,
            t_infer2=tr.t_infer2,
            t_upload=t_upload,
            t_identify=tr.t_identify,
            edge_rtt=span if origin == "edge" else 0.0,
            cloud_rtt=span if origin == "cloud" else None,
            origin=origin,
            recognized=recognized,
            label=label,
            completion_s=now,
            is_false_positive=is_fp,
        ))


# ---------------------------------------------------------------------------
# Far edge.


class FarEdgeNode:
    """Reads, detects and uploads. ``uplink`` is the far end of the blocking
    session, or with pub/sub the publisher of detected faces."""

    def __init__(self, loop: EventLoop, cfg: ScenarioConfig, dataset,
                 uplink: SessionEndpoint | Publisher, collector: Collector,
                 core0: SimCore, core1: SimCore):
        self._loop = loop
        self._cfg = cfg
        self._dataset = dataset
        self._uplink = uplink
        self._blocking = cfg.transport is TransportKind.BLOCKING_SESSION
        self._collector = collector
        self._core0 = core0
        self._core1 = core1
        self._jitter_rng = workload.Prng(workload.substream(cfg.rng_seed, 2))
        self._pending: dict[str, _ImageTrace] = {}
        self.failure: Optional[str] = None
        self.pipeline_done = Gate(loop)

    def start(self) -> None:
        if self._cfg.parallelism:
            read_q = BoundedQueue(self._loop, self._cfg.queue_capacity)
            spawn(self._loop, self._reader(read_q), name="far-reader")
            if self._blocking:
                # The blocking transport offers no background transmission:
                # the send call itself holds the detect stage.
                spawn(self._loop, self._worker(read_q, None), name="far-worker")
            else:
                upload_q = BoundedQueue(self._loop, self._cfg.queue_capacity)
                spawn(self._loop, self._worker(read_q, upload_q), name="far-worker")
                spawn(self._loop, self._uploader(upload_q), name="far-uploader")
        else:
            spawn(self._loop, self._sequential(), name="far-sequential")

    # The result handler is transport-independent.
    def on_result_message(self, data: bytes) -> None:
        msg = decode_result(data)
        tr = self._pending.pop(msg.image_id, None)
        if tr is None:
            return  # late result after timeout: already finalized
        self._collector.finalize(tr, msg.origin, msg.recognized, msg.label,
                                 msg.is_false_positive)

    def _jitter_factor(self) -> float:
        if self._cfg.jitter_pct <= 0.0:
            return 1.0
        return 1.0 + self._cfg.jitter_pct * (2.0 * self._jitter_rng.uniform() - 1.0)

    def _sequential(self):
        durations = self._cfg.stage_durations
        try:
            for image in self._dataset:
                jitter = self._jitter_factor()
                tr = self._collector.trace(image.id)
                t_io = durations.t_read_decode * jitter
                yield self._core1.execute(t_io)
                tr.t_read_decode = t_io
                detection = workload.detection_for(image, durations, jitter)
                yield self._core1.execute(detection.t_total)
                tr.t_quality = detection.t_quality
                tr.t_infer1 = detection.t_infer1
                tr.t_infer2 = detection.t_infer2
                if detection.face_found:
                    yield from self._upload(image, tr)
                    if not self._blocking:
                        yield self._uplink.fabric.route("far", "edge").flush()
                else:
                    self._collector.finalize(tr, "none", False, None, False)
        except TransportError as exc:
            self.failure = str(exc)
            self._abandon_pending()
        self.pipeline_done.set()

    def _reader(self, queue: BoundedQueue):
        durations = self._cfg.stage_durations
        for image in self._dataset:
            jitter = self._jitter_factor()
            tr = self._collector.trace(image.id)
            t_io = durations.t_read_decode * jitter + self._cfg.parallel_io_penalty_s
            yield self._core1.execute(t_io)
            tr.t_read_decode = t_io
            yield queue.put((image, jitter))

    def _worker(self, read_q: BoundedQueue, upload_q: Optional[BoundedQueue]):
        durations = self._cfg.stage_durations
        try:
            for _ in range(len(self._dataset)):
                image, jitter = yield read_q.get()
                tr = self._collector.trace(image.id)
                detection = workload.detection_for(image, durations, jitter)
                yield self._core0.execute(detection.t_total)
                tr.t_quality = detection.t_quality
                tr.t_infer1 = detection.t_infer1
                tr.t_infer2 = detection.t_infer2
                if self._cfg.parallel_handoff_s > 0.0:
                    yield self._cfg.parallel_handoff_s
                if not detection.face_found:
                    self._collector.finalize(tr, "none", False, None, False)
                elif upload_q is None:
                    yield from self._upload(image, tr)
                else:
                    yield upload_q.put(image)
        except TransportError as exc:
            self.failure = str(exc)
            self._abandon_pending()
        if upload_q is None:
            self.pipeline_done.set()
        else:
            yield upload_q.put(None)

    def _uploader(self, upload_q: BoundedQueue):
        try:
            while True:
                image = yield upload_q.get()
                if image is None:
                    break
                tr = self._collector.trace(image.id)
                yield from self._upload(image, tr)
        except TransportError as exc:
            self.failure = str(exc)
            self._abandon_pending()
        self.pipeline_done.set()

    def _upload(self, image, tr: _ImageTrace):
        meta, envelopes = chunkwire.fragment(
            image.payload, image.id, self._cfg.chunk_size_bytes,
            (image.width_px, image.height_px), image.format.value)
        messages = [chunkwire.encode_meta(meta)]
        messages.extend(chunkwire.encode_envelope(env) for env in envelopes)
        tr.uploaded = True
        self._pending[image.id] = tr
        tr.timeout_handle = self._loop.schedule(
            self._cfg.image_timeout_s, lambda: self._on_timeout(image.id))
        if self._blocking:
            last_receipt: SendReceipt = None
            for msg in messages:
                receipt = yield self._uplink.send(msg)
                if tr.transfer_start is None:
                    tr.transfer_start = receipt.wire_start
                last_receipt = receipt
            tr.upload_end = last_receipt.ack_at
        else:
            first = True
            for msg in messages:
                ticket = self._uplink.put(msg)
                if first:
                    tr.first_ticket = ticket
                    first = False
                yield ticket.accepted

    def _on_timeout(self, image_id: str) -> None:
        tr = self._pending.pop(image_id, None)
        if tr is not None:
            self._collector.finalize(tr, "none", False, None, False)

    def _abandon_pending(self) -> None:
        for image_id in list(self._pending):
            self._on_timeout(image_id)


# ---------------------------------------------------------------------------
# Edge.


class EdgeService:
    """Reassembles uploads, identifies locally, escalates to the cloud when
    the local database has no match. Cloud escalation never blocks handling
    of other images: each image is served by its own activity and the AI core
    is held only for the identification itself."""

    def __init__(self, loop: EventLoop, cfg: ScenarioConfig, db,
                 embeddings: dict[str, object], collector: Collector,
                 edge_core: SimCore,
                 send_result: Callable[[bytes], None],
                 cloud_send: Optional[Callable[[str, bytes], None]] = None):
        self._loop = loop
        self._cfg = cfg
        self._db = db
        self._embeddings = embeddings
        self._collector = collector
        self._core = edge_core
        self._send_result = send_result
        self._cloud_send = cloud_send
        self._sessions: dict[str, ReassemblySession] = {}
        self._fed: dict[str, int] = {}
        self._corrupt: dict[str, int] = {}
        self._done_ids: set[str] = set()
        self._pending_cloud: dict[str, Gate] = {}
        self.dropped_chunks = 0
        self.malformed_messages = 0

    # Transport-facing entry point for both meta and chunk messages.
    def on_upload_message(self, data: bytes) -> None:
        msg_type = chunkwire.peek_msg_type(data)
        if msg_type == "meta":
            meta = chunkwire.decode_meta(data)
            if meta.image_id in self._done_ids or meta.image_id in self._sessions:
                return
            self._sessions[meta.image_id] = ReassemblySession(meta)
            self._fed[meta.image_id] = 0
            self._corrupt[meta.image_id] = 0
            return
        env = chunkwire.decode_envelope(data)
        session = self._sessions.get(env.image_id)
        if session is None:
            self.dropped_chunks += 1
            return
        self._fed[env.image_id] += 1
        status = session.accept(env)
        if status is ReassemblyStatus.COMPLETE:
            self._finish_session(env.image_id, session)
            return
        if status in (ReassemblyStatus.CHUNK_CRC_MISMATCH,
                      ReassemblyStatus.LENGTH_MISMATCH):
            self._corrupt[env.image_id] += 1
        if status is ReassemblyStatus.FULL_CRC_MISMATCH:
            self._fail_session(env.image_id)
        elif (self._corrupt[env.image_id] > 0
              and self._fed[env.image_id] >= session.metadata.total_chunks
              and session.state is not ReassemblyState.COMPLETE):
            # The sender pushed the whole transfer once and at least one chunk
            # was discarded: with no retransmission it can never complete.
            self._fail_session(env.image_id)

    def _finish_session(self, image_id: str, session: ReassemblySession) -> None:
        self._sessions.pop(image_id, None)
        self._fed.pop(image_id, None)
        self._corrupt.pop(image_id, None)
        self._done_ids.add(image_id)
        tr = self._collector.trace(image_id)
        tr.reassembled_at = self._loop.now
        spawn(self._loop, self._serve_image(image_id, session.payload),
              name=f"edge-serve-{image_id}")

    def _fail_session(self, image_id: str) -> None:
        self._sessions.pop(image_id, None)
        self._fed.pop(image_id, None)
        self._corrupt.pop(image_id, None)
        self._done_ids.add(image_id)
        self._send_result(encode_result(ResultMessage(
            image_id=image_id, origin="edge", recognized=False,
            label=None, is_false_positive=False)))

    def _serve_image(self, image_id: str, payload: bytes):
        cfg = self._cfg
        embedding = self._embeddings.get(image_id)
        yield self._core.execute(cfg.stage_durations.t_identify)
        tr = self._collector.trace(image_id)
        tr.t_identify = cfg.stage_durations.t_identify
        result = None
        if embedding is not None:
            ident = workload.identify(embedding, self._db,
                                      cfg.similarity_threshold,
                                      cfg.stage_durations.t_identify, image_id)
            if ident.recognized:
                result = ResultMessage(image_id, "edge", True,
                                       ident.best_person.label, False)
        if result is None and cfg.cloud_enabled and self._cloud_send is not None:
            result = yield from self._cloud_flow(image_id, payload)
        if result is None:
            result = ResultMessage(image_id, "edge", False, None, False)
        self._send_result(encode_result(result))

    def _cloud_flow(self, image_id: str, payload: bytes):
        """Presigned-grant escalation; forwards the cloud's verdict verbatim.
        A timeout at any step degrades to a negative cloud result."""
        cfg = self._cfg
        gate = Gate(self._loop)
        self._pending_cloud[image_id] = gate
        handle = self._loop.schedule(cfg.cloud_timeout_s,
                                     lambda: self._cloud_timeout(image_id))
        self._cloud_send(image_id, json.dumps(
            {"msg_type": "grant_request", "image_id": image_id},
            separators=(",", ":")).encode("utf-8"))
        reply = yield gate
        if reply is None or reply.get("msg_type") != "grant":
            return ResultMessage(image_id, "cloud", False, None, False)
        gate = Gate(self._loop)
        self._pending_cloud[image_id] = gate
        upload = {
            "msg_type": "cloud_upload",
            "image_id": image_id,
            "upload_token": reply["upload_token"],
            "payload_b64": base64.b64encode(payload).decode("ascii"),
        }
        self._cloud_send(image_id, json.dumps(upload, separators=(",", ":")).encode("utf-8"))
        verdict = yield gate
        handle.cancel()
        self._pending_cloud.pop(image_id, None)
        if verdict is None or verdict.get("msg_type") != "result":
            return ResultMessage(image_id, "cloud", False, None, False)
        return ResultMessage(
            image_id=verdict["image_id"],
            origin=verdict["origin"],
            recognized=verdict["recognized"],
            label=verdict["label"],
            is_false_positive=verdict["is_false_positive"],
        )

    def on_cloud_message(self, data: bytes) -> None:
        try:
            doc = chunkwire.parse_object(data)
        except MalformedJson:
            self.malformed_messages += 1
            return
        gate = self._pending_cloud.pop(doc.get("image_id", ""), None)
        if gate is not None and not gate.is_set:
            gate.set(doc)

    def _cloud_timeout(self, image_id: str) -> None:
        gate = self._pending_cloud.pop(image_id, None)
        if gate is not None and not gate.is_set:
            gate.set(None)


# ---------------------------------------------------------------------------
# Cloud.


class InvalidGrant(RuntimeError):
    pass


class ExpiredGrant(RuntimeError):
    pass


@dataclass
class PresignedGrant:
    upload_token: str
    image_id: str
    expires_at: float
    used: bool = False


class CloudService:
    """Issues single-use upload grants and runs the recognizer after the
    configured service latency."""

    def __init__(self, loop: EventLoop, cfg: ScenarioConfig,
                 ground_truth: dict[str, object],
                 send_to_edge: Callable[[str, bytes], None]):
        self._loop = loop
        self._cfg = cfg
        self._ground_truth = ground_truth
        self._send_to_edge = send_to_edge
        self._fp_rng = workload.Prng(workload.substream(cfg.rng_seed, 3))
        self._latency_rng = workload.Prng(workload.substream(cfg.rng_seed, 4))
        self._grants: dict[str, PresignedGrant] = {}
        self._counter = 0
        self.malformed_messages = 0

    def issue_grant(self, image_id: str) -> PresignedGrant:
        self._counter += 1
        grant = PresignedGrant(
            upload_token=f"grant-{self._counter:06d}",
            image_id=image_id,
            expires_at=self._loop.now + self._cfg.grant_ttl_s,
        )
        self._grants[grant.upload_token] = grant
        return grant

    def redeem(self, token: str, image_id: str) -> PresignedGrant:
        grant = self._grants.get(token)
        if grant is None or grant.used or grant.image_id != image_id:
            raise InvalidGrant(f"grant rejected for {image_id}")
        if self._loop.now > grant.expires_at:
            raise ExpiredGrant(f"grant expired for {image_id}")
        grant.used = True
        return grant

    def _latency(self) -> float:
        sd = self._cfg.stage_durations
        if sd.cloud_latency_jitter <= 0.0:
            return sd.cloud_latency_mean
        spread = sd.cloud_latency_jitter * (2.0 * self._latency_rng.uniform() - 1.0)
        return max(0.0, sd.cloud_latency_mean + spread)

    def on_message(self, data: bytes) -> None:
        try:
            doc = chunkwire.parse_object(data)
        except MalformedJson:
            self.malformed_messages += 1
            return
        image_id = doc.get("image_id", "")
        if doc.get("msg_type") == "grant_request":
            grant = self.issue_grant(image_id)
            self._send_to_edge(image_id, json.dumps({
                "msg_type": "grant",
                "image_id": image_id,
                "upload_token": grant.upload_token,
                "expires_at": grant.expires_at,
            }, separators=(",", ":")).encode("utf-8"))
        elif doc.get("msg_type") == "cloud_upload":
            image = self._ground_truth.get(image_id)
            if image is None:
                self._reject(image_id, f"no record of image {image_id}")
                return
            try:
                self.redeem(doc.get("upload_token", ""), image_id)
            except (InvalidGrant, ExpiredGrant) as exc:
                self._reject(image_id, str(exc))
                return
            verdict = workload.cloud_recognize(
                image, self._cfg.fp_rate, self._fp_rng, self._latency())
            payload = encode_result(ResultMessage(
                image_id=image_id,
                origin="cloud",
                recognized=verdict.outcome is workload.CloudOutcome.MATCH,
                label=verdict.label,
                is_false_positive=verdict.is_false_positive,
            ))
            self._loop.schedule(verdict.t_cloud,
                                lambda: self._send_to_edge(image_id, payload))

    def _reject(self, image_id: str, reason: str) -> None:
        self._send_to_edge(image_id, json.dumps({
            "msg_type": "upload_rejected",
            "image_id": image_id,
            "reason": reason,
        }, separators=(",", ":")).encode("utf-8"))


# ---------------------------------------------------------------------------
# Scenario wiring and execution.


@dataclass
class RunResult:
    config: ScenarioConfig
    records: list[MetricsRecord]
    summary: RunSummary
    wall: float
    failure: Optional[str] = None

    @property
    def result_multiset(self) -> list[tuple[str, bool, Optional[str]]]:
        return sorted((r.image_id, r.recognized, r.label) for r in self.records)


def build_dataset(cfg: ScenarioConfig):
    db = workload.make_face_db(cfg.rng_seed, cfg.db_size)
    dataset = workload.generate_dataset(
        cfg.rng_seed, cfg.dataset_size, cfg.face_prob, cfg.known_prob,
        db, cfg.payload_bytes)
    return db, dataset


def run_scenario(cfg: ScenarioConfig) -> RunResult:
    """Execute one scenario and aggregate its metrics.

    VIRTUAL mode runs the tiers on the deterministic event loop over booked
    links; WALLCLOCK_TCP mode runs the same tiers on the loopback-TCP driver.
    """
    check = validate_config(cfg)
    if not check.ok:
        raise ValueError("invalid scenario: " + "; ".join(check.violations))
    if cfg.time_mode is TimeMode.WALLCLOCK_TCP:
        from .tcprun import run_tcp_scenario
        return run_tcp_scenario(cfg)

    loop = EventLoop()
    links = (SimLink(loop, cfg.link_far_to_edge, "far->edge"),
             SimLink(loop, cfg.link_far_to_edge, "edge->far"),
             SimLink(loop, cfg.link_edge_to_cloud, "edge->cloud"),
             SimLink(loop, cfg.link_edge_to_cloud, "cloud->edge"))
    return run_tiers(cfg, loop, links, SessionEndpoint)


def run_tiers(cfg: ScenarioConfig, loop: EventLoop, links: tuple,
              session_type: type) -> RunResult:
    """Wire the three tiers of ``cfg`` over ``links`` (far->edge, edge->far,
    edge->cloud, cloud->edge), run ``loop`` until it drains and aggregate the
    metrics. Both time modes run here; they differ in the loop, the links and
    the class of the blocking session's endpoints."""
    db, dataset = build_dataset(cfg)
    embeddings = {img.id: img.embedding for img in dataset}
    ground_truth = {img.id: img for img in dataset}
    collector = Collector(loop)

    core0 = SimCore(loop, 0)
    core1 = SimCore(loop, 1)
    edge_core = SimCore(loop, 2)

    uplink_link, downlink_link, up_cloud_link, down_cloud_link = links

    # The edge<->cloud leg always rides the pub/sub fabric; the architectures
    # differ only between far edge and edge.
    fabric = PubSubFabric(loop, cfg.queue_capacity)
    fabric.connect("edge", "cloud", up_cloud_link)
    fabric.connect("cloud", "edge", down_cloud_link)

    edge_cloud_pubs: dict[tuple[str, str], Publisher] = {}

    def edge_to_cloud(image_id: str, data: bytes) -> None:
        key = KEY_CLOUD_REQUESTS_PREFIX + image_id
        doc_type = json.loads(data.decode("utf-8")).get("msg_type")
        if doc_type == "cloud_upload":
            key = KEY_CLOUD_UPLOADS_PREFIX + image_id
        pub = edge_cloud_pubs.get(("edge", key))
        if pub is None:
            pub = fabric.declare_publisher("edge", key)
            edge_cloud_pubs[("edge", key)] = pub
        pub.put(data)

    def cloud_to_edge(image_id: str, data: bytes) -> None:
        key = KEY_CLOUD_RESULTS_PREFIX + image_id
        pub = edge_cloud_pubs.get(("cloud", key))
        if pub is None:
            pub = fabric.declare_publisher("cloud", key)
            edge_cloud_pubs[("cloud", key)] = pub
        pub.put(data)

    cloud = None
    if cfg.cloud_enabled:
        cloud = CloudService(loop, cfg, ground_truth, cloud_to_edge)
        fabric.endpoint("cloud").subscribe(
            KEY_CLOUD_REQUESTS_PREFIX + "*", lambda _k, d: cloud.on_message(d))
        fabric.endpoint("cloud").subscribe(
            KEY_CLOUD_UPLOADS_PREFIX + "*", lambda _k, d: cloud.on_message(d))

    result_pubs: dict[str, Publisher] = {}

    if cfg.transport is TransportKind.PUBSUB:
        fabric.connect("far", "edge", uplink_link)
        fabric.connect("edge", "far", downlink_link)

        def send_result(data: bytes) -> None:
            msg = decode_result(data)
            key = KEY_RESULTS_PREFIX + msg.image_id
            pub = result_pubs.get(key)
            if pub is None:
                pub = fabric.declare_publisher("edge", key)
                result_pubs[key] = pub
            pub.put(data)

        edge = EdgeService(loop, cfg, db, embeddings, collector, edge_core,
                           send_result, edge_to_cloud if cfg.cloud_enabled else None)
        fabric.endpoint("edge").subscribe(
            KEY_FACES_DETECTED, lambda _k, d: edge.on_upload_message(d))
        fabric.endpoint("edge").subscribe(
            KEY_CLOUD_RESULTS_PREFIX + "*", lambda _k, d: edge.on_cloud_message(d))

        faces_pub = fabric.declare_publisher("far", KEY_FACES_DETECTED)
        far = FarEdgeNode(loop, cfg, dataset, faces_pub, collector, core0, core1)
        fabric.endpoint("far").subscribe(
            KEY_RESULTS_PREFIX + "*", lambda _k, d: far.on_result_message(d))
    else:
        far_sess, edge_sess = session_pair(loop, uplink_link, downlink_link,
                                           timeout=cfg.send_timeout_s,
                                           endpoint=session_type)

        def send_result(data: bytes) -> None:
            def _proc():
                yield edge_sess.send(data)
            spawn(loop, _proc(), name="edge-result-send")

        edge = EdgeService(loop, cfg, db, embeddings, collector, edge_core,
                           send_result, edge_to_cloud if cfg.cloud_enabled else None)
        if cfg.cloud_enabled:
            fabric.endpoint("edge").subscribe(
                KEY_CLOUD_RESULTS_PREFIX + "*", lambda _k, d: edge.on_cloud_message(d))
        edge_sess.on_message(edge.on_upload_message)

        far = FarEdgeNode(loop, cfg, dataset, far_sess, collector, core0, core1)
        far_sess.on_message(far.on_result_message)

    far.start()
    loop.run()

    wall = loop.now if loop.now > 0 else 1e-9
    summary = summarize(collector.records,
                        {0: core0.busy_time, 1: core1.busy_time}, wall)
    return RunResult(config=cfg, records=collector.records, summary=summary,
                     wall=wall, failure=far.failure)


def compute_rtts(records: list[MetricsRecord]) -> dict[str, tuple[float, Optional[float]]]:
    """Per-image (edge_rtt, cloud_rtt) as recorded; raises on records that
    never reached a result."""
    out = {}
    for r in records:
        if r.origin not in ("edge", "cloud"):
            raise IncompleteRecord(f"{r.image_id} has no result")
        out[r.image_id] = (r.edge_rtt, r.cloud_rtt)
    return out
