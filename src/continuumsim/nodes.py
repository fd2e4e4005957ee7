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

The tiers exchange only the messages of ``chunkwire.SCHEMAS``, and every
handler follows one rule: decode with ``chunkwire.decode_as``, naming the
types it takes. The far edge takes results; the edge takes meta and chunk
messages from the far edge and grants, refusals and results from the cloud;
the cloud takes grant requests and uploads. Anything else is dropped and
counted in the node's ``malformed_messages``, and its image ends by a
timeout.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from . import chunkwire, workload
from .chunkwire import (
    ChunkEnvelope,
    ChunkError,
    CloudUpload,
    Grant,
    GrantRequest,
    ReassemblySession,
    ReassemblyState,
    ResultMessage,
    TransferMetadata,
    UploadRejected,
    decode_result,
)
# Results are encoded through this name, which tests replace and
# perfbench/tracer.py wraps; tcprun re-exports it with ``decode_result``.
from .chunkwire import encode as encode_result
from .domain import (
    PersonId,
    ScenarioConfig,
    TimeMode,
    TransportKind,
    validate_config,
)
from .metrics import MetricsRecord, RunSummary, summarize
from .netsim import BoundedQueue, EventHandle, EventLoop, Gate, SimCore, SimLink, spawn
from .transport import (
    KEY_CLOUD_REQUESTS_PREFIX,
    KEY_CLOUD_RESULTS_PREFIX,
    KEY_CLOUD_UPLOADS_PREFIX,
    KEY_FACES_DETECTED,
    KEY_RESULTS_PREFIX,
    PubSubFabric,
    Publisher,
    PutTicket,
    SessionEndpoint,
    TransportError,
    session_pair,
)


class IncompleteRecord(ValueError):
    pass


# ---------------------------------------------------------------------------
# Per-image measurement state, shared by the nodes of one run.


@dataclass
class _ImageTrace:
    image_id: str
    t_read_decode: float = 0.0
    t_quality: float = 0.0
    t_infer1: float = 0.0
    t_infer2: float = 0.0
    transfer_start: Optional[float] = None
    first_ticket: Optional[PutTicket] = None
    upload_end: Optional[float] = None
    reassembled_at: Optional[float] = None
    t_identify: float = 0.0


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

    def finalize(self, tr: _ImageTrace, origin: str, recognized: bool,
                 label: Optional[str], is_fp: bool) -> None:
        """Record ``tr``'s one result. Each image comes here once: from the
        far edge's ``_resolve`` if it was uploaded, at detection if not."""
        now = self._loop.now
        # A blocking upload records its start; a pub/sub one reads it off
        # the ticket of its first message. Neither is set if nothing was sent.
        start = tr.first_ticket.wire_start if tr.first_ticket else tr.transfer_start
        t_upload = 0.0
        if start is not None:
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

    def __init__(self, loop: EventLoop, cfg: ScenarioConfig,
                 uplink: SessionEndpoint | Publisher, collector: Collector,
                 core0: SimCore, core1: SimCore):
        self._loop = loop
        self._cfg = cfg
        self._uplink = uplink
        self._blocking = cfg.transport is TransportKind.BLOCKING_SESSION
        self._collector = collector
        self._core0 = core0
        self._core1 = core1
        self._jitter_rng = workload.Prng(workload.substream(cfg.rng_seed, 2))
        # The images uploaded and not yet ended, with their timeouts.
        self._pending: dict[str, tuple[_ImageTrace, EventHandle]] = {}
        self.failure: Optional[str] = None
        self.malformed_messages = 0

    def start(self, dataset) -> None:
        """Spawn the pipeline over ``dataset``. Only its processes hold the
        dataset, and each lets go of it when it ends: the node sits in
        reference cycles with its handlers, so anything it kept would outlive
        the run until the cyclic collector ran."""
        if self._cfg.parallelism:
            read_q = BoundedQueue(self._loop, self._cfg.queue_capacity)
            # The blocking transport offers no background transmission: the
            # send call itself holds the detect stage.
            upload_q = None if self._blocking else BoundedQueue(
                self._loop, self._cfg.queue_capacity)
            spawn(self._loop, self._reader(read_q, dataset), name="far-reader")
            spawn(self._loop, self._worker(read_q, upload_q, len(dataset)),
                  name="far-worker")
            if upload_q is not None:
                spawn(self._loop, self._uploader(upload_q), name="far-uploader")
        else:
            spawn(self._loop, self._sequential(dataset), name="far-sequential")

    # The result handler is transport-independent. A message that does not
    # decode to a result is dropped and counted; its image then ends by its
    # timeout.
    def on_result_message(self, data: bytes) -> None:
        try:
            msg = decode_result(data)
        except ChunkError:
            self.malformed_messages += 1
            return
        self._resolve(msg.image_id, msg.origin, msg.recognized, msg.label,
                      msg.is_false_positive)

    def _resolve(self, image_id: str, origin: str, recognized: bool,
                 label: Optional[str], is_fp: bool) -> None:
        """End uploaded image ``image_id`` with this result. The first of its
        answer, its image timeout and the run's failure gets here while it
        is pending; whatever comes after finds nothing and is ignored."""
        entry = self._pending.pop(image_id, None)
        if entry is None:
            return
        tr, timeout = entry
        timeout.cancel()
        self._collector.finalize(tr, origin, recognized, label, is_fp)

    def _fail(self, exc: TransportError) -> None:
        """The pipeline cannot send: keep the first failure, and end every
        pending image with no result."""
        if self.failure is None:
            self.failure = str(exc)
        for image_id in list(self._pending):
            self._resolve(image_id, "none", False, None, False)

    def _jitter_factor(self) -> float:
        if self._cfg.jitter_pct <= 0.0:
            return 1.0
        return 1.0 + self._cfg.jitter_pct * (2.0 * self._jitter_rng.uniform() - 1.0)

    def _sequential(self, dataset):
        durations = self._cfg.stage_durations
        try:
            for image in dataset:
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
            self._fail(exc)

    def _reader(self, queue: BoundedQueue, dataset):
        durations = self._cfg.stage_durations
        for image in dataset:
            if self.failure is not None:
                return  # nothing will process what it would read
            jitter = self._jitter_factor()
            tr = self._collector.trace(image.id)
            t_io = durations.t_read_decode * jitter + self._cfg.parallel_io_penalty_s
            yield self._core1.execute(t_io)
            tr.t_read_decode = t_io
            yield queue.put((image, jitter))

    def _worker(self, read_q: BoundedQueue, upload_q: Optional[BoundedQueue],
                count: int):
        durations = self._cfg.stage_durations
        try:
            for _ in range(count):
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
            self._fail(exc)
            # Nothing takes from the read queue now, and the reader starts no
            # new read. A put it waits on then waits on nothing that holds
            # it, so the dataset is freed by reference counting.
            read_q.close()
        if upload_q is not None:
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
            self._fail(exc)

    def _upload(self, image, tr: _ImageTrace):
        # Each read of ``image.payload`` makes the bytes: read it once.
        messages = chunkwire.encode_upload(
            image.payload, image.id, self._cfg.chunk_size_bytes,
            (image.width_px, image.height_px), image.format.value)
        self._pending[image.id] = (tr, self._loop.schedule(
            self._cfg.image_timeout_s,
            partial(self._resolve, image.id, "none", False, None, False)))
        if self._blocking:
            for msg in messages:
                receipt = yield self._uplink.send(msg)
                if tr.transfer_start is None:
                    tr.transfer_start = receipt.wire_start
            tr.upload_end = receipt.ack_at
        else:
            for msg in messages:
                ticket = self._uplink.put(msg)
                if tr.first_ticket is None:
                    tr.first_ticket = ticket
                yield ticket.accepted


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
                 send_result: Callable[[str, bytes], None],
                 cloud_send: Optional[Callable[[str, bytes], None]] = None):
        """``send_result(image_id, data)`` sends the result message ``data``
        of ``image_id`` to the far edge; ``cloud_send(key, data)`` publishes
        ``data`` towards the cloud under the pub/sub key ``key``."""
        self._loop = loop
        self._cfg = cfg
        self._db = db
        self._embeddings = embeddings
        self._collector = collector
        self._core = edge_core
        self._send_result = send_result
        self._cloud_send = cloud_send
        # Each transfer's reassembly, or None once the transfer has ended.
        self._sessions: dict[str, Optional[ReassemblySession]] = {}
        self._pending_cloud: dict[str, Gate] = {}
        self.dropped_chunks = 0
        self.malformed_messages = 0

    # Transport-facing entry point for both meta and chunk messages. A
    # message that does not decode to one of them is dropped and counted;
    # its image then ends through the far edge's image timeout. A transfer
    # opens with its first meta message and ends when its session completes,
    # fails, or can no longer complete; anything for it after that is
    # ignored, and a chunk counts in ``dropped_chunks``.
    def on_upload_message(self, data: bytes) -> None:
        try:
            msg = chunkwire.decode_as(data, (TransferMetadata, ChunkEnvelope))
        except ChunkError:
            self.malformed_messages += 1
            return
        image_id = msg.image_id
        if isinstance(msg, TransferMetadata):
            if image_id not in self._sessions:
                self._sessions[image_id] = ReassemblySession(msg)
            return
        session = self._sessions.get(image_id)
        if session is None:
            self.dropped_chunks += 1
            return
        session.accept(msg)
        if session.state is ReassemblyState.COMPLETE:
            self._sessions[image_id] = None
            self._collector.trace(image_id).reassembled_at = self._loop.now
            spawn(self._loop, self._serve_image(image_id, session.payload),
                  name=f"edge-serve-{image_id}")
        elif session.state is ReassemblyState.FAILED or (
                session.discarded and len(session.chunks) + len(session.discarded)
                == session.metadata.total_chunks):
            # Every number arrived once and one is still discarded: the
            # sender never retransmits, so the transfer cannot complete.
            self._sessions[image_id] = None
            self._send_result(image_id, encode_result(
                ResultMessage(image_id, "edge", False, None, False)))

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
        self._send_result(image_id, encode_result(result))

    def _cloud_flow(self, image_id: str, payload: bytes):
        """Presigned-grant escalation; forwards the cloud's verdict verbatim.
        A timeout at any step, or a reply of the wrong type such as a
        refusal, degrades to a negative cloud result. The timeout is
        cancelled on every way out, so it does not hold the run open."""
        gate = Gate(self._loop)
        self._pending_cloud[image_id] = gate
        handle = self._loop.schedule(self._cfg.cloud_timeout_s,
                                     partial(self._wake, image_id, None))
        try:
            self._cloud_send(KEY_CLOUD_REQUESTS_PREFIX + image_id,
                             chunkwire.encode(GrantRequest(image_id)))
            grant = yield gate
            if type(grant) is Grant:
                gate = Gate(self._loop)
                self._pending_cloud[image_id] = gate
                self._cloud_send(KEY_CLOUD_UPLOADS_PREFIX + image_id, chunkwire.encode(
                    CloudUpload(image_id, grant.upload_token,
                                base64.b64encode(payload).decode("ascii"))))
                verdict = yield gate
                if type(verdict) is ResultMessage:
                    return verdict
        finally:
            handle.cancel()
        return ResultMessage(image_id, "cloud", False, None, False)

    # A cloud reply that does not decode to a grant, a refusal or a result is
    # dropped and counted; its image then ends by the cloud timeout.
    def on_cloud_message(self, data: bytes) -> None:
        try:
            msg = chunkwire.decode_as(data, (Grant, UploadRejected, ResultMessage))
        except ChunkError:
            self.malformed_messages += 1
            return
        self._wake(msg.image_id, msg)

    def _wake(self, image_id: str, reply: Optional[chunkwire.Message]) -> None:
        """Resume ``image_id``'s cloud flow with ``reply``, or with None on its
        cloud timeout. The flow waits on one gate at a time, and popping it
        lets only the first wake-up through."""
        gate = self._pending_cloud.pop(image_id, None)
        if gate is not None:
            gate.set(reply)


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
    configured service latency. ``ground_truth`` maps each image id to the
    known person its face shows, or None for an unknown face. A message that
    does not decode to a grant request or an upload is dropped and counted in
    ``malformed_messages``."""

    def __init__(self, loop: EventLoop, cfg: ScenarioConfig,
                 ground_truth: dict[str, Optional[PersonId]],
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
            msg = chunkwire.decode_as(data, (GrantRequest, CloudUpload))
        except ChunkError:
            self.malformed_messages += 1
            return
        image_id = msg.image_id
        if type(msg) is GrantRequest:
            grant = self.issue_grant(image_id)
            self._send_to_edge(image_id, chunkwire.encode(
                Grant(image_id, grant.upload_token, grant.expires_at)))
            return
        if image_id not in self._ground_truth:
            self._reject(image_id, f"no record of image {image_id}")
            return
        try:
            self.redeem(msg.upload_token, image_id)
        except (InvalidGrant, ExpiredGrant) as exc:
            self._reject(image_id, str(exc))
            return
        verdict = workload.cloud_recognize(
            image_id, self._ground_truth[image_id], self._cfg.fp_rate,
            self._fp_rng, self._latency())
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
        self._send_to_edge(image_id, chunkwire.encode(UploadRejected(image_id, reason)))


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
    the class of the blocking session's endpoints.

    Routes are connected edge<->cloud first, then far<->edge, all before
    ``far.start``: each route's drain process schedules its first event at
    time 0, so the connect order fixes the order of those same-instant
    events, and through them the order of later ties."""
    db, dataset = build_dataset(cfg)
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

    # The handlers below look ``edge`` and ``far`` up when a message
    # arrives, after both exist.
    if cfg.transport is TransportKind.PUBSUB:
        fabric.connect("far", "edge", uplink_link)
        fabric.connect("edge", "far", downlink_link)
        uplink = fabric.declare_publisher("far", KEY_FACES_DETECTED)
        fabric.endpoint("edge").subscribe(
            KEY_FACES_DETECTED, lambda _k, d: edge.on_upload_message(d))
        fabric.endpoint("far").subscribe(
            KEY_RESULTS_PREFIX + "*", lambda _k, d: far.on_result_message(d))

        def send_result(image_id: str, data: bytes) -> None:
            fabric.declare_publisher("edge", KEY_RESULTS_PREFIX + image_id).put(data)
    else:
        uplink, edge_sess = session_pair(loop, uplink_link, downlink_link,
                                         timeout=cfg.send_timeout_s,
                                         endpoint=session_type)
        edge_sess.on_message(lambda d: edge.on_upload_message(d))
        uplink.on_message(lambda d: far.on_result_message(d))

        def send_result(_image_id: str, data: bytes) -> None:
            def _proc():
                try:
                    yield edge_sess.send(data)
                except TransportError as exc:
                    far._fail(exc)
            spawn(loop, _proc(), name="edge-result-send")

    def edge_to_cloud(key: str, data: bytes) -> None:
        fabric.declare_publisher("edge", key).put(data)

    edge = EdgeService(loop, cfg, db, {img.id: img.embedding for img in dataset},
                       collector, edge_core, send_result,
                       edge_to_cloud if cfg.cloud_enabled else None)
    fabric.endpoint("edge").subscribe(
        KEY_CLOUD_RESULTS_PREFIX + "*", lambda _k, d: edge.on_cloud_message(d))
    far = FarEdgeNode(loop, cfg, uplink, collector, core0, core1)

    if cfg.cloud_enabled:
        def cloud_to_edge(image_id: str, data: bytes) -> None:
            fabric.declare_publisher("cloud", KEY_CLOUD_RESULTS_PREFIX + image_id).put(data)

        cloud = CloudService(loop, cfg, {img.id: img.ground_truth for img in dataset},
                             cloud_to_edge)
        fabric.endpoint("cloud").subscribe(
            KEY_CLOUD_REQUESTS_PREFIX + "*", lambda _k, d: cloud.on_message(d))
        fabric.endpoint("cloud").subscribe(
            KEY_CLOUD_UPLOADS_PREFIX + "*", lambda _k, d: cloud.on_message(d))

    far.start(dataset)
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
