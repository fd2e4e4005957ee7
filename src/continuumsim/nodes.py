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
timeout. The edge reads a canonical chunk with ``chunkwire.read_chunk``,
which takes what ``chunkwire.decode_json`` takes, without an envelope.
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
    SessionEndpoint,
    StreamTicket,
    TransportError,
    session_pair,
)


# ---------------------------------------------------------------------------
# Per-image measurement state, shared by the nodes of one run.


@dataclass(slots=True)
class _ImageTrace:
    """The far edge's record of one image, made at its read; an upload adds
    its stream's ticket, the one timeline of its upload on either transport."""

    image_id: str
    t_read_decode: float = 0.0
    detection: Optional[workload.DetectionResult] = None
    upload_ticket: Optional[StreamTicket] = None
    reassembled_at: Optional[float] = None
    t_identify: float = 0.0
    timeout: Optional[EventHandle] = None


class Collector:
    """Run-global observer assembling MetricsRecords from both tiers.
    ``traces`` holds the uploaded images in flight: the far edge adds a trace
    before its upload's first send and pops it at the result, and the edge
    marks reassembly and identification on it. No other image enters it."""

    def __init__(self, loop: EventLoop):
        self._loop = loop
        self.traces: dict[str, _ImageTrace] = {}
        self.records: list[MetricsRecord] = []

    def finalize(self, tr: _ImageTrace, result: Optional[ResultMessage]) -> None:
        """Record ``tr``'s one outcome: ``result``, or no result (origin
        "none") if it is None. Each image comes here once: from the far
        edge's ``_resolve`` if it was uploaded, at detection if not. Its
        upload runs from its ticket's ``wire_start`` to its last ack on a
        session, else to its reassembly, and counts 0 if it had neither."""
        now = self._loop.now
        ticket = tr.upload_ticket
        start = ticket.wire_start if ticket else None
        t_upload = 0.0
        if start is not None:
            upload_end = ticket.ack_at if ticket.ack_at is not None else tr.reassembled_at
            if upload_end is not None:
                t_upload = upload_end - start
        if result is None:
            origin, recognized, label, is_fp = "none", False, None, False
        else:
            origin, recognized, label, is_fp = (result.origin, result.recognized,
                                                result.label, result.is_false_positive)
        span = now - start if start is not None and result is not None else 0.0
        detection = tr.detection
        self.records.append(MetricsRecord(
            image_id=tr.image_id,
            t_read_decode=tr.t_read_decode,
            t_quality=detection.t_quality,
            t_infer1=detection.t_infer1,
            t_infer2=detection.t_infer2,
            t_detect_total=detection.t_total,
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
        self.failure: Optional[str] = None
        self.malformed_messages = 0

    def start(self, dataset) -> None:
        """Spawn the pipeline over ``dataset``. Only its processes hold the
        dataset, each until it ends. Each image's trace is made at its read
        and passed on with the image through the read and upload queues; an
        upload adds it to the collector's ``traces``. The node itself is
        freed by reference counting once ``run_tiers`` has closed the
        transports that call its handler."""
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
        self._resolve(msg.image_id, msg)

    def _resolve(self, image_id: str, result: Optional[ResultMessage]) -> None:
        """End uploaded image ``image_id`` with ``result``, None for no
        result. The first of its answer, its image timeout and the run's
        failure pops its trace from ``traces``; whatever comes after finds
        nothing and is ignored."""
        tr = self._collector.traces.pop(image_id, None)
        if tr is None:
            return
        tr.timeout.cancel()
        self._collector.finalize(tr, result)

    def _fail(self, exc: TransportError) -> None:
        """The pipeline cannot send: keep the first failure, and end every
        uploaded image in flight with no result. Only the text of ``exc`` is
        kept, and its traceback is dropped: its frames hold the exception
        itself and, on Python 3.12 and later, the frames that called them
        and through those the run's dataset, in a cycle that only the cyclic
        collector would free."""
        exc.__traceback__ = None
        if self.failure is None:
            self.failure = str(exc)
        for image_id in list(self._collector.traces):
            self._resolve(image_id, None)

    def _jitter_factor(self) -> float:
        if self._cfg.jitter_pct <= 0.0:
            return 1.0
        return 1.0 + self._cfg.jitter_pct * (2.0 * self._jitter_rng.uniform() - 1.0)

    def _sequential(self, dataset):
        durations = self._cfg.stage_durations
        try:
            for image in dataset:
                jitter = self._jitter_factor()
                tr = _ImageTrace(image.id)
                t_io = durations.t_read_decode * jitter
                yield self._core1.execute(t_io)
                tr.t_read_decode = t_io
                detection = tr.detection = workload.detection_for(image, durations, jitter)
                yield self._core1.execute(detection.t_total)
                if detection.face_found:
                    yield from self._upload(image, tr)
                    if not self._blocking:
                        yield self._uplink.fabric.route("far", "edge").flush()
                else:
                    self._collector.finalize(tr, None)
        except TransportError as exc:
            self._fail(exc)

    def _reader(self, queue: BoundedQueue, dataset):
        durations = self._cfg.stage_durations
        for image in dataset:
            if self.failure is not None:
                return  # nothing will process what it would read
            jitter = self._jitter_factor()
            tr = _ImageTrace(image.id)
            t_io = durations.t_read_decode * jitter + self._cfg.parallel_io_penalty_s
            yield self._core1.execute(t_io)
            tr.t_read_decode = t_io
            yield queue.put((image, tr, jitter))

    def _worker(self, read_q: BoundedQueue, upload_q: Optional[BoundedQueue],
                count: int):
        durations = self._cfg.stage_durations
        try:
            for _ in range(count):
                image, tr, jitter = yield read_q.get()
                detection = tr.detection = workload.detection_for(image, durations, jitter)
                yield self._core0.execute(detection.t_total)
                if self._cfg.parallel_handoff_s > 0.0:
                    yield self._cfg.parallel_handoff_s
                if not detection.face_found:
                    self._collector.finalize(tr, None)
                elif upload_q is None:
                    yield from self._upload(image, tr)
                else:
                    yield upload_q.put((image, tr))
        except TransportError as exc:
            self._fail(exc)
            # Nothing takes from the read queue now, and the reader starts no
            # new read. A put it waits on then waits on nothing that holds
            # it, so the dataset is freed by reference counting.
            read_q.close()
        if upload_q is not None:
            yield upload_q.put(None)

    def _uploader(self, upload_q: BoundedQueue):
        # A pub/sub put never raises a TransportError.
        while (item := (yield upload_q.get())) is not None:
            yield from self._upload(*item)

    def _upload(self, image, tr: _ImageTrace):
        # Each read of ``image.payload`` makes the bytes: read it once.
        messages = chunkwire.encode_upload(
            image.payload, image.id, self._cfg.chunk_size_bytes,
            (image.width_px, image.height_px), image.format.value)
        tr.timeout = self._loop.schedule(
            self._cfg.image_timeout_s,
            partial(self._resolve, image.id, None))
        self._collector.traces[image.id] = tr
        stream = self._uplink.send_all if self._blocking else self._uplink.put_all
        tr.upload_ticket = stream(messages)
        yield tr.upload_ticket.accepted


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
        ``data`` towards the cloud under the pub/sub key ``key``, and is
        None when the cloud is off: the edge then never escalates."""
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
        # Each escalation's gate, with the reply type of the step it has
        # passed (None on the first step).
        self._pending_cloud: dict[str, tuple[Gate, Optional[type]]] = {}
        self.dropped_chunks = 0
        self.malformed_messages = 0
        self.stale_replies = 0

    # Transport-facing entry point for both meta and chunk messages. A
    # message that does not decode to one of them is dropped and counted;
    # its image then ends through the far edge's image timeout. A transfer
    # opens with its first meta message and ends when its session completes,
    # fails, or can no longer complete; anything for it after that is
    # ignored, and a chunk counts in ``dropped_chunks``.
    def on_upload_message(self, data: bytes) -> None:
        chunk = chunkwire.read_chunk(data)
        if chunk is None:
            try:
                msg = chunkwire.decode_as(data, (TransferMetadata, ChunkEnvelope))
            except ChunkError:
                self.malformed_messages += 1
                return
            if isinstance(msg, TransferMetadata):
                self._sessions.setdefault(msg.image_id, ReassemblySession(msg))
                return
            chunk = msg.image_id, msg.seq, msg.decoded, msg.crc32_chunk
        image_id, seq, raw, crc = chunk
        session = self._sessions.get(image_id)
        if session is None:
            self.dropped_chunks += 1
            return
        session.add(image_id, seq, raw, crc, len(raw))
        if len(session.chunks) + len(session.discarded) < session.metadata.total_chunks:
            return  # a number has yet to arrive
        self._sessions[image_id] = None
        if session.state is ReassemblyState.COMPLETE:
            tr = self._collector.traces.get(image_id)
            if tr is not None:  # None once the image has ended
                tr.reassembled_at = self._loop.now
            spawn(self._loop, self._serve_image(image_id, session.payload),
                  name=f"edge-serve-{image_id}")
        else:
            # The whole failed its checks, or one number is still discarded:
            # the sender never retransmits, so the transfer cannot complete.
            self._send_result(image_id, encode_result(
                ResultMessage(image_id, "edge", False, None, False)))

    def _serve_image(self, image_id: str, payload: bytes):
        cfg = self._cfg
        embedding = self._embeddings.get(image_id)
        yield self._core.execute(cfg.stage_durations.t_identify)
        tr = self._collector.traces.get(image_id)
        if tr is not None:
            tr.t_identify = cfg.stage_durations.t_identify
        result = None
        if embedding is not None:
            ident = workload.identify(embedding, self._db,
                                      cfg.similarity_threshold,
                                      cfg.stage_durations.t_identify, image_id)
            if ident.recognized:
                result = ResultMessage(image_id, "edge", True,
                                       ident.best_person.label, False)
        if result is None and self._cloud_send is not None:
            result = yield from self._cloud_flow(image_id, payload)
        if result is None:
            result = ResultMessage(image_id, "edge", False, None, False)
        self._send_result(image_id, encode_result(result))

    def _cloud_flow(self, image_id: str, payload: bytes):
        """Presigned-grant escalation; forwards the cloud's verdict verbatim.
        A timeout at any step, or a reply of the wrong type such as a
        refusal, degrades to a negative cloud result; a reply for a step
        already passed is ignored (see ``_wake``). The timeout is cancelled
        on every way out, so it does not hold the run open."""
        gate = Gate(self._loop)
        self._pending_cloud[image_id] = (gate, None)
        handle = self._loop.schedule(self._cfg.cloud_timeout_s,
                                     partial(self._wake, image_id, None))
        try:
            self._cloud_send(KEY_CLOUD_REQUESTS_PREFIX + image_id,
                             chunkwire.encode(GrantRequest(image_id)))
            grant = yield gate
            if type(grant) is Grant:
                gate = Gate(self._loop)
                self._pending_cloud[image_id] = (gate, Grant)
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
        lets only the first wake-up through. A reply for a step the flow has
        passed, such as a duplicated grant, or one that arrives when no flow
        waits, is ignored and counted in ``stale_replies``."""
        gate, stale_type = self._pending_cloud.get(image_id, (None, None))
        if gate is None or type(reply) is stale_type:
            if reply is not None:
                self.stale_replies += 1
            return
        del self._pending_cloud[image_id]
        gate.set(reply)


# ---------------------------------------------------------------------------
# Cloud.


class CloudService:
    """Issues single-use upload grants and runs the recognizer after the
    configured service latency. An upload is refused if its image is
    unknown, if its grant is unknown, spent or names another image, or if its
    grant has expired; only a redeemed grant leaves the ledger.
    ``ground_truth`` maps each image id to the known person its face shows,
    or None for an unknown face. A message that does not decode to a grant
    request or an upload is dropped and counted in ``malformed_messages``."""

    def __init__(self, loop: EventLoop, cfg: ScenarioConfig,
                 ground_truth: dict[str, Optional[PersonId]],
                 send_to_edge: Callable[[str, bytes], None]):
        self._loop = loop
        self._cfg = cfg
        self._ground_truth = ground_truth
        self._send_to_edge = send_to_edge
        self._fp_rng = workload.Prng(workload.substream(cfg.rng_seed, 3))
        self._latency_rng = workload.Prng(workload.substream(cfg.rng_seed, 4))
        # The image id and expiry of each grant not yet redeemed, by token.
        self._grants: dict[str, tuple[str, float]] = {}
        self._counter = 0
        self.malformed_messages = 0

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
            self._counter += 1
            token = f"grant-{self._counter:06d}"
            expires_at = self._loop.now + self._cfg.grant_ttl_s
            self._grants[token] = image_id, expires_at
            self._send_to_edge(image_id, chunkwire.encode(Grant(image_id, token, expires_at)))
            return
        # A redeemed grant has left the ledger, so it is refused as unknown.
        granted_id, expires_at = self._grants.get(msg.upload_token, (None, 0.0))
        if image_id not in self._ground_truth:
            reason = "no record of image"
        elif granted_id != image_id:
            reason = "grant rejected for"
        elif self._loop.now > expires_at:
            reason = "grant expired for"
        else:
            del self._grants[msg.upload_token]
            verdict = workload.cloud_recognize(
                self._ground_truth[image_id], self._cfg.fp_rate, self._fp_rng)
            payload = encode_result(ResultMessage(
                image_id=image_id,
                origin="cloud",
                recognized=verdict.outcome is workload.CloudOutcome.MATCH,
                label=verdict.label,
                is_false_positive=verdict.is_false_positive,
            ))
            self._loop.schedule(self._latency(), partial(self._send_to_edge, image_id, payload))
            return
        self._send_to_edge(image_id, chunkwire.encode(
            UploadRejected(image_id, f"{reason} {image_id}")))


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

    The handlers below and the transports that call them refer to each
    other. A blocking result send is a waiter on its send's gate, which the
    gate drops when it is set. Once the loop has drained, a close step
    closes the fabric and the session ends, which drop their routes,
    subscriptions, peers and handlers, so that the run is freed by
    reference counting when the caller lets go of its result."""
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
    sessions = ()
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
        sessions = uplink, edge_sess = session_pair(
            loop, uplink_link, downlink_link, timeout=cfg.send_timeout_s,
            endpoint=session_type)
        edge_sess.on_message(lambda d: edge.on_upload_message(d))
        uplink.on_message(lambda d: far.on_result_message(d))

        def result_sent(outcome: object) -> None:
            if isinstance(outcome, TransportError):
                far._fail(outcome)

        def send_result(_image_id: str, data: bytes) -> None:
            edge_sess.send(data).add_waiter(result_sent)

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
    fabric.close()
    for end in sessions:
        end.close()

    wall = loop.now if loop.now > 0 else 1e-9
    summary = summarize(collector.records,
                        {0: core0.busy_time, 1: core1.busy_time}, wall)
    return RunResult(config=cfg, records=collector.records, summary=summary,
                     wall=wall, failure=far.failure)

