"""Three-tier orchestration: far-edge pipeline, edge service, cloud service.

The far edge reads and decodes an image, runs detection, and uploads detected
faces as a metadata frame plus chunk envelopes. The edge reassembles, tries
local identification against its face database, and either answers directly
or escalates to the cloud through a presigned-grant upload flow. Every
uploaded image yields exactly one result back at the far edge, which keeps
each image's trace and its one metrics record; the edge only marks the
traces of uploads in flight.

With parallelism off, all stages of image k finish before image k+1 starts
and both read/decode and detection run on core 1 (core 0 stays idle). With
parallelism on, read/decode of image k+1 overlaps detection of image k on
separate cores, and the upload overlaps both whenever the transport allows
it: a pub/sub put returns at enqueue time while a blocking session send holds
the detect stage until the ack returns. The far edge is one process that
computes each image's instants by booking its cores and its upload queue,
and waits on the loop only before an upload and once at its end: a
face-less image costs no event.

The tiers exchange only the messages of ``chunkwire.SCHEMAS``, and every
handler refuses input through one rule, ``_decode_or_count``: decode with
``chunkwire.decode_as``, naming the types it takes, or count the message in
the node's ``malformed_messages`` and drop it; its image then ends by a
timeout. The far edge takes results; the edge takes meta and chunk messages
from the far edge and grants, refusals and results from the cloud; the
cloud takes grant requests and uploads. Each upload message has one reader:
a chunk is the canonical bytes the far edge writes, read by
``chunkwire.read_chunk`` without an envelope, and anything else must decode
as a meta message. A chunk in any other JSON form is malformed.
"""

from __future__ import annotations

import base64
import math
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from . import chunkwire, workload
from .chunkwire import (
    ChunkError,
    CloudUpload,
    Grant,
    GrantRequest,
    ReassemblySession,
    ResultMessage,
    TransferMetadata,
    UploadRejected,
)
# Results are encoded through this name, which tests replace and
# perfbench/tracer.py wraps; tcprun re-exports it.
from .chunkwire import encode as encode_result
# No handler calls it (the far edge decodes results through
# ``_decode_or_count``), but perfbench/tracer.py wraps it on this module and
# tcprun re-exports it.
from .chunkwire import decode_result  # noqa: F401
from .domain import (
    ConfigError,
    FaceDatabase,
    ImageRecord,
    ScenarioConfig,
    TimeMode,
    TransportKind,
    validate_config,
)
from .metrics import MetricsRecord, RunSummary, summarize
from .netsim import EventHandle, EventLoop, Gate, SimCore, SimLink, spawn
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


def _decode_or_count(node, data: bytes, kinds: type | tuple) -> Optional[chunkwire.Message]:
    """The message ``data`` holds if it decodes as one of ``kinds``, else
    None, counted in ``node.malformed_messages``: the one rule by which
    every handler refuses input."""
    try:
        return chunkwire.decode_as(data, kinds)
    except ChunkError:
        node.malformed_messages += 1
        return None


# ---------------------------------------------------------------------------
# Far edge.


@dataclass(slots=True)
class _ImageTrace:
    """The far edge's record of one image, made at its read with its
    ``stages`` (see ``FarEdgeNode._frame_stages``); an upload adds its
    stream's ticket, the one timeline of its upload on either transport,
    and the edge marks reassembly and identification on it."""

    image_id: str
    stages: tuple = ()
    upload_ticket: Optional[StreamTicket] = None
    reassembled_at: Optional[float] = None
    t_identify: float = 0.0
    timeout: Optional[EventHandle] = None


class FarEdgeNode:
    """Reads, detects and uploads, and records each image's outcome in
    ``records``. ``uplink`` is the far end of the blocking session, or with
    pub/sub the publisher of detected faces. ``traces`` holds the uploaded
    images in flight: the far edge adds a trace before its upload's first
    send and pops it at the result, and the edge marks it. No other image
    enters it."""

    def __init__(self, loop: EventLoop, cfg: ScenarioConfig,
                 uplink: SessionEndpoint | Publisher, core0: SimCore, core1: SimCore):
        self._loop = loop
        self._cfg = cfg
        self._uplink = uplink
        self._blocking = cfg.transport is TransportKind.BLOCKING_SESSION
        self.traces: dict[str, _ImageTrace] = {}
        self.records: list[MetricsRecord] = []
        self._core0 = core0
        self._core1 = core1
        self._jitter_rng = workload.Prng(workload.substream(cfg.rng_seed, 2))
        self._stages_jitter = math.nan  # the factor of ``_stages``
        self._stages: tuple = ()
        self.failure: Optional[str] = None
        self.malformed_messages = 0

    def start(self, dataset) -> None:
        """Spawn the pipeline over ``dataset``, one process that alone holds
        the dataset until it ends. Each image's trace is made at its read,
        and an upload adds it to ``traces``. The node itself is freed by
        reference counting once ``run_tiers`` has closed the transports that
        call its handler."""
        pipeline = self._pipelined if self._cfg.parallelism else self._sequential
        spawn(self._loop, pipeline(dataset))

    # The result handler is transport-independent. A message that does not
    # decode to a result is dropped and counted; its image then ends by its
    # timeout.
    def on_result_message(self, data: bytes) -> None:
        msg = _decode_or_count(self, data, ResultMessage)
        if msg is not None:
            self._resolve(msg.image_id, msg)

    def _resolve(self, image_id: str, result: Optional[ResultMessage]) -> None:
        """End uploaded image ``image_id`` with ``result``, None for no
        result. The first of its answer, its image timeout and the run's
        failure pops its trace from ``traces``; whatever comes after finds
        nothing and is ignored."""
        tr = self.traces.pop(image_id, None)
        if tr is None:
            return
        tr.timeout.cancel()
        self._finalize(tr, result, self._loop.now)

    def _finalize(self, tr: _ImageTrace, result: Optional[ResultMessage], at: float) -> None:
        """Record ``tr``'s one outcome at ``at``: ``result``, or no result
        (origin "none") if it is None. Each image comes here once: from
        ``_resolve`` if it was uploaded, at its booked detection end if not.
        Its upload runs from its ticket's ``wire_start`` to its last ack on a
        session, else to its reassembly, and counts 0 if it had neither."""
        ticket = tr.upload_ticket
        start = ticket.wire_start if ticket else None
        t_upload = 0.0
        if start is not None:
            upload_end = ticket.ack_at if ticket.ack_at is not None else tr.reassembled_at
            if upload_end is not None:
                t_upload = upload_end - start
        if result is None:
            origin, (recognized, label, is_fp) = "none", workload.NO_MATCH
        else:
            origin, recognized, label, is_fp = (result.origin, result.recognized,
                                                result.label, result.is_false_positive)
        span = at - start if start is not None and result is not None else 0.0
        # Positional, in MetricsRecord's field order.
        self.records.append(MetricsRecord(
            tr.image_id, *tr.stages, t_upload, tr.t_identify,
            span if origin == "edge" else 0.0, span if origin == "cloud" else None,
            origin, recognized, label, at, is_fp))

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
        for image_id in list(self.traces):
            self._resolve(image_id, None)

    def _frame_stages(self) -> tuple:
        """Draw the jitter factor of the next frame and return its read time
        and detection stages, in MetricsRecord's field order: t_read_decode,
        t_quality, t_infer1, t_infer2, t_detect_total. They are a function
        of the factor alone, computed again only when it changes, so the
        records of a jitter-free run share one tuple of floats."""
        cfg = self._cfg
        jitter = 1.0
        if cfg.jitter_pct > 0.0:
            jitter += cfg.jitter_pct * (2.0 * self._jitter_rng.uniform() - 1.0)
        if jitter != self._stages_jitter:
            t_io = cfg.stage_durations.t_read_decode * jitter
            if cfg.parallelism:
                t_io += cfg.parallel_io_penalty_s
            self._stages = (t_io, *workload.detection_for(cfg.stage_durations, jitter))
            self._stages_jitter = jitter
        return self._stages

    def _sequential(self, dataset):
        """Read and detect each image on core 1 from ``start``, the end of
        the image before. A face-less image is recorded at its detection's
        end with no event; the far edge waits on the loop only before an
        upload, and once at its end."""
        loop = self._loop
        start = loop.now
        try:
            for image in dataset:
                stages = self._frame_stages()
                tr = _ImageTrace(image.id, stages)
                end = self._core1.book(stages[4], self._core1.book(stages[0], start))
                if not image.has_face:
                    self._finalize(tr, None, end)
                    start = end
                    continue
                yield loop.gate_at(end)
                ticket = self._upload(image, tr)
                yield ticket.accepted
                if not self._blocking:
                    yield loop.gate_at(ticket.wire_end)
                start = loop.now
            if start > loop.now:
                yield loop.gate_at(start)
        except TransportError as exc:
            self._fail(exc)

    def _pipelined(self, dataset):
        """The parallel far edge, as one process that computes its instants.
        Core 1 reads image k (0-indexed) into a queue of C places, and core
        0 takes it once free (at ``F_{k-1}``), detects it and hands it off:

        - the read ends at ``R_k = core1.book(t_io_k, S_k)``
        - the image is taken at ``G_k = max(R_k, F_{k-1})``
        - it is done at ``W_k = core0.book(det_k, G_k) + parallel_handoff_s``
        - the next read starts when the image's put finds a place, at
          ``S_{k+1} = max(R_k, G_{k-C})`` (``R_k`` while k < C)

        A face-less image is recorded at ``W_k`` with no event, and ``F_k =
        W_k``. Face image j is uploaded at ``U_j = max(W_k, A_{j-1})``, ``A``
        being when an upload was accepted: the process waits on the last
        upload's gate, then on ``W_k`` if later. A blocking send holds the
        worker, ``F_k = A_j``; a pub/sub put into an upload queue of C places
        does until it finds a place, ``F_k = max(W_k, U_{j-C})``, which may
        be before ``U_j``: a booking needs no event. Once an upload has
        failed, at X, no image is taken (``G`` is infinite) and no read
        starts at or after X. The process waits once more at its end, for
        the last instant it booked."""
        cfg, loop = self._cfg, self._loop
        capacity = cfg.queue_capacity
        takes = deque(maxlen=capacity)  # G of the last C images read
        offers = deque(maxlen=capacity)  # U of the last C uploads
        accepted = None  # the gate of the last upload
        start = done = read_end = loop.now  # S_k, F_{k-1} and R_{k-1}
        failed_at = math.inf
        for image in dataset:
            if start >= failed_at:
                break
            stages = self._frame_stages()
            tr = _ImageTrace(image.id, stages)
            read_end = self._core1.book(stages[0], start)
            start = takes[0] if len(takes) == capacity and takes[0] > read_end else read_end
            if failed_at < math.inf:
                takes.append(math.inf)
                continue
            take = read_end if read_end >= done else done
            takes.append(take)
            done = self._core0.book(stages[4], take) + cfg.parallel_handoff_s
            if not image.has_face:
                self._finalize(tr, None, done)
                continue
            try:
                if accepted is not None:
                    yield accepted
                if done > loop.now:
                    yield loop.gate_at(done)
                if len(offers) == capacity and offers[0] > done:
                    done = offers[0]
                offers.append(loop.now)
                accepted = self._upload(image, tr).accepted
                if self._blocking:
                    yield accepted
                    done = loop.now
            except TransportError as exc:
                self._fail(exc)
                failed_at = loop.now
        end = read_end if read_end > done else done
        if end > loop.now:
            yield loop.gate_at(end)

    def _upload(self, image, tr: _ImageTrace) -> StreamTicket:
        """Start the upload of ``image`` now; returns its stream's ticket."""
        # Each read of ``image.payload`` makes the bytes: read it once.
        messages = chunkwire.encode_upload(
            image.payload, image.id, self._cfg.chunk_size_bytes,
            (image.width_px, image.height_px), image.format.value)
        tr.timeout = self._loop.schedule(
            self._cfg.image_timeout_s,
            partial(self._resolve, image.id, None))
        self.traces[image.id] = tr
        stream = self._uplink.send_all if self._blocking else self._uplink.put_all
        tr.upload_ticket = stream(messages)
        return tr.upload_ticket


# ---------------------------------------------------------------------------
# Edge.


class EdgeService:
    """Reassembles uploads, identifies locally, escalates to the cloud when
    the local database has no match. Cloud escalation never blocks handling
    of other images: each image is served by its own activity and the AI core
    is held only for the identification itself."""

    def __init__(self, loop: EventLoop, cfg: ScenarioConfig, db,
                 images: dict[str, ImageRecord], traces: dict[str, _ImageTrace],
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
        self._images = images
        self._traces = traces
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

    # Transport-facing entry point for both meta and chunk messages. A chunk
    # is read by ``read_chunk`` alone, and anything else must decode as a
    # meta message: a message that is neither, such as a chunk in another
    # JSON form, is dropped and counted, and its image then ends through the
    # far edge's image timeout. A transfer opens with its first meta message
    # and ends when its session has ``ended``; anything for it after that is
    # ignored, and a chunk counts in ``dropped_chunks``.
    def on_upload_message(self, data: bytes) -> None:
        chunk = chunkwire.read_chunk(data)
        if chunk is None:
            meta = _decode_or_count(self, data, TransferMetadata)
            if meta is not None:
                self._sessions.setdefault(meta.image_id, ReassemblySession(meta))
            return
        image_id, seq, raw, crc = chunk
        session = self._sessions.get(image_id)
        if session is None:
            self.dropped_chunks += 1
            return
        session.add(image_id, seq, raw, crc, len(raw))
        if not session.ended:
            return
        self._sessions[image_id] = None
        if session.payload is not None:
            tr = self._traces.get(image_id)
            if tr is not None:  # None once the image has ended
                tr.reassembled_at = self._loop.now
            spawn(self._loop, self._serve_image(image_id, session.payload))
        else:
            # The whole failed its checks, or one number is still discarded:
            # the sender never retransmits, so the transfer cannot complete.
            self._send_result(image_id, encode_result(
                ResultMessage(image_id, "edge", *workload.NO_MATCH)))

    def _serve_image(self, image_id: str, payload: bytes):
        cfg = self._cfg
        yield self._core.execute(cfg.stage_durations.t_identify)
        tr = self._traces.get(image_id)
        if tr is not None:
            tr.t_identify = cfg.stage_durations.t_identify
        result = None
        image = self._images.get(image_id)
        if image is not None and image.has_face:
            # The embedding is made here and dropped after the call, so no
            # image holds one while it waits for the core or the cloud.
            ident = workload.identify(image.embedding, self._db,
                                      cfg.similarity_threshold,
                                      cfg.stage_durations.t_identify, image_id)
            if ident.recognized:
                result = ResultMessage(image_id, "edge", True,
                                       ident.best_person.label, False)
        if result is None and self._cloud_send is not None:
            result = yield from self._cloud_flow(image_id, payload)
        if result is None:
            result = ResultMessage(image_id, "edge", *workload.NO_MATCH)
        self._send_result(image_id, encode_result(result))

    def _cloud_flow(self, image_id: str, payload: bytes):
        """Presigned-grant escalation; forwards the cloud's verdict verbatim.
        A timeout at any step, or a reply of the wrong type such as a
        refusal, degrades to a negative cloud result; a reply for a step
        already passed is ignored (see ``_wake``). The timeout is cancelled
        on every way out, so it does not hold the run open."""
        gate = Gate()
        self._pending_cloud[image_id] = (gate, None)
        handle = self._loop.schedule(self._cfg.cloud_timeout_s,
                                     partial(self._wake, image_id, None))
        try:
            self._cloud_send(KEY_CLOUD_REQUESTS_PREFIX + image_id,
                             chunkwire.encode(GrantRequest(image_id)))
            grant = yield gate
            if type(grant) is Grant:
                gate = Gate()
                self._pending_cloud[image_id] = (gate, Grant)
                self._cloud_send(KEY_CLOUD_UPLOADS_PREFIX + image_id, chunkwire.encode(
                    CloudUpload(image_id, grant.upload_token,
                                base64.b64encode(payload).decode("ascii"))))
                verdict = yield gate
                if type(verdict) is ResultMessage:
                    return verdict
        finally:
            handle.cancel()
        return ResultMessage(image_id, "cloud", *workload.NO_MATCH)

    # A cloud reply that does not decode to a grant, a refusal or a result is
    # dropped and counted; its image then ends by the cloud timeout.
    def on_cloud_message(self, data: bytes) -> None:
        msg = _decode_or_count(self, data, (Grant, UploadRejected, ResultMessage))
        if msg is not None:
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
    grant has expired; only a redeemed grant leaves the ledger. ``images``
    maps each image id to its record, whose ground truth is the known person
    its face shows, or None for an unknown face. A message that does not
    decode to a grant request or an upload is dropped and counted in
    ``malformed_messages``."""

    def __init__(self, loop: EventLoop, cfg: ScenarioConfig,
                 images: dict[str, ImageRecord],
                 send_to_edge: Callable[[str, bytes], None]):
        self._loop = loop
        self._cfg = cfg
        self._images = images
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
        msg = _decode_or_count(self, data, (GrantRequest, CloudUpload))
        if msg is None:
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
        if image_id not in self._images:
            reason = "no record of image"
        elif granted_id != image_id:
            reason = "grant rejected for"
        elif self._loop.now > expires_at:
            reason = "grant expired for"
        else:
            del self._grants[msg.upload_token]
            verdict = workload.cloud_recognize(
                self._images[image_id].ground_truth, self._cfg.fp_rate, self._fp_rng)
            payload = encode_result(ResultMessage(image_id, "cloud", *verdict))
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
    failure: Optional[str] = None

    @property
    def result_multiset(self) -> list[tuple[str, bool, Optional[str]]]:
        return sorted((r.image_id, r.recognized, r.label) for r in self.records)


# The largest dataset built inside ``shared_datasets``, by the config fields
# it depends on other than its size; None outside that scope, where every
# build is fresh.
_shared: Optional[dict] = None


@contextmanager
def shared_datasets():
    """Within the block, ``build_dataset`` keeps the dataset it built last
    and answers a config that asks for it, or for fewer of its images, with
    its database and first ``dataset_size`` records: record k does not
    depend on the dataset's size, so these are the ones a fresh build makes.
    Before it builds another or a larger dataset it drops the one it kept.
    Database and records are immutable, so the runs that share them cannot
    tell."""
    global _shared
    outer, _shared = _shared, {}
    try:
        yield
    finally:
        _shared = outer


def build_dataset(cfg: ScenarioConfig) -> tuple[FaceDatabase, list[ImageRecord]]:
    key = (cfg.rng_seed, cfg.db_size, cfg.face_prob, cfg.known_prob, cfg.payload_bytes)
    n = cfg.dataset_size
    shared = _shared
    if shared is not None:
        if key in shared and len(shared[key][1]) >= n:
            db, dataset = kept = shared[key]
            return kept if len(dataset) == n else (db, dataset[:n])
        shared.clear()
    db = workload.make_face_db(cfg.rng_seed, cfg.db_size)
    built = db, workload.generate_dataset(
        cfg.rng_seed, n, cfg.face_prob, cfg.known_prob, db, cfg.payload_bytes)
    if shared is not None:
        shared[key] = built
    return built


def run_scenario(cfg: ScenarioConfig) -> RunResult:
    """Execute one scenario and aggregate its metrics.

    VIRTUAL mode runs the tiers on the deterministic event loop over booked
    links; WALLCLOCK_TCP mode runs the same tiers on the loopback-TCP driver.
    This is the one check of a run's config: ``ConfigError`` of its violations.
    """
    violations = validate_config(cfg)
    if violations:
        raise ConfigError("; ".join(violations))
    if cfg.time_mode is TimeMode.WALLCLOCK_TCP:
        from .tcprun import run_tcp_scenario
        return run_tcp_scenario(cfg)

    loop = EventLoop()
    links = (SimLink(loop, cfg.link_far_to_edge), SimLink(loop, cfg.link_far_to_edge),
             SimLink(loop, cfg.link_edge_to_cloud), SimLink(loop, cfg.link_edge_to_cloud))
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
    core0, core1, edge_core = SimCore(loop), SimCore(loop), SimCore(loop)

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

    images = {img.id: img for img in dataset}
    far = FarEdgeNode(loop, cfg, uplink, core0, core1)
    edge = EdgeService(loop, cfg, db, images, far.traces, edge_core, send_result,
                       edge_to_cloud if cfg.cloud_enabled else None)
    fabric.endpoint("edge").subscribe(
        KEY_CLOUD_RESULTS_PREFIX + "*", lambda _k, d: edge.on_cloud_message(d))

    if cfg.cloud_enabled:
        def cloud_to_edge(image_id: str, data: bytes) -> None:
            fabric.declare_publisher("cloud", KEY_CLOUD_RESULTS_PREFIX + image_id).put(data)

        cloud = CloudService(loop, cfg, images, cloud_to_edge)
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
    summary = summarize(far.records, {0: core0.busy_time, 1: core1.busy_time}, wall)
    return RunResult(config=cfg, records=far.records, summary=summary,
                     failure=far.failure)

