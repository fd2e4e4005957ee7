"""Random valid configs: invariants that hold on every run, with no
reference to compare against.

``random_config`` draws configs far from the presets: zero and near-zero
stage times, links from 50 B/s to 1 GB/s, queues of one slot and of 10^9,
timeouts short enough to fail a run. Every run must raise nothing, give each
image at most one record (exactly one unless the run failed), drain its loop
and leave no per-image state behind, and replay identically. The face-less
images before a sequential run's first face have an exact oracle: each ends
at its read and detection times added to the end of the one before. A
parallel run follows the recurrence of a reader, a worker and an uploader
joined by two bounded queues (``parallel_completions``), on every image of
a run that did not fail and before the first face of one that did.

The generator is also the one to use when comparing two versions of the
engine config by config: run the same seeds on both and compare records,
summary and failure float for float.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest

from continuumsim import nodes
from continuumsim.domain import (
    LinkParams,
    ScenarioConfig,
    StageDurations,
    TransportKind,
    validate_config,
)
from continuumsim.netsim import EventLoop, SimLink
from continuumsim.presets import (
    PAR_RATE,
    PARALLEL_HANDOFF_S,
    PARALLEL_IO_PENALTY_S,
    T_DETECT_TOTAL,
    T_READ_DECODE,
    build_preset,
)
from continuumsim.transport import PubSubFabric, SessionEndpoint
from continuumsim.workload import Prng

CONFIGS = 300
# Every REPLAY_EVERY-th config is run a second time and must replay.
REPLAY_EVERY = 3


def random_config(rng: Prng) -> ScenarioConfig:
    """A valid config drawn from ``rng``. Durations are 0 one time in four,
    so zero stage times, handoffs and latencies all occur, and so is the
    whole detection stage: an image whose detection takes no time must still
    wait for its read."""

    def duration(top: float = 1.0) -> float:
        return 0.0 if rng.randrange(4) == 0 else top * rng.uniform()

    # ``2e7 ** u`` here and ``10 ** (9 * u)`` below call libm ``pow``, so a
    # config may differ by an ulp on another libm. They stay as they are:
    # an exact draw would move the configs pinned by index (1064 and 1437
    # of _edge_close_config, and tools/diffcheck.py's EDGE_CLOSES).
    def bandwidth() -> float:  # log-uniform, 50 B/s to 1 GB/s
        return 50.0 * (2e7 ** rng.uniform())

    detection = (0.0, 0.0, 0.0) if rng.randrange(4) == 0 else (
        duration(), duration(), duration())
    sd = StageDurations(duration(), *detection, t_identify=duration(),
                        cloud_latency_mean=duration(),
                        cloud_latency_jitter=duration())
    return ScenarioConfig(
        transport=(TransportKind.PUBSUB, TransportKind.BLOCKING_SESSION)[rng.randrange(2)],
        parallelism=rng.randrange(2) == 1,
        cloud_enabled=rng.randrange(2) == 1,
        dataset_size=1 + rng.randrange(10),
        stage_durations=sd,
        link_far_to_edge=LinkParams(duration(), bandwidth()),
        link_edge_to_cloud=LinkParams(duration(), bandwidth()),
        rng_seed=rng.randrange(1 << 32),
        chunk_size_bytes=64 + rng.randrange(4096 - 64 + 1),
        similarity_threshold=0.05 + 0.9 * rng.uniform(),
        fp_rate=rng.uniform(),
        # Small queues half the time, so that both far-edge queues fill.
        queue_capacity=(1 + rng.randrange(3) if rng.randrange(2) == 0
                        else int(10 ** (9 * rng.uniform()))),
        payload_bytes=1 + rng.randrange(9000),
        face_prob=rng.uniform(),
        known_prob=rng.uniform(),
        db_size=1 + rng.randrange(6),
        jitter_pct=duration(0.95),
        parallel_handoff_s=duration(),
        parallel_io_penalty_s=duration(),
        send_timeout_s=duration(120.0),
        image_timeout_s=duration(120.0),
        cloud_timeout_s=duration(120.0),
        grant_ttl_s=duration(120.0),
    )


def _edge_close_config(rng) -> ScenarioConfig:
    """A random config in which the edge's result send may time out, and so
    close the session, while the far edge's upload is in flight: blocking,
    parallel, the cloud on with latency jitter, 64 B chunks over a 1,000 B/s
    link, a send timeout of 0.16-0.26 s and payloads under 700 bytes."""
    cfg = random_config(rng)
    return replace(cfg, transport=TransportKind.BLOCKING_SESSION, parallelism=True,
                   cloud_enabled=True,
                   stage_durations=replace(cfg.stage_durations,
                                           cloud_latency_jitter=rng.uniform()),
                   chunk_size_bytes=64,
                   link_far_to_edge=LinkParams(cfg.link_far_to_edge.latency, 1000.0),
                   send_timeout_s=0.16 + 0.1 * rng.uniform(),
                   payload_bytes=1 + rng.randrange(699))


def parallel_completions(cfg: ScenarioConfig, records: dict, accepts=None):
    """Yield ``(record, W_k, U_j, read_full, upload_held)`` for each image k
    (0-indexed) of a parallel run of ``cfg``, from the read and detection
    times in ``records`` (by image id). Core 1 reads into a queue of C
    places, from which core 0 takes each image, detects it and hands it off
    (h), with ``S_0 = W_{-1} = 0``:

    - the read ends at ``R_k = S_k + t_io_k``
    - the image is taken at ``G_k = max(R_k, F_{k-1})``, where ``F`` is
      when the worker is free again
    - it is done at ``W_k = (G_k + det_k) + h``
    - the next read starts once the put of image k finds a place, at
      ``S_{k+1} = max(R_k, G_{k-C})``, or ``R_k`` while k < C

    A face-less image leaves the worker free at ``F_k = W_k``. Face image j
    is uploaded at ``U_j = max(W_k, A_{j-1})`` (``A_{-1} = 0``), where
    ``A_j = accepts[j]`` is when upload j was accepted. On the blocking
    transport the worker is free at ``F_k = A_j``. With pub/sub it is free
    once its put into an upload queue of C places finds a place, at
    ``F_k = max(W_k, U_{j-C})``, or ``W_k`` while j < C. ``U_j`` is None
    for a face-less image, and without ``accepts`` the images from the
    first face on are not yielded. The read queue filled when
    ``S_{k+1} > R_k``, and the upload queue held the worker when a pub/sub
    ``F_k > W_k``."""
    capacity, handoff = cfg.queue_capacity, cfg.parallel_handoff_s
    blocking = cfg.transport is TransportKind.BLOCKING_SESSION
    start = free = accepted = 0.0
    taken, offers = [], []
    for image in nodes.build_dataset(cfg)[1]:
        if image.has_face and accepts is None:
            return
        rec = records[image.id]
        read_end = start + rec.t_read_decode
        take = max(read_end, free)
        done = free = (take + rec.t_detect_total) + handoff
        k = len(taken)
        start = max(read_end, taken[k - capacity]) if k >= capacity else read_end
        taken.append(take)
        offer = None
        if image.has_face:
            j = len(offers)
            offer = max(done, accepted)
            accepted = accepts[j]
            if blocking:
                free = accepted
            elif j >= capacity:
                free = max(done, offers[j - capacity])
            offers.append(offer)
        yield rec, done, offer, start > read_end, not blocking and free > done


@pytest.fixture
def made(monkeypatch) -> dict:
    """The far edge and edge service of the last run, kept by subclasses
    that ``run_tiers`` builds in place of its own, and the far edge's
    uploads: ``(offer, ticket)`` for each stream it started, at ``offer``."""
    made = {}

    class SeenFar(nodes.FarEdgeNode):
        def __init__(self, *args):
            super().__init__(*args)
            made["far"] = self

    class SeenEdge(nodes.EdgeService):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made["edge"] = self

    put_all, send_all = PubSubFabric.put_all, SessionEndpoint.send_all

    def seen_put_all(fabric, publisher, payloads):
        offer = fabric._loop.now
        ticket = put_all(fabric, publisher, payloads)
        if publisher.endpoint.name == "far":
            made.setdefault("uploads", []).append((offer, ticket))
        return ticket

    def seen_send_all(end, payloads):
        offer = end._loop.now
        ticket = send_all(end, payloads)
        if end is made["far"]._uplink:
            made.setdefault("uploads", []).append((offer, ticket))
        return ticket

    monkeypatch.setattr(nodes, "FarEdgeNode", SeenFar)
    monkeypatch.setattr(nodes, "EdgeService", SeenEdge)
    monkeypatch.setattr(PubSubFabric, "put_all", seen_put_all)
    monkeypatch.setattr(SessionEndpoint, "send_all", seen_send_all)
    return made


def _run(cfg: ScenarioConfig, made: dict):
    """Run ``cfg`` on a loop and links made here; returns the result, the
    loop, the links, the far edge, the edge service and the far edge's
    uploads."""
    loop = EventLoop()
    links = tuple(SimLink(loop, params) for params in (
        cfg.link_far_to_edge, cfg.link_far_to_edge,
        cfg.link_edge_to_cloud, cfg.link_edge_to_cloud))
    result = nodes.run_tiers(cfg, loop, links, SessionEndpoint)
    return (result, loop, links, made.pop("far"), made.pop("edge"),
            made.pop("uploads", []))


def test_random_configs_keep_every_run_invariant(made):
    rng = Prng(2026)
    kinds = Counter()
    # Images the oracles checked, by pipeline and whether detection took time
    # or, in a parallel run, whether the image was uploaded; and parallel runs
    # whose read queue filled, and pub/sub ones whose upload queue held the
    # worker.
    timed = Counter()
    filled = held = 0
    for case in range(CONFIGS):
        cfg = random_config(rng)
        assert validate_config(cfg).ok, case
        result, loop, links, far, edge, uploads = _run(cfg, made)
        ids = [r.image_id for r in result.records]
        assert len(ids) == len(set(ids)), case
        if result.failure is None:
            assert len(ids) == cfg.dataset_size, case
            # Every transfer that opened has ended.
            assert all(s is None for s in edge._sessions.values()), case
        else:
            assert len(ids) <= cfg.dataset_size, case
        assert not loop._heap, case
        assert not far.traces, case
        assert not edge._pending_cloud, case
        assert all(not (link._instants or link._keys or link._handlers or link._payloads)
                   for link in links), case
        if case % REPLAY_EVERY == 0:
            again = _run(cfg, made)[0]
            assert ((again.records, again.summary, again.failure)
                    == (result.records, result.summary, result.failure)), case
        records = {r.image_id: r for r in result.records}
        if cfg.parallelism:
            accepts = None
            if result.failure is None:  # each upload's acceptance instant
                blocking = cfg.transport is TransportKind.BLOCKING_SESSION
                accepts = [ticket.ack_at if blocking else ticket.accepted.value
                           for _offer, ticket in uploads]
            offers = []
            read_full = upload_held = False
            for rec, done, offer, full, held_by in parallel_completions(
                    cfg, records, accepts):
                if offer is None:
                    assert rec.completion_s == done, case
                    timed[True, rec.t_detect_total > 0.0] += 1
                else:
                    offers.append(offer)
                    timed[True, "uploaded"] += 1
                read_full |= full
                upload_held |= held_by
            if accepts is not None:
                assert offers == [offer for offer, _ticket in uploads], case
            filled += read_full
            held += upload_held
        else:
            end = 0.0
            for image in nodes.build_dataset(cfg)[1]:
                if image.has_face:
                    break
                rec = records[image.id]
                end = end + rec.t_read_decode + rec.t_detect_total
                assert rec.completion_s == end, case
                timed[False, rec.t_detect_total > 0.0] += 1
        sd = cfg.stage_durations
        detects = sd.t_quality + sd.t_infer1 + sd.t_infer2 > 0.0
        kinds[cfg.transport, cfg.parallelism, detects, result.failure is None] += 1
    # The draw reaches both transports and both pipelines, each with and
    # without detection time, and blocking runs that fail. A pub/sub run
    # cannot fail: a put raises no transport error. Each far-edge queue
    # fills in more than one run.
    assert len({kind[:3] for kind in kinds}) == 8, kinds
    assert any(not kind[3] for kind in kinds), kinds
    assert len(timed) == 5 and filled >= 2 and held >= 2, (timed, filled, held)


def test_parallel_fig3_runs_follow_the_recurrence_on_every_image():
    # The two parallel runs of the paper's Fig. 3: 3,000 face-less images
    # each, with the presets' stage times, jitter and queue.
    runs = [run.config for run in build_preset("fig3_parallelism", 1009).runs
            if run.config.parallelism]
    checked = 0
    for cfg in runs:
        result = nodes.run_scenario(cfg)
        records = {r.image_id: r for r in result.records}
        ends = [done for _rec, done, *_rest in parallel_completions(cfg, records)]
        assert [records[image.id].completion_s for image in nodes.build_dataset(cfg)[1]] == ends
        assert result.summary.total_runtime == ends[-1]
        checked += len(ends)
    assert checked == 6000


def test_parallel_fig3_runs_settle_at_the_presets_fit():
    # With the presets' stage times and no jitter the worker is the
    # bottleneck from the first frame on: one image completes per
    # T_DETECT_TOTAL + PARALLEL_HANDOFF_S = 1/PAR_RATE, and core 1 reads for
    # T_READ_DECODE + PARALLEL_IO_PENALTY_S = 0.414/PAR_RATE of each period.
    # The run's core 1 utilization is a little lower (0.41394 at this seed),
    # as the worker waits for the first read.
    period = T_DETECT_TOTAL + PARALLEL_HANDOFF_S
    assert period == pytest.approx(1.0 / PAR_RATE, abs=1e-12)
    busy = T_READ_DECODE + PARALLEL_IO_PENALTY_S
    assert busy == pytest.approx(0.414 / PAR_RATE, abs=1e-12)
    for run in build_preset("fig3_parallelism", 1009).runs:
        cfg = run.config
        if not cfg.parallelism:
            continue
        assert cfg.jitter_pct == 0.0
        records = sorted(nodes.run_scenario(cfg).records, key=lambda r: r.completion_s)
        ends = [r.completion_s for r in records]
        assert all(abs(b - a - period) <= 1e-9 for a, b in zip(ends, ends[1:]))
        assert all(abs(r.t_read_decode - busy) <= 1e-9 for r in records)
