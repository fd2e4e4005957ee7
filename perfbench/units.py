"""Isolated per-unit timings of each layer, on inputs built from the seed.

Each timing repeats one unit of work for at least ``MIN_SECONDS`` on the
caller's clock and reports the median over repeats, per unit. The inputs are
a 100 KiB payload in 1 KiB chunks, as in the ``upload`` workload. Every timed
body checks its result so that a broken layer cannot read as a fast one.
"""

from __future__ import annotations

import statistics
import tempfile
from pathlib import Path

from continuumsim import chunkwire, metrics, nodes, workload
from continuumsim.domain import LinkParams
from continuumsim.netsim import EventLoop, SimLink, spawn
from continuumsim.presets import base_config
from continuumsim.transport import PubSubFabric, session_pair

MIN_SECONDS = 0.25
MIN_REPEATS = 3
BUILD_IMAGES = 4
EVENTS = 20000
IDENTIFY_CALLS = 2000
CSV_ROWS = 3000


def _expect(condition: bool, what: str) -> None:
    if not condition:
        raise RuntimeError(f"isolated timing went wrong: {what}")


def _per_unit(now, body, units: int) -> float:
    """Median seconds per unit of ``body()``, which does ``units`` units."""
    samples = []
    deadline = now() + MIN_SECONDS
    while len(samples) < MIN_REPEATS or now() < deadline:
        start = now()
        body()
        samples.append((now() - start) / units)
    return statistics.median(samples)


class _Inputs:
    def __init__(self, seed: int):
        self.cfg = base_config(seed=seed, dataset_size=BUILD_IMAGES)
        self.db, dataset = nodes.build_dataset(self.cfg)
        self.image = next(img for img in dataset if img.embedding is not None)
        meta, envelopes = chunkwire.fragment(
            self.image.payload, self.image.id, self.cfg.chunk_size_bytes,
            (self.image.width_px, self.image.height_px), self.image.format.value)
        self.meta_msg = chunkwire.encode_meta(meta)
        self.chunk_msgs = [chunkwire.encode_envelope(e) for e in envelopes]


def measure(now, seed: int) -> dict[str, float]:
    """Every isolated timing, keyed by per-layer metric name."""
    inp = _Inputs(seed)
    link = LinkParams(latency=0.001, bandwidth=1e9)
    out = {}

    def build():
        _db, dataset = nodes.build_dataset(inp.cfg)
        _expect(len(dataset) == BUILD_IMAGES, "build_dataset size")

    out["unit.build_dataset_us_per_image"] = _per_unit(now, build, BUILD_IMAGES)

    def encode():
        meta, envelopes = chunkwire.fragment(
            inp.image.payload, inp.image.id, inp.cfg.chunk_size_bytes,
            (inp.image.width_px, inp.image.height_px), inp.image.format.value)
        chunkwire.encode_meta(meta)
        for env in envelopes:
            chunkwire.encode_envelope(env)

    out["unit.fragment_encode_us_per_chunk"] = _per_unit(now, encode, len(inp.chunk_msgs))

    def decode():
        session = chunkwire.ReassemblySession(chunkwire.decode_meta(inp.meta_msg))
        for msg in inp.chunk_msgs:
            status = session.accept(chunkwire.decode_envelope(msg))
        _expect(status is chunkwire.ReassemblyStatus.COMPLETE, "reassembly")

    out["unit.decode_accept_us_per_chunk"] = _per_unit(now, decode, len(inp.chunk_msgs))

    def put_to_delivery():
        loop = EventLoop()
        fabric = PubSubFabric(loop)
        fabric.connect("far", "edge", SimLink(loop, link))
        delivered = []
        fabric.endpoint("edge").subscribe("bench/chunks", lambda _k, d: delivered.append(d))
        publisher = fabric.declare_publisher("far", "bench/chunks")

        def producer():
            for msg in inp.chunk_msgs:
                yield publisher.put(msg).accepted

        spawn(loop, producer())
        loop.run()
        _expect(len(delivered) == len(inp.chunk_msgs), "pub/sub delivery")

    out["unit.put_deliver_us_per_msg"] = _per_unit(now, put_to_delivery, len(inp.chunk_msgs))

    def blocking_send():
        loop = EventLoop()
        far, edge = session_pair(loop, SimLink(loop, link), SimLink(loop, link))
        delivered = []
        edge.on_message(delivered.append)

        def producer():
            for msg in inp.chunk_msgs:
                yield far.send(msg)

        spawn(loop, producer())
        loop.run()
        _expect(len(delivered) == len(inp.chunk_msgs), "session delivery")

    out["unit.send_us_per_msg"] = _per_unit(now, blocking_send, len(inp.chunk_msgs))

    def events():
        loop = EventLoop()
        for i in range(EVENTS):
            loop.schedule(i * 1e-6, _no_op)
        _expect(loop.run() == EVENTS, "events executed")

    out["unit.eventloop_events_per_s"] = 1.0 / _per_unit(now, events, EVENTS)

    def identify():
        for _ in range(IDENTIFY_CALLS):
            workload.identify(inp.image.embedding, inp.db, inp.cfg.similarity_threshold,
                              inp.cfg.stage_durations.t_identify, inp.image.id)

    out["unit.identify_us_per_call"] = _per_unit(now, identify, IDENTIFY_CALLS)

    records = [metrics.MetricsRecord(image_id=f"img{i:05d}", t_read_decode=0.25 * i,
                                     t_upload=1.0 / (i + 1), edge_rtt=2.5, origin="edge",
                                     recognized=True, label="Person 1", completion_s=float(i))
               for i in range(CSV_ROWS)]
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent / "out") as tmp:
        path = Path(tmp) / "metrics.csv"

        def emit():
            _expect(metrics.emit_csv(records, path) == CSV_ROWS, "rows written")

        out["unit.emit_csv_us_per_row"] = _per_unit(now, emit, CSV_ROWS)

    return {name: value if name.endswith("_per_s") else value * 1e6
            for name, value in out.items()}


def _no_op() -> None:
    pass
