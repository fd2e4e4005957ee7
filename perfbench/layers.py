"""Per-layer metrics of one traced pass, and their combination over passes.

README.md lists each metric with the end-to-end metric and workload it
should move. A metric whose layer does not run on a workload reads 0.
"""

from __future__ import annotations

import statistics

from passes import PassResult
from tracer import SpanSummary

SELF_TIME_TOLERANCE = 0.02

# Counts of the virtual-time simulation: they must repeat exactly from one
# traced pass to the next, or the run is not deterministic.
EXACT_COUNTS = ("netsim.events", "chunkwire.parses_per_msg",
                "chunkwire.payload_decodes_per_chunk", "transport.match_calls_per_put")
# Threads a TCP run leaves alive depend on a race in tcprun's socket shutdown
# (a receiver blocked in recv keeps a closed socket open, or does not), so the
# count is reported as the most any pass left, with every pass's count.
LEAK_COUNT = "tcprun.threads_leaked"

SYNTH = ("workload.generate_dataset", "workload.make_face_db")
ENCODE = ("chunkwire.fragment", "chunkwire.encode_meta", "chunkwire.encode_envelope")
PARSES = ("chunkwire.peek_msg_type", "chunkwire.decode_meta", "chunkwire.decode_envelope")
DECODE = PARSES + ("chunkwire.ReassemblySession.accept", "chunkwire.ChunkEnvelope.payload")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def check_self_times(summary: SpanSummary, result: PassResult) -> list[str]:
    """The main thread's layer self times must add up to the traced wall."""
    total = sum(summary.main_layer_self.values())
    if abs(total - result.wall_s) > SELF_TIME_TOLERANCE * result.wall_s:
        return [f"layer self times add up to {total:.4f} s, traced wall is {result.wall_s:.4f} s"]
    return []


def layer_metrics(s: SpanSummary, result: PassResult) -> dict[str, float]:
    msgs = sum(run.messages for run in result.runs)
    chunks = sum(run.chunks for run in result.runs)
    kib = sum(run.expected.config.dataset_size * run.expected.config.payload_bytes
              for run in result.runs) / 1024.0
    synth_s = sum(s.self_s[n] for n in SYNTH)
    puts = s.calls["transport.PubSubFabric.put"]
    loop_s = s.inclusive["netsim.EventLoop.run"]
    edge = "nodes.EdgeService.on_upload_message"
    cloud = "nodes.CloudService.on_message"
    return {
        "wall_s": result.wall_s,
        "layer_self_s": dict(s.main_layer_self),
        "workload.synth_s": synth_s,
        "workload.synth_us_per_kib": _ratio(synth_s * 1e6, kib),
        "workload.identify_us": s.per_call("workload.identify") * 1e6,
        "chunkwire.encode_us_per_msg": _ratio(sum(s.self_s[n] for n in ENCODE) * 1e6, msgs),
        "chunkwire.decode_us_per_msg": _ratio(sum(s.self_s[n] for n in DECODE) * 1e6, msgs),
        "chunkwire.parses_per_msg": _ratio(sum(s.calls[n] for n in PARSES), msgs),
        "chunkwire.payload_decodes_per_chunk":
            _ratio(s.calls["chunkwire.ChunkEnvelope.payload"], chunks),
        "transport.put_us": s.per_call("transport.PubSubFabric.put") * 1e6,
        "transport.send_us": s.per_call("transport.SessionEndpoint.send") * 1e6,
        "transport.match_calls_per_put": _ratio(s.counts["transport.match_key"], puts),
        "netsim.events": s.counts["netsim.events"],
        "netsim.events_per_s": _ratio(s.counts["netsim.events"], loop_s),
        "netsim.loop_self_s": s.self_s["netsim.EventLoop.run"],
        "nodes.edge_upload_us_per_msg": _ratio(s.self_s[edge] * 1e6, s.calls[edge]),
        "nodes.cloud_us_per_msg": _ratio(s.self_s[cloud] * 1e6, s.calls[cloud]),
        "metrics.emit_us_per_row":
            _ratio(s.inclusive["metrics.emit_csv"] * 1e6, s.counts["metrics.rows"]),
        "cli.self_s": s.self_s["cli.main"],
        "tcprun.threads_leaked": result.threads_leaked,
    }


def tcp_metrics(base: PassResult) -> dict[str, float]:
    """Upload times and the socket phase of the untraced pass's blocking TCP
    run, as written to its metrics.csv and summary.json."""
    runs = [r for r in base.runs
            if r.expected.tcp and r.expected.transport == "blocking" and r.result]
    if not runs:
        return {"tcprun.upload_ms_p50": 0.0, "tcprun.upload_ms_p75": 0.0,
                "tcprun.inner_wall_s": 0.0}
    uploads = [rec.t_upload * 1e3 for rec in runs[0].result.records if rec.t_upload > 0]
    _q1, p50, p75 = statistics.quantiles(uploads, n=4)
    return {"tcprun.upload_ms_p50": p50, "tcprun.upload_ms_p75": p75,
            "tcprun.inner_wall_s": runs[0].result.summary.total_runtime}


def transport_throughput(base: PassResult) -> dict[str, float]:
    """Images and far->edge messages per second over the untraced pass's
    runs of each transport; ``blocking_images_per_s`` is end-to-end."""
    images, msgs, seconds = base.per_transport("pubsub")
    _images, blocking_msgs, blocking_seconds = base.per_transport("blocking")
    return {"e2e.pubsub_images_per_s": _ratio(images, seconds),
            "e2e.pubsub_msgs_per_s": _ratio(msgs, seconds),
            "e2e.blocking_msgs_per_s": _ratio(blocking_msgs, blocking_seconds)}


def combine(per_pass: list[dict], base: PassResult, errors: list[str]) -> dict[str, float]:
    """Medians over traced passes; counts must agree exactly between passes."""
    combined = {}
    for name, value in per_pass[0].items():
        if name in ("wall_s", "layer_self_s"):
            continue
        values = [p[name] for p in per_pass]
        if name in EXACT_COUNTS:
            if len(set(values)) != 1:
                errors.append(f"{name} differs between traced passes: {values}")
            combined[name] = values[0]
        elif name == LEAK_COUNT:
            combined[name] = max(values + [base.threads_leaked])
        else:
            combined[name] = statistics.median(values)
    combined.update(tcp_metrics(base))
    combined.update(transport_throughput(base))
    combined["trace.overhead_frac"] = (
        statistics.median(p["wall_s"] for p in per_pass) / base.wall_s - 1.0)
    return combined
