"""Spans around the program's layer boundaries, recorded from outside.

:class:`Tracer` replaces each public function that one module of
``continuumsim`` calls in another with a wrapper, on the object the caller
looks it up on: a module attribute (``nodes.summarize`` is imported by name,
so it is replaced on ``nodes``) or a class attribute for methods. Calls a
module makes to its own helpers are not boundaries and are not wrapped; their
time is the caller's self time. ``EventLoop`` scheduling, gates and link and
core bookings run once per event and are left inside their callers' spans.
``transport.match_key`` is counted but not timed.

A span holds its name, start, end, parent span and the image id its
arguments carry, if any. Spans live in per-thread arrays until the pass ends.
A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import threading
from array import array
from collections import Counter, defaultdict
from pathlib import Path

from continuumsim import chunkwire, cli, netsim, nodes, tcprun, transport, workload
from continuumsim.domain import ImageRecord

def _targets():
    """(owner, attribute, span name); the span name starts with the layer of
    the function, which is not always the layer of its owner."""
    return [
        (cli, "main", "cli.main"),
        (cli, "run_scenario", "nodes.run_scenario"),
        (cli, "emit_csv", "metrics.emit_csv"),
        (cli, "emit_summary_json", "metrics.emit_summary_json"),
        (cli, "compare", "metrics.compare"),
        (cli, "summary_to_dict", "metrics.summary_to_dict"),
        (nodes, "build_dataset", "nodes.build_dataset"),
        (nodes, "encode_result", "nodes.encode_result"),
        (nodes, "decode_result", "nodes.decode_result"),
        (nodes, "summarize", "metrics.summarize"),
        (nodes, "spawn", "netsim.spawn"),
        (nodes.FarEdgeNode, "on_result_message", "nodes.FarEdgeNode.on_result_message"),
        (nodes.EdgeService, "on_upload_message", "nodes.EdgeService.on_upload_message"),
        (nodes.EdgeService, "on_cloud_message", "nodes.EdgeService.on_cloud_message"),
        (nodes.CloudService, "on_message", "nodes.CloudService.on_message"),
        (tcprun, "run_tcp_scenario", "tcprun.run_tcp_scenario"),
        (tcprun, "build_dataset", "nodes.build_dataset"),
        (tcprun, "encode_result", "nodes.encode_result"),
        (tcprun, "decode_result", "nodes.decode_result"),
        (tcprun, "summarize", "metrics.summarize"),
        (workload, "generate_dataset", "workload.generate_dataset"),
        (workload, "make_face_db", "workload.make_face_db"),
        (workload, "identify", "workload.identify"),
        (workload, "detection_for", "workload.detection_for"),
        (workload, "cloud_recognize", "workload.cloud_recognize"),
        (chunkwire, "fragment", "chunkwire.fragment"),
        (chunkwire, "encode_meta", "chunkwire.encode_meta"),
        (chunkwire, "encode_envelope", "chunkwire.encode_envelope"),
        (chunkwire, "peek_msg_type", "chunkwire.peek_msg_type"),
        (chunkwire, "decode_meta", "chunkwire.decode_meta"),
        (chunkwire, "decode_envelope", "chunkwire.decode_envelope"),
        (chunkwire.ReassemblySession, "accept", "chunkwire.ReassemblySession.accept"),
        (chunkwire.ChunkEnvelope, "payload", "chunkwire.ChunkEnvelope.payload"),
        (transport, "spawn", "netsim.spawn"),
        (transport.PubSubFabric, "put", "transport.PubSubFabric.put"),
        (transport.SessionEndpoint, "send", "transport.SessionEndpoint.send"),
        (netsim.EventLoop, "run", "netsim.EventLoop.run"),
    ]


COUNTED = [(transport, "match_key", "transport.match_key")]

# Functions whose return value is a count: events executed, CSV rows written.
RESULT_COUNTS = {"netsim.EventLoop.run": "netsim.events", "metrics.emit_csv": "metrics.rows"}


class _ThreadSpans:
    """Spans of one thread, in the order they started."""

    def __init__(self, main: bool):
        self.main = main
        self.name = array("i")
        self.parent = array("i")
        self.image = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()


class Tracer:
    """Install with ``with Tracer(now):``; every wrapper is removed on exit."""

    def __init__(self, now):
        self._now = now
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads: list[_ThreadSpans] = []
        self.names: list[str] = []
        self._image_index: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for owner, attr, name in _targets():
            self._patch(owner, attr, self._span_wrapper(getattr(owner, attr), name))
        for owner, attr, name in COUNTED:
            self._patch(owner, attr, self._count_wrapper(getattr(owner, attr), name))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        # Methods are saved from the class dict so that restoring puts back
        # the function object itself.
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = _ThreadSpans(threading.current_thread() is threading.main_thread())
            self._local.spans = spans
            with self._lock:
                self.threads.append(spans)
        return spans

    def _image_of(self, args) -> int:
        for arg in args:
            if isinstance(arg, str):
                image_id = arg if arg.startswith("img") else None
            elif isinstance(arg, ImageRecord):
                image_id = arg.id
            else:
                image_id = getattr(arg, "image_id", None)
            if isinstance(image_id, str):
                with self._lock:
                    return self._image_index.setdefault(image_id, len(self._image_index))
        return -1

    def _span_wrapper(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        now = self._now
        spans_of = self._spans
        image_of = self._image_of
        counted_result = RESULT_COUNTS.get(name)

        def span(*args, **kwargs):
            spans = spans_of()
            pos = len(spans.start)
            spans.name.append(name_id)
            spans.parent.append(spans.stack[-1] if spans.stack else -1)
            spans.image.append(image_of(args))
            spans.end.append(0.0)
            spans.stack.append(pos)
            spans.start.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.end[pos] = now()
                spans.stack.pop()
            if counted_result:
                spans.counts[counted_result] += result
            return result

        span.__wrapped__ = fn
        return span

    def _count_wrapper(self, fn, name: str):
        spans_of = self._spans

        def counted(*args, **kwargs):
            spans_of().counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def summary(self) -> "SpanSummary":
        return SpanSummary(self)

    def write(self, path: Path) -> int:
        """Write every span as CSV; returns the number of spans."""
        image_ids = sorted(self._image_index, key=self._image_index.get)
        rows = 0
        with path.open("w", encoding="utf-8") as out:
            out.write("thread,span,parent,name,start_s,end_s,image_id\n")
            for tid, spans in enumerate(self.threads):
                for i in range(len(spans.start)):
                    image = spans.image[i]
                    out.write(f"{tid},{i},{spans.parent[i]},{self.names[spans.name[i]]},"
                              f"{spans.start[i]:.9f},{spans.end[i]:.9f},"
                              f"{image_ids[image] if image >= 0 else ''}\n")
                    rows += 1
        return rows


class SpanSummary:
    """Per-name call counts, inclusive and self seconds, from a tracer."""

    def __init__(self, tracer: Tracer):
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.main_layer_self: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        for spans in tracer.threads:
            self.counts.update(spans.counts)
            child = [0.0] * len(spans.start)
            duration = [e - s for s, e in zip(spans.start, spans.end)]
            for i, parent in enumerate(spans.parent):
                if parent >= 0:
                    child[parent] += duration[i]
            for i, name_id in enumerate(spans.name):
                name = tracer.names[name_id]
                own = duration[i] - child[i]
                self.calls[name] += 1
                self.inclusive[name] += duration[i]
                self.self_s[name] += own
                if spans.main:
                    self.main_layer_self[name.split(".", 1)[0]] += own

    def per_call(self, name: str) -> float:
        calls = self.calls[name]
        return self.inclusive[name] / calls if calls else 0.0
