"""Loopback-TCP mode: the virtual-time tiers on real sockets and real time.

``run_tcp_scenario`` runs the tier wiring of virtual time
(:func:`nodes.run_tiers`) with two substitutions: the loop is a
:class:`WallClock`, whose clock reads real seconds, and each link is a
:class:`SocketLink`, one direction of a loopback TCP connection, in place of
a booked ``SimLink``. One connection carries the far edge <-> edge leg and
one the edge <-> cloud leg. Everything runs on the calling thread: the clock
waits in a selector for the next timer or socket frame, and no write blocks.

Frames: a ``>IH`` header (payload length, key length), the pub/sub key in
UTF-8 (empty on the blocking session), then the payload, which is the same
document virtual time carries. The blocking session answers each data frame
with an ack frame whose payload is empty.

Time: ``time_scale`` multiplies the modeled durations (stage times, cloud
latency mean and jitter, ``parallel_handoff_s``, ``parallel_io_penalty_s``),
which become real waits. Timeouts and the grant TTL are real seconds. Every
time the run reports is wall-clock.
"""

from __future__ import annotations

import selectors
import socket
import struct
import time
from collections import deque
from dataclasses import fields, replace
from functools import partial
from typing import Callable

from .domain import ScenarioConfig
from .netsim import EventLoop, Gate, Transmission
from .nodes import RunResult, run_tiers
from .transport import ConnectionClosed, KeyExpr, SendReceipt, SendTimeout, SessionEndpoint

# perfbench/tracer.py wraps these names on this module; nothing here calls them.
from .metrics import summarize  # noqa: F401
from .nodes import build_dataset, decode_result, encode_result  # noqa: F401

_HEADER = struct.Struct(">IH")
_RECV_BYTES = 1 << 16


class WallClock(EventLoop):
    """EventLoop whose clock reads real seconds since ``run`` started (0
    before). ``now`` is read once per callback, as a loop tick."""

    def __init__(self) -> None:
        super().__init__()
        self._origin = 0.0
        # select(2) takes microsecond timeouts; epoll and poll round up to
        # milliseconds, which would stretch every scaled stage.
        self._selector = selectors.SelectSelector()
        self._links: list[SocketLink] = []

    def _tick(self) -> float:
        self.now = time.monotonic() - self._origin
        return self.now

    def connect(self, port: int) -> tuple[SocketLink, SocketLink]:
        """Open one loopback connection, listening on ``port`` (0: any free
        port); returns its two directions, client->server and server->client."""
        with socket.create_server(("127.0.0.1", port)) as server:
            client = socket.create_connection(server.getsockname())
            accepted, _ = server.accept()
        a, b = _End(self._selector, client), _End(self._selector, accepted)
        links = (SocketLink(self, a, b), SocketLink(self, b, a))
        self._links.extend(links)
        return links

    def run(self) -> int:
        """Fire timers as they fall due and deliver frames as they arrive,
        until no live timer is left and no frame is in flight."""
        self._origin = time.monotonic()
        count = 0
        while True:
            entry = self._pop_due(self._tick())
            if entry is not None:
                entry[2].action()
                count += 1
                continue
            if not self._heap and not any(link.in_flight for link in self._links):
                break
            timeout = self._heap[0][0] - self.now if self._heap else None
            for key, mask in self._selector.select(timeout):
                end = key.data
                if mask & selectors.EVENT_WRITE:
                    end.flush()
                if mask & selectors.EVENT_READ:
                    for frame_key, payload in end.read():
                        self._tick()
                        end.on_frame(frame_key, payload)
        self.executed += count
        return count

    def close(self) -> None:
        self._selector.close()
        for link in self._links:
            link.writer.sock.close()


class _End:
    """One end of a connection. Outgoing frames are buffered and written as
    far as the socket takes them; incoming bytes are cut into frames."""

    def __init__(self, selector: selectors.BaseSelector, sock: socket.socket):
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self.on_frame: Callable[[str, bytes], None] | None = None
        self._selector = selector
        self._out = bytearray()
        self._in = bytearray()
        self._events = selectors.EVENT_READ
        selector.register(sock, self._events, self)

    def write(self, key: bytes, payload: bytes) -> None:
        self._out += _HEADER.pack(len(payload), len(key))
        self._out += key
        self._out += payload
        self.flush()

    def flush(self) -> None:
        try:
            del self._out[:self.sock.send(self._out)]
        except BlockingIOError:
            pass
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if self._out else 0)
        if events != self._events:
            self._events = events
            self._selector.modify(self.sock, events, self)

    def read(self) -> list[tuple[str, bytes]]:
        """Receive once; returns every frame now complete, as (key, payload)."""
        data = self.sock.recv(_RECV_BYTES)
        if not data:
            raise ConnectionError("loopback peer closed the connection")
        buf = self._in
        buf += data
        frames, pos = [], 0
        while len(buf) - pos >= _HEADER.size:
            size, key_size = _HEADER.unpack_from(buf, pos)
            start = pos + _HEADER.size + key_size
            if start + size > len(buf):
                break
            frames.append((buf[pos + _HEADER.size:start].decode("utf-8"),
                           bytes(buf[start:start + size])))
            pos = start + size
        del buf[:pos]
        return frames


class SocketLink:
    """One direction of a connection, with ``SimLink.deliver``'s contract:
    the frame goes to the socket at once and ``handler(key, payload)`` runs
    when the other end reads it. TCP keeps frames in order, so the handlers
    wait in a FIFO. The sender cannot see arrival, so the returned
    Transmission ends at the write."""

    def __init__(self, loop: WallClock, writer: _End, reader: _End):
        self._loop = loop
        self.writer = writer
        self._handlers: deque = deque()
        reader.on_frame = self._arrived

    @property
    def in_flight(self) -> int:
        return len(self._handlers)

    def deliver(self, key: KeyExpr | None, payload: bytes,
                handler: Callable[[KeyExpr | None, bytes], None]) -> Transmission:
        self._handlers.append(handler)
        self.writer.write(b"" if key is None else str(key).encode("utf-8"), payload)
        now = self._loop.now
        return Transmission(now, now, now, len(payload))

    def _arrived(self, key: str, payload: bytes) -> None:
        self._handlers.popleft()(KeyExpr.parse(key) if key else None, payload)


class SocketSession(SessionEndpoint):
    """Blocking session over socket links. The receiver answers each data
    frame with an empty ack frame on the reverse link; ``send`` resumes on
    that ack, or fails the connection after ``timeout`` real seconds. The
    sender sees no instant between its write and the ack, so the receipt's
    wire end and arrival are the ack instant."""

    def __init__(self, loop: EventLoop, out_link: SocketLink, timeout: float = 30.0,
                 name: str = "session"):
        super().__init__(loop, out_link, timeout, name)
        self._unacked: deque = deque()

    def send(self, payload: bytes) -> Gate:
        gate = Gate(self._loop)
        if self.closed or self.peer is None or self.peer.closed:
            gate.set(ConnectionClosed(f"{self.name}: send on closed connection"))
            return gate
        timer = self._loop.schedule(self.timeout, partial(self._time_out, gate))
        self._unacked.append((gate, self._loop.now, timer))
        self._out_link.deliver(None, payload, self.peer._receive)
        return gate

    def _receive(self, _key: None, payload: bytes) -> None:
        self._out_link.deliver(None, b"", self.peer._acked)
        if not self.closed and self._handler is not None:
            self._handler(payload)

    def _acked(self, _key: None, _payload: bytes) -> None:
        gate, start, timer = self._unacked.popleft()
        timer.cancel()
        if not gate.is_set:
            now = self._loop.now
            gate.set(SendReceipt(start, now, now, now))

    def _time_out(self, gate: Gate) -> None:
        self.closed = self.peer.closed = True
        gate.set(SendTimeout(f"{self.name}: no ack within {self.timeout}s"))


def run_tcp_scenario(cfg: ScenarioConfig) -> RunResult:
    """Run one scenario over loopback TCP on the calling thread. The result
    carries ``cfg`` as given; its times are wall-clock seconds."""
    loop = WallClock()
    try:
        links = loop.connect(cfg.tcp_port_edge) + loop.connect(cfg.tcp_port_cloud)
        result = run_tiers(_scaled(cfg), loop, links, SocketSession)
    finally:
        loop.close()
    return replace(result, config=cfg)


def _scaled(cfg: ScenarioConfig) -> ScenarioConfig:
    """``cfg`` with every modeled duration times ``time_scale``. Timeouts
    and the grant TTL stay as given, in real seconds."""
    scale = cfg.time_scale
    sd = cfg.stage_durations
    return replace(
        cfg,
        stage_durations=replace(sd, **{f.name: getattr(sd, f.name) * scale
                                       for f in fields(sd)}),
        parallel_handoff_s=cfg.parallel_handoff_s * scale,
        parallel_io_penalty_s=cfg.parallel_io_penalty_s * scale,
    )
