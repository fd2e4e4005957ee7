"""Loopback-TCP mode: the virtual-time tiers on real sockets and real time.

``run_tcp_scenario`` runs the tier wiring of virtual time
(:func:`nodes.run_tiers`) with two substitutions: the loop is a
:class:`WallClock`, whose clock reads real seconds, and each link is a
:class:`SocketLink`, one direction of a loopback TCP connection, in place of
a booked ``SimLink``. One connection carries the far edge <-> edge leg and
one the edge <-> cloud leg. Everything runs on the calling thread, and no
write blocks. Between timers the clock makes one read pass: it flushes each
partly written frame and reads once from each link with frames in flight,
which on loopback have nearly always arrived. Only when that pass read
nothing does it wait, in one ``select`` call, for the next timer, for a
socket with frames in flight to become readable or for one with a partly
written frame to become writable; the next pass does the flushing and
reading.

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

import heapq
import select
import socket
import struct
import time
from collections import deque
from dataclasses import fields, replace
from functools import partial
from typing import Callable, Iterable, Iterator, Optional

from .domain import ScenarioConfig
from .netsim import EventLoop, Gate, Transmission
from .nodes import RunResult, run_tiers
from .transport import SessionEndpoint, StreamTicket

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
        for sock in (client, accepted):
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        a_to_b, b_to_a = SocketLink(self, client, accepted), SocketLink(self, accepted, client)
        # The order in which the read pass takes them.
        self._links += (b_to_a, a_to_b)
        return a_to_b, b_to_a

    def run(self) -> int:
        """Fire timers as they fall due and deliver frames as they arrive,
        until no live timer is left and no frame is in flight. Once no timer
        is due, a read pass flushes every partly written frame and reads once
        from every link with frames in flight, each link in turn, so that a
        busy link does not starve the others. Only when that pass read
        nothing does the loop wait in one ``select`` call, until the next
        timer, a socket with frames in flight is readable or one with a
        partly written frame is writable; it reads nothing there. ``select``
        takes microsecond timeouts, where epoll and poll round up to
        milliseconds, which would stretch every scaled stage."""
        self._origin = time.monotonic()
        heap, links = self._heap, self._links
        count = 0
        while True:
            now = self._tick()
            while heap and heap[0][2].cancelled:
                heapq.heappop(heap)
            if heap and heap[0][0] <= now:
                heapq.heappop(heap)[2].action()
                count += 1
                continue
            read, in_flight = False, []
            for link in links:
                if link.pending:
                    link.flush()
                if link.handlers:
                    in_flight.append(link.in_sock)
                    if link.receive():
                        read = True
            if read:
                continue
            if not heap and not in_flight:
                break
            # Positive: the due check above used this tick.
            select.select(in_flight, [link.out_sock for link in links if link.pending], [],
                          heap[0][0] - now if heap else None)
        self.executed += count
        return count

    def close(self) -> None:
        """Close the sockets, each as the write socket of its one link, and
        drop the links, which refer back to the clock."""
        for link in self._links:
            link.out_sock.close()
        self._links.clear()


class SocketLink:
    """One direction of a connection, with ``SimLink.deliver``'s contract:
    the frame goes to the socket at once and ``handler(key, payload)`` runs
    when the clock's read pass reads it at the other end. The link owns its
    write socket ``out_sock`` and the bytes of written frames the socket has
    not yet taken, and its read socket ``in_sock`` and the bytes read that do
    not yet make a whole frame. TCP keeps frames in order, so the handlers
    wait in a FIFO, ``handlers``, which ``deliver`` appends to and
    ``receive`` pops. The sender cannot see arrival, so the returned
    Transmission ends at the write, which is now whatever ``at`` says."""

    def __init__(self, loop: WallClock, out_sock: socket.socket, in_sock: socket.socket):
        self._loop = loop
        self.out_sock = out_sock
        self.in_sock = in_sock
        self._out = bytearray()
        self._in = bytearray()
        self.handlers: deque = deque()

    @property
    def pending(self) -> bool:
        """Whether part of a written frame still waits for the socket."""
        return bool(self._out)

    def deliver(self, key: str | None, payload: bytes,
                handler: Callable[[str, bytes], None], at: float) -> Transmission:
        self.handlers.append(handler)
        key_bytes = b"" if key is None else key.encode("utf-8")
        self._out += _HEADER.pack(len(payload), len(key_bytes))
        self._out += key_bytes
        self._out += payload
        self.flush()
        now = self._loop.now
        return Transmission(now, now, now)

    def flush(self) -> None:
        """Write as much of the pending bytes as the socket takes."""
        try:
            del self._out[:self.out_sock.send(self._out)]
        except BlockingIOError:
            pass

    def receive(self) -> bool:
        """Read once from the socket and hand each frame now complete to the
        next of the handlers, each at a fresh tick of the clock; False if
        nothing had arrived. Raises ConnectionError if the peer has closed."""
        try:
            data = self.in_sock.recv(_RECV_BYTES)
        except BlockingIOError:
            return False
        if not data:
            raise ConnectionError("loopback peer closed the connection")
        buf = self._in
        buf += data
        del data  # freed before the handlers run, which lowers the peak RSS
        frames, pos = [], 0
        # Each payload is copied once, out of a view of the buffer. The view
        # is released before the buffer is cut: a bytearray with a view open
        # cannot be resized.
        with memoryview(buf) as view:
            while len(buf) - pos >= _HEADER.size:
                size, key_size = _HEADER.unpack_from(buf, pos)
                start = pos + _HEADER.size + key_size
                if start + size > len(buf):
                    break
                frames.append((buf[pos + _HEADER.size:start].decode("utf-8"),
                               bytes(view[start:start + size])))
                pos = start + size
        del buf[:pos]
        for key, payload in frames:
            self._loop._tick()
            self.handlers.popleft()(key, payload)
        return True


class SocketSession(SessionEndpoint):
    """Blocking session over socket links. The receiver answers each data
    frame with an empty ack frame on the reverse link; the ack sends the next
    message of its stream, and the last resumes the sender. A message not
    acked within ``timeout`` real seconds fails the connection. The
    ticket's wire start is the write of the first message and its ack
    instant is the read of the last ack frame."""

    def __init__(self, loop: EventLoop, out_link: SocketLink, timeout: float, name: str):
        super().__init__(loop, out_link, timeout, name)
        # The ticket and the rest of the stream of each message in flight,
        # in write order, with the timer of that message.
        self._unacked: deque = deque()

    def send_all(self, payloads: Iterable[bytes]) -> StreamTicket:
        """Send ``payloads`` in order, each written when the ack frame of the
        one before is read. The ticket's ``accepted`` gate resumes the
        caller once, when the last ack frame is read; it raises into the
        caller on a closed connection, or when a message is not acked within
        the timeout (the connection is then closed)."""
        ticket = StreamTicket(Gate())
        self._send_next(ticket, iter(payloads), None)
        return ticket

    def _send_next(self, ticket: StreamTicket, payloads: Iterator[bytes],
                   ack_at: Optional[float]) -> None:
        """Write the next of ``payloads`` and start its timer, now that the
        ack of the one before is back at ``ack_at``; with none left, that is
        the stream's end."""
        payload = next(payloads, None)
        if payload is None:
            ticket.ack_at = ack_at
            ticket.accepted.set(None)
        elif self._either_end_closed():
            ticket.accepted.set(self._closed_error())
        else:
            if ticket.wire_start is None:
                ticket.wire_start = self._loop.now
            timer = self._loop.schedule(self.timeout, partial(self._time_out, ticket.accepted))
            self._unacked.append((ticket, payloads, timer))
            self._out_link.deliver(None, payload, self.peer._receive, self._loop.now)

    def _receive(self, key: str, payload: bytes) -> None:
        self._out_link.deliver(None, b"", self.peer._acked, self._loop.now)
        super()._receive(key, payload)

    def _acked(self, _key: str, _payload: bytes) -> None:
        ticket, payloads, timer = self._unacked.popleft()
        timer.cancel()
        if not ticket.accepted.is_set:
            self._send_next(ticket, payloads, self._loop.now)

    def _time_out(self, gate: Gate) -> None:
        self.closed = self.peer.closed = True
        gate.set(self._timeout_error())


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
