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
nothing does it wait in a selector, for the next timer or for a socket to
become ready; the next pass does the flushing and reading.

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
import selectors
import socket
import struct
import time
from collections import deque
from dataclasses import fields, replace
from functools import partial
from typing import Callable, Iterable, Iterator, Optional

from .domain import ScenarioConfig
from .netsim import EventHandle, EventLoop, Gate, Transmission
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
        # select(2) takes microsecond timeouts; epoll and poll round up to
        # milliseconds, which would stretch every scaled stage.
        self._selector = selectors.SelectSelector()
        self._links: list[SocketLink] = []

    def _tick(self) -> float:
        self.now = time.monotonic() - self._origin
        return self.now

    def _pop_due(self, t_end: float) -> Optional[tuple[float, int, EventHandle]]:
        """The first live heap entry due by ``t_end``, removed; cancelled
        entries ahead of it are discarded."""
        heap = self._heap
        while heap:
            fire_at, _, head = heap[0]
            if head.cancelled:
                heapq.heappop(heap)
                continue
            if fire_at > t_end:
                return None
            return heapq.heappop(heap)
        return None

    def connect(self, port: int) -> tuple[SocketLink, SocketLink]:
        """Open one loopback connection, listening on ``port`` (0: any free
        port); returns its two directions, client->server and server->client."""
        with socket.create_server(("127.0.0.1", port)) as server:
            client = socket.create_connection(server.getsockname())
            accepted, _ = server.accept()
        a, b = _End(self._selector, client), _End(self._selector, accepted)
        a_to_b, b_to_a = SocketLink(self, a, b), SocketLink(self, b, a)
        # The order in which the read pass takes them.
        self._links += (b_to_a, a_to_b)
        return a_to_b, b_to_a

    def run(self) -> int:
        """Fire timers as they fall due and deliver frames as they arrive,
        until no live timer is left and no frame is in flight. Once no timer
        is due, a read pass flushes and reads (``_read_pass``); only when
        that pass read nothing does the loop wait in the selector, until the
        next timer or a socket is ready, and it reads nothing there."""
        self._origin = time.monotonic()
        count = 0
        while True:
            entry = self._pop_due(self._tick())
            if entry is not None:
                entry[2].action()
                count += 1
                continue
            read, in_flight = self._read_pass()
            if read:
                continue
            if not self._heap and not in_flight:
                break
            self._selector.select(self._heap[0][0] - self.now if self._heap else None)
        self.executed += count
        return count

    def _read_pass(self) -> tuple[bool, bool]:
        """Flush every partly written frame and read once from every link
        with frames in flight, each link in turn, so that a busy link does
        not starve the others. Returns whether any bytes were read and
        whether any frame was in flight."""
        read = in_flight = False
        for link in self._links:
            if link.writer.pending:
                link.writer.flush()
            if link.in_flight:
                in_flight = True
                if self._receive(link):
                    read = True
        return read, in_flight

    def _receive(self, link: SocketLink) -> bool:
        """Read once from ``link`` and hand each frame now complete to the
        next of its handlers; False if nothing had arrived."""
        try:
            frames = link.reader.read()
        except BlockingIOError:
            return False
        for key, payload in frames:
            self._tick()
            link.handlers.popleft()(key, payload)
        return True

    def close(self) -> None:
        """Close the sockets and drop the links, which refer back to the
        clock."""
        self._selector.close()
        for link in self._links:
            link.writer.sock.close()
        self._links.clear()


class _End:
    """One end of a connection. Outgoing frames are buffered and written as
    far as the socket takes them; incoming bytes are cut into frames."""

    def __init__(self, selector: selectors.BaseSelector, sock: socket.socket):
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self._selector = selector
        self._out = bytearray()
        self._in = bytearray()
        self._events = selectors.EVENT_READ
        selector.register(sock, self._events)

    def write(self, key: bytes, payload: bytes) -> None:
        self._out += _HEADER.pack(len(payload), len(key))
        self._out += key
        self._out += payload
        self.flush()

    @property
    def pending(self) -> bool:
        """Whether part of a written frame still waits for the socket."""
        return bool(self._out)

    def flush(self) -> None:
        try:
            del self._out[:self.sock.send(self._out)]
        except BlockingIOError:
            pass
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if self._out else 0)
        if events != self._events:
            self._events = events
            self._selector.modify(self.sock, events)

    def read(self) -> list[tuple[str, bytes]]:
        """Receive once; returns every frame now complete, as (key, payload).
        Raises BlockingIOError when nothing has arrived."""
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
    when the clock's read pass reads it at the other end. TCP keeps frames in
    order, so the handlers wait in a FIFO, ``handlers``, which that pass
    pops. The sender cannot see arrival, so the returned Transmission ends at
    the write, which is now whatever ``at`` says."""

    def __init__(self, loop: WallClock, writer: _End, reader: _End):
        self._loop = loop
        self.writer = writer
        self.reader = reader
        self.handlers: deque = deque()

    @property
    def in_flight(self) -> int:
        return len(self.handlers)

    def deliver(self, key: str | None, payload: bytes,
                handler: Callable[[str, bytes], None], at: float) -> Transmission:
        self.handlers.append(handler)
        self.writer.write(b"" if key is None else key.encode("utf-8"), payload)
        now = self._loop.now
        return Transmission(now, now, now)


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
