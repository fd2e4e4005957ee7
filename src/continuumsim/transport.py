"""Two transports over the simulated network, behind one delivery contract.

* :class:`SessionEndpoint` models a persistent full-duplex connection whose
  ``send`` suspends the calling process until the message has fully crossed
  the link and a receiver-side acknowledgment (one extra link latency) has
  returned. This is the blocking transport.
* :class:`PubSubFabric` models a topic-keyed publish/subscribe layer. A put
  enqueues the message on the outbound queue of every route that leads to a
  matching subscriber and returns immediately; a background drain transmits
  queued messages in FIFO order. When a queue is full the put blocks until
  space frees (backpressure). A key is matched against the subscriptions
  once, when the message is enqueued: it is delivered to the handlers that
  matched then. Routes, publishers and subscriptions live as long as the
  fabric; there is no close or cancel.

Key expressions are ``/``-separated segments where ``*`` matches exactly one
segment and nothing else.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from .domain import is_key_segment
from .netsim import EventLoop, Gate, SimLink, spawn


class TransportError(Exception):
    pass


class ConnectionClosed(TransportError):
    pass


class SendTimeout(TransportError):
    pass


class InvalidPattern(TransportError):
    pass


# Topic namespace shared by both architectures.
KEY_FACES_DETECTED = "tricloud/faces/detected"
KEY_RESULTS_PREFIX = "tricloud/results/"
KEY_CLOUD_RESULTS_PREFIX = "tricloud/cloud/results/"
KEY_CLOUD_REQUESTS_PREFIX = "tricloud/cloud/requests/"
KEY_CLOUD_UPLOADS_PREFIX = "tricloud/cloud/uploads/"


@dataclass(frozen=True)
class KeyExpr:
    segments: tuple[str, ...]

    @staticmethod
    def parse(text: str) -> "KeyExpr":
        segments = tuple(text.split("/"))
        for seg in segments:
            if seg != "*" and not is_key_segment(seg):
                raise InvalidPattern(
                    f"segment {seg!r} of {text!r} is empty or has a '*' in it")
        return KeyExpr(segments)

    @property
    def is_concrete(self) -> bool:
        return "*" not in self.segments

    def __str__(self) -> str:
        return "/".join(self.segments)


def match_key(pattern: KeyExpr, key: KeyExpr) -> bool:
    """True iff segment counts are equal and each pattern segment equals the
    key segment or is the single-segment wildcard. ``key`` must be concrete."""
    if not key.is_concrete:
        raise InvalidPattern("match target must be a concrete key")
    if len(pattern.segments) != len(key.segments):
        return False
    return all(p == "*" or p == k for p, k in zip(pattern.segments, key.segments))


@dataclass
class SendReceipt:
    """Timeline of one blocking send: when it hit the wire and the
    acknowledgment instant at which the sender resumed."""

    wire_start: float
    ack_at: float


class SessionEndpoint:
    """One side of a blocking full-duplex session."""

    def __init__(self, loop: EventLoop, out_link: SimLink, timeout: float = 30.0,
                 name: str = "session"):
        self._loop = loop
        self._out_link = out_link
        self.timeout = timeout
        self.name = name
        self.closed = False
        self.peer: Optional["SessionEndpoint"] = None
        self._handler: Optional[Callable[[bytes], None]] = None

    def on_message(self, handler: Callable[[bytes], None]) -> None:
        self._handler = handler

    def close(self) -> None:
        self.closed = True

    def send(self, payload: bytes) -> Gate:
        """Book the message and return a gate that resumes the caller with a
        :class:`SendReceipt` once the ack is back. Raises into the caller on a
        closed connection or when the whole exchange would exceed the timeout
        (the connection is then treated as dead and nothing is delivered)."""
        gate = Gate(self._loop)
        if self.closed or self.peer is None or self.peer.closed:
            gate.set(ConnectionClosed(f"{self.name}: send on closed connection"))
            return gate
        latency = self._out_link.params.latency
        tx = self._out_link.transmit(len(payload))
        ack_at = tx.arrival + latency
        if ack_at - self._loop.now > self.timeout:
            self.closed = True
            self.peer.closed = True
            gate.set_at(self.timeout,
                        SendTimeout(f"{self.name}: no ack within {self.timeout}s"))
            return gate
        peer = self.peer
        self._loop.schedule_at(tx.arrival, partial(self._deliver, peer, payload))
        gate.set_at(ack_at - self._loop.now,
                    SendReceipt(tx.wire_start, ack_at))
        return gate

    @staticmethod
    def _deliver(peer: "SessionEndpoint", payload: bytes) -> None:
        if not peer.closed and peer._handler is not None:
            peer._handler(payload)


def session_pair(loop: EventLoop, link_ab: SimLink, link_ba: SimLink,
                 timeout: float = 30.0,
                 endpoint: type = SessionEndpoint) -> tuple[SessionEndpoint, SessionEndpoint]:
    a = endpoint(loop, link_ab, timeout, name="session-a")
    b = endpoint(loop, link_ba, timeout, name="session-b")
    a.peer = b
    b.peer = a
    return a, b


@dataclass
class PutTicket:
    """Handle on one published message: ``accepted`` fires when every target
    queue took it, and ``wire_start`` is when it first hit a wire."""

    accepted: Gate
    wire_start: Optional[float] = None


Handler = Callable[[str, bytes], None]
# One queued message: key, payload, the handlers it matched, its ticket.
_Entry = tuple[str, bytes, list[Handler], PutTicket]


class PubSubEndpoint:
    def __init__(self, name: str):
        self.name = name
        self.subscriptions: list[tuple[KeyExpr, Handler]] = []

    def subscribe(self, pattern: str, handler: Handler) -> None:
        self.subscriptions.append((KeyExpr.parse(pattern), handler))

    def handlers(self, key: KeyExpr) -> list[Handler]:
        """The handlers whose pattern matches ``key``, in subscription order."""
        return [handler for pattern, handler in self.subscriptions
                if match_key(pattern, key)]


def _dispatch(handlers: list[Handler], key: str, payload: bytes) -> None:
    for handler in handlers:
        handler(key, payload)


class _Route:
    """Directional src -> dst path: bounded outbound queue plus a background
    drain feeding one link. A message occupies its queue slot until its last
    byte has left the wire, so queue capacity backpressures the publisher."""

    def __init__(self, loop: EventLoop, link: SimLink, dst: PubSubEndpoint,
                 capacity: int):
        self._loop = loop
        self.link = link
        self.dst = dst
        self.capacity = capacity
        self._items: deque[_Entry] = deque()
        self._putters: deque[tuple[Gate, _Entry]] = deque()
        self._wakeup: Optional[Gate] = None
        self._flush_waiters: list[Gate] = []
        spawn(loop, self._drain(), name=f"drain->{dst.name}")

    def put(self, entry: _Entry) -> Gate:
        gate = Gate(self._loop)
        if len(self._items) < self.capacity:
            self._items.append(entry)
            if self._wakeup is not None:
                wakeup, self._wakeup = self._wakeup, None
                wakeup.set(None)
            gate.set(None)
        else:
            self._putters.append((gate, entry))
        return gate

    def flush(self) -> Gate:
        """Gate that fires once every queued message has left the wire."""
        gate = Gate(self._loop)
        if not self._items and not self._putters:
            gate.set(None)
        else:
            self._flush_waiters.append(gate)
        return gate

    def _drain(self):
        while True:
            if not self._items:
                self._wakeup = Gate(self._loop)
                yield self._wakeup
                continue
            key, payload, handlers, ticket = self._items[0]
            tx = self.link.deliver(key, payload, partial(_dispatch, handlers))
            if ticket.wire_start is None:
                ticket.wire_start = tx.wire_start
            if tx.wire_end > self._loop.now:
                yield tx.wire_end - self._loop.now
            self._items.popleft()
            if self._putters:
                gate, entry = self._putters.popleft()
                self._items.append(entry)
                gate.set(None)
            if not self._items and not self._putters:
                waiters, self._flush_waiters = self._flush_waiters, []
                for w in waiters:
                    w.set(None)


class Publisher:
    def __init__(self, fabric: "PubSubFabric", endpoint: PubSubEndpoint, key: KeyExpr):
        self.fabric = fabric
        self.endpoint = endpoint
        self.key = key

    def put(self, payload: bytes) -> PutTicket:
        return self.fabric.put(self, payload)


class PubSubFabric:
    """Static-topology pub/sub: endpoints joined by directional routes."""

    def __init__(self, loop: EventLoop, queue_capacity: int = 4):
        self._loop = loop
        self.queue_capacity = queue_capacity
        self.endpoints: dict[str, PubSubEndpoint] = {}
        self._routes: dict[tuple[str, str], _Route] = {}

    def endpoint(self, name: str) -> PubSubEndpoint:
        if name not in self.endpoints:
            self.endpoints[name] = PubSubEndpoint(name)
        return self.endpoints[name]

    def connect(self, src: str, dst: str, link: SimLink) -> _Route:
        route = _Route(self._loop, link, self.endpoint(dst), self.queue_capacity)
        self._routes[(src, dst)] = route
        return route

    def route(self, src: str, dst: str) -> _Route:
        return self._routes[(src, dst)]

    def declare_publisher(self, endpoint_name: str, key: str) -> Publisher:
        expr = KeyExpr.parse(key)
        if not expr.is_concrete:
            raise InvalidPattern("publishers must declare a concrete key")
        return Publisher(self, self.endpoint(endpoint_name), expr)

    def put(self, publisher: Publisher, payload: bytes) -> PutTicket:
        """Enqueue ``payload`` toward every remote endpoint with a matching
        subscription, for the handlers that match there now. The ticket's
        ``accepted`` gate fires when all target queues took the message; with
        no matching subscriber the message is dropped and the put completes
        immediately."""
        ticket = PutTicket(accepted=Gate(self._loop))
        key = str(publisher.key)
        gates = []
        for (src, _dst), route in self._routes.items():
            if src == publisher.endpoint.name:
                handlers = route.dst.handlers(publisher.key)
                if handlers:
                    gates.append(route.put((key, payload, handlers, ticket)))
        if not gates:
            ticket.accepted.set(None)
            return ticket
        remaining = len(gates)

        def _one_done(_value: object) -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                ticket.accepted.set(None)

        for g in gates:
            g.add_waiter(_one_done)
        return ticket
