"""Two transports over the simulated network, behind one delivery contract.

* :class:`SessionEndpoint` models a persistent full-duplex connection whose
  ``send`` suspends the calling process until the message has fully crossed
  the link and a receiver-side acknowledgment (one extra link latency) has
  returned. This is the blocking transport.
* :class:`PubSubFabric` models a topic-keyed publish/subscribe layer. A put
  enqueues the message on the outbound queue of every route that leads to a
  matching subscriber and returns immediately; each route's drain transmits
  queued messages in FIFO order. When a queue is full the put blocks until
  space frees (backpressure). A key is matched against the subscriptions
  once, when the message is enqueued: it is delivered to the handlers that
  matched then. Routes, publishers and subscriptions live as long as the
  fabric; there is no close or cancel.

  The drain is a chain of callbacks, not a process: sending the head
  message schedules the end of its wire time, and that event frees the slot
  and sends the next. A publisher's targets (each route with the handlers
  that match there) are worked out at its first put and kept until a
  ``connect`` or ``subscribe`` on the fabric moves the topology generation.

Key expressions are ``/``-separated segments where ``*`` matches exactly one
segment and nothing else.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from .domain import is_key_segment
from .netsim import EventLoop, Gate, SimLink

# perfbench/tracer.py wraps this name on this module; nothing here calls it.
from .netsim import spawn  # noqa: F401


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


@dataclass(slots=True)
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


@dataclass(slots=True)
class PutTicket:
    """Handle on one published message: ``accepted`` fires when every target
    queue took it, and ``wire_start`` is when it first hit a wire."""

    accepted: Gate
    wire_start: Optional[float] = None
    # Target queues yet to take the message, plus one that the put holds
    # until it has offered the message to every target.
    _untaken: int = 1

    def _taken(self) -> None:
        self._untaken -= 1
        if self._untaken == 0:
            self.accepted.set(None)


Handler = Callable[[str, bytes], None]
# One queued message: key, payload, the call that hands it to the handlers
# it matched, its ticket.
_Entry = tuple[str, bytes, Handler, PutTicket]


class PubSubEndpoint:
    def __init__(self, fabric: "PubSubFabric", name: str):
        self._fabric = fabric
        self.name = name
        self.subscriptions: list[tuple[KeyExpr, Handler]] = []

    def subscribe(self, pattern: str, handler: Handler) -> None:
        self.subscriptions.append((KeyExpr.parse(pattern), handler))
        self._fabric.generation += 1

    def handlers(self, key: KeyExpr) -> list[Handler]:
        """The handlers whose pattern matches ``key``, in subscription order."""
        return [handler for pattern, handler in self.subscriptions
                if match_key(pattern, key)]


def _dispatch(handlers: list[Handler], key: str, payload: bytes) -> None:
    for handler in handlers:
        handler(key, payload)


class _Route:
    """Directional src -> dst path: bounded outbound queue plus a drain
    feeding one link. A message occupies its queue slot until its last byte
    has left the wire, so queue capacity backpressures the publisher.

    The drain starts with one event at time 0, scheduled here: ``run_tiers``
    relies on it to order same-instant events. A put before that event only
    queues; a put to an idle route sends at once, within the put."""

    def __init__(self, loop: EventLoop, link: SimLink, dst: PubSubEndpoint,
                 capacity: int):
        self._loop = loop
        self.link = link
        self.dst = dst
        self.capacity = capacity
        self._items: deque[_Entry] = deque()
        self._putters: deque[_Entry] = deque()
        self._idle = False
        self._flush_waiters: list[Gate] = []
        loop.schedule(0.0, self._send)

    def put(self, entry: _Entry) -> bool:
        """Queue ``entry``; False when the queue is full. The entry then
        waits, and its ticket hears when a slot frees for it."""
        if len(self._items) >= self.capacity:
            self._putters.append(entry)
            return False
        self._items.append(entry)
        if self._idle:
            self._idle = False
            self._send()
        return True

    def flush(self) -> Gate:
        """Gate that fires once every queued message has left the wire."""
        gate = Gate(self._loop)
        if not self._items and not self._putters:
            gate.set(None)
        else:
            self._flush_waiters.append(gate)
        return gate

    def _send(self) -> None:
        """Put the head message on the wire. A message whose wire time ends
        later frees its slot at that event; one that has already left (a
        socket link books no wire time) frees it here, and the next is sent.
        With nothing queued, the route goes idle."""
        loop = self._loop
        while self._items:
            key, payload, dispatch, ticket = self._items[0]
            tx = self.link.deliver(key, payload, dispatch)
            if ticket.wire_start is None:
                ticket.wire_start = tx.wire_start
            if tx.wire_end > loop.now:
                loop.schedule(tx.wire_end - loop.now, self._sent)
                return
            self._free_slot()
        self._idle = True

    def _sent(self) -> None:
        self._free_slot()
        self._send()

    def _free_slot(self) -> None:
        """The head message has left the wire: admit the first waiting
        putter, and release the flush waiters once nothing is left."""
        self._items.popleft()
        if self._putters:
            entry = self._putters.popleft()
            self._items.append(entry)
            _key, _payload, _dispatch, ticket = entry
            ticket._taken()
        if not self._items and not self._putters:
            waiters, self._flush_waiters = self._flush_waiters, []
            for w in waiters:
                w.set(None)


class Publisher:
    def __init__(self, fabric: "PubSubFabric", endpoint: PubSubEndpoint, key: KeyExpr):
        self.fabric = fabric
        self.endpoint = endpoint
        self.key = key
        self.key_text = str(key)
        # Each route out of ``endpoint`` with the call that hands a message
        # to the handlers matching ``key`` there, as of topology generation
        # ``_generation``.
        self._targets: list[tuple[_Route, Handler]] = []
        self._generation = -1

    def put(self, payload: bytes) -> PutTicket:
        return self.fabric.put(self, payload)


class PubSubFabric:
    """Static-topology pub/sub: endpoints joined by directional routes."""

    def __init__(self, loop: EventLoop, queue_capacity: int = 4):
        self._loop = loop
        self.queue_capacity = queue_capacity
        self.endpoints: dict[str, PubSubEndpoint] = {}
        self._routes: dict[tuple[str, str], _Route] = {}
        # Moved by every connect and subscribe; a publisher whose targets
        # were worked out at another generation works them out again.
        self.generation = 0

    def endpoint(self, name: str) -> PubSubEndpoint:
        if name not in self.endpoints:
            self.endpoints[name] = PubSubEndpoint(self, name)
        return self.endpoints[name]

    def connect(self, src: str, dst: str, link: SimLink) -> _Route:
        route = _Route(self._loop, link, self.endpoint(dst), self.queue_capacity)
        self._routes[(src, dst)] = route
        self.generation += 1
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
        ticket = PutTicket(Gate(self._loop))
        if publisher._generation != self.generation:
            self._route_publisher(publisher)
        for route, dispatch in publisher._targets:
            if not route.put((publisher.key_text, payload, dispatch, ticket)):
                ticket._untaken += 1
        ticket._taken()
        return ticket

    def _route_publisher(self, publisher: Publisher) -> None:
        """Work out ``publisher``'s targets at the current generation. They
        are replaced, never changed in place: a queued message keeps the
        handlers it matched at its put."""
        src = publisher.endpoint.name
        targets = []
        for (route_src, _dst), route in self._routes.items():
            if route_src == src:
                handlers = route.dst.handlers(publisher.key)
                if len(handlers) == 1:
                    targets.append((route, handlers[0]))
                elif handlers:
                    targets.append((route, partial(_dispatch, handlers)))
        publisher._targets = targets
        publisher._generation = self.generation
