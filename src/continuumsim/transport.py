"""Two transports over the simulated network, behind one delivery contract.

* :class:`SessionEndpoint` models a persistent full-duplex connection whose
  ``send`` suspends the calling process until the message has fully crossed
  the link and a receiver-side acknowledgment (one extra link latency) has
  returned. This is the blocking transport.
* :class:`PubSubFabric` models a topic-keyed publish/subscribe layer. A put
  queues the message toward every route that leads to a matching subscriber
  and returns at once; a message holds its queue slot until its last byte
  has left the wire, and a put to a full queue waits (backpressure). Routes
  and subscriptions live until the fabric's ``close``; there is no cancel.

Both transports also send a stream of messages in one call and return one
handle for it, a :class:`StreamTicket`, whose ``accepted`` gate resumes the
caller once, after the last message, where a loop of ``send`` or ``put``
would resume it after each. ``put`` is the one-message stream, and ``send``
its gate. In a blocking stream the ack event of a message books the next.
A pub/sub stream is booked whole at the call (``_Route.put``), at the
instants that a chain of one wire-end event per message would give, and a
link delivers from a FIFO whose head is its one event in the loop: a pub/sub
message costs one event. A put by another publisher during a stream queues
behind the whole stream.

A put or ``put_all`` matches its publisher's key against the subscriptions
once, at the call: every message of the stream goes to the routes and
handlers that matched then, and a ``connect`` or ``subscribe`` made later
reaches only later calls; the tiers make every one before the first put.

Key expressions are ``/``-separated segments where ``*`` matches exactly one
segment and nothing else.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, Optional

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
class StreamTicket:
    """Handle on one ``send_all`` or ``put_all``: ``accepted`` fires when
    the last ack is back or every target queue has taken the last message.
    ``wire_start`` is when the first message first hit a wire; ``ack_at``,
    set by a session only, is when its last ack came back."""

    accepted: Gate
    wire_start: Optional[float] = None
    ack_at: Optional[float] = None


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
        """Close this end: it sends and delivers nothing more, and lets go of
        its peer and its handler."""
        self.closed = True
        self.peer = None
        self._handler = None

    def send(self, payload: bytes) -> Gate:
        """The ``accepted`` gate of :meth:`send_all` of ``(payload,)``."""
        return self.send_all((payload,)).accepted

    def send_all(self, payloads: Iterable[bytes]) -> StreamTicket:
        """Send ``payloads`` in order, each booked when the ack of the one
        before is back. The ticket's ``accepted`` gate resumes the caller
        once, when the last ack is back; it raises into the caller on a
        closed connection or when one exchange would exceed the timeout (the
        connection is then treated as dead and nothing more is delivered),
        at the instant a loop of ``send`` would."""
        ticket = StreamTicket(Gate())
        self._send_next(ticket, iter(payloads), None)
        return ticket

    def _send_next(self, ticket: StreamTicket, payloads: Iterator[bytes],
                   ack_at: Optional[float]) -> None:
        """Book the next of ``payloads``, now that the ack of the one before
        is back at ``ack_at``; with none left, that is the stream's end."""
        payload = next(payloads, None)
        if payload is None:
            ticket.ack_at = ack_at
            ticket.accepted.set(None)
        elif self.closed or self.peer is None or self.peer.closed:
            ticket.accepted.set(ConnectionClosed(f"{self.name}: send on closed connection"))
        else:
            self._book(ticket, payload, payloads)

    def _book(self, ticket: StreamTicket, payload: bytes, payloads: Iterator[bytes]) -> None:
        """Put ``payload`` on the link and schedule its delivery, then its
        ack, which sends the rest of the stream."""
        loop = self._loop
        tx = self._out_link.transmit(len(payload))
        ack_at = tx.arrival + self._out_link.params.latency
        if ack_at - loop.now > self.timeout:
            self.closed = self.peer.closed = True
            loop.schedule(self.timeout, partial(
                ticket.accepted.set, SendTimeout(f"{self.name}: no ack within {self.timeout}s")))
            return
        loop.schedule_at(tx.arrival, partial(self.peer._receive, None, payload))
        if ticket.wire_start is None:
            ticket.wire_start = tx.wire_start
        loop.schedule_at(ack_at, partial(self._send_next, ticket, payloads, ack_at))

    def _receive(self, _key: Optional[str], payload: bytes) -> None:
        """Hand an arrived message to the handler unless this end is closed."""
        if not self.closed and self._handler is not None:
            self._handler(payload)


def session_pair(loop: EventLoop, link_ab: SimLink, link_ba: SimLink,
                 timeout: float = 30.0,
                 endpoint: type = SessionEndpoint) -> tuple[SessionEndpoint, SessionEndpoint]:
    a = endpoint(loop, link_ab, timeout, name="session-a")
    b = endpoint(loop, link_ba, timeout, name="session-b")
    a.peer = b
    b.peer = a
    return a, b


Handler = Callable[[str, bytes], None]


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
    """Directional src -> dst path: a bounded outbound queue feeding one
    link. ``put`` books each message at the call, so the route keeps only
    the instants at which its last ``capacity`` messages leave the wire."""

    def __init__(self, loop: EventLoop, link: SimLink, dst: PubSubEndpoint,
                 capacity: int):
        self._loop = loop
        self.link = link
        self.dst = dst
        # Oldest first, after a 0.0 (no later than any offer) for the start:
        # the first is when the next message's slot frees, the last the wire.
        self._frees = deque((0.0,), maxlen=capacity)

    def put(self, key: str, payload: bytes, dispatch: Handler,
            offer: float) -> tuple[float, float]:
        """Queue a message offered at ``offer`` and book it on the link;
        returns when it is admitted and its wire start. It is admitted when
        the message ``capacity`` places ahead has left the wire, if that is
        later, and goes on the wire once the one before it has left."""
        frees = self._frees
        admitted = frees[0] if frees[0] > offer else offer
        booked = frees[-1] if frees[-1] > admitted else admitted
        tx = self.link.deliver(key, payload, dispatch, booked)
        frees.append(tx.wire_end)
        return admitted, tx.wire_start

    def flush(self) -> Gate:
        """Gate that fires once every queued message has left the wire."""
        return self._loop.gate_at(max(self._frees[-1], self._loop.now))


class Publisher:
    def __init__(self, fabric: "PubSubFabric", endpoint: PubSubEndpoint, key: KeyExpr):
        self.fabric = fabric
        self.endpoint = endpoint
        self.key = key

    def put(self, payload: bytes) -> StreamTicket:
        return self.fabric.put(self, payload)

    def put_all(self, payloads: Iterable[bytes]) -> StreamTicket:
        return self.fabric.put_all(self, payloads)


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

    def close(self) -> None:
        """Drop every route and every endpoint's subscriptions. A put after
        this reaches no one."""
        self._routes.clear()
        for endpoint in self.endpoints.values():
            endpoint.subscriptions.clear()

    def declare_publisher(self, endpoint_name: str, key: str) -> Publisher:
        expr = KeyExpr.parse(key)
        if not expr.is_concrete:
            raise InvalidPattern("publishers must declare a concrete key")
        return Publisher(self, self.endpoint(endpoint_name), expr)

    def put(self, publisher: Publisher, payload: bytes) -> StreamTicket:
        """:meth:`put_all` of the one message ``payload``."""
        return self.put_all(publisher, (payload,))

    def put_all(self, publisher: Publisher, payloads: Iterable[bytes]) -> StreamTicket:
        """Queue each of ``payloads`` toward every remote endpoint with a
        subscription that matches the publisher's key at this call, for the
        handlers that match there, each once the one before has been taken
        by every target queue; all are booked here. The ticket's ``accepted``
        gate is ``EventLoop.gate_at`` the instant when all target queues took
        the last message; with no matching subscriber the messages are
        dropped and that is now."""
        targets = []
        for (src, _dst), route in self._routes.items():
            if src == publisher.endpoint.name:
                handlers = route.dst.handlers(publisher.key)
                if len(handlers) == 1:
                    targets.append((route, handlers[0]))
                elif handlers:
                    targets.append((route, partial(_dispatch, handlers)))
        key = str(publisher.key)
        offer, wire_start = self._loop.now, None
        for payload in payloads:
            taken = offer
            for route, dispatch in targets:
                admitted, started = route.put(key, payload, dispatch, offer)
                if admitted > taken:
                    taken = admitted
                if wire_start is None or started < wire_start:
                    wire_start = started
            offer = taken
        return StreamTicket(self._loop.gate_at(offer), wire_start)
