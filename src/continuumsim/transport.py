"""Two transports over the simulated network, behind one delivery contract.

* :class:`SessionEndpoint` models a persistent full-duplex connection whose
  ``send`` suspends the calling process until the message has fully crossed
  the link and a receiver-side acknowledgment (one extra link latency) has
  returned. This is the blocking transport.
* :class:`PubSubFabric` models a topic-keyed publish/subscribe layer. A put
  enqueues the message on the outbound queue of every route that leads to a
  matching subscriber and returns immediately; each route's drain transmits
  queued messages in FIFO order. When a queue is full the put blocks until
  space frees (backpressure). Routes and subscriptions live until the
  fabric's ``close``; there is no cancel.

Both transports also send a stream of messages in one call, and return one
handle for it, a :class:`StreamTicket`, which holds the stream's timeline.
Its ``accepted`` gate resumes the caller once, after the last message, where
a loop of ``send`` or ``put`` would resume it after each. ``put`` is the
one-message stream, and ``send`` its gate. A stream is a chain of callbacks,
not a process: the ack event of a blocking message books the next one, and a
pub/sub message is offered to the queues when every target queue has taken
the one before it. The chain schedules the events a loop of single sends
schedules, in the same order.

A put or ``put_all`` matches its publisher's key against the subscriptions
once, at the call: every message of the stream goes to the routes and
handlers that matched then, and a ``connect`` or ``subscribe`` made later
reaches only later calls. The tiers make every connect and subscribe before
the first put, send each image's upload as one ``put_all``, and publish each
per-image key with one ``declare_publisher(...).put``.

The pub/sub drain is a chain of callbacks too: sending the head message
schedules the end of its wire time, and that event frees the slot and sends
the next.

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
    # Target queues yet to take the message on offer, plus one that the
    # offer holds until it has offered the message to every target.
    _untaken: int = 1
    # The key text, the targets every message goes to (each route with the
    # call that hands a message to the handlers matched there) and the
    # payloads not yet offered; None once every payload has been taken.
    _stream: Optional[tuple[str, list[tuple[_Route, Handler]], Iterator[bytes]]] = None

    def _taken(self) -> None:
        self._untaken -= 1
        if self._untaken == 0:
            self._offer()

    def _offer(self) -> None:
        """Offer the next payloads to the targets until one of them must
        wait for a slot, whose admission calls ``_taken``, or none is left."""
        key, targets, payloads = self._stream
        for payload in payloads:
            self._untaken = 1
            for route, dispatch in targets:
                if not route.put((key, payload, dispatch, self)):
                    self._untaken += 1
            self._untaken -= 1
            if self._untaken:
                return
        self._stream = None
        self.accepted.set(None)


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
        ticket = StreamTicket(Gate(self._loop))
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
            ticket.accepted.set_at(
                self.timeout, SendTimeout(f"{self.name}: no ack within {self.timeout}s"))
            return
        loop.schedule_at(tx.arrival, partial(self.peer._receive, None, payload))
        if ticket.wire_start is None:
            ticket.wire_start = tx.wire_start
        loop.schedule(ack_at - loop.now, partial(self._send_next, ticket, payloads, ack_at))

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
# One queued message: key, payload, the call that hands it to the handlers
# it matched, its ticket.
_Entry = tuple[str, bytes, Handler, StreamTicket]


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
    """Directional src -> dst path: bounded outbound queue plus a drain
    feeding one link. A message occupies its queue slot until its last byte
    has left the wire, so queue capacity backpressures the publisher. A put
    to an idle route sends at once, within the put."""

    def __init__(self, loop: EventLoop, link: SimLink, dst: PubSubEndpoint,
                 capacity: int):
        self._loop = loop
        self.link = link
        self.dst = dst
        self.capacity = capacity
        self._items: deque[_Entry] = deque()
        self._putters: deque[_Entry] = deque()
        self._idle = True
        self._flush_waiters: list[Gate] = []

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
        """Enqueue each of ``payloads`` toward every remote endpoint with a
        subscription that matches the publisher's key at this call, for the
        handlers that match there, each once the one before has been taken
        by every target queue. The ticket's ``accepted`` gate fires when all
        target queues took the last message; with no matching subscriber
        the messages are dropped and the put completes immediately."""
        targets = []
        for (src, _dst), route in self._routes.items():
            if src == publisher.endpoint.name:
                handlers = route.dst.handlers(publisher.key)
                if len(handlers) == 1:
                    targets.append((route, handlers[0]))
                elif handlers:
                    targets.append((route, partial(_dispatch, handlers)))
        ticket = StreamTicket(Gate(self._loop),
                              _stream=(str(publisher.key), targets, iter(payloads)))
        ticket._offer()
        return ticket
