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
its gate. Both book their messages through ``SimLink.deliver``, and a link
delivers from a FIFO whose head is its one event in the loop: a message
costs one event on either transport.

* A pub/sub stream is booked whole at the call, at the instants that a
  chain of one wire-end event per message would give (``_Route.put``). A
  put by another publisher during a stream queues behind the whole stream.
* A blocking stream is the chain of its acks: its first message is booked
  at the call, and each delivery books the next message at its ack, one
  latency after its arrival, so the stream has at most one message on its
  link. One more event, at the last ack, resumes the caller. A
  ``send_all`` while a stream of that end still books a message at or
  after now raises ``RuntimeError``; one-message sends book at their call.
  A close of either end fails a stream at its first ack at or after the
  close (a close at an ack's instant counts as before it), unless that ack
  is the last, and withdraws from the link the message booked at that ack.

A put or ``put_all`` matches its publisher's key against the subscriptions
once, at the call: every message of the stream goes to the routes and
handlers that matched then, and a ``connect`` or ``subscribe`` made later
reaches only later calls; the tiers make every one before the first put.

Key expressions are ``/``-separated segments where ``*`` matches exactly one
segment and nothing else. A key's text is parsed once, where it enters
(``key_segments``, from ``subscribe`` and ``declare_publisher``); a
publisher's key holds no ``*``, and each put matches its segments against
each subscription's.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Optional

from .domain import is_key_segment
from .netsim import EventHandle, EventLoop, Gate, SimLink, Transmission

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


def key_segments(text: str) -> tuple[str, ...]:
    """The ``/``-separated segments of key text ``text``, each ``*`` or one
    key segment (``domain.is_key_segment``), else ``InvalidPattern``."""
    segments = tuple(text.split("/"))
    for seg in segments:
        if seg != "*" and not is_key_segment(seg):
            raise InvalidPattern(f"segment {seg!r} of {text!r} is empty, has a '*' in it "
                                 "or cannot be encoded as UTF-8")
    return segments


def match_key(pattern: tuple[str, ...], key: tuple[str, ...]) -> bool:
    """True iff segment counts are equal and each pattern segment equals the
    key segment or is the single-segment wildcard. ``key`` is a publisher's,
    which holds no wildcard."""
    if len(pattern) != len(key):
        return False
    return all(p == "*" or p == k for p, k in zip(pattern, key))


@dataclass(slots=True)
class StreamTicket:
    """Handle on one ``send_all`` or ``put_all``: ``accepted`` fires when
    the last ack is back or every target queue has taken the last message.
    ``wire_start`` is when the first message first hit a wire; ``ack_at``,
    set by a session only, is when its last ack came back; ``wire_end``,
    set by pub/sub only, is when the last message leaves its last wire, or
    the call's instant if no subscription matched."""

    accepted: Gate
    wire_start: Optional[float] = None
    ack_at: Optional[float] = None
    wire_end: Optional[float] = None


class SessionEndpoint:
    """One side of a blocking full-duplex session. Its out link carries its
    own sends only, and a stream on it has at most one message on the link
    at a time."""

    def __init__(self, loop: EventLoop, out_link: SimLink, timeout: float, name: str):
        self._loop = loop
        self._out_link = out_link
        self.timeout = timeout
        self.name = name
        self.closed = False
        self.peer: Optional["SessionEndpoint"] = None
        self._handler: Optional[Callable[[bytes], None]] = None
        # The latest stream of more than one message this end sent.
        self._stream: Optional[_Stream] = None

    def on_message(self, handler: Callable[[bytes], None]) -> None:
        self._handler = handler

    def close(self) -> None:
        """Close this end: it sends and delivers nothing more, and lets go of
        its peer and its handler. A stream of either end fails at its first
        ack at or after now (see :meth:`send_all`)."""
        peer = self.peer
        self._shut()
        if peer is not None and peer._stream is not None:
            peer._stream.cut()
        self.peer = None
        self._handler = None

    def _shut(self) -> None:
        """Mark this end closed, and cut its stream at now."""
        self.closed = True
        stream, self._stream = self._stream, None
        if stream is not None:
            stream.cut()

    def send(self, payload: bytes) -> Gate:
        """The ``accepted`` gate of :meth:`send_all` of ``(payload,)``."""
        return self.send_all((payload,)).accepted

    def send_all(self, payloads: Iterable[bytes]) -> StreamTicket:
        """Send ``payloads`` in order, each booked on the out link when the
        ack of the one before is back, one latency after its arrival: the
        first here, and each next one by the delivery of the one before, at
        its ack. Each message costs one event, its delivery; one more, at
        the last ack, sets ``ack_at`` and resumes the caller through the
        ticket's ``accepted`` gate, at once if that ack is the delivery's
        instant.

        A ``send_all`` on this end while a stream of it still books a
        message at or after now raises ``RuntimeError``, as ``Gate.set``
        does when set twice. A one-message stream books at the call, so
        concurrent ones interleave on the link as their calls do.

        The gate raises into the caller:

        * ``ConnectionClosed`` at once if either end is closed at the call;
        * ``SendTimeout`` when one exchange would exceed the timeout: that
          message is not booked, both ends close when the ack before it is
          back (at once for the first), and the gate raises one timeout
          after that instant;
        * ``ConnectionClosed`` at the first ack at or after a close of either
          end (its ``close`` or the peer's timeout), unless that ack is the
          last: a close after the last booking leaves the stream to succeed.
          A close at the instant of an ack counts as before it, whatever the
          order of their events; so does a close at the instant the stream
          times out. The message booked at that ack is withdrawn from the
          link and never delivered, even to an end still open. The receiving
          end drops what arrives once it is closed.
        """
        ticket = StreamTicket(Gate())
        rest = deque(payloads)
        if not rest:
            ticket.accepted.set(None)
            return ticket
        if self._either_end_closed():
            ticket.accepted.set(self._closed_error())
            return ticket
        now = self._loop.now
        # The latest stream still books if a message after the one on the
        # link is left, or if that one was booked at an ack at or after now.
        stream = self._stream
        if stream is not None and stream.rest and (len(stream.rest) > 1 or stream.ack >= now):
            raise RuntimeError(f"{self.name}: a stream still books on this end")
        stream = _Stream(self, ticket, rest)
        booked = stream.book(now)
        if booked is None:
            stream._end()
            return ticket
        ticket.wire_start = booked.wire_start
        if len(rest) > 1:
            self._stream = stream
        return ticket

    def _either_end_closed(self) -> bool:
        """True if a send of this end fails at the call as closed."""
        return self.closed or self.peer is None or self.peer.closed

    def _closed_error(self) -> ConnectionClosed:
        """What a send of this end raises once either end is closed."""
        return ConnectionClosed(f"{self.name}: send on closed connection")

    def _timeout_error(self) -> SendTimeout:
        """What a send of this end raises when an exchange exceeds the timeout."""
        return SendTimeout(f"{self.name}: no ack within {self.timeout}s")

    def _receive(self, _key: Optional[str], payload: bytes) -> None:
        """Hand an arrived message to the handler unless this end is closed."""
        if not self.closed and self._handler is not None:
            self._handler(payload)


class _Stream:
    """One ``send_all`` as the chain of its acks: it books the first message
    at the call, the link hands it each message in turn, and it passes the
    message on to the receiving end and then books the next on the link at
    the message's ack, or ends the stream there. ``rest`` holds the messages
    not yet delivered, the one on the link first, so that each delivered one
    is freed at once; ``ack`` is the ack instant of the latest delivery."""

    __slots__ = ("_sender", "_receiver", "_ticket", "_loop", "_link", "_latency", "rest",
                 "ack", "_booked", "_cut", "_timeout")

    def __init__(self, sender: SessionEndpoint, ticket: StreamTicket, rest: deque):
        self._sender, self._receiver, self._ticket = sender, sender.peer, ticket
        self._loop, self._link = sender._loop, sender._out_link
        self._latency = self._link.params.latency
        self.rest = rest
        self.ack = -math.inf  # no delivery yet
        # Whether the message on the link was booked at ``ack``: the first,
        # booked at the call, is not.
        self._booked = False
        self._cut = False
        # The SendTimeout event, once the stream has timed out.
        self._timeout: Optional[EventHandle] = None

    def __call__(self, key: None, payload: bytes) -> None:
        """Deliver the next message, then book the one after at this ack if
        its exchange is within the timeout, else end the stream there."""
        rest = self.rest
        rest.popleft()
        self._booked = False
        ack = self.ack = self._loop.now + self._latency
        self._receiver._receive(key, payload)
        if rest and not self._cut and self.book(ack) is not None:
            self._booked = True
            return
        self._settle()

    def book(self, at: float) -> Optional[Transmission]:
        """Book the next message at ``at`` (the call for the first, the ack
        of the one before for a later one) if its exchange, from ``at`` to
        its ack, is within the timeout; returns its transmission, or None."""
        link, payload = self._link, self.rest[0]
        if link.arrival(len(payload), at) + self._latency - at > self._sender.timeout:
            return None
        return link.deliver(None, payload, self, at)

    def cut(self) -> None:
        """Apply a close at now: the stream fails at its first ack at or
        after now, unless that ack is the last. A message booked at an ack
        at or after now is withdrawn from the link, and the stream ends at
        that ack. A close at the instant of an ack counts as before it, even
        once the ack's event has run: a stream that timed out at now fails
        as closed."""
        if self._ticket.accepted.is_set:
            return
        self._cut = True
        now = self._loop.now
        if self._timeout is not None:
            if now == self.ack:
                self._timeout.cancel()
                self._timeout = None
                self._end()
        elif self._booked and self.ack >= now:
            self._link.withdraw()
            self._booked = False
            self._settle()

    def _settle(self) -> None:
        """Book the stream's end at ``ack``: at once if that is now."""
        if self.ack == self._loop.now:
            self._end()
        else:
            self._loop.schedule_at(self.ack, self._end)

    def _end(self) -> None:
        """At the ack of the last message delivered, or at the call if the
        first is not booked: succeed if none is left, fail if the stream was
        cut, else time out. A timeout closes both ends now and fails the
        stream one timeout later. The sender's stream is not cut, so that a
        close at this instant still reaches it."""
        ticket, sender = self._ticket, self._sender
        if not self.rest:
            ticket.ack_at = self._loop.now
            ticket.accepted.set(None)
        elif self._cut:
            ticket.accepted.set(sender._closed_error())
        else:
            sender.closed = True
            sender.peer._shut()
            self._timeout = self._loop.schedule(sender.timeout, partial(
                ticket.accepted.set, sender._timeout_error()))


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
        self.subscriptions: list[tuple[tuple[str, ...], Handler]] = []

    def subscribe(self, pattern: str, handler: Handler) -> None:
        self.subscriptions.append((key_segments(pattern), handler))

    def handlers(self, key: tuple[str, ...]) -> list[Handler]:
        """The handlers whose pattern matches the segments ``key``, in
        subscription order."""
        return [handler for pattern, handler in self.subscriptions
                if match_key(pattern, key)]


def _dispatch(handlers: list[Handler], key: str, payload: bytes) -> None:
    for handler in handlers:
        handler(key, payload)


class _Route:
    """Directional src -> dst path: a bounded outbound queue feeding one
    link. ``put`` books each message at the call, so the route keeps only
    the instants at which its last ``capacity`` messages leave the wire."""

    def __init__(self, link: SimLink, dst: PubSubEndpoint, capacity: int):
        self.link = link
        self.dst = dst
        # Oldest first, after a 0.0 (no later than any offer) for the start:
        # the first is when the next message's slot frees, the last the wire.
        self._frees = deque((0.0,), maxlen=capacity)

    def put(self, key: str, payload: bytes, dispatch: Handler,
            offer: float) -> tuple[float, Transmission]:
        """Queue a message offered at ``offer`` and book it on the link;
        returns when it is admitted and its transmission. It is admitted when
        the message ``capacity`` places ahead has left the wire, if that is
        later, and goes on the wire once the one before it has left."""
        frees = self._frees
        admitted = frees[0] if frees[0] > offer else offer
        booked = frees[-1] if frees[-1] > admitted else admitted
        tx = self.link.deliver(key, payload, dispatch, booked)
        frees.append(tx.wire_end)
        return admitted, tx


class Publisher:
    """A concrete key declared on an endpoint: its text, which goes with
    each message, and its segments, which subscriptions match."""

    def __init__(self, fabric: "PubSubFabric", endpoint: PubSubEndpoint, key: str,
                 segments: tuple[str, ...]):
        self.fabric = fabric
        self.endpoint = endpoint
        self.key = key
        self.segments = segments

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
        route = _Route(link, self.endpoint(dst), self.queue_capacity)
        self._routes[(src, dst)] = route
        return route

    def close(self) -> None:
        """Drop every route and every endpoint's subscriptions. A put after
        this reaches no one."""
        self._routes.clear()
        for endpoint in self.endpoints.values():
            endpoint.subscriptions.clear()

    def declare_publisher(self, endpoint_name: str, key: str) -> Publisher:
        segments = key_segments(key)
        if "*" in segments:
            raise InvalidPattern("publishers must declare a concrete key")
        return Publisher(self, self.endpoint(endpoint_name), key, segments)

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
        dropped and that is now. Its ``wire_end`` is when the last message
        leaves the last of its wires, or now with no matching subscriber."""
        targets = []
        for (src, _dst), route in self._routes.items():
            if src == publisher.endpoint.name:
                handlers = route.dst.handlers(publisher.segments)
                if len(handlers) == 1:
                    targets.append((route, handlers[0]))
                elif handlers:
                    targets.append((route, partial(_dispatch, handlers)))
        key = publisher.key
        offer = wire_end = self._loop.now
        wire_start = None
        for payload in payloads:
            taken = offer
            for route, dispatch in targets:
                admitted, tx = route.put(key, payload, dispatch, offer)
                if admitted > taken:
                    taken = admitted
                if wire_start is None or tx.wire_start < wire_start:
                    wire_start = tx.wire_start
                if tx.wire_end > wire_end:
                    wire_end = tx.wire_end
            offer = taken
        return StreamTicket(self._loop.gate_at(offer), wire_start, wire_end=wire_end)
