import itertools
import math
from collections import Counter, deque
from functools import partial
import re
import sys
import tracemalloc

import pytest

from continuumsim import transport
from continuumsim.domain import LinkParams
from continuumsim.netsim import EventLoop, Gate, SimLink, spawn
from continuumsim.transport import (
    ConnectionClosed,
    InvalidPattern,
    PubSubFabric,
    SendTimeout,
    SessionEndpoint,
    StreamTicket,
    key_segments,
    match_key,
    session_pair,
)
from continuumsim.workload import Prng
from test_nodes import ShuffledTies


def _k(text: str) -> tuple[str, ...]:
    return key_segments(text)


def test_match_key_examples():
    assert match_key(_k("a/*/c"), _k("a/b/c"))
    assert not match_key(_k("a/*"), _k("a"))
    assert match_key(_k("tricloud/results/*"), _k("tricloud/results/seed107582"))
    assert not match_key(_k("tricloud/results/*"), _k("tricloud/results/a/b"))


def test_match_key_against_regex_oracle():
    # exhaustive over all patterns and keys of <= 3 segments from {a, b, *}
    def keys(alphabet, with_star):
        symbols = alphabet + (("*",) if with_star else ())
        for length in (1, 2, 3):
            yield from ("/".join(p) for p in itertools.product(symbols, repeat=length))

    for pattern in keys(("a", "b"), with_star=True):
        regex = re.compile(
            "^" + "/".join("[^/]+" if seg == "*" else re.escape(seg)
                           for seg in pattern.split("/")) + "$")
        for key in keys(("a", "b"), with_star=False):
            assert match_key(_k(pattern), _k(key)) == bool(regex.match(key)), \
                (pattern, key)


def test_invalid_patterns_rejected():
    for bad in ("", "a//b", "a/*b/c", "**"):
        with pytest.raises(InvalidPattern, match="is empty, has a"):
            key_segments(bad)


def test_a_key_that_utf8_cannot_encode_is_rejected_where_it_enters():
    fabric = _fabric(EventLoop())
    bad = "tricloud/results/img\udc80"
    with pytest.raises(InvalidPattern, match="cannot be encoded as UTF-8"):
        fabric.declare_publisher("src", bad)
    with pytest.raises(InvalidPattern, match="cannot be encoded as UTF-8"):
        fabric.endpoint("dst").subscribe(bad, lambda k, d: None)
    assert fabric.endpoint("dst").subscriptions == []


def _pair(loop, latency=0.01, bandwidth=1000.0, timeout=30.0):
    link_ab = SimLink(loop, LinkParams(latency, bandwidth))
    link_ba = SimLink(loop, LinkParams(latency, bandwidth))
    return session_pair(loop, link_ab, link_ba, timeout=timeout)


def test_blocking_send_blocks_for_transfer_plus_ack():
    loop = EventLoop()
    a, b = _pair(loop, latency=0.01, bandwidth=1000.0)
    got = []
    b.on_message(lambda data: got.append((loop.now, data)))
    resumed = []

    def sender():
        ticket = a.send_all((b"x" * 500,))
        yield ticket.accepted
        resumed.append((loop.now, ticket))

    spawn(loop, sender())
    loop.run()
    # 0.5 s serialization + 0.01 delivery latency + 0.01 ack latency
    t_resume, ticket = resumed[0]
    assert t_resume == pytest.approx(0.52)
    assert isinstance(ticket, StreamTicket)
    assert got[0][0] == pytest.approx(0.51)
    assert got[0][1] == b"x" * 500
    # blocking law: block time >= serialization + 2 * latency
    assert ticket.ack_at - ticket.wire_start >= 500 / 1000.0 + 2 * 0.01


def test_blocking_messages_arrive_in_send_order():
    loop = EventLoop()
    a, b = _pair(loop)
    got = []
    b.on_message(got.append)

    def sender():
        yield a.send(b"first")
        yield a.send(b"second")

    spawn(loop, sender())
    loop.run()
    assert got == [b"first", b"second"]


def test_send_on_closed_connection_raises():
    loop = EventLoop()
    a, b = _pair(loop)
    a.close()
    caught = []

    def sender():
        try:
            yield a.send(b"data")
        except ConnectionClosed:
            caught.append(True)

    spawn(loop, sender())
    loop.run()
    assert caught == [True]


def test_send_timeout_kills_connection_and_suppresses_delivery():
    loop = EventLoop()
    a, b = _pair(loop, bandwidth=10.0, timeout=5.0)  # 100 s serialization
    got = []
    b.on_message(got.append)
    caught = []

    def sender():
        try:
            yield a.send(b"x" * 1000)
        except SendTimeout:
            caught.append(loop.now)

    spawn(loop, sender())
    loop.run()
    assert caught == [5.0]
    assert got == []
    assert a.closed and b.closed


def _fabric(loop, capacity=4, latency=0.0, bandwidth=1000.0):
    fabric = PubSubFabric(loop, queue_capacity=capacity)
    link = SimLink(loop, LinkParams(latency, bandwidth))
    fabric.connect("src", "dst", link)
    return fabric


def test_put_returns_at_enqueue_and_delivers_async():
    loop = EventLoop()
    fabric = _fabric(loop, latency=0.05)
    got = []
    fabric.endpoint("dst").subscribe("topic/data", lambda k, d: got.append((loop.now, k, d)))
    pub = fabric.declare_publisher("src", "topic/data")
    resumed = []

    def publisher():
        ticket = pub.put(b"y" * 500)
        yield ticket.accepted
        resumed.append(loop.now)

    spawn(loop, publisher())
    loop.run()
    assert resumed == [0.0]  # caller resumed at enqueue, not delivery
    assert got == [(0.55, "topic/data", b"y" * 500)]


def test_put_before_the_run_is_on_the_wire_within_the_put():
    loop = EventLoop()
    fabric = PubSubFabric(loop)
    route = fabric.connect("src", "dst", SimLink(loop, LinkParams(0.0, 1000.0)))
    fabric.endpoint("dst").subscribe("t/a", lambda k, d: None)
    ticket = fabric.declare_publisher("src", "t/a").put(b"a" * 500)
    assert ticket.wire_start == 0.0
    assert route.link.busy_until == pytest.approx(0.5)
    loop.run()
    assert loop.now == pytest.approx(0.5)


def test_backpressure_with_capacity_one():
    loop = EventLoop()
    fabric = _fabric(loop, capacity=1, bandwidth=1000.0)
    fabric.endpoint("dst").subscribe("t/a", lambda k, d: None)
    pub = fabric.declare_publisher("src", "t/a")
    accepted = []

    def publisher():
        first = pub.put(b"a" * 1000)  # occupies wire for 1 s
        yield first.accepted
        accepted.append(loop.now)
        second = pub.put(b"b" * 1000)
        yield second.accepted
        accepted.append(loop.now)

    spawn(loop, publisher())
    loop.run()
    assert accepted[0] == 0.0
    # second put waits until the first message fully drains off the wire
    assert accepted[1] == pytest.approx(1.0)


def test_ticket_wire_start_under_backpressure():
    loop = EventLoop()
    fabric = _fabric(loop, capacity=1, bandwidth=1000.0)
    fabric.endpoint("dst").subscribe("t/a", lambda k, d: None)
    pub = fabric.declare_publisher("src", "t/a")
    tickets = [pub.put(b"a" * 1000), pub.put(b"b" * 1000)]  # 1 s of wire time each
    loop.run()
    assert [t.wire_start for t in tickets] == [0.0, pytest.approx(1.0)]


def test_publisher_key_must_be_concrete():
    loop = EventLoop()
    fabric = _fabric(loop)
    with pytest.raises(InvalidPattern):
        fabric.declare_publisher("src", "t/*")


def test_fanout_to_multiple_subscribers():
    loop = EventLoop()
    fabric = _fabric(loop)
    got = []
    fabric.endpoint("dst").subscribe("t/x", lambda k, d: got.append("sub1"))
    fabric.endpoint("dst").subscribe("t/*", lambda k, d: got.append("sub2"))
    pub = fabric.declare_publisher("src", "t/x")

    def publisher():
        yield pub.put(b"m").accepted

    spawn(loop, publisher())
    loop.run()
    assert got == ["sub1", "sub2"]


def test_key_is_matched_once_at_put(monkeypatch):
    loop = EventLoop()
    fabric = _fabric(loop)
    got = []
    for name, pattern in (("first", "t/*"), ("other", "u/*"), ("last", "t/x")):
        fabric.endpoint("dst").subscribe(
            pattern, lambda k, d, name=name: got.append((name, k, d)))
    calls = []
    monkeypatch.setattr(transport, "match_key",
                        lambda p, k: calls.append("/".join(p)) or match_key(p, k))
    fabric.declare_publisher("src", "t/x").put(b"m")
    loop.run()
    assert calls == ["t/*", "u/*", "t/x"]
    assert got == [("first", "t/x", b"m"), ("last", "t/x", b"m")]


def test_per_publisher_fifo_order():
    loop = EventLoop()
    fabric = _fabric(loop)
    got = []
    fabric.endpoint("dst").subscribe("t/*", lambda k, d: got.append(d))
    pub = fabric.declare_publisher("src", "t/q")

    def publisher():
        for i in range(5):
            yield pub.put(f"m{i}".encode()).accepted

    spawn(loop, publisher())
    loop.run()
    assert got == [b"m0", b"m1", b"m2", b"m3", b"m4"]


def test_unmatched_put_is_dropped_quietly():
    loop = EventLoop()
    fabric = _fabric(loop)
    pub = fabric.declare_publisher("src", "t/silent")
    done = []

    def publisher():
        yield pub.put(b"m").accepted
        done.append(loop.now)

    spawn(loop, publisher())
    loop.run()
    assert done == [0.0]


def test_an_unmatched_stream_ends_on_the_wire_at_its_call():
    loop = EventLoop()
    fabric = _fabric(loop)
    pub = fabric.declare_publisher("src", "t/silent")
    tickets = []

    def publisher():
        yield loop.gate_at(0.25)
        tickets.append(pub.put_all([b"a", b"b"]))

    spawn(loop, publisher())
    loop.run()
    (ticket,) = tickets
    assert ticket.wire_start is None and ticket.wire_end == 0.25


def test_ticket_wire_end_waits_for_wire_idle():
    loop = EventLoop()
    fabric = _fabric(loop, bandwidth=100.0)
    fabric.endpoint("dst").subscribe("t/a", lambda k, d: None)
    pub = fabric.declare_publisher("src", "t/a")
    flushed = []

    def publisher():
        yield pub.put(b"z" * 100).accepted  # 1 s of wire time
        ticket = pub.put(b"z" * 100)
        yield ticket.accepted
        yield loop.gate_at(ticket.wire_end)
        flushed.append(loop.now)

    spawn(loop, publisher())
    loop.run()
    assert flushed == [pytest.approx(2.0)]


def test_subscribe_after_a_put_reaches_the_next_put_only():
    loop = EventLoop()
    fabric = _fabric(loop, bandwidth=100.0)
    got = []
    fabric.endpoint("dst").subscribe("t/*", lambda k, d: got.append(("first", d)))
    pub = fabric.declare_publisher("src", "t/x")
    pub.put(b"queued")  # 0.06 s on the wire
    fabric.endpoint("dst").subscribe("t/x", lambda k, d: got.append(("second", d)))
    pub.put(b"after")
    loop.run()
    assert got == [("first", b"queued"), ("first", b"after"), ("second", b"after")]


def test_connect_after_a_put_routes_the_next_put_over_the_new_route():
    loop = EventLoop()
    fabric = _fabric(loop)
    got = []
    for dst in ("dst", "other"):
        fabric.endpoint(dst).subscribe("t/x", lambda k, d, dst=dst: got.append((dst, d)))
    pub = fabric.declare_publisher("src", "t/x")
    pub.put(b"one")
    fabric.connect("src", "other", SimLink(loop, LinkParams(0.0, 1000.0)))
    pub.put(b"two")
    loop.run()
    assert sorted(got) == [("dst", b"one"), ("dst", b"two"), ("other", b"two")]


def test_a_publisher_matches_its_key_once_while_the_topology_stands(monkeypatch):
    loop = EventLoop()
    fabric = _fabric(loop)
    fabric.endpoint("dst").subscribe("t/*", lambda k, d: None)
    calls = []
    monkeypatch.setattr(transport, "match_key",
                        lambda p, k: calls.append("/".join(p)) or match_key(p, k))
    pub = fabric.declare_publisher("src", "t/x")

    def publisher():
        yield pub.put_all([b"m"] * 20).accepted

    spawn(loop, publisher())
    loop.run()
    assert calls == ["t/*"]


def test_put_to_two_full_queues_is_accepted_when_the_later_one_takes_it():
    loop = EventLoop()
    fabric = _fabric(loop, capacity=1, bandwidth=1000.0)  # 1 s per 1,000 B
    fabric.connect("src", "other", SimLink(loop, LinkParams(0.0, 4000.0)))
    for dst in ("dst", "other"):
        fabric.endpoint(dst).subscribe("t/x", lambda k, d: None)
    pub = fabric.declare_publisher("src", "t/x")
    accepted = []

    def publisher():
        for _ in range(3):
            yield pub.put(b"m" * 1000).accepted
            accepted.append(loop.now)

    spawn(loop, publisher())
    loop.run()
    assert accepted == [0.0, 1.0, 2.0]


# ---------------------------------------------------------------------------
# Streams: send_all and put_all schedule what a loop of send or put does.


def _blocking_run(stream, sizes, latency=0.01, bandwidth=1000.0, timeout=30.0,
                  on_delivery=None):
    """Send messages of ``sizes`` bytes from a to b, as one stream or as a
    loop of one-message streams; returns the deliveries, the outcome (with
    the first wire start and the last ack instant) and the event count."""
    loop = EventLoop()
    a, b = _pair(loop, latency=latency, bandwidth=bandwidth, timeout=timeout)
    got = []

    def deliver(data):
        got.append((loop.now, data))
        if on_delivery is not None:
            on_delivery(len(got), a, b)

    b.on_message(deliver)
    payloads = [bytes([i]) * size for i, size in enumerate(sizes)]
    outcome = []

    def sender():
        try:
            if stream:
                first = ticket = a.send_all(payloads)
                yield ticket.accepted
            else:
                first = None
                for payload in payloads:
                    ticket = a.send_all((payload,))
                    yield ticket.accepted
                    first = first or ticket
            outcome.append((loop.now, (first.wire_start, ticket.ack_at)))
        except (ConnectionClosed, SendTimeout) as exc:
            outcome.append((loop.now, type(exc)))

    spawn(loop, sender())
    executed = loop.run()
    return got, outcome, executed


def test_send_all_delivers_and_resumes_as_a_loop_of_send():
    sizes = [300, 5, 1000, 40, 7]
    got, outcome, executed = _blocking_run(True, sizes)
    loop_got, loop_outcome, loop_executed = _blocking_run(False, sizes)
    assert (got, outcome) == (loop_got, loop_outcome)
    # Each run starts its sender process. A stream of five messages then
    # costs five deliveries and one event at its last ack; a loop of five
    # one-message streams costs two events per message, its delivery and
    # its ack.
    assert (executed, loop_executed) == (1 + 5 + 1, 1 + 2 * 5)
    assert [len(data) for _t, data in got] == sizes
    ((t_resume, (wire_start, ack_at)),) = outcome
    assert wire_start == 0.0
    assert ack_at == t_resume == pytest.approx(sum(sizes) / 1000.0 + 0.02 * len(sizes))


def test_send_all_fails_like_a_loop_of_send_on_a_connection_closed_mid_stream():
    def close_after_second(count, _a, b):
        if count == 2:
            b.close()

    got, outcome, executed = _blocking_run(True, [100] * 5, on_delivery=close_after_second)
    loop_got, loop_outcome, loop_executed = _blocking_run(
        False, [100] * 5, on_delivery=close_after_second)
    assert (got, outcome) == (loop_got, loop_outcome)
    assert len(got) == 2
    # The third message finds the connection closed when the second ack is back.
    assert outcome == [(pytest.approx(2 * 0.12), ConnectionClosed)]
    # The stream: the start, two deliveries (the close withdraws the three
    # messages booked after it) and its failure at the second ack. The loop:
    # the start and two events for each of two messages; its third send
    # fails at the call.
    assert (executed, loop_executed) == (1 + 2 + 1, 1 + 2 * 2)


def test_send_all_times_out_like_a_loop_of_send_and_delivers_nothing_after():
    # 1.0 s and 1.0 s exchanges, then one of 20 s against a 5 s timeout.
    sizes = [100, 100, 2000, 100]
    got, outcome, executed = _blocking_run(True, sizes, latency=0.0, bandwidth=100.0,
                                           timeout=5.0)
    loop_got, loop_outcome, loop_executed = _blocking_run(
        False, sizes, latency=0.0, bandwidth=100.0, timeout=5.0)
    assert (got, outcome) == (loop_got, loop_outcome)
    assert [t for t, _data in got] == [1.0, 2.0]
    assert outcome == [(7.0, SendTimeout)]
    # The stream: the start, two deliveries, and its failure one timeout
    # after the second ack; with no latency that ack is the second
    # delivery's instant, which closes both ends with no event of its own.
    # The loop: the start, one delivery for each of two messages, each of
    # whose ack is its delivery's instant, so that the send succeeds and the
    # sender resumes and sends again inside that delivery, and the failure
    # of the third send, which closes both ends at its call: 1 + 2 + 1.
    assert (executed, loop_executed) == (1 + 2 + 1, 1 + 2 + 1)


@pytest.mark.parametrize("stream", [True, False], ids=["stream", "loop_of_send"])
@pytest.mark.parametrize("sizes,arrivals,last_ack", [
    ([8], [1.25], 0.0), ([4, 8], [0.75, 2.25], 1.0)], ids=["first", "later"])
def test_an_exchange_of_exactly_the_timeout_books_and_one_past_it_times_out(
        sizes, arrivals, last_ack, stream):
    # Dyadic sizes, latency and bandwidth keep every instant exact. The
    # last message's exchange, 1.0 s on the wire and two latencies of
    # 0.25 s, is 1.5 s; a message of 4 bytes before it takes 1.0 s, and its
    # ack is back at ``last_ack``.
    got, outcome, _ = _blocking_run(stream, sizes, latency=0.25, bandwidth=8.0, timeout=1.5)
    assert [t for t, _data in got] == arrivals
    assert outcome == [(last_ack + 1.5, (0.0, last_ack + 1.5))]
    # One ulp less: that message is not booked, both ends close when the
    # ack before it is back (at once for the first) and the gate raises one
    # timeout after that instant.
    timeout = math.nextafter(1.5, 0.0)
    got, outcome, _ = _blocking_run(stream, sizes, latency=0.25, bandwidth=8.0,
                                    timeout=timeout)
    assert [t for t, _data in got] == arrivals[:-1]
    assert outcome == [(last_ack + timeout, SendTimeout)]


def _pubsub_run(stream, payloads, capacity=1, second_route=False, at=None):
    """Publish ``payloads`` on src/t/x, as one put_all or as a loop of puts,
    to "dst" and optionally "other"; ``at`` is (time, action(fabric, log)),
    run mid-stream. Returns the deliveries, the resume time, the first wire
    start and the event count."""
    loop = EventLoop()
    fabric = _fabric(loop, capacity=capacity, bandwidth=1000.0)
    if second_route:
        fabric.connect("src", "other", SimLink(loop, LinkParams(0.0, 4000.0)))
    got = []

    def handler(name):
        return lambda k, d: got.append((loop.now, name, k, d))

    for dst in ("dst", "other"):
        fabric.endpoint(dst).subscribe("t/*", handler(dst))
    if at is not None:
        time, action = at
        loop.schedule(time, partial(action, fabric, handler))
    pub = fabric.declare_publisher("src", "t/x")
    resumed, tickets = [], []

    def publisher():
        if stream:
            tickets.append(pub.put_all(payloads))
            yield tickets[0].accepted
        else:
            for payload in payloads:
                tickets.append(pub.put(payload))
                yield tickets[-1].accepted
        resumed.append(loop.now)

    spawn(loop, publisher())
    executed = loop.run()
    return got, resumed, tickets[0].wire_start, executed


_PAYLOADS = [bytes([i]) * (100 * (i % 3 + 1)) for i in range(8)]


def test_put_all_is_a_loop_of_put_under_capacity_one_backpressure():
    *run, executed = _pubsub_run(True, _PAYLOADS)
    *looped, looped_executed = _pubsub_run(False, _PAYLOADS)
    assert run == looped
    # One event per delivery, plus the publisher's start. The stream adds
    # one event for its accepted gate; the loop adds one for each of the
    # seven puts that waits for the slot.
    assert (executed, looped_executed) == (1 + 8 + 1, 1 + 8 + 7)
    got, resumed, wire_start = run
    assert [d for _t, _dst, _k, d in got] == _PAYLOADS
    assert wire_start == 0.0
    # Accepted when the last message takes the one slot: the one before has
    # left the wire.
    assert resumed == [pytest.approx(sum(len(p) for p in _PAYLOADS[:-1]) / 1000.0)]


def test_put_all_is_a_loop_of_put_across_two_full_queues():
    *run, executed = _pubsub_run(True, _PAYLOADS, second_route=True)
    *looped, looped_executed = _pubsub_run(False, _PAYLOADS, second_route=True)
    assert run == looped
    # As above, with eight deliveries on each route.
    assert (executed, looped_executed) == (1 + 16 + 1, 1 + 16 + 7)
    got, _resumed, _wire_start = run
    assert sorted(d for _t, dst, _k, d in got if dst == "other") == sorted(_PAYLOADS)


@pytest.mark.parametrize("change", ["subscribe", "connect"])
def test_put_all_routes_each_message_as_a_put_would_after_a_change_mid_stream(change):
    # Every message goes where a put at the call of put_all would have sent
    # it: a subscribe or connect mid-stream reaches none of the stream.
    def subscribe(fabric, handler):
        fabric.endpoint("dst").subscribe("t/x", handler("late"))

    def connect(fabric, _handler):
        fabric.connect("src", "other", SimLink(fabric._loop, LinkParams(0.0, 4000.0)))

    at = (0.45, subscribe if change == "subscribe" else connect)
    late = "late" if change == "subscribe" else "other"
    got, _resumed, _wire_start, _executed = _pubsub_run(True, _PAYLOADS, at=at)
    assert [d for _t, dst, _k, d in got] == _PAYLOADS
    # A loop of puts routes each message at its own put, so the change
    # reaches the messages put after it; the stream was routed before it.
    looped, _resumed, _wire_start, _executed = _pubsub_run(False, _PAYLOADS, at=at)
    assert [d for _t, dst, _k, d in looped if dst == late]


# ---------------------------------------------------------------------------
# Booking at the call: a pub/sub stream is booked whole when put_all is
# called, with the instants a chain of wire-end events gave.


class _ChainRoute:
    """A pub/sub route as a chain of wire-end events: it sends its head
    message, and an event at the message's wire end frees its slot, admits
    the first waiting message and sends the next. ``got`` receives (instant,
    payload) at each delivery."""

    def __init__(self, loop, link, capacity, got):
        self.loop, self.link, self.capacity, self.got = loop, link, capacity, got
        self.items, self.putters, self.idle = deque(), deque(), True

    def put(self, payload, resume) -> bool:
        if len(self.items) >= self.capacity:
            self.putters.append((payload, resume))
            return False
        self.items.append(payload)
        if self.idle:
            self.idle = False
            self._send()
        return True

    def _send(self):
        loop = self.loop
        while self.items:
            payload = self.items[0]
            tx = self.link.transmit(len(payload), loop.now)
            loop.schedule_at(tx.arrival, lambda p=payload: self.got.append((loop.now, p)))
            if tx.wire_end > loop.now:
                loop.schedule_at(tx.wire_end, self._sent)
                return
            self._free()
        self.idle = True

    def _sent(self):
        self._free()
        self._send()

    def _free(self):
        self.items.popleft()
        if self.putters:
            payload, resume = self.putters.popleft()
            self.items.append(payload)
            resume()


def _chain_put_all(route, payloads, accepted):
    """Offer ``payloads`` to ``route`` one at a time, each once the one
    before is taken; ``accepted`` is set when the last is taken."""
    rest = iter(payloads)

    def offer():
        for payload in rest:
            if not route.put(payload, offer):
                return
        accepted.set(None)

    offer()


def _streams(rng):
    """Random streams: (pause before the put, payload sizes)."""
    return [(rng.randrange(2) * 0.05 * rng.uniform(),
             [1 + rng.randrange(300) for _ in range(1 + rng.randrange(40))])
            for _ in range(1 + rng.randrange(5))]


def _run_streams(streams, params, capacity, chain):
    """Publish ``streams`` from one process, each when the one before is
    accepted and its pause is over; returns the deliveries (instant and
    payload) and, per stream, its accepted instant."""
    loop = EventLoop()
    link = SimLink(loop, params)
    got, accepted_at = [], []
    if chain:
        route = _ChainRoute(loop, link, capacity, got)
    else:
        fabric = PubSubFabric(loop, queue_capacity=capacity)
        fabric.connect("src", "dst", link)
        fabric.endpoint("dst").subscribe("t/x", lambda _k, d: got.append((loop.now, d)))
        pub = fabric.declare_publisher("src", "t/x")

    def publisher():
        for n, (pause, sizes) in enumerate(streams):
            if pause:
                yield loop.gate_at(loop.now + pause)
            payloads = [bytes([n]) * size for size in sizes]
            if chain:
                accepted = Gate()
                _chain_put_all(route, payloads, accepted)
            else:
                accepted = pub.put_all(payloads).accepted
            yield accepted
            accepted_at.append(loop.now)

    spawn(loop, publisher())
    loop.run()
    return got, accepted_at


@pytest.mark.parametrize("capacity", [1, 2, 4])
def test_stream_instants_are_those_of_a_chain_of_wire_end_events(capacity):
    # Bandwidths and latencies whose quotients do not round evenly: the
    # closed form and the chain of events must compute each instant with the
    # same float operations, in the same order, to agree exactly.
    rng = Prng(2020 + capacity)
    for case in range(40):
        params = LinkParams((0.0, 0.013, 1 / 3)[rng.randrange(3)],
                            (18432.0, 1000 / 3, 7.0e5)[rng.randrange(3)])
        streams = _streams(rng)
        booked = _run_streams(streams, params, capacity, chain=False)
        assert booked == _run_streams(streams, params, capacity, chain=True), case
        instants = [t for t, _data in booked[0]]
        assert instants == sorted(instants)
        assert len(instants) == sum(len(sizes) for _pause, sizes in streams)


def test_a_put_during_a_stream_queues_behind_the_whole_stream():
    # Capacity 1 and 0.1 s of wire time per message. A put by a second
    # publisher at 0.15 s, while the stream's third message waits for the
    # slot, goes after the stream's last message, not after its third.
    loop = EventLoop()
    fabric = _fabric(loop, capacity=1, bandwidth=1000.0)
    got = []
    fabric.endpoint("dst").subscribe("t/*", lambda k, d: got.append((loop.now, k, d)))
    stream = fabric.declare_publisher("src", "t/a").put_all(
        [bytes([i]) * 100 for i in range(4)])
    late = []

    def second_publisher():
        yield loop.gate_at(loop.now + 0.15)
        ticket = fabric.declare_publisher("src", "t/b").put(b"b" * 100)
        yield ticket.accepted
        late.append((loop.now, ticket.wire_start))

    spawn(loop, second_publisher())
    loop.run()
    assert [k for _t, k, _d in got] == ["t/a"] * 4 + ["t/b"]
    assert [t for t, _k, _d in got] == pytest.approx([0.1, 0.2, 0.3, 0.4, 0.5])
    assert stream.accepted.is_set
    # Admitted when the stream's last message has left the wire.
    assert late == [pytest.approx((0.4, 0.4))]


def test_a_huge_queue_capacity_allocates_nothing_per_place():
    # ``queue_capacity`` has no upper bound, so a huge one models an
    # unbounded queue: a route keeps the free instants of the messages it
    # has queued, not one per place, and admits a whole stream at the call.
    def run(capacity):
        loop = EventLoop()
        fabric = _fabric(loop, capacity=capacity, latency=0.05)
        got = []
        fabric.endpoint("dst").subscribe("t/x", lambda _k, d: got.append((loop.now, d)))
        ticket = fabric.declare_publisher("src", "t/x").put_all(
            [bytes([i]) * 100 for i in range(50)])
        accepted_at_call = ticket.accepted.is_set
        flushed = loop.gate_at(ticket.wire_end)
        loop.run()
        return got, accepted_at_call, ticket.wire_start, flushed.is_set, loop.now

    tracemalloc.start()
    try:
        huge = run(sys.maxsize)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert huge == run(50)
    got, accepted_at_call, wire_start, flushed, _end = huge
    assert len(got) == 50 and accepted_at_call and wire_start == 0.0 and flushed


def test_a_stream_keeps_one_pending_delivery_per_link():
    # A far-edge upload of 100 KiB in 64 B chunks: 1,601 messages, all
    # booked at the call, to two routes. Each link keeps one delivery event
    # in the loop's heap, not one per message.
    loop = EventLoop()
    fabric = _fabric(loop, capacity=4, latency=0.05, bandwidth=18432.0)
    fabric.connect("src", "other", SimLink(loop, LinkParams(0.05, 18432.0)))

    def pending():
        links = Counter(handle.action.__self__ for _t, _seq, handle in loop._heap
                        if getattr(handle.action, "__func__", None) is SimLink._arrive)
        return len(loop._heap), max(links.values(), default=0)

    seen = []
    for dst in ("dst", "other"):
        fabric.endpoint(dst).subscribe("t/x", lambda k, d: seen.append(pending()))
    ticket = fabric.declare_publisher("src", "t/x").put_all([b"m" * 64] * 1601)
    # One delivery per link, and the stream's accepted event.
    assert pending() == (3, 1)
    loop.run()
    assert ticket.accepted.is_set and len(seen) == 2 * 1601
    assert max(per_link for _heap, per_link in seen) == 1
    assert max(heap for heap, _per_link in seen) <= 3


# ---------------------------------------------------------------------------
# Booking a blocking stream at the call: the instants of a chain of ack
# events, with one event per message.


class _ChainSession(SessionEndpoint):
    """The blocking session as a chain of ack events: each message is booked
    when the ack event of the one before fires, and its own ack event books
    the next. A close or a timeout is seen by the next ack event."""

    def send_all(self, payloads):
        ticket = StreamTicket(Gate())
        self._send_next(ticket, iter(payloads), None)
        return ticket

    def _send_next(self, ticket, payloads, ack_at):
        payload = next(payloads, None)
        if payload is None:
            ticket.ack_at = ack_at
            ticket.accepted.set(None)
        elif self.closed or self.peer is None or self.peer.closed:
            ticket.accepted.set(ConnectionClosed(f"{self.name}: send on closed connection"))
        else:
            self._book(ticket, payload, payloads)

    def _book(self, ticket, payload, payloads):
        loop = self._loop
        tx = self._out_link.transmit(len(payload), loop.now)
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


def _session_case(rng, replies=True):
    """A random stream from a to b: its link, the b -> a link, the sizes of
    its 1-50 messages of 1-5,000 bytes, a timeout that passes, trips on the
    first message or trips on a later one, and 0-3 one-message sends from b
    at random instants (instant, size)."""

    def params():  # latency 0 one time in four; bandwidth 50 B/s to 1 GB/s
        latency = 0.0 if rng.randrange(4) == 0 else 0.5 * rng.uniform()
        return LinkParams(latency, 50.0 * (2e7 ** rng.uniform()))

    forward, back = params(), params()
    sizes = [1 + rng.randrange(5000) for _ in range(1 + rng.randrange(50))]
    exchanges = [size / forward.bandwidth + 2 * forward.latency for size in sizes]
    kind = rng.randrange(3)
    timeout = 1e9
    if kind == 1:
        timeout = exchanges[0] * rng.uniform()
    elif kind == 2:
        trips = [k for k in range(1, len(sizes))
                 if exchanges[k] > 1.001 * max(exchanges[:k])]
        if trips:
            k = trips[rng.randrange(len(trips))]
            timeout = (max(exchanges[:k]) + exchanges[k]) / 2
    span = sum(exchanges)
    sends = [(span * rng.uniform(), 1 + rng.randrange(5000))
             for _ in range(rng.randrange(4) if replies else 0)]
    return forward, back, sizes, timeout, sends


def _run_session(case, endpoint, close=None, loop=None):
    """Run ``case`` with ``endpoint`` sessions; ``close`` is (instant, "a"
    or "b"), whose event is scheduled first. Returns the deliveries at each
    end (instant, bytes), each stream's outcome (label, instant, error
    type, wire start, ack instant), sorted, and the instant the loop
    drained at."""
    forward, back, sizes, timeout, sends = case
    loop = EventLoop() if loop is None else loop
    a, b = session_pair(loop, SimLink(loop, forward), SimLink(loop, back),
                        timeout=timeout, endpoint=endpoint)
    got = {"a": [], "b": []}
    a.on_message(lambda data: got["a"].append((loop.now, data)))
    b.on_message(lambda data: got["b"].append((loop.now, data)))
    if close is not None:
        loop.schedule_at(close[0], {"a": a, "b": b}[close[1]].close)
    outcomes = []

    def watch(label, ticket):
        ticket.accepted.add_waiter(lambda value: outcomes.append(
            (label, loop.now, None if value is None else type(value).__name__,
             ticket.wire_start, ticket.ack_at)))

    for n, (at, size) in enumerate(sends):
        loop.schedule_at(at, lambda n=n, size=size: watch(
            f"send {n}", b.send_all((bytes([n]) * size,))))
    watch("stream", a.send_all([bytes([k % 256]) * size for k, size in enumerate(sizes)]))
    loop.run()
    return got, sorted(outcomes, key=repr), loop.now


def _close_instants(rng, case):
    """A close for ``case``: none, at a random instant, at an arrival
    instant or at an ack instant of its stream in a run with no close, by
    either end."""
    got, _outcomes, end = _run_session(case, _ChainSession)
    latency = case[0].latency
    arrivals = [t for t, _data in got["b"]]
    where = rng.randrange(4)
    closer = "ab"[rng.randrange(2)]
    if where == 0 or not arrivals:
        return None
    if where == 1:
        return end * rng.uniform(), closer
    k = rng.randrange(len(arrivals))
    return (arrivals[k] if where == 2 else arrivals[k] + latency), closer


def test_session_stream_is_a_chain_of_ack_events_instant_for_instant():
    # The stream is booked whole at the call, with the instants a chain of
    # ack events gives: every delivery (instant and bytes) at both ends,
    # each ticket's wire start and ack instant, each outcome's type and
    # instant, and the instant the loop drains at (so nothing is delivered
    # after a close), with a close of either end at a random instant, an
    # arrival or an ack, by an event that comes first at its instant.
    rng = Prng(3131)
    seen = Counter()
    for case_no in range(400):
        case = _session_case(rng)
        close = _close_instants(rng, case)
        chain = _run_session(case, _ChainSession, close)
        assert _run_session(case, SessionEndpoint, close) == chain, case_no
        (stream,) = [o for o in chain[1] if o[0] == "stream"]
        seen[stream[2], stream[3] is None, close is not None] += 1
        seen["send timed out"] += any(o[2] == "SendTimeout" for o in chain[1] if o[0] != "stream")
    # Each path ran: successes with and without a close, timeouts on the
    # first message (no wire start) and on a later one, closes mid-stream,
    # and timeouts of the one-message sends, which close both ends.
    assert min(seen[None, False, False], seen[None, False, True],
               seen["SendTimeout", True, False], seen["SendTimeout", False, False],
               seen["ConnectionClosed", False, True], seen["send timed out"]) >= 5, seen


def test_a_close_at_an_ack_instant_fails_the_stream_there_in_any_event_order():
    # The same-instant rule: a close at the instant of an ack counts as
    # before it, in whatever order their events fire. The stream fails at
    # that ack, unless it is the last; the message the ack would book is
    # never sent; a stream that times out at that instant fails as closed.
    # That is what the chain of ack events does when the close fires first.
    # A delivery to the closed end at the instant of the close may be made
    # or dropped, by the order of the two events, and is not compared.
    rng = Prng(4242)
    seen = Counter()
    for case_no in range(150):
        case = _session_case(rng, replies=False)
        got, ((*_, unclosed, _wire_start, _ack_at),), _end = _run_session(case, _ChainSession)
        arrivals = [t for t, _data in got["b"]]
        if not arrivals:
            continue
        # The last ack (a success, or the instant of a timeout) one time in
        # four.
        k = len(arrivals) - 1 if rng.randrange(4) == 0 else rng.randrange(len(arrivals))
        closer = "ab"[rng.randrange(2)]
        instant = arrivals[k] + case[0].latency
        if closer == "a" and rng.randrange(2):
            instant = arrivals[k]  # the sender's close at an arrival
        expected = _run_session(case, _ChainSession, (instant, closer))
        seen[unclosed, expected[1][0][2]] += 1

        def shown(run):
            got, outcomes, end = run
            closed = got[closer]
            return ({**got, closer: [d for d in closed if d[0] != instant]}, outcomes, end)

        for seed in range(4):
            shuffled = _run_session(case, SessionEndpoint, (instant, closer),
                                    loop=ShuffledTies(seed))
            assert shown(shuffled) == shown(expected), (case_no, seed)
    # Closes that fail a stream that would succeed, that leave it to succeed
    # and that fail one that would time out.
    assert min(seen[None, "ConnectionClosed"], seen[None, None],
               seen["SendTimeout", "ConnectionClosed"]) >= 5, seen


def test_a_second_stream_on_an_end_still_booking_raises():
    loop = EventLoop()
    a, b = _pair(loop, latency=0.01, bandwidth=1000.0)
    first = a.send_all([b"x" * 100] * 3)  # booked at 0, 0.12 and 0.24
    with pytest.raises(RuntimeError):
        a.send_all([b"y"] * 2)
    with pytest.raises(RuntimeError):
        a.send(b"y")
    late = []

    def later():
        yield loop.gate_at(loop.now + 0.24)  # the stream's last booking: still raises
        with pytest.raises(RuntimeError):
            a.send(b"y")
        yield loop.gate_at(loop.now + 0.01)
        late.append(a.send_all([b"z"] * 2))
        b.send(b"w")  # the other end has its own link

    spawn(loop, later())
    loop.run()
    assert first.accepted.is_set and first.accepted.value is None
    assert late[0].accepted.is_set and late[0].accepted.value is None


def test_a_one_message_send_books_at_its_call_and_interleaves():
    # The edge sends one-message results, each at its call: two sends 0.05 s
    # apart share the link, the second on the wire when the first is off.
    loop = EventLoop()
    a, b = _pair(loop, latency=0.01, bandwidth=1000.0)
    got = []
    b.on_message(lambda data: got.append((loop.now, data)))
    first = a.send_all((b"1" * 100,))
    second = []
    loop.schedule(0.05, lambda: second.append(a.send_all((b"2" * 100,))))
    loop.run()
    assert got == [(pytest.approx(0.11), b"1" * 100), (pytest.approx(0.21), b"2" * 100)]
    assert first.ack_at == pytest.approx(0.12) and second[0].ack_at == pytest.approx(0.22)
    assert second[0].wire_start == pytest.approx(0.1)


def test_a_blocking_stream_keeps_one_pending_delivery_and_frees_itself():
    # A far-edge upload of 100 KiB in 64 B chunks. The call books message 0
    # only, so the heap holds the link's one delivery event. Each delivery
    # pops that event, hands its message to the receiver with the heap
    # empty (0 when the handler runs), and then pushes one event: the next
    # message's delivery, or after the last message the stream's end at its
    # ack. The heap so never holds more than 1 event, within the bound of 2
    # that a stream booked whole with its success event kept. The stream
    # is freed by reference counting once the ends are closed.
    sizes = []

    class Watched(EventLoop):
        def schedule_at(self, fire_at, action):
            handle = super().schedule_at(fire_at, action)
            sizes.append(len(self._heap))
            return handle

    loop = Watched()
    a, b = _pair(loop, latency=0.05, bandwidth=18432.0)
    seen = []
    b.on_message(lambda data: seen.append(len(loop._heap)))
    ticket = a.send_all([b"m" * 64] * 1601)
    assert len(loop._heap) == 1
    loop.run()
    assert seen == [0] * 1601
    assert len(sizes) == 1601 + 1 and max(sizes) == 1
    assert ticket.ack_at == loop.now and ticket.accepted.value is None
    stream = a._stream
    a.close()
    b.close()
    assert sys.getrefcount(stream) == 2  # this name and the call's argument


def test_a_blocking_stream_holds_no_message_it_has_delivered():
    # The link holds at most one message of the stream at any booking, and
    # once a message is delivered neither the stream nor the link refers to
    # it, nor to the list it came in: at the delivery of message k, message
    # k-1 is referred to by the test's own list and the argument of
    # getrefcount only, and after the run every message is, while the
    # stream is still alive. The list passed to send_all is a copy that
    # only the call refers to.
    held = []

    class Watched(SimLink):
        def deliver(self, key, payload, handler, at):
            tx = super().deliver(key, payload, handler, at)
            held.append(len(self._payloads))
            return tx

    loop = EventLoop()
    a, b = session_pair(loop, Watched(loop, LinkParams(0.05, 18432.0)),
                        Watched(loop, LinkParams(0.05, 18432.0)))
    payloads = [k.to_bytes(2, "big") * 32 for k in range(1601)]
    counts = []

    def received(data):
        k = len(counts)
        assert data is payloads[k]
        counts.append(sys.getrefcount(payloads[k - 1]) if k else 2)

    b.on_message(received)
    ticket = a.send_all(list(payloads))
    loop.run()
    assert ticket.accepted.value is None and a._stream is not None
    assert len(held) == 1601 and max(held) == 1
    assert counts == [2] * 1601
    assert [sys.getrefcount(payloads[k]) for k in range(1601)] == [2] * 1601
