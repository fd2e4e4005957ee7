import itertools
import re

import pytest

from continuumsim.domain import LinkParams
from continuumsim.netsim import (
    EventLoop,
    Gate,
    NegativeDelay,
    SimCore,
    SimLink,
    spawn,
)
from continuumsim.workload import Prng


def test_schedule_fires_at_now_plus_delay():
    loop = EventLoop()
    seen = []
    loop.schedule(5.0, lambda: seen.append(loop.now))
    loop.run()
    assert seen == [5.0]
    assert loop.now == 5.0


def test_equal_fire_times_run_in_scheduling_order():
    loop = EventLoop()
    seen = []
    loop.schedule(1.0, lambda: seen.append("a"))
    loop.schedule(1.0, lambda: seen.append("b"))
    loop.schedule(0.5, lambda: seen.append("c"))
    loop.run()
    assert seen == ["c", "a", "b"]


def test_same_instant_events_with_cancellations_fire_in_fire_at_seq_order():
    loop = EventLoop()
    rng = Prng(31)
    seq_no = itertools.count()
    live = set()  # (fire_at, seq_no) of every event scheduled and not cancelled
    handles = []
    fired = []

    def schedule(delay):
        key = (loop.now + delay, next(seq_no))

        def fire():
            fired.append(key)
            if rng.uniform() < 0.2:  # same-instant follow-up, scheduled while running
                schedule(0.0)

        handles.append((key, loop.schedule(delay, fire)))
        live.add(key)

    for _ in range(600):
        schedule((0.0, 1.0, 1.0, 2.5)[rng.randrange(4)])
        if rng.uniform() < 0.3:
            key, handle = handles[rng.randrange(len(handles))]
            handle.cancel()
            live.discard(key)

    def cancel_last_live_unfired():
        key, handle = next((k, h) for k, h in reversed(handles)
                           if k in live and k not in fired)
        handle.cancel()
        live.remove(key)

    # Mid-run: every event at 1.0 has fired and none at 2.5 has.
    loop.schedule(1.5, cancel_last_live_unfired)
    loop.run()
    assert fired == sorted(live)
    assert len(fired) > 300


def test_negative_delay_rejected():
    loop = EventLoop()
    with pytest.raises(NegativeDelay):
        loop.schedule(-0.1, lambda: None)
    loop.schedule(2.5, lambda: None)
    loop.run()
    with pytest.raises(NegativeDelay):
        loop.schedule_at(2.4, lambda: None)
    fired = []
    loop.schedule_at(2.5, lambda: fired.append(loop.now))
    loop.run()
    assert fired == [2.5]


class InstantLog(EventLoop):
    """Records the instant of each event it schedules. It overrides only
    ``schedule_at``."""

    def __init__(self):
        super().__init__()
        self.instants = []

    def schedule_at(self, fire_at, action):
        self.instants.append(fire_at)
        return super().schedule_at(fire_at, action)


def test_every_event_enters_the_queue_through_schedule_at():
    loop = InstantLog()
    core = SimCore(loop)
    link = SimLink(loop, LinkParams(latency=0.5, bandwidth=4.0))
    got = []

    def proc():  # its start is an event at 0.0
        yield loop.gate_at(loop.now + 1.0)
        yield core.execute(2.0)
        yield loop.gate_at(3.25)
        # 2 bytes at 4 B/s leave the wire at 3.75 and arrive at 4.25.
        link.deliver("k", b"ab", lambda _k, payload: got.append((loop.now, payload)),
                     loop.now)

    spawn(loop, proc())
    loop.schedule(0.125, lambda: None)
    loop.run()
    assert loop.instants == [0.0, 0.125, 1.0, 3.0, 3.25, 4.25]
    assert loop.executed == len(loop.instants)
    assert got == [(4.25, b"ab")]


@pytest.mark.parametrize("value", [1.0, None])
def test_a_process_that_yields_anything_but_a_gate_raises(value):
    loop = InstantLog()
    loop.schedule(2.0, lambda: None)
    loop.run()

    def proc():
        yield value

    spawn(loop, proc())
    assert loop.instants == [2.0, 2.0]  # the process starts by one event, at now
    with pytest.raises(TypeError, match=f"yielded {re.escape(repr(value))}$"):
        loop.run()


def test_zero_delay_chain_of_a_million_events():
    loop = EventLoop()
    remaining = [1_000_000]

    def tick():
        remaining[0] -= 1
        if remaining[0] > 0:
            loop.schedule(0.0, tick)

    loop.schedule(0.0, tick)
    executed = loop.run()
    assert executed == 1_000_000
    assert loop.now == 0.0


def test_cancelled_event_does_not_run_or_advance_clock():
    loop = EventLoop()
    fired = []
    handle = loop.schedule(9.0, lambda: fired.append("no"))
    loop.schedule(1.0, lambda: fired.append("yes"))
    handle.cancel()
    loop.run()
    assert fired == ["yes"]
    assert loop.now == 1.0


def test_link_transmit_arithmetic():
    loop = EventLoop()
    link = SimLink(loop, LinkParams(latency=0.010, bandwidth=1048576))
    tx = link.transmit(102400, loop.now)
    assert tx.arrival == pytest.approx(0.10765625, abs=1e-12)


def test_link_serializes_back_to_back_sends():
    loop = EventLoop()
    link = SimLink(loop, LinkParams(latency=0.0, bandwidth=1024))
    first = link.transmit(1024, loop.now)
    second = link.transmit(1024, loop.now)
    assert first.wire_end == pytest.approx(1.0)
    assert second.wire_start == pytest.approx(1.0)
    assert second.wire_end == pytest.approx(2.0)


def test_link_delivers_every_booking_in_order_at_its_instant():
    # Batches of bookings with one key and handler, keys that are equal but
    # not the same object, pauses that let the link's deliveries run out or
    # not, and bookings made from inside a delivery.
    loop = EventLoop()
    link = SimLink(loop, LinkParams(latency=0.013, bandwidth=18432.0))
    rng = Prng(41)
    got, want = [], []
    serial = itertools.count()

    def book(name, key, n):
        for _ in range(n):
            payload = next(serial).to_bytes(4, "big") * (1 + rng.randrange(8))
            at = loop.now
            tx = link.deliver(key, payload, handlers[name], at)
            want.append((name, max(at, tx.arrival), key, payload))

    def a(key, payload):
        got.append(("a", loop.now, key, payload))

    def b(key, payload):
        got.append(("b", loop.now, key, payload))
        if payload[3] % 5 == 0:
            book("a", key, 1 + rng.randrange(3))

    handlers = {"a": a, "b": b}

    def publisher():
        for _ in range(30):
            key = "".join(("k", "01"[rng.randrange(2)]))
            for _ in range(1 + rng.randrange(3)):
                book("ab"[rng.randrange(2)], key, 1 + rng.randrange(600))
            yield loop.gate_at(loop.now + rng.randrange(3) * rng.uniform() * 5.0)

    spawn(loop, publisher())
    loop.run()
    assert len(got) == len(want) > 5000
    assert got == want


def test_link_arrival_is_the_instant_transmit_books_and_books_nothing():
    loop = EventLoop()
    link = SimLink(loop, LinkParams(latency=1 / 3, bandwidth=1000 / 3))
    rng = Prng(12)
    for _ in range(200):
        nbytes, at = 1 + rng.randrange(5000), loop.now + 10 * rng.uniform()
        arrival = link.arrival(nbytes, at)
        busy = (link.busy_until, link.busy_time, link.bytes_sent)
        assert (link.busy_until, link.busy_time, link.bytes_sent) == busy
        assert link.transmit(nbytes, at).arrival == arrival


def test_link_withdraws_the_last_deliveries_booked():
    # A withdraw takes back the last delivery booked, b3, here from inside
    # the delivery of b1.
    loop = EventLoop()
    link = SimLink(loop, LinkParams(latency=0.5, bandwidth=100.0))
    got = []

    def take(key, payload):
        got.append((loop.now, key, payload))
        if payload == b"b1":
            link.withdraw()

    for key, payload in ((None, b"a0"), ("b", b"b0"), ("b", b"b1"), ("b", b"b2"),
                         ("b", b"b3")):
        link.deliver(key, payload, take, loop.now)
    loop.run()
    # 0.02 s of wire each, one after the other, and 0.5 s of latency.
    assert got == [(pytest.approx(0.52), None, b"a0"), (pytest.approx(0.54), "b", b"b0"),
                   (pytest.approx(0.56), "b", b"b1"), (pytest.approx(0.58), "b", b"b2")]
    # The wire stays booked for all five, and the link has no event left.
    end = loop.now
    assert end == got[-1][0] and link.busy_until == pytest.approx(0.1)
    link.deliver("c", b"c0", take, end)
    link.withdraw()  # the only delivery left: the head's event is cancelled
    assert loop.run() == 0 and loop.now == end
    link.deliver("c", b"c1", take, 6.0)
    loop.run()
    assert got[4:] == [(pytest.approx(6.52), "c", b"c1")]


def test_link_busy_time_conservation_under_random_interleave():
    loop = EventLoop()
    link = SimLink(loop, LinkParams(latency=0.013, bandwidth=18432.0))
    rng = Prng(31)
    total = 0
    for _ in range(47 * 11):
        nbytes = 1 + rng.randrange(1500)
        total += nbytes
        link.transmit(nbytes, loop.now)
    assert link.busy_time == pytest.approx(total / 18432.0, rel=1e-9)
    assert link.bytes_sent == total


def _record_busy_intervals(loop, core):
    """Record each task ``core`` runs as ``(start, end)``: ``start`` is the
    first free instant at the call and ``end`` the instant its gate fires
    with. Zero-duration tasks record nothing."""
    intervals = []
    execute = core.execute

    def recorded(duration):
        start = max(loop.now, core.free_at)
        gate = execute(duration)
        if duration > 0.0:
            gate.add_waiter(lambda end: intervals.append((start, end)))
        return gate

    core.execute = recorded
    return intervals


def test_core_execute_records_busy_interval():
    loop = EventLoop()
    core = SimCore(loop)
    intervals = _record_busy_intervals(loop, core)
    done = []
    core.execute(4.45).add_waiter(lambda end: done.append(end))
    loop.run()
    assert done == [4.45]
    assert intervals == [(0.0, 4.45)]
    assert core.busy_time == 4.45


def test_core_zero_duration_completes_immediately():
    loop = EventLoop()
    core = SimCore(loop)
    intervals = _record_busy_intervals(loop, core)
    done = []
    core.execute(0.0).add_waiter(lambda end: done.append(end))
    assert done == [0.0]
    assert intervals == []
    assert core.busy_time == 0.0 and core.free_at == 0.0


def test_core_runs_one_task_at_a_time():
    loop = EventLoop()
    core = SimCore(loop)
    ends = []
    core.execute(1.0).add_waiter(lambda end: ends.append(end))
    core.execute(1.0).add_waiter(lambda end: ends.append(end))
    loop.run()
    assert ends == [1.0, 2.0]


def test_core_busy_intervals_never_overlap():
    loop = EventLoop()
    core = SimCore(loop)
    intervals = _record_busy_intervals(loop, core)
    rng = Prng(8)

    def proc():
        for _ in range(40):
            yield loop.gate_at(loop.now + rng.uniform() * 0.3)
            yield core.execute(rng.uniform())

    spawn(loop, proc())
    loop.run()
    assert len(intervals) == 40
    assert all(a_end <= b_start for (_, a_end), (b_start, _) in
               zip(intervals, intervals[1:]))
    assert core.busy_time == pytest.approx(
        sum(end - start for start, end in intervals), rel=1e-12)


def test_core_book_of_zero_duration_returns_at_and_books_nothing():
    loop = EventLoop()
    core = SimCore(loop)
    assert core.book(0.0, 3.5) == 3.5
    assert core.free_at == 0.0 and core.busy_time == 0.0
    assert core.book(2.0, 0.0) == 2.0
    # Behind a busy core too: a zero-duration task waits for nothing.
    assert core.book(0.0, 1.0) == 1.0
    assert core.free_at == 2.0 and core.busy_time == 2.0
    assert loop._heap == []


def test_core_book_starts_at_the_later_of_at_and_the_first_free_instant():
    loop = EventLoop()
    core = SimCore(loop)
    assert core.book(1.0, 0.0) == 1.0
    assert core.book(1.0, 3.0) == 4.0  # a future ``at`` behind a busy core
    assert core.book(1.0, 0.5) == 5.0  # an earlier ``at`` waits for the core
    assert core.free_at == 5.0 and core.busy_time == 3.0
    assert loop._heap == [] and loop.run() == 0 and loop.now == 0.0


def test_core_execute_fires_at_its_booking_from_now():
    """``execute(d)`` fires at ``book(d, now)`` of a twin core given the
    same tasks at the same instants, with that instant as its value."""
    loop = EventLoop()
    core, twin = SimCore(loop), SimCore(loop)
    rng = Prng(24)
    fired = []

    def proc():
        for _ in range(60):
            yield loop.gate_at(loop.now + rng.uniform() * 0.3)
            duration = 0.0 if rng.uniform() < 0.3 else rng.uniform()
            booked = twin.book(duration, loop.now)
            gate = core.execute(duration)
            gate.add_waiter(lambda end, booked=booked: fired.append((loop.now, end, booked)))
            if rng.uniform() < 0.5:
                yield gate

    spawn(loop, proc())
    loop.run()
    assert len(fired) == 60
    assert all(now == end == booked for now, end, booked in fired)
    assert (core.free_at, core.busy_time) == (twin.free_at, twin.busy_time)


def test_clock_is_monotonic_over_random_event_storm():
    loop = EventLoop()
    rng = Prng(77)
    stamps = []

    def note():
        stamps.append(loop.now)
        if len(stamps) < 500:
            loop.schedule(rng.uniform() * 0.01, note)

    loop.schedule(0.0, note)
    loop.run()
    assert stamps == sorted(stamps)


def test_gate_resumes_waiters_in_wait_order():
    gate = Gate()
    seen = []
    gate.add_waiter(lambda v: seen.append(("first", v)))
    gate.add_waiter(lambda v: seen.append(("second", v)))
    gate.set(42)
    assert seen == [("first", 42), ("second", 42)]
    late = []
    gate.add_waiter(lambda v: late.append(v))
    assert late == [42]


def test_deterministic_replay_same_event_count():
    def storm():
        loop = EventLoop()
        rng = Prng(123)
        core = SimCore(loop)
        link = SimLink(loop, LinkParams(0.001, 10000.0))

        def proc():
            for _ in range(200):
                yield loop.gate_at(loop.now + rng.uniform() * 0.01)
                yield core.execute(rng.uniform() * 0.02)
                link.transmit(1 + rng.randrange(900), loop.now)

        spawn(loop, proc())
        loop.run()
        return loop.now, loop.executed, link.busy_time

    assert storm() == storm()


def test_process_continues_in_place_through_gates_already_set():
    # Each set gate used to cost a nested call through ``add_waiter``: 10,000
    # of them in a row overflowed the stack.
    loop = EventLoop()
    gates = []
    for i in range(10_000):
        gate = Gate()
        gate.set(i)
        gates.append(gate)
    seen = []

    def proc():
        for gate in gates:
            seen.append((yield gate))
        yield loop.gate_at(loop.now + 1.5)
        seen.append(loop.now)

    spawn(loop, proc())
    loop.run()
    assert seen == list(range(10_000)) + [1.5]

