import itertools

import pytest

from continuumsim.domain import LinkParams
from continuumsim.netsim import (
    BoundedQueue,
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
    loop.run_until(1.0)
    # Between the two runs, cancel the last event that is live and unfired.
    key, handle = next((k, h) for k, h in reversed(handles) if k in live and k not in fired)
    handle.cancel()
    live.remove(key)
    loop.run()
    assert fired == sorted(live)
    assert len(fired) > 300


def test_negative_delay_rejected():
    loop = EventLoop()
    with pytest.raises(NegativeDelay):
        loop.schedule(-0.1, lambda: None)


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


def test_run_until_boundaries():
    loop = EventLoop()
    assert loop.run_until(loop.now) == 0
    fired = []
    loop.schedule(1.0, lambda: fired.append(1))
    loop.schedule(3.0, lambda: fired.append(3))
    assert loop.run_until(2.0) == 1
    assert loop.now == 2.0
    assert loop.run_until(10.0) == 1
    assert fired == [1, 3]


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
    tx = link.transmit(102400)
    assert tx.arrival == pytest.approx(0.10765625, abs=1e-12)


def test_link_serializes_back_to_back_sends():
    loop = EventLoop()
    link = SimLink(loop, LinkParams(latency=0.0, bandwidth=1024))
    first = link.transmit(1024)
    second = link.transmit(1024)
    assert first.wire_end == pytest.approx(1.0)
    assert second.wire_start == pytest.approx(1.0)
    assert second.wire_end == pytest.approx(2.0)


def test_link_busy_time_conservation_under_random_interleave():
    loop = EventLoop()
    link = SimLink(loop, LinkParams(latency=0.013, bandwidth=18432.0))
    rng = Prng(31)
    total = 0
    for _ in range(47 * 11):
        nbytes = 1 + rng.randrange(1500)
        total += nbytes
        link.transmit(nbytes)
    assert link.busy_time == pytest.approx(total / 18432.0, rel=1e-9)
    assert link.bytes_sent == total


def test_core_execute_records_busy_interval():
    loop = EventLoop()
    core = SimCore(loop, 0)
    done = []
    core.execute(4.45).add_waiter(lambda end: done.append(end))
    loop.run()
    assert done == [4.45]
    assert core.busy_intervals == [(0.0, 4.45)]


def test_core_zero_duration_completes_immediately():
    loop = EventLoop()
    core = SimCore(loop, 0)
    done = []
    core.execute(0.0).add_waiter(lambda end: done.append(end))
    assert done == [0.0]
    assert core.busy_intervals == []


def test_core_runs_one_task_at_a_time():
    loop = EventLoop()
    core = SimCore(loop, 0)
    ends = []
    core.execute(1.0).add_waiter(lambda end: ends.append(end))
    core.execute(1.0).add_waiter(lambda end: ends.append(end))
    loop.run()
    assert ends == [1.0, 2.0]


def test_core_busy_intervals_never_overlap():
    loop = EventLoop()
    core = SimCore(loop, 1)
    rng = Prng(8)

    def proc():
        for _ in range(40):
            yield rng.uniform() * 0.3
            yield core.execute(rng.uniform())

    spawn(loop, proc())
    loop.run()
    intervals = core.busy_intervals
    assert all(a_end <= b_start for (_, a_end), (b_start, _) in
               zip(intervals, intervals[1:]))
    assert core.busy_time == pytest.approx(
        sum(end - start for start, end in intervals), rel=1e-12)


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


def test_bounded_queue_blocks_producer_at_capacity():
    loop = EventLoop()
    queue = BoundedQueue(loop, capacity=2)
    progress = []

    def producer():
        for i in range(4):
            yield queue.put(i)
            progress.append((loop.now, f"put{i}"))

    def consumer():
        yield 1.0
        for _ in range(4):
            item = yield queue.get()
            progress.append((loop.now, f"got{item}"))
            yield 1.0

    spawn(loop, producer())
    spawn(loop, consumer())
    loop.run()
    puts = [t for t, tag in progress if tag.startswith("put")]
    assert puts[0] == 0.0 and puts[1] == 0.0  # capacity 2 absorbs two puts
    assert puts[2] == 1.0 and puts[3] == 2.0  # rest wait for pops
    got = [tag for _, tag in progress if tag.startswith("got")]
    assert got == ["got0", "got1", "got2", "got3"]


def test_gate_resumes_waiters_in_wait_order():
    loop = EventLoop()
    gate = Gate(loop)
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
        core = SimCore(loop, 0)
        link = SimLink(loop, LinkParams(0.001, 10000.0))

        def proc():
            for _ in range(200):
                yield rng.uniform() * 0.01
                yield core.execute(rng.uniform() * 0.02)
                link.transmit(1 + rng.randrange(900))

        spawn(loop, proc())
        loop.run()
        return loop.now, loop.executed, link.busy_time

    assert storm() == storm()
