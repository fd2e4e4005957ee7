"""Deterministic discrete-event engine: virtual clock, processes, links, cores.

The engine is strictly single-threaded. Events fire in (fire_at, seq_no)
order, so two events scheduled for the same instant run in scheduling order
and a fixed scenario replays bit-identically on any platform. The queue is a
heap of ``(fire_at, seq_no, handle)`` tuples: ``seq_no`` is unique, so
``heapq`` orders entries by comparing two numbers in C and never compares
handles.

Concurrency is expressed as generator processes. A process yields either a
non-negative delay (seconds of virtual time) or a :class:`Gate`, a one-shot
event that resumes every waiter, in wait order, when set. Links and cores are
pure booking objects: a transmission or compute task reserves the next free
interval of the resource at request time, which keeps FIFO order and
exclusivity without extra event traffic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import partial
from typing import Callable, Generator, Optional

from .domain import LinkParams


class NegativeDelay(ValueError):
    pass


class EventHandle:
    """Cancelable scheduled callback. Its firing time and sequence number
    live in its heap entry."""

    __slots__ = ("action", "cancelled")

    def __init__(self, action: Callable[[], None]):
        self.action = action
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class EventLoop:
    """Virtual clock plus the event queue that advances it."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, EventHandle]] = []
        self._seq = 0
        self.executed = 0

    def schedule(self, delay: float, action: Callable[[], None]) -> EventHandle:
        if delay < 0:
            raise NegativeDelay(f"delay must be >= 0, got {delay}")
        handle = EventHandle(action)
        heapq.heappush(self._heap, (self.now + delay, self._seq, handle))
        self._seq += 1
        return handle

    def schedule_at(self, fire_at: float, action: Callable[[], None]) -> EventHandle:
        return self.schedule(max(0.0, fire_at - self.now), action)

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

    def run_until(self, t_end: float) -> int:
        """Execute every event with fire_at <= t_end; clock ends at t_end."""
        if t_end < self.now:
            raise ValueError("run_until target precedes current time")
        count = 0
        while True:
            entry = self._pop_due(t_end)
            if entry is None:
                break
            self.now, _, handle = entry
            handle.action()
            count += 1
        self.now = t_end
        self.executed += count
        return count

    def run(self) -> int:
        """Drain the queue completely; clock ends at the last event."""
        heap = self._heap
        count = 0
        while heap:
            fire_at, _, handle = heapq.heappop(heap)
            if handle.cancelled:
                continue
            self.now = fire_at
            handle.action()
            count += 1
        self.executed += count
        return count


class Gate:
    """One-shot event carrying a value. Waiters resume in wait order."""

    __slots__ = ("_loop", "is_set", "value", "_waiters")

    def __init__(self, loop: EventLoop):
        self._loop = loop
        self.is_set = False
        self.value = None
        self._waiters: list[Callable[[object], None]] = []

    def set(self, value: object = None) -> None:
        if self.is_set:
            raise RuntimeError("gate already set")
        self.is_set = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for w in waiters:
            w(value)

    def set_at(self, delay: float, value: object = None) -> EventHandle:
        return self._loop.schedule(delay, lambda: self.set(value))

    def add_waiter(self, callback: Callable[[object], None]) -> None:
        if self.is_set:
            callback(self.value)
        else:
            self._waiters.append(callback)


ProcGen = Generator[object, object, None]


class Process:
    """Drives a generator, interpreting yielded delays and gates."""

    def __init__(self, loop: EventLoop, gen: ProcGen, name: str = "proc"):
        self._loop = loop
        self._gen = gen
        self.name = name
        self.done = Gate(loop)
        loop.schedule(0.0, lambda: self._step(None))

    def _step(self, value: object) -> None:
        try:
            if isinstance(value, BaseException):
                cmd = self._gen.throw(value)
            else:
                cmd = self._gen.send(value)
        except StopIteration as stop:
            self.done.set(stop.value)
            return
        if isinstance(cmd, Gate):
            cmd.add_waiter(self._step)
        elif isinstance(cmd, (int, float)):
            self._loop.schedule(float(cmd), lambda: self._step(None))
        else:
            raise TypeError(f"process {self.name} yielded {cmd!r}")


def spawn(loop: EventLoop, gen: ProcGen, name: str = "proc") -> Process:
    return Process(loop, gen, name)


class BoundedQueue:
    """FIFO queue with blocking put when full and blocking get when empty.

    ``get`` hands the item over the moment it is available, freeing the slot
    immediately; that matches a consumer that pops its input before starting
    to work on it.
    """

    def __init__(self, loop: EventLoop, capacity: int):
        if capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        self._loop = loop
        self.capacity = capacity
        self._items: list[object] = []
        self._getters: list[Gate] = []
        self._putters: list[tuple[Gate, object]] = []

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: object) -> Gate:
        gate = Gate(self._loop)
        if self._getters:
            self._getters.pop(0).set(item)
            gate.set(None)
        elif len(self._items) < self.capacity:
            self._items.append(item)
            gate.set(None)
        else:
            self._putters.append((gate, item))
        return gate

    def get(self) -> Gate:
        gate = Gate(self._loop)
        if self._items:
            gate.set(self._items.pop(0))
            if self._putters:
                pgate, pitem = self._putters.pop(0)
                self._items.append(pitem)
                pgate.set(None)
        elif self._putters:
            pgate, pitem = self._putters.pop(0)
            pgate.set(None)
            gate.set(pitem)
        else:
            self._getters.append(gate)
        return gate


@dataclass
class Transmission:
    """Booking record for one message on a link."""

    wire_start: float
    wire_end: float
    arrival: float
    nbytes: int


class SimLink:
    """Serializing point-to-point link: n/bandwidth wire time plus fixed
    one-way latency. Transmissions never overlap and keep FIFO order."""

    def __init__(self, loop: EventLoop, params: LinkParams, name: str = "link"):
        self._loop = loop
        self.params = params
        self.name = name
        self.busy_until = 0.0
        self.busy_time = 0.0
        self.bytes_sent = 0

    def transmit(self, nbytes: int) -> Transmission:
        """Book ``nbytes`` on the wire starting at the link's next free
        instant; returns the booked timeline. The caller is responsible for
        scheduling delivery at ``arrival``."""
        if nbytes < 1:
            raise ValueError("nbytes must be >= 1")
        wire_start = max(self._loop.now, self.busy_until)
        serialization = nbytes / self.params.bandwidth
        wire_end = wire_start + serialization
        self.busy_until = wire_end
        self.busy_time += serialization
        self.bytes_sent += nbytes
        return Transmission(wire_start, wire_end, wire_end + self.params.latency, nbytes)

    def deliver(self, key: object, payload: bytes,
                handler: Callable[[object, bytes], None]) -> Transmission:
        """Book ``payload`` and call ``handler(key, payload)`` at its arrival.
        ``key`` is opaque to the link (a pub/sub topic, or None)."""
        tx = self.transmit(len(payload))
        self._loop.schedule_at(tx.arrival, partial(handler, key, payload))
        return tx


class SimCore:
    """One CPU core: executes at most one compute task at a time, FIFO."""

    def __init__(self, loop: EventLoop, core_id: int):
        self._loop = loop
        self.core_id = core_id
        self.free_at = 0.0
        self.busy_intervals: list[tuple[float, float]] = []
        self.busy_time = 0.0

    def execute(self, duration: float) -> Gate:
        """Reserve the core for ``duration`` starting at its next free
        instant; the returned gate fires at completion. Zero-duration tasks
        complete immediately and record no interval."""
        if duration < 0:
            raise ValueError("duration must be >= 0")
        gate = Gate(self._loop)
        if duration == 0.0:
            gate.set(self._loop.now)
            return gate
        start = max(self._loop.now, self.free_at)
        end = start + duration
        self.free_at = end
        self.busy_intervals.append((start, end))
        self.busy_time += duration
        self._loop.schedule_at(end, lambda: gate.set(end))
        return gate

    def utilization(self, wall: float) -> float:
        return self.busy_time / wall if wall > 0 else 0.0
