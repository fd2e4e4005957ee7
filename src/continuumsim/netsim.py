"""Deterministic discrete-event engine: virtual clock, processes, links, cores.

The engine is strictly single-threaded. Events fire in (fire_at, seq_no)
order, so two events scheduled for the same instant run in scheduling order
and a fixed scenario replays bit-identically on any platform. The queue is a
heap of ``(fire_at, seq_no, handle)`` tuples: ``seq_no`` is unique, so
``heapq`` orders entries by comparing two numbers in C and never compares
handles.

Concurrency is expressed as generator processes. A process yields only
:class:`Gate` objects, one-shot events that resume every waiter, in wait
order, when set; it waits for an instant by yielding ``gate_at(instant)``. A
process that yields a gate already set continues in place, in the same call,
so a long run of such yields costs no stack depth. Links and cores are pure
booking objects: a task reserves the next free interval of the resource when
asked, keeping FIFO order and exclusivity. A core booking costs no event, a
wait for its end one (``gate_at``), which a process makes only where another
needs that instant, and a link keeps one delivery event at a time.
A booked instant is stored as it is computed: ``schedule_at`` fires at the
instant it is given, and ``schedule(delay)`` is ``schedule_at(now +
delay)``, so every event, the gates of ``gate_at`` included, enters the
queue through ``schedule_at``. The callback of each scheduled event is a
``functools.partial`` or a bound method, never a closure made per event.
"""

from __future__ import annotations

import heapq
from array import array
from collections import deque
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
        return self.schedule_at(self.now + delay, action)

    def schedule_at(self, fire_at: float, action: Callable[[], None]) -> EventHandle:
        """Schedule ``action`` at exactly ``fire_at``, which is not past."""
        if fire_at < self.now:
            raise NegativeDelay(f"{fire_at} is before now, {self.now}")
        handle = EventHandle(action)
        heapq.heappush(self._heap, (fire_at, self._seq, handle))
        self._seq += 1
        return handle

    def gate_at(self, instant: float) -> Gate:
        """A gate set with ``instant`` at ``instant``: at once, with no
        event, if that is now."""
        gate = Gate()
        if instant == self.now:
            gate.set(instant)
        else:
            self.schedule_at(instant, partial(gate.set, instant))
        return gate

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

    __slots__ = ("is_set", "value", "_waiters")

    def __init__(self) -> None:
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

    def add_waiter(self, callback: Callable[[object], None]) -> None:
        if self.is_set:
            callback(self.value)
        else:
            self._waiters.append(callback)


ProcGen = Generator[Gate, object, None]


def spawn(loop: EventLoop, gen: ProcGen) -> None:
    """Start ``gen`` as a process at now. It yields only gates, and resumes
    with each one's value once it is set.

    A process is its generator and nothing else. The event that starts it
    and, while it waits, the gate it waits on hold it through a partial made
    then and kept nowhere else: one kept for the process would hold its
    generator, and everything the generator holds, in a reference cycle."""
    loop.schedule_at(loop.now, partial(_resume, gen, None))


def _resume(gen: ProcGen, value: object) -> None:
    """Send ``value`` into ``gen`` (throw it, if it is an exception) and run
    it up to its first wait on a gate not yet set."""
    while True:
        try:
            cmd = gen.throw(value) if isinstance(value, BaseException) else gen.send(value)
        except StopIteration:
            return
        if not isinstance(cmd, Gate):
            raise TypeError(f"a process yielded {cmd!r}")
        if not cmd.is_set:
            cmd._waiters.append(partial(_resume, gen))
            return
        value = cmd.value


@dataclass(slots=True)
class Transmission:
    """Booking record for one message on a link."""

    wire_start: float
    wire_end: float
    arrival: float


class SimLink:
    """Serializing point-to-point link: n/bandwidth wire time plus fixed
    one-way latency. Transmissions never overlap and keep FIFO order, and
    its deliveries wait in a FIFO whose head is their one event in the loop.
    The FIFO keeps each delivery's instant in an array of doubles and its
    key, handler and payload in three deques beside it."""

    def __init__(self, loop: EventLoop, params: LinkParams):
        self._loop = loop
        self.params = params
        self.busy_until = 0.0
        self.busy_time = 0.0
        self.bytes_sent = 0
        # Deliveries not yet made, in order: instants from index ``_next`` on,
        # and their keys, handlers and payloads; ``_event`` is the head's
        # event while there is one.
        self._instants, self._next = array("d"), 0
        self._keys: deque = deque()
        self._handlers: deque = deque()
        self._payloads: deque = deque()
        self._event: Optional[EventHandle] = None

    def transmit(self, nbytes: int, at: float) -> Transmission:
        """Book ``nbytes`` on the wire at the link's next free instant from
        ``at``; returns the booked timeline. The caller is responsible for
        scheduling delivery at ``arrival``."""
        if nbytes < 1:
            raise ValueError("nbytes must be >= 1")
        wire_start = at if at >= self.busy_until else self.busy_until
        serialization = nbytes / self.params.bandwidth
        wire_end = wire_start + serialization
        self.busy_until = wire_end
        self.busy_time += serialization
        self.bytes_sent += nbytes
        return Transmission(wire_start, wire_end, wire_end + self.params.latency)

    def arrival(self, nbytes: int, at: float) -> float:
        """The arrival instant that ``transmit(nbytes, at)`` would book, by
        the same float operations; books nothing."""
        wire_start = at if at >= self.busy_until else self.busy_until
        return wire_start + nbytes / self.params.bandwidth + self.params.latency

    def deliver(self, key: object, payload: bytes,
                handler: Callable[[object, bytes], None], at: float) -> Transmission:
        """Book ``payload`` from instant ``at`` (not before now or an earlier
        booking) and call ``handler(key, payload)`` at its arrival instant.
        ``key`` is opaque to the link."""
        tx = self.transmit(len(payload), at)
        self._instants.append(tx.arrival)
        self._keys.append(key)
        self._handlers.append(handler)
        payloads = self._payloads
        payloads.append(payload)
        if len(payloads) == 1:  # the link had no delivery waiting
            self._event = self._loop.schedule_at(tx.arrival, self._arrive)
        return tx

    def withdraw(self) -> None:
        """Withdraw the last delivery booked: it is never made, and the
        head's event is cancelled if none is left. The wire time it booked
        stays booked."""
        self._instants.pop()
        self._keys.pop()
        self._handlers.pop()
        self._payloads.pop()
        if not self._payloads:
            self._event.cancel()
            self._event = None
            del self._instants[:]
            self._next = 0

    def _arrive(self) -> None:
        """Make the head delivery, after booking the event of the next."""
        key, handler = self._keys.popleft(), self._handlers.popleft()
        payload = self._payloads.popleft()
        instants, read = self._instants, self._next + 1
        if 2 * read >= len(instants):  # drop the instants read, once half are
            del instants[:read]
            read = 0
        self._next = read
        self._event = (self._loop.schedule_at(instants[read], self._arrive)
                       if instants else None)
        handler(key, payload)


class SimCore:
    """One CPU core: executes at most one compute task at a time, FIFO."""

    def __init__(self, loop: EventLoop):
        self._loop = loop
        self.free_at = 0.0
        self.busy_time = 0.0

    def book(self, duration: float, at: float) -> float:
        """Reserve the core for ``duration`` from its first free instant at
        or after ``at``, with no event; returns the end instant. A
        zero-duration task ends at ``at`` and books nothing."""
        if duration < 0:
            raise ValueError("duration must be >= 0")
        if duration == 0.0:
            return at
        end = (at if at >= self.free_at else self.free_at) + duration
        self.free_at = end
        self.busy_time += duration
        return end

    def execute(self, duration: float) -> Gate:
        """``book(duration, now)``, as a gate set with its end instant then."""
        return self._loop.gate_at(self.book(duration, self._loop.now))
