"""Loopback-TCP mode: the virtual-time tiers on real sockets and real time."""

import select
import socket
import threading
import time
from collections import deque
from dataclasses import replace
from functools import partial

import pytest

from continuumsim.domain import LinkParams, TimeMode, TransportKind
from continuumsim.nodes import run_scenario
from continuumsim.presets import base_config
from continuumsim.netsim import EventLoop, SimLink, spawn
from continuumsim.tcprun import SocketSession, WallClock, run_tcp_scenario
from continuumsim.transport import ConnectionClosed, SendTimeout, SessionEndpoint, session_pair


def tcp_config(transport, n=5, cloud=True, seed=7):
    return replace(
        base_config(transport, parallelism=True, cloud_enabled=cloud,
                    dataset_size=n, seed=seed),
        time_mode=TimeMode.WALLCLOCK_TCP,
        time_scale=0.002,
        payload_bytes=8192,
    )


def test_tcp_pubsub_round_trip_exactly_once():
    started = time.monotonic()
    result = run_tcp_scenario(tcp_config(TransportKind.PUBSUB))
    assert time.monotonic() - started < 20.0
    assert result.failure is None
    ids = [rec.image_id for rec in result.records]
    assert len(ids) == len(set(ids)) == 5
    assert all(rec.origin in ("edge", "cloud") for rec in result.records)


def test_tcp_blocking_round_trip_exactly_once():
    result = run_tcp_scenario(tcp_config(TransportKind.BLOCKING_SESSION, cloud=False))
    assert result.failure is None
    assert all(rec.origin == "edge" for rec in result.records)
    assert len(result.records) == 5


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("cloud", [True, False], ids=["cloud", "no_cloud"])
@pytest.mark.parametrize("transport", [TransportKind.PUBSUB, TransportKind.BLOCKING_SESSION],
                         ids=["pubsub", "blocking"])
def test_tcp_results_match_virtual_mode_outcomes(transport, cloud, seed):
    cfg = tcp_config(transport, n=6, cloud=cloud, seed=seed)
    tcp = run_tcp_scenario(cfg)
    virtual = run_scenario(replace(cfg, time_mode=TimeMode.VIRTUAL))
    assert tcp.result_multiset == virtual.result_multiset


def test_tcp_runs_on_one_thread_with_scaled_model_times():
    cfg = tcp_config(TransportKind.BLOCKING_SESSION, n=4)
    threads = threading.active_count()
    tcp = run_tcp_scenario(cfg)
    assert threading.active_count() == threads
    assert tcp.config == cfg
    assert tcp.summary.core0_util > 0.0 and tcp.summary.core1_util > 0.0
    virtual = run_scenario(replace(cfg, time_mode=TimeMode.VIRTUAL))
    expected = {r.image_id: r.t_read_decode * cfg.time_scale for r in virtual.records}
    assert {r.image_id: r.t_read_decode for r in tcp.records} == pytest.approx(expected)


def test_socket_session_sends_a_stream_one_acked_message_at_a_time():
    loop = WallClock()
    try:
        link_ab, link_ba = loop.connect(0)
        a, b = session_pair(loop, link_ab, link_ba, timeout=10.0, endpoint=SocketSession)
        got, in_flight = [], []
        b.on_message(lambda data: got.append(data) or in_flight.append(len(a._unacked)))
        payloads = [bytes([i]) * (i + 1) for i in range(20)]
        resumed = []

        def sender():
            ticket = a.send_all(payloads)
            yield ticket.accepted
            resumed.append((loop.now, ticket))

        spawn(loop, sender())
        loop.run()
    finally:
        loop.close()
    assert got == payloads
    assert in_flight == [1] * 20  # the stream, not one gate per message
    ((t_resume, ticket),) = resumed
    assert 0.0 <= ticket.wire_start < ticket.ack_at == t_resume
    assert a._unacked == deque()


class _LateTaker(SocketSession):
    """Takes each data frame, and so sends its ack frame, only ``DELAY``
    seconds after the frame has arrived."""

    DELAY = 0.1

    def _receive(self, key, payload):
        self._loop.schedule(self.DELAY, partial(SocketSession._receive, self, key, payload))


def test_socket_session_send_times_out_when_its_ack_is_withheld():
    loop = WallClock()
    try:
        link_ab, link_ba = loop.connect(0)
        a = SocketSession(loop, link_ab, timeout=0.02, name="sender")
        b = _LateTaker(loop, link_ba, timeout=0.02, name="late-taker")
        a.peer, b.peer = b, a
        got, outcome = [], []
        b.on_message(got.append)

        def sender():
            try:
                yield a.send(b"late")
            except SendTimeout:
                outcome.append(loop.now)

        spawn(loop, sender())
        loop.run()
    finally:
        loop.close()
    (t_fail,) = outcome
    assert t_fail >= 0.02
    assert a.closed and b.closed
    # The data frame is taken after the timeout and reaches no handler; its
    # ack comes back and resumes nothing.
    assert got == []
    assert a._unacked == deque()


def _count_selects(monkeypatch) -> list:
    """Count the clock's waits: each ``select.select`` call appends its
    timeout to the list returned."""
    timeouts = []
    original = select.select

    def counted(rlist, wlist, xlist, timeout=None):
        timeouts.append(timeout)
        return original(rlist, wlist, xlist, timeout)

    monkeypatch.setattr(select, "select", counted)
    return timeouts


def test_a_stream_waits_in_select_less_often_than_it_sends(monkeypatch):
    loop = WallClock()
    selects = _count_selects(monkeypatch)
    try:
        a, b = session_pair(loop, *loop.connect(0), timeout=10.0, endpoint=SocketSession)
        got = []
        b.on_message(got.append)
        payloads = [bytes([i]) * 100 for i in range(20)]
        a.send_all(payloads)
        loop.run()
    finally:
        loop.close()
    assert got == payloads
    assert len(selects) < len(payloads)


def test_a_lone_timer_waits_in_select_once_and_fires_no_earlier_than_its_instant(monkeypatch):
    loop = WallClock()
    selects = _count_selects(monkeypatch)
    fired = []
    try:
        loop.connect(0)  # a connection with no frame in flight
        loop.schedule(0.05, lambda: fired.append(loop.now))
        assert loop.run() == 1
    finally:
        loop.close()
    assert len(selects) == 1 and 0.0 < selects[0] <= 0.05
    (t_fired,) = fired
    assert t_fired >= 0.05


def test_a_frame_larger_than_the_send_buffer_arrives_intact():
    loop = WallClock()
    try:
        link, _ = loop.connect(0)
        link.out_sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        payload = bytes(range(256)) * 8192  # 2 MiB
        got = []
        link.deliver("big", payload, lambda key, data: got.append((key, data)), loop.now)
        assert link.pending  # the socket took only part of the frame
        loop.run()
    finally:
        loop.close()
    assert got == [("big", payload)]
    assert not link.handlers


def test_one_pass_reads_every_connection_with_a_frame_in_flight():
    # A far-edge stream keeps its connection busy; a frame already on the
    # cloud connection is delivered in the pass that reads the stream's
    # first message, not after the stream ends.
    loop = WallClock()
    try:
        far, edge = session_pair(loop, *loop.connect(0), timeout=10.0,
                                 endpoint=SocketSession)
        cloud_link, _ = loop.connect(0)
        log = []
        edge.on_message(log.append)
        cloud_link.deliver(None, b"cloud", lambda key, data: log.append(data), loop.now)
        payloads = [b"stream %d" % i for i in range(20)]
        far.send_all(payloads)
        loop.run()
    finally:
        loop.close()
    assert sorted(log) == sorted(payloads + [b"cloud"])
    assert log.index(b"cloud") <= 1


@pytest.fixture(params=[SessionEndpoint, SocketSession], ids=["sim", "socket"])
def sessions(request):
    """A session pair of the endpoint class of the param, on its own loop
    and links, with every message that ``session-a`` puts on its link
    logged: (loop, a, b, log, got), where ``got`` is what ``b`` receives."""
    if request.param is SocketSession:
        loop = WallClock()
        links = loop.connect(0)
    else:
        loop = EventLoop()
        links = SimLink(loop, LinkParams(0.01, 1000.0)), SimLink(loop, LinkParams(0.01, 1000.0))
    a, b = session_pair(loop, *links, timeout=10.0, endpoint=request.param)
    log, got = [], []
    deliver = a._out_link.deliver
    a._out_link.deliver = lambda key, payload, *rest: log.append(payload) or deliver(
        key, payload, *rest)
    b.on_message(got.append)
    yield loop, a, b, log, got
    if request.param is SocketSession:
        loop.close()


def test_a_send_of_no_message_resolves_at_once_and_delivers_nothing(sessions):
    loop, a, _b, log, got = sessions
    ticket = a.send_all(())
    assert ticket.accepted.is_set and ticket.accepted.value is None
    assert ticket.wire_start is None and ticket.ack_at is None
    loop.run()
    assert log == [] and got == []


def test_a_send_with_the_peer_closed_fails_at_the_call_and_writes_nothing(sessions):
    loop, a, b, log, got = sessions
    b.close()
    ticket = a.send_all((b"data",))
    assert ticket.accepted.is_set
    error = ticket.accepted.value
    assert type(error) is ConnectionClosed
    assert str(error) == "session-a: send on closed connection"
    loop.run()
    assert log == [] and got == []
    assert ticket.wire_start is None
