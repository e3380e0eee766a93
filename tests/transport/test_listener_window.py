"""A kept channel's next request, served in the window by the worker that
answered the last one: no selector offer, no longer wait for anyone else
than the window, and the same per-turn checks as after a park."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.protocol import Command, Request, Response
from repro.obs.registry import MetricsRegistry
from repro.pki.ca import CertificateAuthority
from repro.pki.names import DistinguishedName
from repro.qos.admission import AdmissionQueue
from repro.transport import listener as listener_module
from repro.transport.channel import connect_secure
from repro.transport.listener import Listener
from repro.util.concurrency import wait_for
from repro.util.errors import TransportError
from tests.transport.test_listener import _Echo, _Unused

#: A window long enough to tell apart from a turn on any host.
LONG_WINDOW_MS = 400


class _Recording(_Echo):
    """Echoes; ``b"slow"`` takes a while; records every failure."""

    def __init__(self) -> None:
        self.failures: list[Exception] = []

    def answer(self, channel, message: bytes) -> bool:
        if message == b"slow":
            time.sleep(1.5)
        return super().answer(channel, message)

    def failed(self, channel, exc) -> None:
        self.failures.append(exc)


def _listener(workers: int, **hooks) -> tuple[Listener, dict]:
    """A started listener whose workers all sleep in the queue, and its
    kept-turn counts by path."""
    family = MetricsRegistry().counter("kept_turns", labelnames=("path",))
    listener = Listener("window", timeout=5.0, workers=workers, kept_turns=family, **hooks)
    listener.listen("127.0.0.1", 0, _Unused())  # starts the threads
    wait_for(lambda: listener._queue.idle() == workers, message="every worker asleep")
    counts = {path: family.labels(path=path) for path in ("window", "parked")}
    return listener, counts


def _one_waits(listener: Listener) -> None:
    """Let the worker that just answered reach its window, and check that
    it waits there: busy, not asleep in the queue with the others."""
    time.sleep(LONG_WINDOW_MS / 1000 / 8)
    assert listener._queue.idle() == listener._worker_count - 1


@pytest.fixture
def offers(monkeypatch) -> list:
    """Every item offered to an admission queue: a kept channel's offer is
    the selector handing over its next request."""
    offered = []
    offer = AdmissionQueue.offer

    def recording(self, item):
        offered.append(item)
        return offer(self, item)

    monkeypatch.setattr(AdmissionQueue, "offer", recording)
    return offered


def test_back_to_back_requests_make_no_selector_offer(offers):
    listener, kept = _listener(workers=2)
    link = listener.connect(_Echo())
    try:
        link.send_frame(b"one")
        link.send_frame(b"two")  # already there when "one" is answered
        assert link.recv_frame() == b"one"
        assert link.recv_frame() == b"two"
    finally:
        link.close()
        listener.stop()
    assert [item for item in offers if item[2] is not None] == []
    assert (kept["window"].value, kept["parked"].value) == (1, 0)


def test_a_one_worker_listener_never_waits(monkeypatch):
    monkeypatch.setattr(listener_module, "WINDOW_MS", LONG_WINDOW_MS)
    listener, kept = _listener(workers=1)
    silent, second = listener.connect(_Echo()), None
    try:
        silent.send_frame(b"ping")
        assert silent.recv_frame() == b"ping"
        # The silent channel is parked at once: the second client is
        # served well inside the window a waiting worker would hold.
        started = time.monotonic()
        second = listener.connect(_Echo())
        second.send_frame(b"hello")
        assert second.recv_frame() == b"hello"
        assert time.monotonic() - started < LONG_WINDOW_MS / 1000 / 2
    finally:
        silent.close()
        if second is not None:
            second.close()
        listener.stop()
    assert kept["window"].value == 0


def test_a_burst_waits_no_longer_than_the_window(monkeypatch):
    monkeypatch.setattr(listener_module, "WINDOW_MS", LONG_WINDOW_MS)
    waits: list[float] = []
    binding = _Recording()
    listener, _ = _listener(workers=2, on_wait=waits.append)
    silent = listener.connect(binding)
    slow = fast = None
    try:
        silent.send_frame(b"ping")
        assert silent.recv_frame() == b"ping"
        _one_waits(listener)
        # One worker waits on the silent channel; the other takes the
        # first of the burst and holds it past the window.
        slow, fast = listener.connect(binding), listener.connect(binding)
        slow.send_frame(b"slow")
        fast.send_frame(b"fast")
        assert fast.recv_frame() == b"fast"  # served once the window closed
        assert slow.recv_frame() == b"slow"
    finally:
        for link in (silent, slow, fast):
            if link is not None:
                link.close()
        listener.stop()
    assert len(waits) == 3
    assert max(waits) < LONG_WINDOW_MS / 1000 * 1.5
    assert binding.failures == []


def test_a_hang_up_inside_the_window_ends_quietly(monkeypatch, offers):
    monkeypatch.setattr(listener_module, "WINDOW_MS", 10 * LONG_WINDOW_MS)
    binding = _Recording()
    listener, kept = _listener(workers=2)
    link = listener.connect(binding)
    try:
        link.send_frame(b"ping")
        assert link.recv_frame() == b"ping"
        _one_waits(listener)
        link.close()
        # Seen at once, not when the window ends.
        wait_for(lambda: listener._queue.idle() == 2, timeout=LONG_WINDOW_MS / 1000,
                 message="the waiting worker freed by the hang-up")
        assert not listener._idle
    finally:
        listener.stop()
    assert binding.failures == []
    assert [item for item in offers if item[2] is not None] == []
    assert (kept["window"].value, kept["parked"].value) == (0, 0)


def test_stop_joins_a_waiting_worker_within_its_drain(monkeypatch):
    monkeypatch.setattr(listener_module, "WINDOW_MS", LONG_WINDOW_MS)
    listener, _ = _listener(workers=2)
    threads = list(listener._threads)
    link = listener.connect(_Echo())
    try:
        link.send_frame(b"ping")
        assert link.recv_frame() == b"ping"
        _one_waits(listener)
        started = time.monotonic()
        listener.stop(drain_timeout=3.0)
        assert time.monotonic() - started < 3.0
        assert not any(thread.is_alive() for thread in threads)
        with pytest.raises(TransportError):
            link.recv_frame()  # the channel was closed, not left parked
    finally:
        link.close()


def test_a_trust_bump_between_fast_turns_is_refused(
    monkeypatch, tcp_repository, validator, alice, key_pool
):
    monkeypatch.setattr(listener_module, "WINDOW_MS", 10 * LONG_WINDOW_MS)
    server, _ = tcp_repository()
    info = Request(command=Command.INFO, username="alice").encode()
    channel = connect_secure(server.endpoint, alice, validator)
    try:
        channel.send(info)
        assert Response.decode(channel.recv()).ok
        other = CertificateAuthority(
            DistinguishedName.parse("/O=Grid/CN=Other CA"), key=key_pool.new_key()
        )
        validator.add_anchor(other.certificate)
        channel.send(info)
        with pytest.raises(TransportError):
            channel.recv()
    finally:
        channel.close()
    served = [r for r in server.audit_log() if r.command == "INFO" and r.ok]
    assert len(served) == 1
    kept = server.metrics.snapshot()["myproxy_kept_turns_total"]
    assert kept == {"path=window": 1, "path=parked": 0}


def test_the_window_needs_another_worker_asleep():
    queue = AdmissionQueue(4, 1.0)
    assert queue.idle() == 0
    taker = threading.Thread(target=queue.take, args=(None,))
    taker.start()
    try:
        wait_for(lambda: queue.idle() == 1, message="a consumer asleep")
        assert queue.offer("item")
        assert queue.idle() == 0  # woken, though it may not have run yet
    finally:
        taker.join(2.0)
    assert not taker.is_alive()
