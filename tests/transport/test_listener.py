"""The listener: its worker pool at rest, its stop, and its in-process way in."""

from __future__ import annotations

import threading
import time
from collections import Counter

import pytest

from repro.qos.admission import AdmissionQueue
from repro.transport.listener import _TICK, Binding, Listener
from repro.util.encoding import unpack_fields
from repro.util.errors import TransportError


class _Unused(Binding):
    """A binding no connection ever reaches in these tests."""


def test_idle_workers_block_and_stop_joins_them(monkeypatch):
    entered: Counter[str] = Counter()
    lock = threading.Lock()
    take = AdmissionQueue.take

    def counting_take(self, timeout):
        with lock:
            entered[threading.current_thread().name] += 1
        return take(self, timeout)

    monkeypatch.setattr(AdmissionQueue, "take", counting_take)
    listener = Listener("idle", timeout=5.0, workers=64)
    listener.listen("127.0.0.1", 0, _Unused())
    threads = list(listener._threads)
    time.sleep(1.0)
    with lock:
        counts = dict(entered)
    listener.stop()

    assert len(counts) == 64
    assert max(counts.values()) == 1
    assert not any(thread.is_alive() for thread in threads)


class _Channel:
    """A bare channel over a link: frames in, frames out."""

    peer = None

    def __init__(self, link) -> None:
        self.link = link

    def recv(self) -> bytes:
        return self.link.recv_frame()

    def send(self, message: bytes) -> None:
        self.link.send_frame(message)

    def peer_closing(self) -> bool:
        return self.link.peek(1) == b""

    def notify_close(self) -> None:
        pass

    def close(self, drain: bool = False) -> None:
        self.link.close()

    abort = close


class _Echo(Binding):
    """Answers each frame with itself and keeps the channel."""

    def open(self, link):
        return _Channel(link)

    def answer(self, channel, message: bytes) -> bool:
        channel.send(message)
        return True

    def busy_reply(self, retry_after: float) -> bytes:
        return b"busy"


def test_stop_wakes_the_selector_at_once():
    listener = Listener("wake", timeout=5.0, workers=1)
    listener.listen("127.0.0.1", 0, _Unused())
    threads = list(listener._threads)
    time.sleep(0.05)  # the selector is asleep in its tick
    started = time.monotonic()
    listener.stop()
    assert time.monotonic() - started < _TICK / 4
    assert not any(thread.is_alive() for thread in threads)


def test_connect_serves_in_process_on_the_same_turns():
    listener = Listener("local", timeout=5.0, workers=2)
    link = listener.connect(_Echo())
    try:
        link.send_frame(b"ping")
        assert link.recv_frame() == b"ping"
        time.sleep(0.05)  # parked on the selector between requests
        link.send_frame(b"pong")
        assert link.recv_frame() == b"pong"
    finally:
        link.close()
        listener.stop()
    with pytest.raises(TransportError, match="stopped"):
        listener.connect(_Echo())


def test_connect_is_braked_and_shed_like_an_accept():
    sheds = []
    listener = Listener(
        "braked", timeout=5.0, workers=1, admit=lambda address: 0.5,
        on_shed=lambda peer, reason, retry: sheds.append((peer, reason)),
    )
    link = listener.connect(_Echo())
    try:
        notice = unpack_fields(link.recv_frame())
        assert notice[1] == b"busy RETRY_AFTER=0.500"
        link.send_frame(b"hello")  # the shed end drains what still arrives
        with pytest.raises(TransportError):
            link.recv_frame()  # ... and closes at our end's EOF, or after grace
    finally:
        link.close()
        listener.stop()
    assert sheds == [("local", "rate_limited")]
