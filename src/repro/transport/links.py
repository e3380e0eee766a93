"""Byte-stream links with length-prefixed framing.

A :class:`Link` moves opaque frames between two endpoints; everything above
(records, handshake, application protocols) is transport-agnostic.  Two
implementations:

- :class:`SocketLink` — a connected stream socket: a TCP connection (what
  deployments use, and what the benchmarks measure) or one end of an
  in-process socket pair (:meth:`repro.transport.listener.Listener.connect`);
- :class:`PipeLink` — an in-memory queue pair, for code that drives both
  ends of a conversation itself (the transport unit tests and probes).

Frames are length-prefixed with a 4-byte big-endian header.  A frame of
length zero is reserved as the end-of-stream marker.
"""

from __future__ import annotations

import queue
import select
import socket
import struct
import threading

from repro.util.errors import TransportError

_HEADER = struct.Struct(">I")

HEADER_SIZE = _HEADER.size
"""Bytes of length prefix in front of every frame."""

MAX_FRAME = 64 * 1024 * 1024
"""Upper bound on a frame, to bound hostile allocations."""


class Link:
    """Abstract reliable, ordered frame transport."""

    def send_frame(self, frame: bytes) -> None:
        raise NotImplementedError

    def send_frames(self, frames: list[bytes]) -> None:
        """Send ``frames`` in order; a stream link writes them at once."""
        for frame in frames:
            self.send_frame(frame)

    def recv_frame(self) -> bytes:
        """Block for the next frame; raise :class:`TransportError` on EOF."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def peek(self, count: int) -> bytes | None:
        """Up to ``count`` raw stream bytes already received, without
        consuming them or blocking: ``None`` when nothing waits, ``b""``
        at end of stream."""
        raise NotImplementedError

    def __enter__(self) -> Link:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SocketLink(Link):
    """Frames over a connected stream socket."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._send_lock = threading.Lock()
        self._recv_lock = threading.Lock()
        if sock.family != socket.AF_UNIX:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def _wire(self, frame: bytes) -> bytes:
        """``frame`` as it goes on the stream: length header, then body."""
        if len(frame) > MAX_FRAME:
            raise TransportError(f"frame of {len(frame)} bytes exceeds limit")
        return _HEADER.pack(len(frame)) + frame

    def send_frame(self, frame: bytes) -> None:
        self.send_frames([frame])

    def send_frames(self, frames: list[bytes]) -> None:
        """One ``sendall`` for every frame: a multi-message reply leaves
        in one write (and, small enough, one segment)."""
        data = b"".join(self._wire(frame) for frame in frames)
        with self._send_lock:
            try:
                self._sock.sendall(data)
            except OSError as exc:
                raise TransportError(f"socket send failed: {exc}") from exc

    def _recv_exact(self, count: int) -> bytes:
        chunks = bytearray()
        while len(chunks) < count:
            try:
                chunk = self._sock.recv(count - len(chunks))
            except OSError as exc:
                raise TransportError(f"socket recv failed: {exc}") from exc
            if not chunk:
                raise TransportError("connection closed by peer")
            chunks += chunk
        return bytes(chunks)

    def recv_frame(self) -> bytes:
        with self._recv_lock:
            (length,) = _HEADER.unpack(self._recv_exact(_HEADER.size))
            if length > MAX_FRAME:
                raise TransportError(f"peer declared a {length}-byte frame")
            if length == 0:
                raise TransportError("connection closed by peer")
            return self._recv_exact(length)

    def peek(self, count: int) -> bytes | None:
        poller = select.poll()
        poller.register(self._sock, select.POLLIN)
        if not poller.poll(0):
            return None
        try:
            return self._sock.recv(count, socket.MSG_PEEK)
        except OSError:
            return b""

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


class PipeLink(Link):
    """One endpoint of an in-memory frame pipe (see :func:`pipe_pair`)."""

    _CLOSE = object()

    def __init__(self, outbox: queue.Queue, inbox: queue.Queue, name: str) -> None:
        self._outbox = outbox
        self._inbox = inbox
        self._name = name
        self._closed = False

    def send_frame(self, frame: bytes) -> None:
        if self._closed:
            raise TransportError(f"{self._name}: link is closed")
        self._outbox.put(frame)

    def recv_frame(self, timeout: float = 30.0) -> bytes:
        if self._closed:
            raise TransportError(f"{self._name}: link is closed")
        try:
            frame = self._inbox.get(timeout=timeout)
        except queue.Empty as exc:
            raise TransportError(f"{self._name}: recv timed out") from exc
        if frame is self._CLOSE:
            self._closed = True
            raise TransportError("connection closed by peer")
        return frame

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._outbox.put(self._CLOSE)


def pipe_pair(name: str = "pipe") -> tuple[PipeLink, PipeLink]:
    """A connected pair of in-memory links (client end, server end)."""
    a_to_b: queue.Queue = queue.Queue()
    b_to_a: queue.Queue = queue.Queue()
    return (
        PipeLink(a_to_b, b_to_a, f"{name}:client"),
        PipeLink(b_to_a, a_to_b, f"{name}:server"),
    )


def connect_tcp(host: str, port: int, timeout: float = 10.0) -> SocketLink:
    """Dial a TCP endpoint and wrap it in a :class:`SocketLink`."""
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise TransportError(f"could not connect to {host}:{port}: {exc}") from exc
    sock.settimeout(timeout)
    return SocketLink(sock)
