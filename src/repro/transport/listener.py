"""The one thread that owns every socket no worker is serving.

A server's listening sockets and its *parked* channels — authenticated
channels idle between two requests (PROTOCOL.md §6) — all sit in one
selector here, each tagged with the *binding* (GSI or §6.4 HTTP) that
serves it.  New connections go to ``on_accept``; a parked channel whose
next request arrives goes to ``on_request``; both callbacks only
classify and enqueue, so the thread never does crypto and no worker ever
blocks on an idle peer.  A parked channel costs a file descriptor, not a
thread.

A parked channel ends quietly when its peer hangs up, and with a close
alert once it has idled past ``idle_timeout``.  The timed-out socket is
then drained without blocking the selector — shut for writing, kept
registered until the peer's EOF or a short grace period — so a request
that raced the timeout meets the alert instead of a reset.
"""

from __future__ import annotations

import selectors
import socket
import threading
import time
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass

from repro.transport.channel import SecureChannel

#: Longest the selector sleeps, so a stop request is noticed promptly.
_TICK = 0.2
#: How long a timed-out channel may keep sending before it is cut off.
_DRAIN_GRACE = 2.0
#: Connections accepted per wake-up, so parked channels are not starved.
_ACCEPT_BATCH = 64


@dataclass
class _Parked:
    conn: socket.socket
    peer: str
    channel: SecureChannel
    binding: object
    deadline: float


class Listener:
    """Selector loop over the listening sockets and the parked channels.

    ``run`` is a :class:`~repro.util.concurrency.ServiceThread` target;
    :meth:`listen` and :meth:`park` may be called from any thread.  When
    ``run`` returns, every listening socket is closed, every parked
    channel has been closed with a close alert, and a channel parked
    later is closed at once.
    """

    def __init__(
        self,
        *,
        idle_timeout: float,
        on_accept: Callable[[socket.socket, tuple, object], None],
        on_request: Callable[[socket.socket, str, SecureChannel, object], None],
    ) -> None:
        self._idle_timeout = idle_timeout
        self._on_accept = on_accept
        self._on_request = on_request
        self._selector = selectors.DefaultSelector()
        # Guards the selector's registrations and the tables below.
        # ``_idle`` and ``_draining`` are in deadline order: every entry
        # gets the same timeout from when it was added.
        self._lock = threading.Lock()
        self._listening: list[socket.socket] = []
        self._idle: OrderedDict[socket.socket, _Parked] = OrderedDict()
        self._draining: OrderedDict[socket.socket, float] = OrderedDict()
        self._closed = False

    # -- any thread ------------------------------------------------------

    def listen(self, sock: socket.socket, binding: object) -> None:
        """Accept connections for ``binding`` on the listening ``sock``."""
        sock.setblocking(False)
        with self._lock:
            # A listening socket's key carries its binding; a parked channel's, none.
            self._selector.register(sock, selectors.EVENT_READ, binding)
            self._listening.append(sock)

    def park(self, conn: socket.socket, peer: str, channel: SecureChannel, binding: object) -> None:
        """Hand an idle channel to the selector until its next request.

        The worker registers it itself: epoll and kqueue pick up a
        registration made while the selector thread waits, so parking
        costs that thread no wake-up.  (The portable poll/select
        fallbacks see it at the next tick.)
        """
        with self._lock:
            if not self._closed:
                try:
                    self._selector.register(conn, selectors.EVENT_READ)
                except (OSError, ValueError):
                    channel.abort()  # already dead
                    return
                deadline = time.monotonic() + self._idle_timeout
                self._idle[conn] = _Parked(conn, peer, channel, binding, deadline)
                return
        channel.close()

    # -- the selector thread ---------------------------------------------

    def run(self, stop: threading.Event) -> None:
        try:
            while not stop.is_set():
                for key, _ in self._selector.select(self._wait()):
                    if key.data is not None:
                        self._accept(key.fileobj, key.data)
                    else:
                        self._readable(key.fileobj)
                self._expire(time.monotonic())
        finally:
            with self._lock:
                self._closed = True
                listening, self._listening = self._listening, []
                idle, self._idle = list(self._idle.values()), OrderedDict()
                draining, self._draining = list(self._draining), OrderedDict()
                self._selector.close()
            for sock in listening:
                sock.close()
            for entry in idle:
                entry.channel.close()
            for conn in draining:
                conn.close()

    def _wait(self) -> float:
        now = time.monotonic()
        wait = _TICK
        with self._lock:
            if self._idle:
                wait = min(wait, next(iter(self._idle.values())).deadline - now)
            if self._draining:
                wait = min(wait, next(iter(self._draining.values())) - now)
        return max(wait, 0.0)

    def _accept(self, sock: socket.socket, binding: object) -> None:
        for _ in range(_ACCEPT_BATCH):
            try:
                conn, addr = sock.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return  # listening socket closed under us: stop() is near
            self._on_accept(conn, addr, binding)

    def _readable(self, conn: socket.socket) -> None:
        with self._lock:
            if conn in self._draining:
                self._drain_locked(conn)
                return
            entry = self._idle.pop(conn, None)
            if entry is None:
                return
            self._selector.unregister(conn)
        if entry.channel.peer_closing():
            entry.channel.abort()  # the peer hung up between requests: a normal end
        else:
            self._on_request(entry.conn, entry.peer, entry.channel, entry.binding)

    def _expire(self, now: float) -> None:
        with self._lock:
            while self._idle:
                entry = next(iter(self._idle.values()))
                if entry.deadline > now:
                    break
                del self._idle[entry.conn]
                # Alert, then half-close: the peer reads the alert, its
                # EOF (or the grace period) finishes the drain.
                entry.channel.notify_close()
                try:
                    entry.conn.shutdown(socket.SHUT_WR)
                except OSError:
                    pass
                entry.conn.setblocking(False)
                self._draining[entry.conn] = now + _DRAIN_GRACE
            while self._draining:
                conn, deadline = next(iter(self._draining.items()))
                if deadline > now:
                    break
                self._close_drained_locked(conn)

    def _drain_locked(self, conn: socket.socket) -> None:
        try:
            more = conn.recv(4096)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            more = b""
        if not more:
            self._close_drained_locked(conn)

    def _close_drained_locked(self, conn: socket.socket) -> None:
        del self._draining[conn]
        self._selector.unregister(conn)
        conn.close()
