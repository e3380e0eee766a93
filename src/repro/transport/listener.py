"""The one serving stack: every server in this package runs on it.

A server plugs in one or more *bindings* (:class:`Binding`): the MyProxy
GSI protocol and its §6.4 HTTP gateway, the portal web server over HTTP
and HTTPS, the GSI Grid services, the metrics exporter.  Each server
object owns one :class:`Listener`, which takes connections from its TCP
listening sockets and, in process, over a socket pair
(:meth:`Listener.connect`); either way they are served the same, and no
thread is spawned per connection:

- **one selector thread** owns the listening sockets and the *parked*
  channels — kept channels idle between two requests (PROTOCOL.md §6) —
  and only offers a new connection, or a parked channel's next request,
  to the admission queue: it never does crypto, and a parked channel
  costs a file descriptor, not a worker;
- **a fixed pool of workers** drains that bounded queue
  (:class:`~repro.qos.AdmissionQueue`), one turn per item: a connection's
  handshake and first request, or a parked channel's next request;
- **one sweeper** sheds queue entries past their deadline and, once per
  tick, runs each binding's :meth:`~Binding.sweep` — housekeeping that
  may do I/O (GRAM's job poll), so it stays off the selector.

A worker whose turn keeps the channel first waits a short window
(:data:`WINDOW_MS`) for that channel's next request, but only while
another worker sleeps in the queue, so a queued item never waits on it
longer than the window: a client that sends its commands back to back
(an owner's INFO then DESTROY, a renewal agent walking its jobs) is
served by the worker that answered it, with no selector hop and no
second wake-up.  A request that does not arrive in the window parks the
channel.  Each such turn is still a kept turn: the binding re-checks the
channel (:meth:`Binding.resume`) and admits the request as after a park.

Anything shed is told when to come back (the binding's busy notice or
busy reply), never closed on.  A kept channel ends quietly when its
peer hangs up, and a parked one with a close alert once idle past the
timeout; the socket is then drained off the selector (shut for writing,
closed at the peer's EOF or after a grace period), so a request that
raced the timeout meets the alert instead of a reset.  A shed connection
is drained the same way, after its busy answer.
"""

from __future__ import annotations

import select
import selectors
import socket
import threading
import time
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass

from repro.qos.admission import DEFAULT_DEADLINE, DEFAULT_DEPTH, AdmissionQueue
from repro.transport.handshake import send_busy_notice
from repro.transport.links import Link, SocketLink
from repro.util.errors import ProtocolError, ReproError, TransportError
from repro.util.logging import get_logger

logger = get_logger("transport.listener")

#: Longest the selector sleeps between expiry checks; also the period of
#: the bindings' sweeps.  A stop wakes it at once.
_TICK = 0.2
#: How long a timed-out channel may keep sending before it is cut off.
_DRAIN_GRACE = 2.0
#: Connections accepted per wake-up, so parked channels are not starved.
_ACCEPT_BATCH = 64
#: Workers of a server that sets none, and MyProxy's default.  A portal,
#: GRAM or storage worker is held across a MyProxy-sized conversation (an
#: outbound MyProxy call, a delegation, a transfer), so they get the pool
#: and queue of the MyProxy server they front: never the narrower end.
WORKERS = 64
#: How long (ms) a worker waits for a kept channel's next request before
#: it parks the channel.  A client that sends back to back answers within
#: ≈ 0.3–0.8 ms (p50) and ≈ 0.7–1.2 ms (p90) of the reply on a saturated
#: 2-vCPU host; one that is thinking takes tens of milliseconds or more,
#: past any short window.
WINDOW_MS = 2


class Binding:
    """What a server plugs into a :class:`Listener`.

    Subclasses supply :meth:`open`, :meth:`answer` and :meth:`busy_reply`.
    The other members default to a binding over the secure channel that
    keeps a channel without re-checking it and needs no housekeeping.
    """

    #: Makes the link a connection is served (and, in process, dialled) over.
    link: Callable[[socket.socket], Link] = SocketLink

    def open(self, link: Link):
        """Begin a connection (the handshake): its channel, or None once
        a failed start has been dealt with."""
        raise NotImplementedError

    def answer(self, channel, message: bytes) -> bool:
        """Serve one request; True when the channel may carry another."""
        raise NotImplementedError

    def busy_reply(self, retry_after: float) -> bytes:
        """The reply that sheds a kept channel's next request."""
        raise NotImplementedError

    def turn_away(self, link: Link, retry_after: float) -> None:
        """Shed a connection before it is opened."""
        send_busy_notice(link, retry_after)

    def resume(self, channel) -> bool:
        """May a kept channel carry its next request?  Asked before each."""
        return True

    def failed(self, channel, exc: ReproError) -> None:
        """A transport or protocol error ended the conversation."""
        logger.info("%s: conversation ended: %s", type(self).__name__, exc)

    def sweep(self, now: float) -> None:
        """Housekeeping, once per listener tick (``now`` is monotonic)."""


def _turn(channel, binding: Binding, *, kept: bool):
    """Have ``binding`` answer the next request on ``channel``; the
    channel if the binding keeps it, else None once it has been ended.

    A peer that leaves a kept channel between requests is a normal end.
    A transport or protocol error ends the channel with a close alert; an
    unexpected error drops the link without one, so a client never
    mistakes it for "request not acted on" (PROTOCOL.md §3.1).
    """
    try:
        message = channel.recv()
    except (TransportError, ProtocolError) as exc:
        if not kept:
            binding.failed(channel, exc)
        channel.close()
        return None
    if kept and not binding.resume(channel):
        channel.close()
        return None
    try:
        if binding.answer(channel, message):
            return channel
    except (TransportError, ProtocolError) as exc:
        binding.failed(channel, exc)
    except BaseException:
        channel.abort()
        raise
    channel.close()
    return None


@dataclass
class _Parked:
    conn: socket.socket
    peer: str
    channel: object
    binding: Binding
    deadline: float


class Listener:
    """One server's listening sockets, parked channels, workers and sweeper.

    The threads start with the first :meth:`listen` or :meth:`connect`;
    :meth:`stop` ends them, and a listener is not restarted.  ``timeout``
    bounds each socket operation of a turn and how long a parked channel
    may idle.  The owner's policy rides in as hooks: ``admit(address)`` is
    a brake applied before any handshake (seconds to wait, 0 to admit);
    ``on_shed(peer, reason, retry_after)`` counts and records each shed;
    ``on_wait`` observes each admission wait (0 for a turn served in the
    window); the gauges follow queue depth and turns in progress; the
    ``kept_turns`` counter, labelled by ``path``, counts each kept
    channel's request by how it reached a worker: served in the window
    (``window``) or offered after a park (``parked``).
    """

    def __init__(
        self,
        name: str,
        *,
        timeout: float,
        workers: int = WORKERS,
        queue_depth: int = DEFAULT_DEPTH,
        queue_deadline: float = DEFAULT_DEADLINE,
        admit: Callable[[str], float] = lambda address: 0.0,
        on_shed: Callable[[str, str, float], None] | None = None,
        on_wait: Callable[[float], None] | None = None,
        depth_gauge=None,
        inflight=None,
        kept_turns=None,
    ) -> None:
        self.name = name
        self._worker_count = workers
        self._timeout = timeout
        self._admit = admit
        self._on_shed = on_shed or (
            lambda peer, reason, retry: logger.info("%s: shed %s (%s)", name, peer, reason)
        )
        self._on_wait = on_wait or (lambda waited: None)
        self._inflight = inflight
        self._kept = (
            None if kept_turns is None
            else {path: kept_turns.labels(path=path) for path in ("window", "parked")}
        )
        self._queue = AdmissionQueue(queue_depth, queue_deadline, depth_gauge=depth_gauge)
        self._selector = selectors.DefaultSelector()
        # stop() closes the far end, so the selector wakes at once (and
        # finds nothing to do: the wake end is neither parked nor drained).
        self._wake, self._waker = socket.socketpair()
        self._selector.register(self._wake, selectors.EVENT_READ)
        # Guards the selector's registrations and the tables below.
        # ``_idle`` and ``_draining`` are in deadline order: every entry
        # gets the same timeout from when it was added.
        self._lock = threading.Lock()
        self._listening: list[socket.socket] = []
        self._bindings: list[Binding] = []
        self._idle: OrderedDict[socket.socket, _Parked] = OrderedDict()
        self._draining: OrderedDict[socket.socket, float] = OrderedDict()
        self._closed = False
        self._stopping = threading.Event()
        self._threads: list[threading.Thread] = []

    # -- any thread ------------------------------------------------------

    def listen(
        self, host: str, port: int, binding: Binding, *, backlog: int = 64
    ) -> tuple[str, int]:
        """Accept ``binding``'s connections on ``host:port``; returns the
        bound endpoint."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind((host, port))
            sock.listen(backlog)
        except OSError:
            sock.close()
            raise
        sock.setblocking(False)
        endpoint = sock.getsockname()
        with self._lock:
            # A listening socket's key carries its binding; a parked channel's, none.
            self._selector.register(sock, selectors.EVENT_READ, binding)
            self._listening.append(sock)
        self._serve(binding)
        logger.info(
            "%s listening on %s:%d (%s; %d workers, queue depth %d)",
            type(binding).__name__, *endpoint, self.name, self._worker_count,
            self._queue.depth,
        )
        return endpoint

    def connect(self, binding: Binding) -> Link:
        """Dial ``binding`` in process: one end of a socket pair is queued as
        an accepted connection is; the other is the client's ``binding.link``."""
        self._serve(binding)
        server_end, client_end = socket.socketpair()
        client_end.settimeout(self._timeout)
        link = binding.link(client_end)
        self._arrive(server_end, "local", "local", binding)  # no address
        return link

    def _serve(self, binding: Binding) -> None:
        """Sweep ``binding`` from now on, starting the threads if need be."""
        with self._lock:
            if self._stopping.is_set():
                raise TransportError(f"{self.name} has stopped")
            if binding not in self._bindings:
                self._bindings.append(binding)
            if not self._threads:
                self._threads = self._start()

    def stop(self, drain_timeout: float = 5.0) -> None:
        """Stop serving.  The selector closes every listening socket, and
        every parked channel with a close alert, on its way out; a channel
        a worker parks after that is closed too.  Connections still queued
        are quietly closed — the server going away IS a transport failure,
        and failover clients should treat it as one (unlike a busy shed).
        In-flight turns get ``drain_timeout`` to finish."""
        with self._lock:
            threads, self._threads = self._threads, []
            self._stopping.set()
        if not threads:
            return
        self._waker.close()
        selector, sweeper, *workers = threads
        selector.join(drain_timeout)
        sweeper.join(drain_timeout)
        for ticket in self._queue.close():
            try:
                ticket.item[0].close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
        deadline = time.monotonic() + drain_timeout
        for worker in workers:
            worker.join(max(deadline - time.monotonic(), 0.0))
            if worker.is_alive():
                logger.warning(
                    "worker %s still serving after %.1fs drain", worker.name, drain_timeout
                )

    def _start(self) -> list[threading.Thread]:
        targets = [(self._select, "listener"), (self._sweep, "sweeper")]
        targets += [(self._work, f"worker-{i}") for i in range(self._worker_count)]
        threads = [
            threading.Thread(target=target, name=f"{self.name}-{label}", daemon=True)
            for target, label in targets
        ]
        for thread in threads:
            thread.start()
        return threads

    def _arrive(self, conn: socket.socket, address: str, peer: str, binding: Binding) -> None:
        """A new connection from ``address``: brake, then queue it."""
        item = (conn, peer, None, binding)
        retry = self._admit(address)
        if retry > 0:
            self._shed(item, "rate_limited", retry)
        else:
            self._offer(item)

    def _park(self, conn: socket.socket, peer: str, channel, binding: Binding) -> None:
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
                deadline = time.monotonic() + self._timeout
                self._idle[conn] = _Parked(conn, peer, channel, binding, deadline)
                return
        channel.close()

    def _offer(self, item: tuple) -> None:
        if not self._queue.offer(item):
            self._shed(item, "no_slots", self._queue.suggest_retry_after())

    def _shed(self, item: tuple, reason: str, retry_after: float) -> None:
        """Shed one queue item, politely: a new connection gets its
        binding's busy notice before any crypto is spent on it, a parked
        channel whose request has arrived gets the binding's busy reply
        and a close alert.  Either way the socket is then drained off the
        selector: closed with the peer's request unread, it would answer
        with a reset that clobbers the notice."""
        conn, peer, channel, binding = item
        self._on_shed(peer, reason, retry_after)
        try:
            if channel is None:
                binding.turn_away(binding.link(conn), retry_after)
            else:
                channel.send(binding.busy_reply(retry_after))
                channel.notify_close()
        except (OSError, TransportError):  # pragma: no cover - peer already gone
            pass
        with self._lock:
            if not self._closed:
                try:
                    self._selector.register(conn, selectors.EVENT_READ)
                except (OSError, ValueError):  # pragma: no cover - peer already gone
                    pass
                else:
                    self._drain_from_locked(conn, time.monotonic())
                    return
        conn.close()

    # -- the workers -----------------------------------------------------

    def _work(self) -> None:
        """Serve one turn per queued item, and the turns that follow it in
        the window, until told to stop."""
        queue = self._queue
        while not self._stopping.is_set():
            # Blocks until work arrives or stop() closes the queue: an
            # idle worker never wakes.
            ticket = queue.take(timeout=None)
            if ticket is None:
                continue
            conn, peer, channel, binding = ticket.item
            self._on_wait(ticket.waited)
            if ticket.expired:
                self._shed(ticket.item, "queue_deadline", queue.suggest_retry_after())
                continue
            channel = self._run_turn(conn, peer, channel, binding, "parked")
            while channel is not None and self._arrives(conn):
                if channel.peer_closing():
                    channel.abort()  # the peer hung up between requests: a normal end
                    channel = None
                else:
                    self._on_wait(0.0)
                    channel = self._run_turn(conn, peer, channel, binding, "window")
            if channel is not None:
                self._park(conn, peer, channel, binding)
            else:
                try:
                    conn.close()
                except OSError:  # pragma: no cover - close is best-effort
                    pass

    def _run_turn(self, conn: socket.socket, peer: str, channel, binding: Binding, path: str):
        """One turn: a new connection's handshake and first request, or a
        kept channel's next request (reached by ``path``); the channel if
        it is kept, else None."""
        if channel is not None and self._kept is not None:
            self._kept[path].inc()
        if self._inflight is not None:
            self._inflight.inc()
        try:
            if channel is None:
                conn.settimeout(self._timeout)
                channel = binding.open(binding.link(conn))
                if channel is not None:
                    channel = _turn(channel, binding, kept=False)
            else:
                channel = _turn(channel, binding, kept=True)
        except Exception:
            logger.exception("%s: unhandled error serving %s", self.name, peer)
            channel = None
        finally:
            if self._inflight is not None:
                self._inflight.dec()
        return channel

    def _arrives(self, conn: socket.socket) -> bool:
        """Wait up to the window for ``conn`` to turn readable (its next
        request, or its peer's hang-up), while another worker sleeps in
        the queue; False at once when none does, or once stopping."""
        if self._stopping.is_set() or not self._queue.idle():
            return False
        poller = select.poll()  # select.select fails on fds past FD_SETSIZE
        poller.register(conn, select.POLLIN)
        return bool(poller.poll(WINDOW_MS))

    # -- the sweeper -----------------------------------------------------

    def _sweep(self) -> None:
        queue = self._queue
        # Often enough that a shed lands well within a deadline, and at
        # least once a tick.
        interval = min(max(queue.deadline / 4.0, 0.02), _TICK)
        next_tick = 0.0
        while not self._stopping.wait(interval):
            for ticket in queue.pop_expired():
                self._on_wait(ticket.waited)
                self._shed(ticket.item, "queue_deadline", queue.suggest_retry_after())
            now = time.monotonic()
            if now < next_tick:
                continue
            next_tick = now + _TICK
            with self._lock:
                bindings = list(self._bindings)
            # Two bindings of one server may share one sweep (the web
            # server's HTTP and HTTPS): it runs once.
            for sweep in dict.fromkeys(binding.sweep for binding in bindings):
                try:
                    sweep(now)
                except Exception:
                    logger.exception("%s: sweep failed", self.name)

    # -- the selector thread ---------------------------------------------

    def _select(self) -> None:
        try:
            while not self._stopping.is_set():
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
            for sock in [*listening, self._wake, self._waker]:
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

    def _accept(self, sock: socket.socket, binding: Binding) -> None:
        for _ in range(_ACCEPT_BATCH):
            try:
                conn, addr = sock.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return  # listening socket closed under us: stop() is near
            self._arrive(conn, addr[0], f"{addr[0]}:{addr[1]}", binding)

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
            self._offer((entry.conn, entry.peer, entry.channel, entry.binding))

    def _expire(self, now: float) -> None:
        with self._lock:
            while self._idle:
                entry = next(iter(self._idle.values()))
                if entry.deadline > now:
                    break
                del self._idle[entry.conn]
                entry.channel.notify_close()
                self._drain_from_locked(entry.conn, now)
            while self._draining:
                conn, deadline = next(iter(self._draining.items()))
                if deadline > now:
                    break
                self._close_drained_locked(conn)

    def _drain_from_locked(self, conn: socket.socket, now: float) -> None:
        """Half-close ``conn``, registered on the selector: its peer reads
        what it was last sent (an alert, a busy notice), and its EOF, or
        the grace period, finishes the drain."""
        try:
            conn.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        conn.setblocking(False)
        self._draining[conn] = now + _DRAIN_GRACE

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
