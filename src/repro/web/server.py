"""The web server behind every Grid portal in this reproduction.

Listens in two modes, matching §5.2's distinction:

- **plain HTTP** — either raw TCP (real byte-stream parsing via
  :class:`~repro.web.http11.HttpParser`) or framed over a
  :class:`~repro.transport.links.Link` (so the in-memory attack harness can
  tap plaintext traffic).  This is the mode a portal must *refuse* logins
  on.
- **HTTPS** — HTTP messages over the secure channel with anonymous clients
  allowed ("the portal web server must currently be configured to only
  allow HTTP connections secured with SSL encryption").

Routing is exact-path; handlers receive a :class:`WebContext` carrying the
request, the (cookie-tracked) session and whether the connection was
secure.
"""

from __future__ import annotations

import socket
import threading
from collections.abc import Callable
from dataclasses import dataclass

from repro.pki.credentials import Credential
from repro.pki.validation import ChainValidator
from repro.transport.channel import accept_secure
from repro.transport.links import Link, SocketLink
from repro.util.clock import SYSTEM_CLOCK, Clock
from repro.util.concurrency import ServiceThread
from repro.util.errors import ProtocolError, ReproError, TransportError
from repro.util.logging import get_logger
from repro.web.http11 import HttpParser, HttpRequest, HttpResponse
from repro.web.sessions import SESSION_COOKIE, DEFAULT_TTL, Session, SessionStore

logger = get_logger("web.server")


@dataclass
class WebContext:
    """Everything a route handler gets.

    ``peer`` is the client's validated Grid identity when the connection
    was HTTPS *and* the client presented a certificate chain — ``None`` for
    plain HTTP and for anonymous (browser) HTTPS clients.  The §6.4 HTTP
    binding of the MyProxy protocol authorizes on it alone: ``session`` is
    ``None`` there (:meth:`WebServer.dispatch`).
    """

    request: HttpRequest
    session: Session | None
    secure: bool
    peer: object | None = None


Handler = Callable[[WebContext], HttpResponse]


def _rewrite_redirect(response: HttpResponse, session_id: str) -> None:
    """§5.2's second session-tracking option: carry the session id in the
    URL for clients that refuse cookies."""
    location = response.header("Location")
    if location is None or "sid=" in location:
        return
    separator = "&" if "?" in location else "?"
    rewritten = f"{location}{separator}sid={session_id}"
    response.headers = [
        (k, v) if k.lower() != "location" else (k, rewritten)
        for k, v in response.headers
    ]


class WebServer:
    """A small routed web server with sessions."""

    def __init__(
        self,
        name: str,
        *,
        clock: Clock = SYSTEM_CLOCK,
        session_ttl: float = DEFAULT_TTL,
        credential: Credential | None = None,
        validator: ChainValidator | None = None,
    ) -> None:
        self.name = name
        self.clock = clock
        self.sessions = SessionStore(ttl=session_ttl, clock=clock)
        self.credential = credential  # needed for HTTPS mode
        self.validator = validator
        self._routes: dict[tuple[str, str], Handler] = {}
        self._listeners: list[ServiceThread] = []
        self._socks: list[socket.socket] = []
        self.http_endpoint: tuple[str, int] | None = None
        self.https_endpoint: tuple[str, int] | None = None

    # -- routing ------------------------------------------------------------

    def route(self, method: str, path: str) -> Callable[[Handler], Handler]:
        def _register(handler: Handler) -> Handler:
            self.add_route(method, path, handler)
            return handler

        return _register

    def add_route(self, method: str, path: str, handler: Handler) -> None:
        key = (method.upper(), path)
        if key in self._routes:
            raise ValueError(f"duplicate route {key}")
        self._routes[key] = handler

    # -- core request handling ------------------------------------------------

    def dispatch(
        self, request: HttpRequest, *, secure: bool, peer=None, session=None
    ) -> HttpResponse:
        """Route one request to its handler: no session is looked up or
        created, and no cookie is set."""
        handler = self._routes.get((request.method, request.path))
        if handler is None:
            known_paths = {p for (_m, p) in self._routes}
            status = 405 if request.path in known_paths else 404
            return HttpResponse.error(status, f"no route for {request.method} {request.path}")
        try:
            return handler(
                WebContext(request=request, session=session, secure=secure, peer=peer)
            )
        except ReproError as exc:
            return HttpResponse.error(403, str(exc))
        except Exception:  # noqa: BLE001 - a handler bug must not kill the server
            logger.exception("%s: handler crashed for %s", self.name, request.path)
            return HttpResponse.error(500, "internal portal error")

    def respond(
        self, request: HttpRequest, *, secure: bool, peer=None
    ) -> HttpResponse:
        """:meth:`dispatch` one request within its browser session.

        Session resolution follows §5.2's two options: the cookie first,
        then — for cookie-refusing clients — a rewritten-URL ``sid``
        parameter (query or form field).  When a session arrived via URL
        rewriting, redirects are rewritten to carry it onward.
        """
        sid = request.cookies.get(SESSION_COOKIE)
        via_url = False
        if sid is None:
            sid = request.query.get("sid") or request.form.get("sid")
            via_url = sid is not None
        session = self.sessions.get(sid)
        fresh = session is None
        if session is None:
            session = self.sessions.create()
        response = self.dispatch(request, secure=secure, peer=peer, session=session)
        if fresh:
            response.set_cookie(SESSION_COOKIE, session.session_id)
        if via_url or fresh:
            _rewrite_redirect(response, session.session_id)
        return response

    def answer(self, data: bytes, *, secure=True, peer=None, sessions=True) -> bytes:
        """The serialized reply to one serialized request (a 400 when it
        does not parse); ``sessions=False`` skips :meth:`respond`'s
        browser sessions."""
        try:
            request = HttpRequest.parse(data)
            route = self.respond if sessions else self.dispatch
            response = route(request, secure=secure, peer=peer)
        except ProtocolError as exc:
            response = HttpResponse.error(400, str(exc))
        return response.serialize()

    # -- plain HTTP over a framed Link (pipes; tappable by the attack harness) --

    def handle_plain_link(self, link: Link) -> None:
        try:
            while True:
                try:
                    data = link.recv_frame()
                except TransportError:
                    break
                link.send_frame(self.answer(data, secure=False))
        finally:
            link.close()

    # -- HTTPS: HTTP messages over the secure channel ----------------------------

    def handle_secure_link(self, link: Link) -> None:
        """Serve HTTP requests over one secure channel (anonymous browsers
        welcome) until the peer hangs up."""
        if self.credential is None or self.validator is None:
            raise RuntimeError(f"{self.name} has no credential/validator for HTTPS")
        try:
            channel = accept_secure(
                link, self.credential, self.validator, allow_anonymous=True
            )
        except ReproError as exc:
            logger.info("%s: TLS handshake failed: %s", self.name, exc)
            return
        try:
            while True:
                try:
                    data = channel.recv()
                except TransportError:
                    break
                channel.send(self.answer(data, peer=channel.peer))
        finally:
            channel.close()

    # -- raw-TCP plain HTTP (real byte-stream parsing) ----------------------------

    def _handle_plain_socket(self, conn: socket.socket) -> None:
        parser = HttpParser()
        try:
            while True:
                request = parser.next_request()
                if request is not None:
                    response = self.respond(request, secure=False)
                    conn.sendall(response.serialize())
                    break  # Connection: close semantics
                chunk = conn.recv(65536)
                if not chunk:
                    break
                parser.feed(chunk)
        except (ProtocolError, OSError) as exc:
            try:
                conn.sendall(HttpResponse.error(400, str(exc)).serialize())
            except OSError:
                pass
        finally:
            conn.close()

    # -- listeners ------------------------------------------------------------

    def listen(
        self, host: str, port: int, per_conn: Callable, label: str
    ) -> tuple[str, int]:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        sock.listen(64)
        sock.settimeout(0.2)
        self._socks.append(sock)
        endpoint = sock.getsockname()

        def _loop(stop_event: threading.Event) -> None:
            while not stop_event.is_set():
                try:
                    conn, _addr = sock.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                conn.settimeout(30.0)
                threading.Thread(
                    target=per_conn, args=(conn,), daemon=True, name=f"{self.name}-{label}"
                ).start()

        listener = ServiceThread(_loop, f"{self.name}-{label}-listener")
        listener.start()
        self._listeners.append(listener)
        logger.info("%s %s listening on %s:%d", self.name, label, *endpoint)
        return endpoint

    def start_http(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Plain HTTP on raw TCP."""
        self.http_endpoint = self.listen(host, port, self._handle_plain_socket, "http")
        return self.http_endpoint

    def start_https(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """HTTPS (secure channel) on TCP."""
        if self.credential is None or self.validator is None:
            raise RuntimeError(f"{self.name} has no credential/validator for HTTPS")

        def _per_conn(conn: socket.socket) -> None:
            self.handle_secure_link(SocketLink(conn))

        self.https_endpoint = self.listen(host, port, _per_conn, "https")
        return self.https_endpoint

    def stop(self) -> None:
        for listener in self._listeners:
            listener.stop()
        self._listeners.clear()
        for sock in self._socks:
            sock.close()
        self._socks.clear()

    def __enter__(self) -> WebServer:
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
