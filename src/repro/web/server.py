"""The web server behind every Grid portal in this reproduction.

Serves in two modes, matching §5.2's distinction, each a binding of the
package's one serving stack (:mod:`repro.transport.listener`):

- **plain HTTP** (:attr:`WebServer.http_binding`) — one request per
  connection, parsed from a TCP byte stream
  (:class:`~repro.web.http11.HttpStreamLink`) or framed over a
  :class:`~repro.transport.links.Link` (so the in-memory attack harness
  can tap plaintext traffic).  This is the mode a portal must *refuse*
  logins on.
- **HTTPS** (:attr:`WebServer.https_binding`) — HTTP messages over the
  secure channel with anonymous clients allowed ("the portal web server
  must currently be configured to only allow HTTP connections secured
  with SSL encryption").

Routing is exact-path; handlers receive a :class:`WebContext` carrying the
request, the (cookie-tracked) session and whether the connection was
secure.  The listener's tick reaps sessions that expired unseen
(:meth:`WebServer.sweep`).
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from dataclasses import dataclass

from repro.pki.credentials import Credential
from repro.pki.validation import ChainValidator
from repro.transport.channel import SecureChannel, accept_secure
from repro.transport.links import Link
from repro.transport.listener import Binding, Listener
from repro.util.clock import SYSTEM_CLOCK, Clock
from repro.util.errors import ProtocolError, ReproError, TransportError
from repro.util.logging import get_logger
from repro.web.http11 import HttpRequest, HttpResponse, HttpStreamLink
from repro.web.sessions import SESSION_COOKIE, DEFAULT_TTL, Session, SessionStore

logger = get_logger("web.server")

#: A web server's per-operation timeout; its pool and queue are the
#: listener's defaults (:data:`repro.transport.listener.WORKERS`).
TIMEOUT = 30.0


def _busy_page(retry_after: float) -> bytes:
    return HttpResponse.error(503, f"busy; retry in {retry_after:.3f}s").serialize()


class PlainChannel:
    """HTTP messages on a link with no channel security: there is no
    peer identity, and the channel is never kept (so never drained)."""

    peer = None

    def __init__(self, link: Link) -> None:
        self.recv, self.send = link.recv_frame, link.send_frame
        self.close = self.abort = link.close


class PlainHttpBinding(Binding):
    """Plain HTTP: one request per connection (subclasses answer it)."""

    link = HttpStreamLink

    busy_reply = staticmethod(_busy_page)

    def open(self, link: Link) -> PlainChannel:
        return PlainChannel(link)

    def turn_away(self, link: Link, retry_after: float) -> None:
        try:
            link.send_frame(_busy_page(retry_after))
        except TransportError:  # pragma: no cover - peer already gone
            pass

    def failed(self, channel: PlainChannel, exc: ReproError) -> None:
        """A request that does not frame or parse gets a 400."""
        if isinstance(exc, ProtocolError):
            try:
                channel.send(HttpResponse.error(400, str(exc)).serialize())
            except TransportError:
                pass


class _WebBinding(Binding):
    def __init__(self, web: WebServer) -> None:
        self.web = web
        self.sweep = web.sweep  # the server's one sweep (see Listener._sweep)


class _PlainHttp(_WebBinding, PlainHttpBinding):

    def answer(self, channel: PlainChannel, message: bytes) -> bool:
        channel.send(self.web.answer(message, secure=False))
        return False


class _Https(_WebBinding):
    """HTTP over the secure channel; anonymous (browser) clients welcome."""

    busy_reply = staticmethod(_busy_page)

    def require_credential(self) -> None:
        if self.web.credential is None or self.web.validator is None:
            raise RuntimeError(f"{self.web.name} has no credential/validator for HTTPS")

    def open(self, link: Link) -> SecureChannel | None:
        self.require_credential()
        try:
            return accept_secure(
                link, self.web.credential, self.web.validator, allow_anonymous=True
            )
        except ReproError as exc:
            logger.info("%s: TLS handshake failed: %s", self.web.name, exc)
            return None

    def answer(self, channel: SecureChannel, message: bytes) -> bool:
        """Reply; only a certificate-authenticated client keeps its channel."""
        channel.send(self.web.answer(message, peer=channel.peer))
        return channel.peer is not None


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
        self._listener: Listener | None = None
        self._listener_lock = threading.Lock()  # browsers may dial at once
        #: What the listener serves each kind of connection with.
        self.http_binding = _PlainHttp(self)
        self.https_binding = _Https(self)
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

    # -- serving (see repro.transport.listener) ------------------------------

    def sweep(self, now: float) -> None:
        """Destroy the sessions that expired unseen, on the listener's tick:
        a session nobody touches still dies on time (and with it whatever
        hangs off :attr:`SessionStore.on_destroy`)."""
        self.sessions.reap()

    def _serving(self) -> Listener:
        with self._listener_lock:
            if self._listener is None:
                self._listener = Listener(self.name, timeout=TIMEOUT)
            return self._listener

    def connect(self, scheme: str) -> Link:
        """Dial this server in process over ``"http"`` or ``"https"``."""
        if scheme == "http":
            return self._serving().connect(self.http_binding)
        self.https_binding.require_credential()
        return self._serving().connect(self.https_binding)

    def start_http(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Plain HTTP on raw TCP."""
        self.http_endpoint = self._serving().listen(host, port, self.http_binding)
        return self.http_endpoint

    def start_https(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """HTTPS (secure channel) on TCP."""
        self.https_binding.require_credential()
        self.https_endpoint = self._serving().listen(host, port, self.https_binding)
        return self.https_endpoint

    def stop(self) -> None:
        if self._listener is not None:
            self._listener.stop()
            self._listener = None

    def __enter__(self) -> WebServer:
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
