"""A scriptable "standard web browser" (§3.1).

"Users must be able to use any standard web browser to access the Grid
portals ... from locations where their Grid credentials would not normally
be available to them."  Accordingly the browser here holds **no Grid
credential**: HTTPS connections are anonymous-client (server-auth only),
and the only secrets it ever sends are form fields — exactly the situation
that makes MyProxy necessary.

Features: cookie jar per host, form posts, redirect following, pluggable
transports (raw TCP, secure channel, or in-memory pipes for the attack
harness).
"""

from __future__ import annotations

import socket
from collections.abc import Callable
from urllib.parse import urlsplit, urljoin

from repro.pki.validation import ChainValidator
from repro.transport.channel import connect_secure
from repro.transport.links import Link
from repro.util.errors import TransportError
from repro.web.http11 import HttpRequest, HttpResponse, HttpStreamLink


class HttpTransport:
    """One round trip: serialized request bytes in, response bytes out."""

    def roundtrip(self, data: bytes) -> bytes:
        raise NotImplementedError

    def close(self) -> None:
        pass


class LinkTransport(HttpTransport):
    """Plain HTTP framed over a Link (pipes — tappable by eavesdroppers)."""

    def __init__(self, link: Link) -> None:
        self._link = link

    def roundtrip(self, data: bytes) -> bytes:
        self._link.send_frame(data)
        return self._link.recv_frame()

    def close(self) -> None:
        self._link.close()


class RawTcpTransport(LinkTransport):
    """Plain HTTP over a real TCP socket (Connection: close semantics)."""

    def __init__(self, host: str, port: int, timeout: float = 10.0) -> None:
        sock = socket.create_connection((host, port), timeout=timeout)
        super().__init__(HttpStreamLink(sock))


class SecureTransport(HttpTransport):
    """HTTPS: one secure channel per connection.

    Anonymous (browser-style) by default; pass ``credential`` for
    certificate-authenticated HTTP — what the §6.4 MyProxy HTTP binding
    uses.
    """

    def __init__(
        self,
        target: Link | tuple[str, int],
        validator: ChainValidator,
        credential=None,
    ) -> None:
        self._channel = connect_secure(target, credential, validator)

    @property
    def server_identity(self):
        return self._channel.peer

    def roundtrip(self, data: bytes) -> bytes:
        self._channel.send(data)
        return self._channel.recv()

    def close(self) -> None:
        self._channel.close()


#: ``connector(scheme, host, port) -> HttpTransport``
Connector = Callable[[str, str, int], HttpTransport]


def tcp_connector(validator: ChainValidator | None = None) -> Connector:
    """The default connector: raw TCP for http, secure channel for https."""

    def _connect(scheme: str, host: str, port: int) -> HttpTransport:
        if scheme == "http":
            return RawTcpTransport(host, port)
        if scheme == "https":
            if validator is None:
                raise TransportError(
                    "this browser has no trust anchors configured for https"
                )
            return SecureTransport((host, port), validator)
        raise TransportError(f"unsupported URL scheme {scheme!r}")

    return _connect


class Browser:
    """A cookie-keeping HTTP client."""

    def __init__(
        self,
        connector: Connector,
        *,
        user_agent: str = "repro-browser/1.0",
        cookies_enabled: bool = True,
    ) -> None:
        self._connector = connector
        self.user_agent = user_agent
        #: §5.2 models both session options; a cookie-refusing browser
        #: exercises the rewritten-URL fallback.
        self.cookies_enabled = cookies_enabled
        #: host → {cookie name → value}
        self.cookies: dict[str, dict[str, str]] = {}
        #: Every (url, request) this browser sent — the replay harness reads it.
        self.history: list[tuple[str, HttpRequest]] = []

    # -- plumbing -----------------------------------------------------------

    @staticmethod
    def _split(url: str) -> tuple[str, str, int, str]:
        parts = urlsplit(url)
        if parts.scheme not in ("http", "https"):
            raise TransportError(f"unsupported URL scheme in {url!r}")
        host = parts.hostname or ""
        default_port = 80 if parts.scheme == "http" else 443
        target = parts.path or "/"
        if parts.query:
            target += f"?{parts.query}"
        return parts.scheme, host, parts.port or default_port, target

    def _send(self, url: str, request: HttpRequest) -> HttpResponse:
        scheme, host, port, _ = self._split(url)
        jar = self.cookies.setdefault(host, {})
        if jar and self.cookies_enabled:
            request.headers.append(
                ("Cookie", "; ".join(f"{k}={v}" for k, v in jar.items()))
            )
        request.headers.append(("Host", f"{host}:{port}"))
        request.headers.append(("User-Agent", self.user_agent))
        self.history.append((url, request))
        transport = self._connector(scheme, host, port)
        try:
            response = HttpResponse.parse(transport.roundtrip(request.serialize()))
        finally:
            transport.close()
        if self.cookies_enabled:
            jar.update(response.set_cookies)
        return response

    # -- public API -----------------------------------------------------------

    def request(
        self, method: str, url: str, *, form: dict[str, str] | None = None,
        follow_redirects: bool = True, _depth: int = 0,
    ) -> HttpResponse:
        _scheme, _host, _port, target = self._split(url)
        if form is not None:
            request = HttpRequest.post_form(target, form)
            request.method = method.upper()
        else:
            request = HttpRequest(method=method.upper(), target=target)
        response = self._send(url, request)
        if follow_redirects and response.status in (302, 303) and _depth < 5:
            location = response.header("Location") or "/"
            return self.request(
                "GET", urljoin(url, location), follow_redirects=True, _depth=_depth + 1
            )
        return response

    def get(self, url: str, **kwargs) -> HttpResponse:
        return self.request("GET", url, **kwargs)

    def post(self, url: str, form: dict[str, str], **kwargs) -> HttpResponse:
        return self.request("POST", url, form=form, **kwargs)
