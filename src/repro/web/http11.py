"""HTTP/1.1 message model: parse, serialize, cookies, forms.

Deliberately small but real: request line + headers + ``Content-Length``
bodies, url-encoded forms, cookie headers, redirects.  Enough for any
scripted "standard web browser" (§3.1) to drive a Grid portal, and enough
for the §5.2 eavesdropping experiment to find a pass phrase in a plain-HTTP
POST body.

Messages are exchanged either as whole byte blobs over the secure channel
(HTTPS mode) or over a TCP stream with incremental parsing (plain mode) —
:class:`HttpParser` frames the latter, and :class:`HttpStreamLink` makes
such a stream carry one message per frame, as a pipe does.
"""

from __future__ import annotations

import contextlib
import json
import re
import socket
import time
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, quote, unquote, urlencode

from repro.transport.links import SocketLink
from repro.util.errors import ProtocolError, TransportError

MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 16 * 1024 * 1024

_REASONS = {
    200: "OK",
    302: "Found",
    303: "See Other",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def content_length(headers: list[tuple[str, str]]) -> int | None:
    """The declared body length (None if undeclared); anything but a plain
    decimal count (a sign, a space, ``abc``) is a :class:`ProtocolError`."""
    for name, value in headers:
        if name.lower() == "content-length":
            if not re.fullmatch(r"[0-9]{1,18}", value):
                raise ProtocolError(f"malformed Content-Length {value!r}")
            return int(value)
    return None


def _parse_headers(lines: list[str]) -> list[tuple[str, str]]:
    headers: list[tuple[str, str]] = []
    for line in lines:
        name, sep, value = line.partition(":")
        if not sep or not name.strip():
            raise ProtocolError(f"malformed header line {line!r}")
        headers.append((name.strip(), value.strip()))
    return headers


@dataclass
class HttpRequest:
    """One parsed HTTP request."""

    method: str
    target: str  # path?query as sent
    headers: list[tuple[str, str]] = field(default_factory=list)
    body: bytes = b""

    # -- header access -----------------------------------------------------

    def header(self, name: str) -> str | None:
        wanted = name.lower()
        for key, value in self.headers:
            if key.lower() == wanted:
                return value
        return None

    @property
    def path(self) -> str:
        return unquote(self.target.partition("?")[0])

    @property
    def query(self) -> dict[str, str]:
        return dict(parse_qsl(self.target.partition("?")[2], keep_blank_values=True))

    @property
    def cookies(self) -> dict[str, str]:
        raw = self.header("Cookie") or ""
        jar: dict[str, str] = {}
        for part in raw.split(";"):
            name, sep, value = part.strip().partition("=")
            if sep and name:
                jar[name] = value
        return jar

    @property
    def form(self) -> dict[str, str]:
        """The url-encoded POST body, if that is what this is."""
        ctype = (self.header("Content-Type") or "").split(";")[0].strip()
        if ctype != "application/x-www-form-urlencoded":
            return {}
        return dict(
            parse_qsl(self.body.decode("utf-8", "replace"), keep_blank_values=True)
        )

    # -- wire form ------------------------------------------------------------

    def serialize(self) -> bytes:
        if any(c in self.target for c in " \r\n"):
            raise ProtocolError(f"bad request target {self.target!r}")
        head = [f"{self.method} {self.target} HTTP/1.1"]
        names = {k.lower() for k, _ in self.headers}
        head += [f"{k}: {v}" for k, v in self.headers]
        if self.body and "content-length" not in names:
            head.append(f"Content-Length: {len(self.body)}")
        return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + self.body

    @classmethod
    def parse(cls, data: bytes) -> HttpRequest:
        head, sep, body = data.partition(b"\r\n\r\n")
        if not sep:
            raise ProtocolError("request without header terminator")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3 or parts[2] not in ("HTTP/1.1", "HTTP/1.0"):
            raise ProtocolError(f"malformed request line {lines[0]!r}")
        request = cls(
            method=parts[0].upper(),
            target=parts[1],
            headers=_parse_headers(lines[1:]),
            body=body,
        )
        declared = content_length(request.headers)
        if declared is not None and declared != len(body):
            raise ProtocolError("Content-Length does not match body")
        return request

    # -- construction helpers ------------------------------------------------

    @classmethod
    def get(cls, target: str, **headers: str) -> HttpRequest:
        return cls("GET", target, headers=list(headers.items()))

    @classmethod
    def post_form(cls, target: str, fields: dict[str, str], **headers: str) -> HttpRequest:
        body = urlencode(fields).encode("utf-8")
        hdrs = list(headers.items()) + [
            ("Content-Type", "application/x-www-form-urlencoded"),
            ("Content-Length", str(len(body))),
        ]
        return cls("POST", target, headers=hdrs, body=body)


@dataclass
class HttpResponse:
    """One HTTP response."""

    status: int = 200
    headers: list[tuple[str, str]] = field(default_factory=list)
    body: bytes = b""

    def header(self, name: str) -> str | None:
        wanted = name.lower()
        for key, value in self.headers:
            if key.lower() == wanted:
                return value
        return None

    @property
    def text(self) -> str:
        return self.body.decode("utf-8", "replace")

    @property
    def set_cookies(self) -> dict[str, str]:
        jar: dict[str, str] = {}
        for key, value in self.headers:
            if key.lower() == "set-cookie":
                pair = value.split(";")[0]
                name, sep, val = pair.partition("=")
                if sep:
                    jar[name.strip()] = val.strip()
        return jar

    def set_cookie(self, name: str, value: str, *, max_age: int | None = None) -> None:
        attrs = f"{quote(name)}={quote(value)}; Path=/; HttpOnly"
        if max_age is not None:
            attrs += f"; Max-Age={max_age}"
        self.headers.append(("Set-Cookie", attrs))

    # -- wire form ------------------------------------------------------------

    def serialize(self) -> bytes:
        reason = _REASONS.get(self.status, "Unknown")
        head = [f"HTTP/1.1 {self.status} {reason}"]
        names = {k.lower() for k, _ in self.headers}
        head += [f"{k}: {v}" for k, v in self.headers]
        if "content-length" not in names:
            head.append(f"Content-Length: {len(self.body)}")
        return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + self.body

    @classmethod
    def parse(cls, data: bytes) -> HttpResponse:
        head, sep, body = data.partition(b"\r\n\r\n")
        if not sep:
            raise ProtocolError("response without header terminator")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ", 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
            raise ProtocolError(f"malformed status line {lines[0]!r}")
        return cls(status=int(parts[1]), headers=_parse_headers(lines[1:]), body=body)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def html(cls, markup: str, status: int = 200) -> HttpResponse:
        body = markup.encode("utf-8")
        return cls(
            status=status,
            headers=[("Content-Type", "text/html; charset=utf-8")],
            body=body,
        )

    @classmethod
    def json(cls, payload: dict, status: int = 200) -> HttpResponse:
        return cls(
            status=status,
            headers=[("Content-Type", "application/json")],
            body=json.dumps(payload, sort_keys=True).encode("utf-8"),
        )

    @classmethod
    def redirect(cls, location: str) -> HttpResponse:
        return cls(status=303, headers=[("Location", location)])

    @classmethod
    def error(cls, status: int, message: str) -> HttpResponse:
        return cls.html(f"<h1>{status}</h1><p>{message}</p>", status=status)


class HttpParser:
    """Incremental framer for plain-TCP byte streams.

    Feed raw chunks; :meth:`next_message` returns the bytes of one whole
    message once they are buffered (or ``None`` if more are needed).
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, chunk: bytes) -> None:
        self._buffer += chunk
        if len(self._buffer) > MAX_HEADER_BYTES + MAX_BODY_BYTES:
            raise ProtocolError("HTTP message too large")

    def next_message(self) -> bytes | None:
        idx = self._buffer.find(b"\r\n\r\n")
        if idx < 0:
            if len(self._buffer) > MAX_HEADER_BYTES:
                raise ProtocolError("HTTP headers too large")
            return None
        # Only the headers are read here; the body may not have arrived
        # yet, so the full parse (which checks its length) comes later.
        lines = self._buffer[:idx].decode("latin-1").split("\r\n")[1:]
        length = content_length(_parse_headers(lines)) or 0
        if length > MAX_BODY_BYTES:
            raise ProtocolError("declared body too large")
        total = idx + 4 + length
        if len(self._buffer) < total:
            return None
        message = bytes(self._buffer[:total])
        del self._buffer[:total]
        return message


class HttpStreamLink(SocketLink):
    """Plain HTTP on a TCP socket, one whole message per frame (as on a
    framed pipe).  The socket's timeout bounds the whole message, not each
    ``recv``, so a peer trickling a byte at a time loses its turn on time."""

    def __init__(self, sock: socket.socket) -> None:
        super().__init__(sock)
        self._parser = HttpParser()

    def _wire(self, frame: bytes) -> bytes:
        return frame  # an HTTP message delimits itself

    def recv_frame(self) -> bytes:
        timeout = self._sock.gettimeout()
        deadline = time.monotonic() + (timeout or 0.0)
        try:
            while (message := self._parser.next_message()) is None:
                if timeout is not None:
                    left = deadline - time.monotonic()
                    if left <= 0:
                        raise TransportError("HTTP message not received in time")
                    self._sock.settimeout(left)
                chunk = self._sock.recv(65536)
                if not chunk:
                    raise TransportError("connection closed by peer")
                self._parser.feed(chunk)
        except OSError as exc:
            raise TransportError(f"socket recv failed: {exc}") from exc
        finally:
            with contextlib.suppress(OSError):  # a closed socket has none to restore
                self._sock.settimeout(timeout)
        return message
