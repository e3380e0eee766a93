"""Passive network eavesdropping (§5.1, §5.2).

:class:`WireCapture` records every frame crossing a tapped link, in both
directions, exactly as a network sniffer between the two hosts would.  The
capture API then answers the attacker's questions: *did a secret cross in
cleartext?* and *how many bytes did I get?*

:meth:`WireCapture.tap` wraps a client's end of a connection; the server
is reached as usual.  Tapping hooks exist for both kinds of connection
the paper worries about:

- :func:`tap_link_target` wraps any link-factory target (a testbed's
  MyProxy, GRAM or storage target, a server's ``connect``) — used to show
  the GSI channel leaks nothing;
- :func:`tap_web_connector` wraps a browser connector — used to show a
  plain-HTTP portal login leaks the pass phrase while the HTTPS one does
  not.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.transport.links import Link


@dataclass
class WireCapture:
    """Everything a passive attacker on the wire collects."""

    label: str = "capture"
    frames_to_server: list[bytes] = field(default_factory=list)
    frames_to_client: list[bytes] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def record_to_server(self, frame: bytes) -> None:
        with self._lock:
            self.frames_to_server.append(frame)

    def record_to_client(self, frame: bytes) -> None:
        with self._lock:
            self.frames_to_client.append(frame)

    def tap(self, link: Link) -> Link:
        """``link``, with every frame it carries recorded here."""
        return _TappedLink(link, self)

    # -- attacker queries -----------------------------------------------------

    def all_bytes(self) -> bytes:
        with self._lock:
            return b"".join(self.frames_to_server) + b"".join(self.frames_to_client)

    def contains(self, secret: str | bytes) -> bool:
        """Did ``secret`` cross the wire in cleartext?"""
        needle = secret.encode("utf-8") if isinstance(secret, str) else secret
        return needle in self.all_bytes()

    def frame_count(self) -> int:
        with self._lock:
            return len(self.frames_to_server) + len(self.frames_to_client)

    def byte_count(self) -> int:
        return len(self.all_bytes())

    def cleartext_http_requests(self) -> list[bytes]:
        """Frames that parse as plaintext HTTP requests (plain-HTTP loot)."""
        with self._lock:
            frames = list(self.frames_to_server)
        return [f for f in frames if f.split(b" ", 1)[0] in (b"GET", b"POST", b"HEAD")]


class _TappedLink(Link):
    """A client's link as a sniffer on the wire sees it."""

    def __init__(self, link: Link, capture: WireCapture) -> None:
        self._link = link
        self._capture = capture

    def send_frame(self, frame: bytes) -> None:
        self._capture.record_to_server(frame)
        self._link.send_frame(frame)

    def recv_frame(self) -> bytes:
        frame = self._link.recv_frame()
        self._capture.record_to_client(frame)
        return frame

    def peek(self, count: int) -> bytes | None:
        return self._link.peek(count)

    def close(self) -> None:
        self._link.close()


def tap_link_target(target, capture: WireCapture):
    """A link-factory target whose traffic lands in ``capture``.

    ``target`` is the link factory to tap (e.g. ``MyProxyServer.connect``
    or a testbed's in-process target); the result is a drop-in replacement.
    """
    return lambda: capture.tap(target())


def tap_web_connector(portal, capture: WireCapture, validator):
    """A browser connector for one portal with the wire tapped.

    Both plain HTTP and HTTPS go through the tap — the difference in what
    the capture contains afterwards *is* the §5.2 result.
    """
    from repro.web.client import HttpTransport, LinkTransport, SecureTransport

    def _connect(scheme: str, host: str, port: int) -> HttpTransport:
        link = capture.tap(portal.web.connect(scheme))
        if scheme == "https":
            return SecureTransport(link, validator)
        return LinkTransport(link)

    return _connect
