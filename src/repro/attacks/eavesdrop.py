"""Passive network eavesdropping (§5.1, §5.2).

:class:`WireCapture` records every frame crossing a tapped link, in both
directions, exactly as a network sniffer between the two hosts would.  The
capture API then answers the attacker's questions: *did a secret cross in
cleartext?* and *how many bytes did I get?*

Tapping hooks exist for both kinds of connection the paper worries about:

- :func:`tap_link_target` wraps any testbed link-factory target (MyProxy,
  GRAM, storage) — used to show the GSI channel leaks nothing;
- :func:`tap_web_connector` wraps a browser connector — used to show a
  plain-HTTP portal login leaks the pass phrase while the HTTPS one does
  not.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.transport.links import Link, PipeLink, pipe_pair
from repro.transport.listener import serve_link


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


def _tapped_pipe(capture: WireCapture, name: str) -> tuple[PipeLink, PipeLink]:
    """A pipe pair with the capture attached to both directions."""
    client_end, server_end = pipe_pair(name)
    client_end.send_taps.append(capture.record_to_server)
    client_end.recv_taps.append(capture.record_to_client)
    return client_end, server_end


def tap_link_target(handler, capture: WireCapture):
    """A link-factory target whose traffic lands in ``capture``.

    ``handler`` is a per-link server entry point
    (e.g. ``MyProxyServer.handle_link``).  Drop-in replacement for the
    testbed's pipe targets.
    """

    def _connect() -> Link:
        client_end, server_end = _tapped_pipe(capture, capture.label)
        threading.Thread(target=handler, args=(server_end,), daemon=True).start()
        return client_end

    return _connect


def tap_web_connector(portal, capture: WireCapture, validator):
    """A browser connector for one portal with the wire tapped.

    Both plain HTTP and HTTPS go through the tap — the difference in what
    the capture contains afterwards *is* the §5.2 result.
    """
    from repro.web.client import HttpTransport, LinkTransport, SecureTransport

    def _connect(scheme: str, host: str, port: int) -> HttpTransport:
        client_end, server_end = _tapped_pipe(capture, f"web:{host}")
        web = portal.web
        binding = web.https_binding if scheme == "https" else web.http_binding
        threading.Thread(
            target=serve_link, args=(server_end, binding), daemon=True
        ).start()
        if scheme == "https":
            return SecureTransport(client_end, validator)
        return LinkTransport(client_end)

    return _connect
