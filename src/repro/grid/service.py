"""Base class for GSI-protected Grid services.

Every Grid service in this reproduction follows the same shape:

1. accept a mutually-authenticated secure channel;
2. build a :class:`~repro.gsi.context.SecurityContext` (peer identity plus
   this service's gridmap);
3. serve JSON requests (``{"op": ..., ...}`` → ``{"ok": ..., ...}``) until
   the client closes — handlers may run delegation sub-protocols on the
   same channel (that is how GRAM receives job credentials).

A service is a binding of the package's one serving stack
(:mod:`repro.transport.listener`): over TCP its channel waits between
requests in the listener's selector, not on a worker, and the listener's
tick runs the service's :meth:`~GsiService.sweep` (GRAM's job poll).
Subclasses implement :meth:`GsiService.dispatch`.

:class:`ServiceClient` is the matching client-side helper: open a channel,
exchange JSON, optionally delegate.
"""

from __future__ import annotations

import json

from repro.gsi.context import SecurityContext
from repro.gsi.gridmap import GridMap
from repro.pki.credentials import Credential
from repro.pki.validation import ChainValidator
from repro.transport.channel import SecureChannel, accept_secure, connect_secure
from repro.transport.links import Link
from repro.transport.listener import Binding, Listener
from repro.util.clock import SYSTEM_CLOCK, Clock
from repro.util.errors import (
    AuthorizationError,
    ProtocolError,
    ReproError,
)
from repro.util.logging import get_logger

logger = get_logger("grid.service")

#: A service's per-operation timeout; its pool and queue are the
#: listener's defaults (:data:`repro.transport.listener.WORKERS`).
TIMEOUT = 30.0


def send_json(channel: SecureChannel, obj: dict) -> None:
    channel.send(json.dumps(obj, sort_keys=True).encode("utf-8"))


def _decode_json(data: bytes) -> dict:
    try:
        obj = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError("peer sent malformed JSON") from exc
    if not isinstance(obj, dict):
        raise ProtocolError("JSON message must be an object")
    return obj


def recv_json(channel: SecureChannel) -> dict:
    return _decode_json(channel.recv())


class GsiService(Binding):
    """A TCP (or pipe) server fronted by GSI mutual authentication."""

    def __init__(
        self,
        name: str,
        credential: Credential,
        validator: ChainValidator,
        gridmap: GridMap,
        *,
        clock: Clock = SYSTEM_CLOCK,
        key_source=None,
    ) -> None:
        self.name = name
        self.credential = credential
        self.validator = validator
        self.gridmap = gridmap
        self.clock = clock
        #: Where keys for *accepted delegations* come from (job credentials,
        #: transfer credentials).  Defaults to fresh per-delegation keys.
        self.key_source = key_source
        self._listener: Listener | None = None
        self._endpoint: tuple[str, int] | None = None

    # -- dispatch (subclass API) ------------------------------------------------

    def dispatch(
        self, ctx: SecurityContext, request: dict, channel: SecureChannel
    ) -> dict:
        """Handle one request; return the response object."""
        raise NotImplementedError

    # -- serving (a binding: see repro.transport.listener) ----------------------

    def open(self, link: Link) -> SecureChannel | None:
        try:
            return accept_secure(link, self.credential, self.validator)
        except ReproError as exc:
            logger.info("%s: handshake rejected: %s", self.name, exc)
            return None

    def answer(self, channel: SecureChannel, message: bytes) -> bool:
        """Dispatch one JSON request; the channel is kept for the next."""
        request = _decode_json(message)
        ctx = SecurityContext(channel=channel, peer=channel.peer, service_name=self.name)
        try:
            response = self.dispatch(ctx, request, channel)
        except ReproError as exc:
            response = {"ok": False, "error": str(exc)}
        send_json(channel, response)
        return True

    def failed(self, channel: SecureChannel, exc: ReproError) -> None:
        # A desynchronized or hostile peer (e.g. stray stream chunks after
        # a refused upload) is dropped rather than guessed at.
        logger.info("%s: dropping peer: %s", self.name, exc)

    def busy_reply(self, retry_after: float) -> bytes:
        return json.dumps({"ok": False, "error": f"busy; retry in {retry_after:.3f}s"}).encode()

    def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        self._listener = Listener(self.name, timeout=TIMEOUT)
        self._endpoint = self._listener.listen(host, port, self)
        return self._endpoint

    def stop(self) -> None:
        if self._listener is not None:
            self._listener.stop()
            self._listener = None

    @property
    def endpoint(self) -> tuple[str, int]:
        if self._endpoint is None:
            raise RuntimeError(f"{self.name} is not listening")
        return self._endpoint

    def __enter__(self) -> GsiService:
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


class ServiceClient:
    """Client-side channel + JSON plumbing shared by Gram/Storage clients."""

    def __init__(
        self,
        target,
        credential: Credential,
        validator: ChainValidator,
    ) -> None:
        self._target = target
        self.credential = credential
        self.validator = validator
        self._channel: SecureChannel | None = None

    def _open(self) -> SecureChannel:
        if self._channel is None:
            target = self._target
            link = target() if callable(target) else target
            if isinstance(link, Link):
                self._channel = connect_secure(link, self.credential, self.validator)
            else:
                self._channel = connect_secure(tuple(link), self.credential, self.validator)
        return self._channel

    @property
    def channel(self) -> SecureChannel:
        return self._open()

    def call(self, request: dict) -> dict:
        """One request/response exchange; raises on ``ok: false``."""
        channel = self._open()
        send_json(channel, request)
        response = recv_json(channel)
        if not response.get("ok", False):
            raise AuthorizationError(
                f"service refused {request.get('op')!r}: {response.get('error')}"
            )
        return response

    def close(self) -> None:
        if self._channel is not None:
            self._channel.close()
            self._channel = None

    def __enter__(self) -> ServiceClient:
        return self

    def __exit__(self, *exc) -> None:
        self.close()
