"""The :class:`SecureChannel` — what applications actually use.

After a successful handshake, a channel moves byte messages with privacy,
integrity and in-order replay protection (§2.2), and exposes the peer's
validated identity for authorization decisions (gridmap lookups, the
MyProxy ACLs).

Channels are full-duplex and safe for one reader plus one writer thread,
matching the request/response protocols built on top.  One channel may
carry a sequence of request/response turns (PROTOCOL.md §6); the server
side remembers what it needs to re-check trust before each later turn.
"""

from __future__ import annotations

import threading

from repro.pki.certs import Certificate
from repro.pki.credentials import Credential
from repro.pki.validation import ChainValidator, ValidatedIdentity
from repro.transport.handshake import HandshakeResult, client_handshake, server_handshake
from repro.transport.links import HEADER_SIZE, Link, connect_tcp
from repro.transport.records import ContentType
from repro.transport.tickets import SessionTicket, SessionTicketManager, TicketStore
from repro.util.errors import TransportError, ValidationError

_ALERT_CLOSE = b"close notify"


class PeerClosedError(TransportError):
    """The peer ended the channel with a close-notify alert."""


class SecureChannel:
    """An authenticated, encrypted message channel over a :class:`Link`."""

    def __init__(
        self, link: Link, result: HandshakeResult, trust_generation: int = 0
    ) -> None:
        self._link = link
        #: ``None`` for an anonymous (browser-style) client, on the server side.
        self.peer: ValidatedIdentity | None = result.peer
        self.is_client = result.is_client
        #: Resumption telemetry: whether this connection rode a session
        #: ticket, and whether one was presented at all (hit/miss signal).
        self.resumed = result.resumed
        self.ticket_presented = result.ticket_presented
        #: Server side: the validator's trust generation when the handshake
        #: began, and the peer chain it proved (see :meth:`still_trusted`).
        self.trust_generation = trust_generation
        self._peer_chain_pem = result.peer_chain_pem
        self._peer_chain: list[Certificate] | None = None
        #: Application messages received so far; the client compares it
        #: across a turn to tell "closed before replying" from a reply.
        self.received = 0
        # Continue the handshake's record streams: their sequence numbers
        # already cover the Finished messages, so no AES-GCM nonce repeats.
        self._writer = result.writer
        self._reader = result.reader
        self._send_lock = threading.Lock()
        self._recv_lock = threading.Lock()
        self._closed = False

    # -- data ---------------------------------------------------------------

    def send(self, message: bytes) -> None:
        """Encrypt and send one application message."""
        self.send_many([message])

    def send_many(self, messages: list[bytes]) -> None:
        """Encrypt ``messages`` as consecutive records and hand them to
        the link together: over TCP, one write for the lot."""
        with self._send_lock:
            if self._closed:
                raise TransportError("channel is closed")
            self._link.send_frames([self._writer.seal(ContentType.DATA, m) for m in messages])

    def recv(self) -> bytes:
        """Receive the next application message.

        Raises :class:`TransportError` once the peer closes the channel.
        """
        with self._recv_lock:
            while True:
                if self._closed:
                    raise TransportError("channel is closed")
                ctype, payload = self._reader.open(self._link.recv_frame())
                if ctype is ContentType.DATA:
                    self.received += 1
                    return payload
                if ctype is ContentType.ALERT:
                    self._closed = True
                    raise PeerClosedError(
                        f"peer closed channel: {payload.decode('utf-8', 'replace')}"
                    )
                raise TransportError(f"unexpected record type {ctype} after handshake")

    # -- reuse ----------------------------------------------------------------

    def peer_closing(self) -> bool:
        """Between turns: has the peer already ended this idle channel?

        True at end of stream or when the next record is a close alert
        (the record type travels in the clear).  Never blocks and consumes
        nothing; a partly arrived record counts as not closing.
        """
        head = self._link.peek(HEADER_SIZE + 1)
        return head is not None and (
            head == b"" or (len(head) > HEADER_SIZE and head[HEADER_SIZE] == ContentType.ALERT)
        )

    def still_trusted(self, validator: ChainValidator) -> bool:
        """Re-check the peer before serving another turn (server side).

        Exactly the check a session-ticket redemption makes: the trust
        generation must not have moved since the handshake, and the peer
        chain must still validate (expiry, CRL) through the chain cache.
        The chain is parsed once per channel, through the process's
        parsed-certificate table, so its objects carry the signature checks
        the handshake already made.  Anonymous peers never get a second turn.
        """
        if self.peer is None or validator.generation != self.trust_generation:
            return False
        try:
            if self._peer_chain is None:
                self._peer_chain = Certificate.list_from_pem(self._peer_chain_pem)
            validator.validate(self._peer_chain)
        except ValidationError:
            return False
        return True

    # -- lifecycle ------------------------------------------------------------

    def notify_close(self) -> None:
        """Send the close alert (best effort) but leave the link open, for
        a caller that drains the link before shutting it."""
        with self._send_lock:
            if not self._closed:
                self._closed = True
                try:
                    self._link.send_frame(
                        self._writer.seal(ContentType.ALERT, _ALERT_CLOSE)
                    )
                except TransportError:
                    pass

    def close(self) -> None:
        """Send a close alert (best effort) and shut the link."""
        self.notify_close()
        self._link.close()

    def abort(self) -> None:
        """Shut the link without a close alert: the peer sees a transport
        failure, never "closed before reading" (PROTOCOL.md §3.1)."""
        self._closed = True
        self._link.close()

    def __enter__(self) -> SecureChannel:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def connect_secure(
    target: Link | tuple[str, int],
    credential: Credential | None,
    validator: ChainValidator,
    *,
    timeout: float = 10.0,
    ticket: SessionTicket | None = None,
    ticket_store: TicketStore | None = None,
    ticket_key: str | None = None,
    now: float | None = None,
) -> SecureChannel:
    """Open a channel as the initiating (client) side.

    ``target`` is an existing :class:`Link` (tests, pipes) or a
    ``(host, port)`` TCP endpoint.  ``credential=None`` connects
    anonymously (browser-style); GSI services will refuse that.

    Session resumption: pass an explicit ``ticket``, or a ``ticket_store``
    plus ``ticket_key`` to have the channel look up a cached ticket for
    the endpoint and deposit the replacement the server issues.  ``now``
    is the caller's idea of the current time (its Clock), used only to
    skip tickets that have already expired locally.
    """
    link = target if isinstance(target, Link) else connect_tcp(*target, timeout=timeout)
    if ticket is None and ticket_store is not None and ticket_key is not None:
        if now is None:
            import time

            now = time.time()
        ticket = ticket_store.get(ticket_key, now)
    try:
        result = client_handshake(link, credential, validator, ticket=ticket)
    except Exception:
        link.close()
        raise
    if ticket_store is not None and ticket_key is not None:
        if result.new_ticket is not None:
            ticket_store.put(ticket_key, result.new_ticket)
        elif ticket is not None and not result.resumed:
            # The server refused our ticket and issued no replacement —
            # stop presenting it.
            ticket_store.invalidate(ticket_key)
    return SecureChannel(link, result)


def accept_secure(
    link: Link,
    credential: Credential,
    validator: ChainValidator,
    *,
    allow_anonymous: bool = False,
    ticket_manager: SessionTicketManager | None = None,
) -> SecureChannel:
    """Open a channel as the accepting (server) side."""
    # Read before the handshake: a trust change that races it only makes
    # the next turn's re-check fail, never pass.
    generation = validator.generation
    try:
        return SecureChannel(
            link,
            server_handshake(
                link,
                credential,
                validator,
                allow_anonymous=allow_anonymous,
                ticket_manager=ticket_manager,
            ),
            generation,
        )
    except Exception:
        link.close()
        raise
