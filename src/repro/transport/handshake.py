"""The mutual-authentication handshake (§2.2).

Structure follows SSL 3.0 with certificate-based client authentication,
the configuration GSI always runs:

.. code-block:: text

    client                                  server
    ------                                  ------
    ClientHello(random, cert chain)  ---->
                                     <----  ServerHello(random, cert chain)
                                     <----  ServerVerify(sig over transcript)
    KeyExchange(RSA-OAEP(pre_master)) ---->
    ClientVerify(sig over transcript) ---->
    [keys derived on both sides]
    Finished(client MAC)  ~~encrypted~~~->
                          <~~encrypted~~~  Finished(server MAC)

Both certificate chains are validated with the full GSI proxy rules
(:class:`repro.pki.validation.ChainValidator`) — this is what lets a portal
authenticate to the MyProxy server with a *proxy* credential, and what makes
impersonating the repository fail (§5.1: "MyProxy clients also require
mutual authentication of the repository").

The two ``*Verify`` signatures prove possession of the private keys; the
``Finished`` MACs (sent under the derived keys) prove both sides derived the
same secrets and saw the same transcript.

**Session resumption** (PROTOCOL.md §3.2): a server holding a
:class:`~repro.transport.tickets.SessionTicketManager` appends a flag to
ServerHello and, after the Finished exchange, sends an encrypted NewTicket
record.  A repeat client presents the ticket as a fifth ClientHello field;
if the server redeems it, the handshake collapses to

.. code-block:: text

    ClientHello(random, chain, ticket) ---->
                                       <----  ServerResume(random)
                                       <~~~~  Finished(server MAC)
    Finished(client MAC)  ~~~~~~~~~~~~~~-->
                                       <~~~~  NewTicket(fresh ticket)

— no RSA key transport, no signatures, no chain walk; both sides derive
keys from the ticket's resumption secret and the fresh randoms.  Mutual
authentication still holds: each Finished proves possession of the ticket
secret, which only the two parties to the original full handshake hold.
Any refusal (expired, tampered, trust material changed) silently falls
back to the full handshake — the client always sends its chain.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass

from repro.pki.credentials import Credential
from repro.pki.validation import ChainValidator, ValidatedIdentity
from repro.transport.kdf import (
    PRE_MASTER_LEN,
    RANDOM_LEN,
    SessionKeys,
    TranscriptHash,
    derive_resumed_keys,
    derive_session_keys,
    finished_mac,
    macs_equal,
)
from repro.transport.links import Link
from repro.transport.records import ContentType, RecordReader, RecordWriter
from repro.transport.tickets import SessionTicket, SessionTicketManager, TicketRefused
from repro.util.encoding import pack_fields, unpack_fields
from repro.util.errors import (
    HandshakeError,
    IntegrityError,
    ServerBusyError,
    TransportError,
    ValidationError,
    busy_hint,
)

PROTOCOL_VERSION = b"GSIv1"

_T_CLIENT_HELLO = b"CH"
_T_SERVER_HELLO = b"SH"
_T_SERVER_RESUME = b"SR"
_T_SERVER_VERIFY = b"SV"
_T_KEY_EXCHANGE = b"KX"
_T_CLIENT_VERIFY = b"CV"
_T_FINISHED = b"FN"
_T_NEW_TICKET = b"NT"
_T_FAILURE = b"HF"

#: ServerHello flag value announcing a NewTicket record will follow the
#: server Finished (the 5th field; old 4-field hellos mean "no ticket").
_TICKET_OFFERED = b"1"

_LABEL_CLIENT = b"client finished"
_LABEL_SERVER = b"server finished"


@dataclass(frozen=True)
class HandshakeResult:
    """Everything a channel needs after a successful handshake.

    ``peer`` is ``None`` when the peer authenticated anonymously (only
    possible for clients, only when the server allows it — the Web-browser
    case of §3.2, where the user's Grid credentials are not available).

    The record ``writer``/``reader`` are the same objects that sealed and
    opened the Finished messages, so their sequence numbers continue into
    the data phase — re-keying from zero with the same keys would reuse an
    AES-GCM nonce, which must never happen.
    """

    keys: SessionKeys
    peer: ValidatedIdentity | None
    is_client: bool
    writer: RecordWriter
    reader: RecordReader
    #: True when this connection skipped the full handshake via a ticket.
    resumed: bool = False
    #: True when the client presented a ticket, whether or not it was
    #: accepted — ``(ticket_presented, resumed)`` is the hit/miss signal
    #: the server's resumption counters consume.
    ticket_presented: bool = False
    #: The fresh ticket issued on this connection (client side only).
    new_ticket: SessionTicket | None = None
    #: The chain the peer proved (server side), for re-checking it later.
    peer_chain_pem: bytes = b""


#: HF reason prefix announcing load shedding rather than a protocol fault.
#: The busy notice must be speakable *before* any key material exists (the
#: whole point of pre-handshake shedding is to spend no crypto on the
#: connection), so it rides the plaintext HF abort alongside the encrypted
#: in-protocol ``RESPONSE=2`` busy reply.
_BUSY_PREFIX = "busy RETRY_AFTER="


def _fail(link: Link, reason: str) -> None:
    """Best-effort failure notice to the peer, then raise."""
    try:
        link.send_frame(pack_fields([_T_FAILURE, reason.encode("utf-8")]))
    except TransportError:
        pass
    raise HandshakeError(reason)


def send_busy_notice(link: Link, retry_after: float) -> None:
    """Tell a not-yet-handshaken peer the server is shedding load.

    Best-effort: the peer may already be gone.  The client's handshake
    surfaces this as :class:`~repro.util.errors.ServerBusyError` carrying
    the retry hint, distinct from any transport failure.
    """
    try:
        link.send_frame(
            pack_fields(
                [_T_FAILURE, f"{_BUSY_PREFIX}{max(retry_after, 0.0):.3f}".encode()]
            )
        )
    except TransportError:
        pass


def _raise_peer_abort(detail: str) -> None:
    if detail.startswith(_BUSY_PREFIX):
        retry_after = busy_hint(detail[len(_BUSY_PREFIX):])
        raise ServerBusyError(
            f"server is shedding load; retry in {retry_after:.3f}s", retry_after
        )
    raise HandshakeError(f"peer aborted handshake: {detail}")


def _expect(message: bytes, expected_type: bytes, link: Link) -> list[bytes]:
    fields = unpack_fields(message)
    if not fields:
        _fail(link, "empty handshake message")
    if fields[0] == _T_FAILURE:
        detail = fields[1].decode("utf-8", "replace") if len(fields) > 1 else "unknown"
        _raise_peer_abort(detail)
    if fields[0] != expected_type:
        _fail(
            link,
            f"unexpected handshake message {fields[0]!r}, wanted {expected_type!r}",
        )
    return fields


def _validate_peer_chain(
    link: Link, validator: ChainValidator, chain_pem: bytes, who: str
) -> ValidatedIdentity:
    from repro.pki.certs import Certificate

    try:
        chain = Certificate.list_from_pem(chain_pem)
        return validator.validate(chain)
    except ValidationError as exc:
        _fail(link, f"{who} certificate chain rejected: {exc}")
        raise AssertionError("unreachable")  # pragma: no cover


def client_handshake(
    link: Link,
    credential: Credential | None,
    validator: ChainValidator,
    *,
    ticket: SessionTicket | None = None,
) -> HandshakeResult:
    """Run the client side of the handshake over ``link``.

    ``credential=None`` performs an *anonymous* (server-auth-only)
    handshake — standard Web SSL, what a browser does.  GSI services refuse
    it; the portal's HTTPS front door accepts it.

    ``ticket`` offers session resumption: the server either accepts it
    (abbreviated handshake) or ignores it (full handshake proceeds on the
    chain that is sent regardless).  Anonymous connections never resume.
    """
    if credential is not None and credential.key is None:
        raise HandshakeError("client credential has no private key")
    if credential is None:
        ticket = None
    transcript = TranscriptHash()
    client_random = secrets.token_bytes(RANDOM_LEN)
    chain_pem = (
        b"".join(c.to_pem() for c in credential.full_chain())
        if credential is not None
        else b""
    )

    hello_fields = [_T_CLIENT_HELLO, PROTOCOL_VERSION, client_random, chain_pem]
    if ticket is not None:
        hello_fields.append(ticket.blob)
    hello = pack_fields(hello_fields)
    link.send_frame(hello)
    transcript.add(hello)

    server_hello = link.recv_frame()
    fields = unpack_fields(server_hello)
    if not fields:
        _fail(link, "empty handshake message")
    if fields[0] == _T_FAILURE:
        detail = fields[1].decode("utf-8", "replace") if len(fields) > 1 else "unknown"
        _raise_peer_abort(detail)
    if ticket is not None and fields[0] == _T_SERVER_RESUME:
        return _client_resume(
            link, transcript, server_hello, fields, ticket, client_random
        )
    if fields[0] != _T_SERVER_HELLO:
        _fail(link, f"unexpected handshake message {fields[0]!r}, wanted {_T_SERVER_HELLO!r}")
    if len(fields) not in (4, 5):
        _fail(link, "malformed ServerHello")
    _, version, server_random, server_chain_pem = fields[:4]
    ticket_offered = len(fields) == 5 and fields[4] == _TICKET_OFFERED
    if version != PROTOCOL_VERSION:
        _fail(link, f"server speaks {version!r}, not {PROTOCOL_VERSION!r}")
    if len(server_random) != RANDOM_LEN:
        _fail(link, "bad server random length")
    transcript.add(server_hello)

    peer = _validate_peer_chain(link, validator, server_chain_pem, "server")

    server_verify = link.recv_frame()
    fields = _expect(server_verify, _T_SERVER_VERIFY, link)
    if len(fields) != 2:
        _fail(link, "malformed ServerVerify")
    if not peer.leaf.public_key.verify(fields[1], _LABEL_SERVER + transcript.digest()):
        _fail(link, "server failed to prove possession of its private key")
    transcript.add(server_verify)

    pre_master = secrets.token_bytes(PRE_MASTER_LEN)
    key_exchange = pack_fields(
        [_T_KEY_EXCHANGE, peer.leaf.public_key.encrypt(pre_master)]
    )
    link.send_frame(key_exchange)
    transcript.add(key_exchange)

    client_sig = (
        credential.sign(_LABEL_CLIENT + transcript.digest())
        if credential is not None
        else b""
    )
    client_verify = pack_fields([_T_CLIENT_VERIFY, client_sig])
    link.send_frame(client_verify)
    transcript.add(client_verify)

    keys = derive_session_keys(pre_master, client_random, server_random)
    digest = transcript.digest()

    writer = RecordWriter(keys.client_write_key, keys.client_iv_salt)
    reader = RecordReader(keys.server_write_key, keys.server_iv_salt)

    fin = pack_fields(
        [_T_FINISHED, finished_mac(keys.client_finished_key, digest, _LABEL_CLIENT)]
    )
    link.send_frame(writer.seal(ContentType.HANDSHAKE, fin))

    try:
        ctype, payload = reader.open(link.recv_frame())
    except IntegrityError as exc:
        raise HandshakeError(f"server Finished failed to decrypt: {exc}") from exc
    if ctype is not ContentType.HANDSHAKE:
        raise HandshakeError("expected encrypted Finished from server")
    fin_fields = unpack_fields(payload, 2)
    if fin_fields[0] != _T_FINISHED or not macs_equal(
        fin_fields[1], finished_mac(keys.server_finished_key, digest, _LABEL_SERVER)
    ):
        raise HandshakeError("server Finished MAC mismatch")

    new_ticket = _read_new_ticket(link, reader, peer) if ticket_offered else None

    return HandshakeResult(
        keys=keys,
        peer=peer,
        is_client=True,
        writer=writer,
        reader=reader,
        resumed=False,
        ticket_presented=ticket is not None,
        new_ticket=new_ticket,
    )


def _client_resume(
    link: Link,
    transcript: TranscriptHash,
    server_resume: bytes,
    fields: list[bytes],
    ticket: SessionTicket,
    client_random: bytes,
) -> HandshakeResult:
    """The abbreviated handshake, after the server accepted our ticket."""
    if len(fields) != 3:
        _fail(link, "malformed ServerResume")
    _, version, server_random = fields
    if version != PROTOCOL_VERSION:
        _fail(link, f"server speaks {version!r}, not {PROTOCOL_VERSION!r}")
    if len(server_random) != RANDOM_LEN:
        _fail(link, "bad server random length")
    transcript.add(server_resume)

    keys = derive_resumed_keys(ticket.secret, client_random, server_random)
    digest = transcript.digest()
    writer = RecordWriter(keys.client_write_key, keys.client_iv_salt)
    reader = RecordReader(keys.server_write_key, keys.server_iv_salt)

    # Server speaks first on resumption: its Finished proves it decrypted
    # the ticket (i.e. it holds the STEK *and* the resumption secret).
    try:
        ctype, payload = reader.open(link.recv_frame())
    except IntegrityError as exc:
        raise HandshakeError(f"server Finished failed to decrypt: {exc}") from exc
    if ctype is not ContentType.HANDSHAKE:
        raise HandshakeError("expected encrypted Finished from server")
    fin_fields = unpack_fields(payload, 2)
    if fin_fields[0] != _T_FINISHED or not macs_equal(
        fin_fields[1], finished_mac(keys.server_finished_key, digest, _LABEL_SERVER)
    ):
        raise HandshakeError("server Finished MAC mismatch")

    fin = pack_fields(
        [_T_FINISHED, finished_mac(keys.client_finished_key, digest, _LABEL_CLIENT)]
    )
    link.send_frame(writer.seal(ContentType.HANDSHAKE, fin))

    # A resuming server always re-tickets the connection (ticket rotation:
    # each ticket is observed on the wire at most once in plaintext).
    new_ticket = _read_new_ticket(link, reader, ticket.peer)

    return HandshakeResult(
        keys=keys,
        peer=ticket.peer,
        is_client=True,
        writer=writer,
        reader=reader,
        resumed=True,
        ticket_presented=True,
        new_ticket=new_ticket,
    )


def _read_new_ticket(
    link: Link, reader: RecordReader, peer: ValidatedIdentity | None
) -> SessionTicket:
    """Consume the encrypted NewTicket record that ends a ticketed handshake."""
    try:
        ctype, payload = reader.open(link.recv_frame())
    except IntegrityError as exc:
        raise HandshakeError(f"NewTicket failed to decrypt: {exc}") from exc
    if ctype is not ContentType.HANDSHAKE:
        raise HandshakeError("expected encrypted NewTicket record")
    fields = unpack_fields(payload, 4)
    if fields[0] != _T_NEW_TICKET:
        raise HandshakeError("expected a NewTicket message")
    try:
        expires_at = float(fields[3].decode("ascii"))
    except ValueError as exc:
        raise HandshakeError(f"malformed NewTicket expiry: {exc}") from exc
    return SessionTicket(fields[1], fields[2], expires_at, peer=peer)


def server_handshake(
    link: Link,
    credential: Credential,
    validator: ChainValidator,
    *,
    allow_anonymous: bool = False,
    ticket_manager: SessionTicketManager | None = None,
) -> HandshakeResult:
    """Run the server side of the handshake over ``link``.

    ``allow_anonymous=True`` accepts clients that present no certificate
    chain (browsers); GSI services leave it off, so every peer is
    authenticated before any application byte flows.

    ``ticket_manager`` enables session resumption: presented tickets are
    redeemed through it (any refusal falls back to the full handshake),
    and every authenticated connection leaves with a fresh ticket.
    """
    if credential.key is None:
        raise HandshakeError("server credential has no private key")
    transcript = TranscriptHash()

    client_hello = link.recv_frame()
    fields = _expect(client_hello, _T_CLIENT_HELLO, link)
    if len(fields) not in (4, 5):
        _fail(link, "malformed ClientHello")
    _, version, client_random, client_chain_pem = fields[:4]
    presented_ticket = fields[4] if len(fields) == 5 else b""
    if version != PROTOCOL_VERSION:
        _fail(link, f"client speaks {version!r}, not {PROTOCOL_VERSION!r}")
    if len(client_random) != RANDOM_LEN:
        _fail(link, "bad client random length")
    transcript.add(client_hello)

    if presented_ticket and ticket_manager is not None:
        try:
            secret, peer, ticket_chain_pem = ticket_manager.redeem(
                presented_ticket, validator
            )
        except TicketRefused:
            pass  # full handshake below re-proves everything from scratch
        else:
            return _server_resume(
                link,
                transcript,
                ticket_manager,
                validator,
                secret,
                peer,
                ticket_chain_pem,
                client_random,
            )

    peer: ValidatedIdentity | None
    if client_chain_pem:
        peer = _validate_peer_chain(link, validator, client_chain_pem, "client")
    elif allow_anonymous:
        peer = None
    else:
        _fail(link, "this service requires client authentication")
        raise AssertionError("unreachable")  # pragma: no cover

    offer_ticket = ticket_manager is not None and peer is not None
    server_random = secrets.token_bytes(RANDOM_LEN)
    chain_pem = b"".join(c.to_pem() for c in credential.full_chain())
    hello_fields = [_T_SERVER_HELLO, PROTOCOL_VERSION, server_random, chain_pem]
    if offer_ticket:
        hello_fields.append(_TICKET_OFFERED)
    server_hello = pack_fields(hello_fields)
    link.send_frame(server_hello)
    transcript.add(server_hello)

    server_sig = credential.sign(_LABEL_SERVER + transcript.digest())
    server_verify = pack_fields([_T_SERVER_VERIFY, server_sig])
    link.send_frame(server_verify)
    transcript.add(server_verify)

    key_exchange = link.recv_frame()
    fields = _expect(key_exchange, _T_KEY_EXCHANGE, link)
    if len(fields) != 2:
        _fail(link, "malformed KeyExchange")
    try:
        pre_master = credential.require_key().decrypt(fields[1])
    except Exception:  # noqa: BLE001 - treat as handshake failure
        _fail(link, "could not decrypt pre-master secret")
    if len(pre_master) != PRE_MASTER_LEN:
        _fail(link, "pre-master secret has wrong length")
    transcript.add(key_exchange)

    client_verify = link.recv_frame()
    fields = _expect(client_verify, _T_CLIENT_VERIFY, link)
    if len(fields) != 2:
        _fail(link, "malformed ClientVerify")
    if peer is not None:
        if not peer.leaf.public_key.verify(
            fields[1], _LABEL_CLIENT + transcript.digest()
        ):
            _fail(link, "client failed to prove possession of its private key")
    elif fields[1]:
        _fail(link, "anonymous client sent a ClientVerify signature")
    transcript.add(client_verify)

    keys = derive_session_keys(pre_master, client_random, server_random)
    digest = transcript.digest()

    writer = RecordWriter(keys.server_write_key, keys.server_iv_salt)
    reader = RecordReader(keys.client_write_key, keys.client_iv_salt)

    try:
        ctype, payload = reader.open(link.recv_frame())
    except IntegrityError as exc:
        raise HandshakeError(f"client Finished failed to decrypt: {exc}") from exc
    if ctype is not ContentType.HANDSHAKE:
        raise HandshakeError("expected encrypted Finished from client")
    fin_fields = unpack_fields(payload, 2)
    if fin_fields[0] != _T_FINISHED or not macs_equal(
        fin_fields[1], finished_mac(keys.client_finished_key, digest, _LABEL_CLIENT)
    ):
        raise HandshakeError("client Finished MAC mismatch")

    fin = pack_fields(
        [_T_FINISHED, finished_mac(keys.server_finished_key, digest, _LABEL_SERVER)]
    )
    link.send_frame(writer.seal(ContentType.HANDSHAKE, fin))

    if offer_ticket:
        _send_new_ticket(
            link, writer, ticket_manager, client_chain_pem, validator.generation
        )

    return HandshakeResult(
        keys=keys,
        peer=peer,
        is_client=False,
        writer=writer,
        reader=reader,
        resumed=False,
        ticket_presented=bool(presented_ticket),
        peer_chain_pem=client_chain_pem,
    )


def _server_resume(
    link: Link,
    transcript: TranscriptHash,
    ticket_manager: SessionTicketManager,
    validator: ChainValidator,
    secret: bytes,
    peer: ValidatedIdentity,
    chain_pem: bytes,
    client_random: bytes,
) -> HandshakeResult:
    """The abbreviated handshake, after a presented ticket was redeemed."""
    server_random = secrets.token_bytes(RANDOM_LEN)
    server_resume = pack_fields([_T_SERVER_RESUME, PROTOCOL_VERSION, server_random])
    link.send_frame(server_resume)
    transcript.add(server_resume)

    keys = derive_resumed_keys(secret, client_random, server_random)
    digest = transcript.digest()
    writer = RecordWriter(keys.server_write_key, keys.server_iv_salt)
    reader = RecordReader(keys.client_write_key, keys.client_iv_salt)

    fin = pack_fields(
        [_T_FINISHED, finished_mac(keys.server_finished_key, digest, _LABEL_SERVER)]
    )
    link.send_frame(writer.seal(ContentType.HANDSHAKE, fin))

    try:
        ctype, payload = reader.open(link.recv_frame())
    except IntegrityError as exc:
        raise HandshakeError(f"client Finished failed to decrypt: {exc}") from exc
    if ctype is not ContentType.HANDSHAKE:
        raise HandshakeError("expected encrypted Finished from client")
    fin_fields = unpack_fields(payload, 2)
    if fin_fields[0] != _T_FINISHED or not macs_equal(
        fin_fields[1], finished_mac(keys.client_finished_key, digest, _LABEL_CLIENT)
    ):
        raise HandshakeError("client Finished MAC mismatch")

    # Re-ticket only after the client proved possession of the secret.
    _send_new_ticket(link, writer, ticket_manager, chain_pem, validator.generation)

    return HandshakeResult(
        keys=keys,
        peer=peer,
        is_client=False,
        writer=writer,
        reader=reader,
        resumed=True,
        ticket_presented=True,
        peer_chain_pem=chain_pem,
    )


def _send_new_ticket(
    link: Link,
    writer: RecordWriter,
    ticket_manager: SessionTicketManager,
    chain_pem: bytes,
    generation: int,
) -> None:
    blob, secret, expires_at = ticket_manager.issue(chain_pem, generation)
    message = pack_fields(
        [_T_NEW_TICKET, blob, secret, f"{expires_at:.3f}".encode("ascii")]
    )
    link.send_frame(writer.seal(ContentType.HANDSHAKE, message))
