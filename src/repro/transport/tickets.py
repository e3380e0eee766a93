"""Session-resumption tickets for the GSIv1 handshake (PROTOCOL.md §3.2).

The paper's dominant callers — portals retrieving a delegation per login,
renewal agents waking in synchronized epochs (§3.2, §2.5) — reconnect to
the same repository over and over, and every reconnect pays RSA key
transport plus two full chain validations.  Tickets amortize that: after a
full handshake the server hands the client an encrypted, lifetime-bounded
ticket; a resuming client presents it in ClientHello and both sides derive
fresh traffic keys from the ticket's resumption secret plus the *new*
connection randoms, skipping the asymmetric round-trip entirely.

Safety model (the rules tests pin):

- The ticket blob is opaque to the client: ``key_id || nonce || AES-GCM``
  under a rotating server-side ticket-encryption key (STEK).  Tampering
  or an unknown/retired STEK just refuses the ticket — the handshake
  falls back to the full path, never to an error.
- The resumption secret never travels in the clear: it rides inside the
  ticket ciphertext and inside the encrypted NewTicket record of the
  handshake that issued it.
- Redemption is *revocation-safe*: the ticket embeds the validator's
  trust-material generation at issue time and is refused on mismatch, so
  any ``add_anchor``/``update_crl`` invalidates every outstanding ticket
  (the client silently falls back and re-validates in full).  The
  embedded chain is also re-checked for expiry and CRL freshness on every
  redemption, so a ticket never outlives the credential it vouches for.
"""

from __future__ import annotations

import secrets
import threading

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from repro.pki.validation import ChainValidator, ValidatedIdentity
from repro.transport.kdf import TICKET_SECRET_LEN
from repro.util.clock import SYSTEM_CLOCK, Clock
from repro.util.encoding import pack_fields, unpack_fields
from repro.util.errors import ValidationError

#: How long an issued ticket may be redeemed (seconds).  Short by design:
#: a portal burst resumes within seconds; there is no reason to honor
#: hour-old tickets when a full handshake is always available.
DEFAULT_TICKET_LIFETIME = 3600.0

_KEY_ID_LEN = 8
_NONCE_LEN = 12
_STEK_LEN = 16


class TicketRefused(Exception):
    """A ticket could not be redeemed; fall back to the full handshake."""


class SessionTicket:
    """The client's half of a resumption ticket.

    ``blob`` is opaque server state; ``secret`` is the resumption secret
    both sides will feed the key schedule; ``expires_at`` lets the client
    skip presenting tickets the server would refuse anyway.  ``peer`` is
    the server identity the client validated during the full handshake
    that issued this ticket — on resumption the server proves itself by
    possession of the ticket secret instead of re-sending its chain, so
    the client re-attaches this identity to the resumed channel.
    """

    __slots__ = ("blob", "secret", "expires_at", "peer")

    def __init__(
        self,
        blob: bytes,
        secret: bytes,
        expires_at: float,
        peer: ValidatedIdentity | None = None,
    ) -> None:
        self.blob = blob
        self.secret = secret
        self.expires_at = expires_at
        self.peer = peer

    def usable_at(self, now: float) -> bool:
        return bool(self.blob) and now < self.expires_at


class TicketStore:
    """Thread-safe client-side cache of tickets.

    The caller chooses the key; :class:`~repro.core.client.MyProxyClient`
    files each ticket under the leaf subject it authenticates as plus the
    endpoint, never the endpoint alone, so clients sharing a store never
    resume each other's sessions.  One store is typically shared across
    every client a process builds toward the same fleet (the loadgen's
    fresh-client-per-login pattern), so resumption survives client-object
    churn.
    """

    def __init__(self) -> None:
        self._tickets: dict[str, SessionTicket] = {}
        self._lock = threading.Lock()

    def get(self, key: str, now: float) -> SessionTicket | None:
        with self._lock:
            ticket = self._tickets.get(key)
            if ticket is None:
                return None
            if not ticket.usable_at(now):
                del self._tickets[key]
                return None
            return ticket

    def put(self, key: str, ticket: SessionTicket) -> None:
        with self._lock:
            self._tickets[key] = ticket

    def invalidate(self, key: str) -> None:
        with self._lock:
            self._tickets.pop(key, None)

    def __len__(self) -> int:
        with self._lock:
            return len(self._tickets)


class SessionTicketManager:
    """Server-side ticket issuance and redemption under a rotating STEK.

    Thread-safe; one manager is shared by a whole server.  The manager
    keeps the current STEK plus its predecessor, so tickets issued just
    before a rotation remain redeemable for their whole lifetime; anything
    older is refused (and refusal is always safe — the peer falls back).
    """

    def __init__(
        self,
        *,
        clock: Clock = SYSTEM_CLOCK,
        lifetime: float = DEFAULT_TICKET_LIFETIME,
        rotate_every: float | None = None,
    ) -> None:
        if lifetime <= 0:
            raise ValueError("ticket lifetime must be positive")
        self.clock = clock
        self.lifetime = lifetime
        #: STEKs auto-rotate lazily on issue; the default period keeps any
        #: ticket redeemable under {current, previous} for its full life.
        self.rotate_every = rotate_every if rotate_every is not None else 2.0 * lifetime
        self._keys: list[tuple[bytes, bytes]] = [self._new_key()]
        self._rotated_at = clock.now()
        self._lock = threading.Lock()
        self.issued = 0
        self.redeemed = 0
        self.refused = 0

    @staticmethod
    def _new_key() -> tuple[bytes, bytes]:
        return secrets.token_bytes(_KEY_ID_LEN), secrets.token_bytes(_STEK_LEN)

    def rotate(self) -> None:
        """Install a fresh STEK, retiring all but the previous one."""
        with self._lock:
            self._keys = [self._new_key()] + self._keys[:1]
            self._rotated_at = self.clock.now()

    def _current_key(self, now: float) -> tuple[bytes, bytes]:
        with self._lock:
            if now - self._rotated_at > self.rotate_every:
                self._keys = [self._new_key()] + self._keys[:1]
                self._rotated_at = now
            return self._keys[0]

    def _find_key(self, key_id: bytes) -> bytes | None:
        with self._lock:
            for kid, key in self._keys:
                if kid == key_id:
                    return key
        return None

    # -- issuance ----------------------------------------------------------

    def issue(self, chain_pem: bytes, generation: int) -> tuple[bytes, bytes, float]:
        """Mint a ticket vouching for the exact chain a peer presented.

        Returns ``(blob, secret, expires_at)``.  ``generation`` is the
        issuing validator's trust-material generation; redemption refuses
        the ticket once it moves.
        """
        now = self.clock.now()
        expires_at = now + self.lifetime
        secret = secrets.token_bytes(TICKET_SECRET_LEN)
        payload = pack_fields(
            [
                secret,
                chain_pem,
                str(int(generation)).encode("ascii"),
                f"{expires_at:.3f}".encode("ascii"),
            ]
        )
        key_id, stek = self._current_key(now)
        nonce = secrets.token_bytes(_NONCE_LEN)
        blob = key_id + nonce + AESGCM(stek).encrypt(nonce, payload, key_id)
        with self._lock:
            self.issued += 1
        return blob, secret, expires_at

    # -- redemption --------------------------------------------------------

    def redeem(
        self, blob: bytes, validator: ChainValidator
    ) -> tuple[bytes, ValidatedIdentity, bytes]:
        """Open a presented ticket and re-prove the identity it vouches for.

        Returns ``(secret, identity, chain_pem)`` — the chain is what the
        replacement ticket for this connection will embed.  Raises
        :class:`TicketRefused` on any defect — tampering, expiry, STEK
        rotation past the keep window, trust-material generation mismatch,
        or a chain that no longer validates (expired/revoked).  The caller
        falls back to the full handshake; refusal is never an error
        surface.
        """
        try:
            return self._redeem(blob, validator)
        except TicketRefused:
            with self._lock:
                self.refused += 1
            raise

    def _redeem(
        self, blob: bytes, validator: ChainValidator
    ) -> tuple[bytes, ValidatedIdentity, bytes]:
        if len(blob) < _KEY_ID_LEN + _NONCE_LEN + 16:
            raise TicketRefused("ticket too short")
        key_id = blob[:_KEY_ID_LEN]
        nonce = blob[_KEY_ID_LEN : _KEY_ID_LEN + _NONCE_LEN]
        ciphertext = blob[_KEY_ID_LEN + _NONCE_LEN :]
        stek = self._find_key(key_id)
        if stek is None:
            raise TicketRefused("ticket key retired")
        try:
            payload = AESGCM(stek).decrypt(nonce, ciphertext, key_id)
        except InvalidTag:
            raise TicketRefused("ticket failed authentication") from None
        try:
            secret, chain_pem, generation_b, expires_b = unpack_fields(payload, 4)
            generation = int(generation_b.decode("ascii"))
            expires_at = float(expires_b.decode("ascii"))
        except Exception as exc:  # noqa: BLE001 - any parse defect refuses
            raise TicketRefused(f"malformed ticket payload: {exc}") from None
        if len(secret) != TICKET_SECRET_LEN:
            raise TicketRefused("ticket secret has wrong length")
        now = self.clock.now()
        if now > expires_at:
            raise TicketRefused("ticket expired")
        if generation != validator.generation:
            raise TicketRefused("trust material changed since ticket issue")
        from repro.pki.certs import Certificate

        try:
            chain = Certificate.list_from_pem(chain_pem)
            identity = validator.validate(chain)
        except ValidationError as exc:
            raise TicketRefused(f"ticket chain no longer validates: {exc}") from None
        with self._lock:
            self.redeemed += 1
        return secret, identity, chain_pem

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "issued": self.issued,
                "redeemed": self.redeemed,
                "refused": self.refused,
            }
