"""Local site security as an authentication method (§6.3).

"We plan to investigate replacing the current user identity and pass phrase
authentication mechanism with ... existing local site security mechanisms
(e.g. Kerberos)."

This module provides the minimal Kerberos-shaped mechanism that exercises
the integration point: a :class:`SiteAuthority` that users log into with a
site password, which issues short-lived *tickets* — HMAC-sealed assertions
of ``(realm, username, expiry)`` under a secret shared between the site
authority and the MyProxy server.  The ticket travels in the protocol's
``PASSPHRASE`` field with ``AUTH_METHOD=site``.
"""

from __future__ import annotations

import base64
import hmac
import json
import secrets
import threading

from repro.core.repository import pbkdf2_sha256
from repro.util.clock import SYSTEM_CLOCK, Clock
from repro.util.errors import AuthenticationError

DEFAULT_TICKET_LIFETIME = 300.0


def _seal(secret: bytes, body: bytes) -> bytes:
    return hmac.new(secret, body, "sha256").digest()


class SiteAuthority:
    """A toy ticket-granting service for one administrative realm."""

    def __init__(self, realm: str, *, clock: Clock = SYSTEM_CLOCK) -> None:
        self.realm = realm
        self.clock = clock
        self._shared_secret = secrets.token_bytes(32)
        self._lock = threading.Lock()
        self._users: dict[str, bytes] = {}

    @property
    def shared_secret(self) -> bytes:
        """The verification key a MyProxy server registers (out of band)."""
        return self._shared_secret

    # -- account management ---------------------------------------------------

    def register_user(self, username: str, password: str) -> None:
        digest = pbkdf2_sha256(password, self.realm.encode("utf-8"), 5000)
        with self._lock:
            self._users[username] = digest

    # -- login ----------------------------------------------------------------

    def login(
        self, username: str, password: str, lifetime: float = DEFAULT_TICKET_LIFETIME
    ) -> str:
        """Authenticate locally and obtain a ticket string."""
        digest = pbkdf2_sha256(password, self.realm.encode("utf-8"), 5000)
        with self._lock:
            stored = self._users.get(username)
        if stored is None or not hmac.compare_digest(stored, digest):
            raise AuthenticationError("site login failed")
        body = json.dumps(
            {
                "realm": self.realm,
                "username": username,
                "expires": self.clock.now() + lifetime,
                "nonce": secrets.token_hex(8),
            },
            sort_keys=True,
        ).encode("utf-8")
        mac = _seal(self._shared_secret, body)
        return base64.b64encode(body + mac).decode("ascii")


def verify_ticket(
    ticket: str,
    expected_username: str,
    shared_secret: bytes,
    *,
    clock: Clock = SYSTEM_CLOCK,
    expected_realm: str | None = None,
) -> None:
    """Validate a site ticket; raise :class:`AuthenticationError` if bad."""
    try:
        blob = base64.b64decode(ticket.encode("ascii"), validate=True)
        body, mac = blob[:-32], blob[-32:]
    except Exception as exc:  # noqa: BLE001
        raise AuthenticationError("malformed site ticket") from exc
    if not hmac.compare_digest(_seal(shared_secret, body), mac):
        raise AuthenticationError("site ticket failed verification")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise AuthenticationError("undecodable site ticket") from exc
    if payload.get("username") != expected_username:
        raise AuthenticationError("site ticket names a different user")
    if expected_realm is not None and payload.get("realm") != expected_realm:
        raise AuthenticationError("site ticket from a different realm")
    if float(payload.get("expires", 0)) < clock.now():
        raise AuthenticationError("site ticket has expired")
