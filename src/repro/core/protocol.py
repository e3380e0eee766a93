"""The MyProxy client↔server protocol (§4, §6.4).

The paper notes the protocol "was quickly designed as a prototype"; the real
implementation spoke newline-separated ``KEY=value`` text.  We keep that
shape (``VERSION`` first, then ``COMMAND`` and its arguments) and add the
fields the §6 extensions need:

==================  =======================================================
field               meaning
==================  =======================================================
VERSION             must be ``MYPROXYv2-REPRO``
COMMAND             numeric command code (see :class:`Command`)
USERNAME            the *user identity* of §4.1 — "typically different from
                    the user's DN ... more memorable and concise"
CRED_NAME           which of the user's credentials (§6.2 wallet); default
                    ``default``
AUTH_METHOD         ``passphrase`` | ``otp`` | ``site`` (§6.3)
PASSPHRASE          the secret for the chosen method (an OTP word or a
                    site ticket travels in the same field)
LIFETIME            requested proxy lifetime, seconds (finite float)
MAX_GET_LIFETIME    PUT only: cap on later retrievals (§4.1's "retrieval
                    restrictions ... a maximum lifetime"; finite float)
RETRIEVERS          PUT only: comma-separated DN globs further narrowing
                    who may retrieve *this* credential
RENEWERS            PUT only: comma-separated DN globs enabling §6.6
                    renewal-by-possession for this credential (absent =
                    renewal disabled)
NEW_PASSPHRASE      CHANGE_PASSPHRASE only
CSR                 GET only: ``{nonce, public_key_pem, pop}`` JSON — the
                    requester's new public key and its proof of
                    possession (:func:`repro.transport.delegation.make_csr`)
==================  =======================================================

Responses carry ``RESPONSE=0`` (OK), ``RESPONSE=1`` plus ``ERROR``, or
``RESPONSE=2`` plus ``RETRY_AFTER`` — the *busy* reply a loaded server
sends instead of silently dropping the connection (see :mod:`repro.qos`);
INFO replies append ``INFO`` with a JSON document.  After an OK response to
``PUT``/``GET``/``STORE``/``RETRIEVE``, the corresponding credential
transfer runs on the same secure channel (see
:mod:`repro.transport.delegation` for PUT/GET).  A GET that carries a
``CSR`` needs no transfer exchange: the OK response (stating the granted
lifetime and limited flag) and the delegation Issue arrive together.

Every message rides the mutually-authenticated encrypted channel — §5.1:
"all data passing to and from the server is encrypted".
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field

from repro.gsi.acl import AccessControlList
from repro.util.encoding import decode_kv, encode_kv
from repro.util.errors import ConfigError, ProtocolError

PROTOCOL_VERSION = "MYPROXYv2-REPRO"

DEFAULT_CRED_NAME = "default"


class Command(enum.IntEnum):
    """Repository operations."""

    GET = 0
    PUT = 1
    INFO = 2
    DESTROY = 3
    CHANGE_PASSPHRASE = 4
    STORE = 5
    RETRIEVE = 6
    #: Fetch the repository's trust anchors + CRLs (the original's
    #: ``myproxy-get-trustroots``): how clients keep CRLs fresh and how a
    #: host that trusts *one* federation CA learns about the rest.
    TRUSTROOTS = 7
    #: Batched multi-credential GET: one connection, one auth handshake,
    #: k delegations — what a portal burst (Figure 3, many users logging
    #: in at once) needs instead of k connections.  The request carries a
    #: ``BATCH`` JSON array of per-item GET parameters; after the initial
    #: OK the server answers each item with its own response + delegation,
    #: and a failed item never aborts the rest of the batch.
    GET_MULTI = 8


class AuthMethod(str, enum.Enum):
    """How the retrieval secret in ``PASSPHRASE`` is to be interpreted.

    ``RENEWAL`` carries no secret at all: the requester proves possession
    of a *live proxy for the same identity* through the channel handshake
    itself (§6.6 — how a renewal agent refreshes a job's credential
    without holding the user's pass phrase).  Only usable for GET, and only
    when the stored entry opted in with a ``RENEWERS`` list.
    """

    PASSPHRASE = "passphrase"
    OTP = "otp"
    SITE = "site"
    RENEWAL = "renewal"


MAX_BATCH_ITEMS = 64
"""Cap on GET_MULTI batch size — a burst, not a bulk-export channel."""


def _check_lifetime(key: str, value: float) -> None:
    """A lifetime is finite and non-negative: ``nan`` or ``inf`` would
    pass every clamp (``nan < x`` is False) and reach the signer."""
    if not math.isfinite(value):
        raise ProtocolError(f"{key} must be finite")
    if value < 0:
        raise ProtocolError(f"{key} must be non-negative")


def _check_globs(key: str, globs: tuple[str, ...] | None) -> None:
    """A RETRIEVERS/RENEWERS list is parsed here, as the ACL will parse it
    on every GET, so a bad glob is refused when stored, not when used."""
    if globs is None:
        return
    try:
        AccessControlList(globs)
    except ConfigError as exc:
        raise ProtocolError(f"{key}: {exc}") from exc


@dataclass(frozen=True)
class BatchItem:
    """One credential request inside a GET_MULTI batch."""

    username: str
    passphrase: str = ""
    lifetime: float = 0.0
    cred_name: str = DEFAULT_CRED_NAME
    auth_method: AuthMethod = AuthMethod.PASSPHRASE
    #: The item's CSR, as the GET ``CSR`` field carries it.
    csr: dict | None = None

    def __post_init__(self) -> None:
        if not self.username:
            raise ProtocolError("batch item USERNAME must not be empty")
        if len(self.username) > 256:
            raise ProtocolError("batch item USERNAME too long")
        _check_lifetime("batch item LIFETIME", self.lifetime)

    def to_wire(self) -> dict:
        wire = {
            "username": self.username,
            "passphrase": self.passphrase,
            "lifetime": self.lifetime,
            "cred_name": self.cred_name,
            "auth_method": self.auth_method.value,
        }
        if self.csr is not None:
            wire["csr"] = self.csr
        return wire

    @classmethod
    def from_wire(cls, raw: dict) -> "BatchItem":
        if not isinstance(raw, dict):
            raise ProtocolError("BATCH items must be JSON objects")
        try:
            auth_method = AuthMethod(raw.get("auth_method", "passphrase"))
        except ValueError as exc:
            raise ProtocolError(
                f"unknown batch AUTH_METHOD {raw.get('auth_method')!r}"
            ) from exc
        try:
            lifetime = float(raw.get("lifetime", 0.0))
        except (TypeError, ValueError) as exc:
            raise ProtocolError("malformed batch LIFETIME") from exc
        return cls(
            username=str(raw.get("username", "")),
            passphrase=str(raw.get("passphrase", "")),
            lifetime=lifetime,
            cred_name=str(raw.get("cred_name", DEFAULT_CRED_NAME)),
            auth_method=auth_method,
            csr=_csr_object(raw.get("csr")),
        )


def _csr_object(raw) -> dict | None:
    if raw is not None and not isinstance(raw, dict):
        raise ProtocolError("CSR must be a JSON object")
    return raw


@dataclass(frozen=True)
class Request:
    """A decoded client request."""

    command: Command
    username: str
    passphrase: str = ""
    lifetime: float = 0.0
    cred_name: str = DEFAULT_CRED_NAME
    auth_method: AuthMethod = AuthMethod.PASSPHRASE
    max_get_lifetime: float | None = None
    retrievers: tuple[str, ...] | None = None
    renewers: tuple[str, ...] | None = None
    new_passphrase: str = ""
    #: GET_MULTI only: the per-credential requests of the batch.
    batch: tuple[BatchItem, ...] | None = None
    #: GET only: the requester's CSR, which makes the GET one flight.
    csr: dict | None = None

    def __post_init__(self) -> None:
        if not self.username:
            raise ProtocolError("USERNAME must not be empty")
        if len(self.username) > 256:
            raise ProtocolError("USERNAME too long")
        _check_lifetime("LIFETIME", self.lifetime)
        if self.max_get_lifetime is not None and not math.isfinite(self.max_get_lifetime):
            raise ProtocolError("MAX_GET_LIFETIME must be finite")
        _check_globs("RETRIEVERS", self.retrievers)
        _check_globs("RENEWERS", self.renewers)
        if self.command is Command.GET_MULTI:
            if not self.batch:
                raise ProtocolError("GET_MULTI needs a non-empty BATCH")
            if len(self.batch) > MAX_BATCH_ITEMS:
                raise ProtocolError(
                    f"BATCH of {len(self.batch)} exceeds {MAX_BATCH_ITEMS} items"
                )
        elif self.batch is not None:
            raise ProtocolError("BATCH is only valid with GET_MULTI")
        if self.csr is not None and self.command is not Command.GET:
            raise ProtocolError("CSR is only valid with GET")

    # -- wire form ------------------------------------------------------------

    def encode(self) -> bytes:
        fields: dict[str, str] = {
            "VERSION": PROTOCOL_VERSION,
            "COMMAND": str(int(self.command)),
            "USERNAME": self.username,
            "CRED_NAME": self.cred_name,
            "AUTH_METHOD": self.auth_method.value,
            "PASSPHRASE": self.passphrase,
            "LIFETIME": f"{self.lifetime:.3f}",
        }
        if self.max_get_lifetime is not None:
            fields["MAX_GET_LIFETIME"] = f"{self.max_get_lifetime:.3f}"
        if self.retrievers is not None:
            fields["RETRIEVERS"] = ",".join(self.retrievers)
        if self.renewers is not None:
            fields["RENEWERS"] = ",".join(self.renewers)
        if self.new_passphrase:
            fields["NEW_PASSPHRASE"] = self.new_passphrase
        if self.batch is not None:
            fields["BATCH"] = json.dumps(
                [item.to_wire() for item in self.batch], sort_keys=True
            )
        if self.csr is not None:
            fields["CSR"] = json.dumps(self.csr, sort_keys=True)
        return encode_kv(fields)

    @classmethod
    def decode(cls, data: bytes) -> Request:
        fields = decode_kv(data)
        if fields.get("VERSION") != PROTOCOL_VERSION:
            raise ProtocolError(
                f"unsupported protocol version {fields.get('VERSION')!r}"
            )
        try:
            command = Command(int(fields["COMMAND"]))
        except (KeyError, ValueError) as exc:
            raise ProtocolError("missing or unknown COMMAND") from exc
        try:
            auth_method = AuthMethod(fields.get("AUTH_METHOD", "passphrase"))
        except ValueError as exc:
            raise ProtocolError(
                f"unknown AUTH_METHOD {fields.get('AUTH_METHOD')!r}"
            ) from exc
        def _dn_list(key: str) -> tuple[str, ...] | None:
            raw = fields.get(key)
            if raw is None:
                return None
            return tuple(p for p in raw.split(",") if p)

        retrievers = _dn_list("RETRIEVERS")
        renewers = _dn_list("RENEWERS")

        def _lifetime(key: str) -> float:
            try:
                return float(fields.get(key, "0"))
            except ValueError as exc:
                raise ProtocolError(f"malformed {key}") from exc

        batch: tuple[BatchItem, ...] | None = None
        batch_raw = fields.get("BATCH")
        if batch_raw is not None:
            try:
                parsed = json.loads(batch_raw)
            except json.JSONDecodeError as exc:
                raise ProtocolError("malformed BATCH payload") from exc
            if not isinstance(parsed, list):
                raise ProtocolError("BATCH payload must be a JSON array")
            batch = tuple(BatchItem.from_wire(item) for item in parsed)

        csr: dict | None = None
        csr_raw = fields.get("CSR")
        if csr_raw is not None:
            try:
                csr = _csr_object(json.loads(csr_raw))
            except json.JSONDecodeError as exc:
                raise ProtocolError("malformed CSR payload") from exc

        max_get = fields.get("MAX_GET_LIFETIME")
        return cls(
            command=command,
            username=fields.get("USERNAME", ""),
            passphrase=fields.get("PASSPHRASE", ""),
            lifetime=_lifetime("LIFETIME"),
            cred_name=fields.get("CRED_NAME", DEFAULT_CRED_NAME),
            auth_method=auth_method,
            max_get_lifetime=_lifetime("MAX_GET_LIFETIME") if max_get is not None else None,
            retrievers=retrievers,
            renewers=renewers,
            new_passphrase=fields.get("NEW_PASSPHRASE", ""),
            batch=batch,
            csr=csr,
        )


@dataclass(frozen=True)
class Response:
    """A decoded server response.

    Three outcomes: OK, error, or *busy* — ``RESPONSE=2`` with a
    ``RETRY_AFTER`` hint in seconds, sent by an overloaded server before it
    tears the connection down so the client can back off intelligently
    instead of treating the node as dead.
    """

    ok: bool
    error: str = ""
    info: dict = field(default_factory=dict)
    #: Seconds the client should wait before retrying; only present on a
    #: busy (``RESPONSE=2``) reply.
    retry_after: float | None = None

    @property
    def busy(self) -> bool:
        return self.retry_after is not None

    @classmethod
    def success(cls, info: dict | None = None) -> Response:
        return cls(ok=True, info=info or {})

    @classmethod
    def failure(cls, error: str) -> Response:
        return cls(ok=False, error=error)

    @classmethod
    def busy_reply(cls, retry_after: float, error: str = "server busy") -> Response:
        if retry_after < 0:
            raise ProtocolError("RETRY_AFTER must be non-negative")
        return cls(ok=False, error=error, retry_after=retry_after)

    def encode(self) -> bytes:
        if self.busy:
            code = "2"
        else:
            code = "0" if self.ok else "1"
        fields: dict[str, str] = {
            "VERSION": PROTOCOL_VERSION,
            "RESPONSE": code,
        }
        if self.error:
            fields["ERROR"] = self.error.replace("\n", " ")
        if self.retry_after is not None:
            fields["RETRY_AFTER"] = f"{self.retry_after:.3f}"
        if self.info:
            fields["INFO"] = json.dumps(self.info, sort_keys=True)
        return encode_kv(fields)

    @classmethod
    def decode(cls, data: bytes) -> Response:
        fields = decode_kv(data)
        if fields.get("VERSION") != PROTOCOL_VERSION:
            raise ProtocolError(
                f"unsupported protocol version {fields.get('VERSION')!r}"
            )
        code = fields.get("RESPONSE")
        if code not in ("0", "1", "2"):
            raise ProtocolError(f"malformed RESPONSE {code!r}")
        info_raw = fields.get("INFO", "")
        try:
            info = json.loads(info_raw) if info_raw else {}
        except json.JSONDecodeError as exc:
            raise ProtocolError("malformed INFO payload") from exc
        if not isinstance(info, dict):
            raise ProtocolError("INFO payload must be a JSON object")
        retry_after: float | None = None
        if code == "2":
            try:
                retry_after = float(fields["RETRY_AFTER"])
            except (KeyError, ValueError) as exc:
                raise ProtocolError("busy response needs a RETRY_AFTER") from exc
            if retry_after < 0:
                raise ProtocolError("RETRY_AFTER must be non-negative")
        return cls(
            ok=code == "0",
            error=fields.get("ERROR", ""),
            info=info,
            retry_after=retry_after,
        )
