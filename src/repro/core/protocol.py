"""The MyProxy client↔server protocol (§4, §6.4).

The paper notes the protocol "was quickly designed as a prototype"; the real
implementation spoke newline-separated ``KEY=value`` text.  We keep that
shape (``VERSION`` first, then ``COMMAND`` and its arguments) and add the
fields the §6 extensions need.  :data:`FIELDS` declares each request field
once: its :class:`Request` attribute, its GSI key and JSON key, its kind
and bound, and the commands that take it.  The GSI codec
(:meth:`Request.encode`/:meth:`Request.decode`), GET_MULTI's items
(:class:`BatchItem`) and the HTTP binding's JSON bodies
(:meth:`Request.to_json`/:meth:`Request.from_json`) are loops over it.

A response is ``RESPONSE=0`` (OK), ``1`` with an ``ERROR``, or ``2`` with
a ``RETRY_AFTER``: the *busy* reply a loaded server sends instead of
dropping the connection (see :mod:`repro.qos`).  An OK response's ``INFO``
JSON document, and each HTTP binding body, is one :class:`Reply`, whose
fields :data:`REPLY_FIELDS` declares once, with the same kinds and
readers: every server writes a reply through it and every client reads one
through it, so a malformed reply is a :class:`ProtocolError`.  PROTOCOL.md
§6 tabulates both tables.

Every message rides the mutually-authenticated encrypted channel — §5.1:
"all data passing to and from the server is encrypted".
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
from collections import namedtuple
from contextlib import suppress
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import NamedTuple

from repro.gsi.acl import AccessControlList
from repro.util.encoding import decode_kv, encode_kv
from repro.util.errors import ConfigError, ProtocolError, busy_hint

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

MAX_NAME = 256
"""Longest USERNAME or CRED_NAME, in characters."""

MAX_JSON_DIGITS = 64
"""Longest integer literal a message's JSON may hold."""


def parse_json(data: str | bytes, what: str, kind: type = object):
    """The codec's one JSON parse (BATCH, CSR, INFO, HTTP bodies): a
    malformed value of any size or nesting is a :class:`ProtocolError`, and
    so is one that is not an object where ``kind`` is ``dict``."""
    try:
        value = _DECODER.decode(data.decode() if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as exc:  # JSON and UTF-8 errors are ValueErrors
        raise ProtocolError(f"malformed {what}: {exc}") from exc
    if not isinstance(value, kind):
        raise ProtocolError(f"{what} must be a JSON object")
    return value


def _json_int(digits: str) -> int:
    if len(digits) > MAX_JSON_DIGITS:
        raise ValueError(f"integer of {len(digits)} digits")
    return int(digits)


_DECODER = json.JSONDecoder(parse_int=_json_int)


class Field(NamedTuple):
    """A request or reply field: its attribute, GSI and JSON keys (no key:
    that binding does not carry it), kind, bound, the commands that take it
    (None: every command, and then it is written even at its default),
    whether a GET_MULTI item carries it, and whether a reply leaves it out
    when it is None (else it is written as ``null``)."""

    attr: str
    gsi: str | None
    json: str | None
    kind: str
    bound: int | None = None
    commands: frozenset[Command] | None = None
    item: bool = False
    optional: bool = False


COMMAND, NAME, TEXT, AUTH = "command", "name", "text", "auth method"
SECONDS, OPTIONAL_SECONDS, GLOBS = "seconds", "optional seconds", "DN globs"
OBJECT, BATCH = "object", "item array"
_STORED = frozenset({Command.PUT, Command.STORE})

FIELDS: tuple[Field, ...] = (
    # The first three name a refused request on the audit trail.
    Field("command", "COMMAND", None, COMMAND),
    Field("username", "USERNAME", "username", NAME, MAX_NAME, item=True),
    Field("cred_name", "CRED_NAME", "cred_name", TEXT, MAX_NAME, item=True),
    Field("auth_method", "AUTH_METHOD", "auth_method", AUTH, item=True),
    Field("passphrase", "PASSPHRASE", "passphrase", TEXT, item=True),
    Field("lifetime", "LIFETIME", "lifetime", SECONDS, item=True),
    Field("max_get_lifetime", "MAX_GET_LIFETIME", "max_get_lifetime", OPTIONAL_SECONDS,
          commands=_STORED),
    Field("retrievers", "RETRIEVERS", "retrievers", GLOBS, commands=_STORED),
    Field("renewers", "RENEWERS", "renewers", GLOBS, commands=_STORED),
    Field("new_passphrase", "NEW_PASSPHRASE", "new_passphrase", TEXT,
          commands=frozenset({Command.CHANGE_PASSPHRASE})),
    Field("batch", "BATCH", "batch", BATCH, MAX_BATCH_ITEMS,
          commands=frozenset({Command.GET_MULTI})),
    Field("csr", "CSR", "csr", OBJECT, commands=frozenset({Command.GET}), item=True),
)


# -- kinds: check a value; read and write it in either binding ----------------

def _refuse(label: str, problem: str):
    raise ProtocolError(f"{label} {problem}")


def _check_text(f: Field, value: str, label: str) -> None:
    if not value and f.kind == NAME:
        _refuse(label, "must not be empty")
    if f.bound is not None and len(value) > f.bound:
        _refuse(label, f"longer than {f.bound} characters")
    if "\n" in value or "\r" in value:  # so that either binding can carry it
        _refuse(label, "must not hold a line break")


def _check_seconds(f: Field, value, label: str) -> None:
    """A lifetime is finite: ``nan`` or ``inf`` would pass every clamp
    (``nan < x`` is False) and reach the signer."""
    if value is None and f.kind == OPTIONAL_SECONDS:
        return
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int past float range
        finite = False
    if not finite:
        _refuse(label, "must be finite")
    if value < 0 and f.kind == SECONDS:
        _refuse(label, "must be non-negative")


def _check_globs(f: Field, globs, label: str) -> None:
    """Parsed here, as the ACL will parse it on every GET, so a bad glob is
    refused when stored, not when used."""
    if globs is None:
        return
    if not all(isinstance(glob, str) for glob in globs):
        _refuse(label, "must hold DN-glob strings")
    try:
        AccessControlList(globs)
    except ConfigError as exc:
        raise ProtocolError(f"{label}: {exc}") from exc


def _check_batch(f: Field, items, label: str) -> None:
    if not items:
        _refuse(label, "must be non-empty for GET_MULTI")
    if len(items) > f.bound:
        _refuse(label, f"of {len(items)} exceeds {f.bound} items")


def _typed(noun: str, *types, then=None):
    """A reader: the value must have one of ``types`` (a bool is only a
    bool), and ``then``, if given, converts it."""
    def read(f: Field, value, label: str):
        if not isinstance(value, types) or isinstance(value, bool) and bool not in types:
            _refuse(label, f"must be a JSON {noun}")
        try:
            return value if then is None else then(value)
        except ValueError:
            _refuse(label, f"is malformed: {str(value)[:32]!r}")
    return read


def _json_batch(f: Field, value, label: str) -> tuple[BatchItem, ...]:
    _check_batch(f, _array(f, value, label), label)
    return tuple(map(BatchItem.from_wire, value))


_string, _object, _array = _typed("string", str), _typed("object", dict), _typed("array", list)
_auth = _typed("string", str, then=AuthMethod)
_dump = partial(json.dumps, sort_keys=True)

#: kind -> its check; the kinds missing here need none beyond their reader.
_CHECKS = {NAME: _check_text, TEXT: _check_text, SECONDS: _check_seconds,
           OPTIONAL_SECONDS: _check_seconds, GLOBS: _check_globs, BATCH: _check_batch}
#: kind -> (reader, writer) on the GSI wire, where every value is text.
_GSI = {
    COMMAND: (_typed("string", str, then=lambda text: Command(int(text))), lambda v: str(int(v))),
    NAME: (_string, str),
    TEXT: (_string, str),
    AUTH: (_auth, attrgetter("value")),
    SECONDS: (_typed("string", str, then=float), "{:.3f}".format),
    OPTIONAL_SECONDS: (_typed("string", str, then=float), "{:.3f}".format),
    GLOBS: (_typed("string", str, then=lambda text: tuple(filter(None, text.split(",")))),
            ",".join),
    OBJECT: (lambda f, text, label: _object(f, parse_json(text, label), label), _dump),
    BATCH: (lambda f, text, label: _json_batch(f, parse_json(text, label), label),
            lambda items: _dump([item.to_wire() for item in items])),
}
#: kind -> (reader, writer) in a JSON body: a value must already have its kind.
_JSON = {
    NAME: (_string, str),
    TEXT: (_string, str),
    AUTH: (_auth, attrgetter("value")),
    SECONDS: (_typed("number", int, float), float),
    OPTIONAL_SECONDS: (_typed("number", int, float), float),
    GLOBS: (_typed("array", list, then=tuple), list),
    OBJECT: (_object, dict),
    BATCH: (_json_batch, lambda items: [item.to_wire() for item in items]),
}


def read_seconds(text: str, label: str) -> float:
    """``text`` read and checked as a request's ``seconds`` field is."""
    f = Field(label, label, label, SECONDS)
    value = _GSI[SECONDS][0](f, text, label)
    _check_seconds(f, value, label)
    return value


def _read(fields, raw: dict, key: str, codec: dict, prefix: str = "") -> dict:
    """The attributes ``raw`` carries under each field's ``key``; an absent
    (or JSON ``null``) field keeps its request default, and one without a
    default is refused."""
    if not isinstance(raw, dict):
        _refuse(prefix.rstrip(": "), "must be a JSON object")
    values = {}
    for f in fields:
        value = raw.get(getattr(f, key))
        if value is not None:
            values[f.attr] = codec[f.kind][0](f, value, prefix + (f.gsi or f.json))
        elif _DEFAULTS[f.attr] is dataclasses.MISSING:
            _refuse(prefix + (f.gsi or f.json), "is missing")
    return values


def _write(fields, obj, key: str, codec: dict) -> dict:
    return {
        getattr(f, key): codec[f.kind][1](value)
        for f in fields
        if ((value := getattr(obj, f.attr)) is not None or not f.optional)
        and (f.commands is None or value != _DEFAULTS[f.attr])
    }


def _check(obj, fields, command: Command, prefix: str = "") -> None:
    for f in fields:
        value = getattr(obj, f.attr)
        if f.commands is None or command in f.commands:
            if f.kind in _CHECKS:
                _CHECKS[f.kind](f, value, prefix + (f.gsi or f.json))
        elif value != _DEFAULTS[f.attr]:
            _refuse(f.gsi, f"is only valid with {', '.join(c.name for c in sorted(f.commands))}")


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
        _check(self, _ITEM_FIELDS, Command.GET, _ITEM_PREFIX)

    def to_wire(self) -> dict:
        return _write(_ITEM_FIELDS, self, "json", _JSON)

    @classmethod
    def from_wire(cls, raw: dict) -> "BatchItem":
        return cls(**_read(_ITEM_FIELDS, raw, "json", _JSON, _ITEM_PREFIX))

    def as_get(self) -> Request:
        """The single GET this item stands for."""
        return Request(Command.GET, **{f.attr: getattr(self, f.attr) for f in _ITEM_FIELDS})


@dataclass(frozen=True)
class Request:
    """A decoded client request; :data:`FIELDS` says how each attribute
    travels and what it may hold."""

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
        _check(self, FIELDS, self.command)

    # -- wire forms -----------------------------------------------------------

    def encode(self) -> bytes:
        return encode_kv({"VERSION": PROTOCOL_VERSION, **_write(FIELDS, self, "gsi", _GSI)})

    @classmethod
    def decode(cls, data: bytes) -> Request:
        wire = decode_kv(data)
        if wire.get("VERSION") != PROTOCOL_VERSION:
            raise ProtocolError(
                f"unsupported protocol version {wire.get('VERSION')!r}"
            )
        return cls(**_read(FIELDS, wire, "gsi", _GSI))

    def to_json(self) -> dict:
        """The HTTP binding's body for this request (the endpoint names
        the command)."""
        return _write(_JSON_FIELDS, self, "json", _JSON)

    @classmethod
    def from_json(cls, payload: dict, command: Command) -> Request:
        return cls(command=command, **_read(_JSON_FIELDS, payload, "json", _JSON))

    @staticmethod
    def named(message: bytes | dict) -> tuple[str, str, str]:
        """The COMMAND name, USERNAME and CRED_NAME a refused GSI message or
        JSON body carried, each where it decoded (else ""): what the
        refusal is audited under."""
        key, codec = ("json", _JSON) if isinstance(message, dict) else ("gsi", _GSI)
        try:
            raw = message if key == "json" else decode_kv(message)
        except ProtocolError:
            raw = {}
        named = dict.fromkeys(FIELDS[:3], "")
        for f in named:
            with suppress(ProtocolError):
                value = _read([f], raw, key, codec).get(f.attr, "")
                if f.kind in _CHECKS:
                    _CHECKS[f.kind](f, value, f.gsi)
                named[f] = getattr(value, "name", value)  # a Command by its name
        return tuple(named.values())


_DEFAULTS = {f.name: f.default for f in dataclasses.fields(Request)}  # MISSING if none
_JSON_FIELDS = tuple(f for f in FIELDS if f.json)
_ITEM_FIELDS = tuple(f for f in FIELDS if f.item)
_ITEM_PREFIX = "batch item "


# -- replies: each OK reply's fields, declared once -----------------------------

FLAG, COUNT, PEM, HINT = "flag", "count", "PEM text", "busy hint"
STRINGS, ROWS = "string array", "row array"
GSI, HTTP = "gsi", "json"  # a field's key in each binding


def _f(key: str, kind: str, on: str | None = None, **column) -> Field:
    """A reply field keyed ``key`` in both bindings, or only ``on`` one."""
    return Field(key, key if on != HTTP else None, key if on != GSI else None, kind,
                 MAX_NAME if kind == NAME else None, **column)


_CRED_NAME, _NOT_AFTER = _f("cred_name", NAME), _f("not_after", SECONDS)
_CSR = (_f("public_key_pem", PEM, HTTP), _f("pop", TEXT, HTTP))
_ISSUE = (_f("certificate_pem", PEM, HTTP), _f("chain_pem", PEM, HTTP))


def _texts(values: list) -> tuple[str, ...]:
    if not all(isinstance(value, str) for value in values):
        raise ValueError("not all strings")
    return tuple(values)


def _as_is(value):
    return value


def _read_rows(f: Field, rows, label: str) -> tuple:
    return tuple(map(Reply.ROW.read, _array(f, rows, label)))


def _write_rows(rows) -> list[dict]:
    return [Reply.ROW.written(row, GSI) for row in rows]


#: kind -> (reader, writer) in a reply, always JSON: the request kinds'
#: readers, and each value written as it is, so a reply's bytes are its
#: values' own.
_REPLY_CODEC = {
    **{kind: (read, _as_is) for kind, (read, _) in _JSON.items()},
    FLAG: (_typed("boolean", bool), _as_is),
    COUNT: (_typed("integer", int), _as_is),
    PEM: (_string, _as_is),
    #: Read as sent: a client holds a busy reply's hint to ``busy_hint``
    #: and ignores any other's.
    HINT: (lambda f, value, label: value, _as_is),
    STRINGS: (_typed("array", list, then=_texts), _as_is),
    ROWS: (_read_rows, _write_rows),
}


class Reply(enum.Enum):
    """An OK reply: what it answers (named so in PROTOCOL.md §6 and in a
    malformed reply's error) and its fields, in the GSI response's ``INFO``
    document and in the HTTP binding's JSON body, whose envelope is
    ``STATUS``."""

    STATUS = "HTTP", (
        _f("ok", FLAG, HTTP),
        _f("error", TEXT, HTTP, optional=True),
        _f("retry_after", HINT, HTTP, optional=True),
    )
    GRANT = "GET", (_f("granted_lifetime", SECONDS), _CRED_NAME, _f("limited", FLAG), *_ISSUE)
    #: The §4 Issue as JSON: in the HTTP grant, and from the client that
    #: answers a PUT's or a CDP deposit's server-made CSR.
    ISSUE = "Issue", _ISSUE
    BATCH = "GET_MULTI", (_f("accepted", FLAG, GSI), _f("count", COUNT, GSI))
    ACCEPTED = "upload", (_f("accepted", FLAG, GSI),)
    COMMIT = "PUT", (_f("stored", FLAG), _NOT_AFTER, _f("cred_name", NAME, GSI))
    STORED = "STORE", (_f("stored", FLAG, GSI), _f("long_term", FLAG, GSI))
    RETRIEVED = "RETRIEVE", (_f("long_term", FLAG, GSI),)
    LISTING = "INFO", (_f("username", NAME, GSI), _f("credentials", ROWS))
    ROW = "INFO", (_CRED_NAME, _f("owner", TEXT), _NOT_AFTER,
                   _f("seconds_remaining", SECONDS), _f("max_get_lifetime", SECONDS),
                   _f("auth_method", TEXT), _f("long_term", FLAG), _f("retrievers", GLOBS))
    DESTROYED = "DESTROY", (_f("destroyed", FLAG),)
    CHANGED = "CHANGE_PASSPHRASE", (_f("changed", FLAG),)
    TRUSTROOTS = "TRUSTROOTS", (_f("cas", STRINGS, GSI), _f("crls", STRINGS, GSI))
    PUT_BEGIN = "put/begin", (_f("token", TEXT, HTTP), *_CSR)
    CDP_REGISTER = "CDP register", (_f("delegation_id", TEXT, HTTP),
                                    _f("expires", SECONDS, HTTP))
    CDP_CSR = "CDP proxy-csr", _CSR
    CDP_DELETE = "CDP delete", (_f("deleted", FLAG, HTTP),)
    ASSERTION = "SSO assert", (_f("assertion", TEXT, HTTP), _f("assertion_id", TEXT, HTTP),
                               _f("audience", TEXT, HTTP), _f("not_after", SECONDS, HTTP))
    REDEEMED = "SSO redeem", (_f("realm", TEXT, HTTP), _f("username", NAME, HTTP),
                              _f("cred_name", NAME, HTTP), _f("passphrase", TEXT, HTTP),
                              _f("lifetime", SECONDS, HTTP), _f("not_after", SECONDS, HTTP))
    REALMS = "realms", (_f("realm", TEXT, HTTP), _f("peers", STRINGS, HTTP))

    def __init__(self, answers: str, fields: tuple[Field, ...]) -> None:
        self.answers, self.fields = answers, fields
        #: binding key -> the fields that binding carries
        self.carried = {key: tuple(f for f in fields if getattr(f, key)) for key in (GSI, HTTP)}
        #: The typed reply: a named tuple of its fields, None where absent.
        name = self._name_.title().replace("_", "")
        self.type = namedtuple(
            "StoredCredentialInfo" if name == "Row" else name, [f.attr for f in fields],
            defaults=(None,) * len(fields), module=__name__,
        )
        # Each binding's reader and writer, laid out once: per field, its
        # key, codec entry and refusal label; only fields whose kind has a
        # check are checked.  An optional field, or one whose kind holds
        # None, reads as None when absent; any other is required.
        self._prefix = prefix = f"malformed {answers} reply: "
        self._readers, self._checks, self._writers = {}, {}, {}
        for key in (GSI, HTTP):
            laid = [
                (i, f, getattr(f, key), prefix + (f.gsi or f.json), _REPLY_CODEC[f.kind])
                for i, f in enumerate(fields) if getattr(f, key)
            ]
            self._readers[key] = tuple(
                (i, wire, read, f, label,
                 not (f.optional or f.kind in (OPTIONAL_SECONDS, GLOBS)))
                for i, f, wire, label, (read, _) in laid
            )
            self._checks[key] = tuple(
                (i, _CHECKS[f.kind], f, label) for i, f, _, label, _ in laid if f.kind in _CHECKS
            )
            self._writers[key] = tuple(
                (f.attr, wire, None if write is _as_is else write, f.optional)
                for _, f, wire, _, (_, write) in laid
            )

    def write(self, key: str = GSI, **values) -> dict:
        """This reply's ``INFO`` document, or (``key=HTTP``) HTTP fields."""
        return self.written(self.type(**values), key)

    def written(self, value, key: str = GSI) -> dict:
        """``value`` (this reply's typed value) as :meth:`write` writes it."""
        return {
            wire: item if write is None else write(item)
            for attr, wire, write, optional in self._writers[key]
            if (item := getattr(value, attr)) is not None or not optional
        }

    def body(self, **values) -> dict:
        """This reply's whole HTTP body: ``ok``, then its fields."""
        return {**Reply.STATUS.write(HTTP, ok=True), **self.write(HTTP, **values)}

    def read(self, raw, key: str = HTTP):
        """``raw`` read as this reply: its typed value, or a
        :class:`ProtocolError` naming a field missing or malformed."""
        if not isinstance(raw, dict):
            _refuse(self._prefix.rstrip(": "), "must be a JSON object")
        values = [None] * len(self.fields)
        for i, wire, read, f, label, required in self._readers[key]:
            item = raw.get(wire)
            if item is not None:
                values[i] = read(f, item, label)
            elif required:
                _refuse(label, "is missing")
        for i, check, f, label in self._checks[key]:
            if values[i] is not None:
                check(f, values[i], label)
        return self.type._make(values)


#: Every OK reply's fields, each declared once.
REPLY_FIELDS: dict[Reply, tuple[Field, ...]] = {reply: reply.fields for reply in Reply}


#: One row of an INFO reply: a credential the caller owns.
StoredCredentialInfo = Reply.ROW.type


def refused(error: str, retry_after: float | None = None) -> dict:
    """An HTTP refusal's body: ``ok`` false, the error, and any busy hint."""
    return Reply.STATUS.write(HTTP, ok=False, error=error, retry_after=retry_after)


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
        info = parse_json(info_raw, "INFO payload", dict) if info_raw else {}
        return cls(
            ok=code == "0",
            error=fields.get("ERROR", ""),
            info=info,
            retry_after=busy_hint(fields.get("RETRY_AFTER")) if code == "2" else None,
        )


