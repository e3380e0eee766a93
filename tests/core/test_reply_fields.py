"""Every OK reply is declared once, in ``REPLY_FIELDS``, and read through it.

Three properties over the table:

- any bytes given to ``Response.decode``, and any JSON given to a reply's
  reader, yield the typed reply or a ``ProtocolError``;
- for every reply, writing values of each field's kind and reading them
  back gives the same values, on the GSI response and in an HTTP body;
- every client operation, on either binding (the CDP client is the HTTP
  client with ``delegate``), fed arbitrary well-framed replies raises only
  ``ReproError`` subclasses.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.client import MyProxyClient
from repro.core.protocol import (
    COUNT,
    FLAG,
    GLOBS,
    GSI,
    HINT,
    HTTP,
    NAME,
    OPTIONAL_SECONDS,
    PEM,
    REPLY_FIELDS,
    ROWS,
    SECONDS,
    STRINGS,
    TEXT,
    BatchItem,
    Reply,
    Response,
    StoredCredentialInfo,
)
from repro.federation.cdp import CdpClient
from repro.util.errors import ProtocolError, ReproError, TransportError
from repro.web.http11 import HttpResponse

PROPERTY = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

_chars = st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n")
_line = st.text(_chars, max_size=12)
_seconds = st.floats(min_value=0, max_value=1e12, allow_nan=False, allow_infinity=False)

#: kind -> values a server may write for it
KIND_VALUES = {
    NAME: st.text(_chars, min_size=1, max_size=12),
    TEXT: _line,
    PEM: st.text(st.characters(blacklist_categories=("Cs",)), max_size=40),
    SECONDS: _seconds,
    OPTIONAL_SECONDS: st.none() | _seconds,
    FLAG: st.booleans(),
    HINT: st.none() | _seconds,
    COUNT: st.integers(min_value=0, max_value=64),
    STRINGS: st.lists(_line, max_size=3).map(tuple),
    GLOBS: st.none() | st.lists(
        st.sampled_from(["*", "/O=Grid/CN=*", "/O=Grid/OU=Repro/CN=portal"]), max_size=3
    ).map(tuple),
}


def _values(reply: Reply, key: str):
    """Values for the fields ``key``'s binding carries in ``reply``."""
    return st.fixed_dictionaries({f.attr: KIND_VALUES[f.kind] for f in reply.carried[key]})


KIND_VALUES[ROWS] = st.lists(
    _values(Reply.ROW, GSI).map(lambda values: StoredCredentialInfo(**values)), max_size=3
).map(tuple)

_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _line,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_line, inner, max_size=3),
    max_leaves=8,
)


def _wire(doc: dict) -> dict:
    return json.loads(json.dumps(
        doc, default=lambda rows: [Reply.ROW.write(**row._asdict()) for row in rows]))


def _near(reply: Reply, key: str):
    """A document shaped like ``reply``: the whole of it valid, or each of
    its keys absent, valid or holding arbitrary JSON."""
    valid = st.fixed_dictionaries({getattr(f, key): KIND_VALUES[f.kind]
                                   for f in reply.carried[key]})
    mixed = st.fixed_dictionaries({}, optional={
        getattr(f, key): st.one_of(KIND_VALUES[f.kind], _json) for f in reply.carried[key]
    })
    return st.one_of(valid, mixed).map(_wire)


def _body(reply: Reply, values: dict) -> dict:
    """``reply``'s HTTP body as the wire carries it."""
    return json.loads(HttpResponse.json(reply.body(**values)).body)


# -- one: a reader yields its reply or a ProtocolError --------------------------


@PROPERTY
@given(data=st.binary(max_size=200))
def test_any_bytes_decode_to_a_response_or_a_protocol_error(data):
    try:
        assert isinstance(Response.decode(data), Response)
    except ProtocolError:
        pass


@pytest.mark.parametrize("key", [GSI, HTTP])
@pytest.mark.parametrize("reply", list(Reply), ids=lambda reply: reply.name)
@PROPERTY
@given(data=st.data())
def test_any_json_reads_as_the_reply_or_a_protocol_error(reply, key, data):
    raw = data.draw(st.one_of(_json, _near(reply, key)))
    try:
        assert isinstance(reply.read(raw, key), reply.type)
    except ProtocolError:
        pass


# -- two: writing then reading gives the values back ---------------------------


@pytest.mark.parametrize("reply", list(Reply), ids=lambda reply: reply.name)
@PROPERTY
@given(data=st.data())
def test_write_then_read_gives_the_values_back(reply, data):
    values = data.draw(_values(reply, GSI))
    info = Response.decode(Response.success(reply.write(**values)).encode()).info
    assert reply.read(info, GSI) == reply.type(**values)
    values = data.draw(_values(reply, HTTP))
    assert reply.read(_body(reply, values)) == reply.type(**values)


@PROPERTY
@given(error=st.text(_chars, min_size=1, max_size=20), millis=st.none() | st.integers(0, 10**9))
def test_the_gsi_envelope_round_trips(error, millis):
    hint = None if millis is None else millis / 1000
    sent = Response(ok=False, error=error, retry_after=hint)
    assert Response.decode(sent.encode()) == sent


def test_every_reply_has_fields_of_known_kinds_and_no_key_twice():
    assert set(REPLY_FIELDS) == set(Reply)
    assert {f.kind for fields in REPLY_FIELDS.values() for f in fields} <= set(KIND_VALUES)
    for reply in Reply:
        for key in (GSI, HTTP):
            keys = [getattr(f, key) for f in reply.carried[key]]
            assert len(keys) == len(set(keys)), (reply, key)


# -- three: a client fed any well-framed reply raises only ReproErrors ---------


class _ScriptedChannel:
    """Hands a client the frames of a script, then reports the link gone."""

    def __init__(self, frames: list[bytes]) -> None:
        self.frames = list(frames)
        self.sent: list[bytes] = []

    def send(self, data: bytes) -> None:
        self.sent.append(data)

    def send_many(self, frames) -> None:
        self.sent.extend(frames)

    def recv(self) -> bytes:
        if not self.frames:
            raise TransportError("script exhausted")
        return self.frames.pop(0)


def _scripted(client, frames: list[bytes]):
    client._converse = lambda conversation, username=None: conversation(
        _ScriptedChannel(frames)
    )
    return client


#: GSI operation -> the reply its first response carries
GSI_OPS = {
    "get_delegation": (Reply.GRANT, lambda c, cred: c.get_delegation(username="alice")),
    "get_delegations": (Reply.BATCH, lambda c, cred: c.get_delegations(
        [BatchItem(username="alice"), BatchItem(username="bob")])),
    "info": (Reply.LISTING, lambda c, cred: c.info(username="alice")),
    "destroy": (Reply.DESTROYED, lambda c, cred: c.destroy(username="alice")),
    "change_passphrase": (Reply.CHANGED, lambda c, cred: c.change_passphrase(
        username="alice", old_passphrase="old pass 1", new_passphrase="new pass 22")),
    "get_trustroots": (Reply.TRUSTROOTS, lambda c, cred: c.get_trustroots()),
    "put": (Reply.ACCEPTED, lambda c, cred: c.put(cred, username="alice",
                                              passphrase="a pass phrase 1")),
    "store_longterm": (Reply.ACCEPTED, lambda c, cred: c.store_longterm(
        cred, username="alice", passphrase="a pass phrase 1")),
    "retrieve_longterm": (Reply.RETRIEVED, lambda c, cred: c.retrieve_longterm(
        username="alice", passphrase="a pass phrase 1")),
}


@pytest.mark.parametrize("op", sorted(GSI_OPS))
@PROPERTY
@given(data=st.data())
def test_a_gsi_client_fed_any_reply_raises_only_repro_errors(op, data, alice, validator, key_pool):
    reply, call = GSI_OPS[op]
    first = Response(
        ok=data.draw(st.sampled_from([True, True, True, False])),
        error=data.draw(st.text(_chars, max_size=12)),
        info=data.draw(st.one_of(_near(reply, GSI), st.dictionaries(_line, _json, max_size=3))),
    )
    later = [
        data.draw(st.one_of(
            st.binary(max_size=60),
            st.builds(lambda info: Response.success(info).encode(), _near(Reply.GRANT, GSI)),
        ))
        for _ in range(3)
    ]
    client = MyProxyClient(("localhost", 1), alice, validator, key_source=key_pool)
    try:
        call(_scripted(client, [first.encode(), *later]), alice)
    except ReproError:
        pass


#: HTTP operation -> the replies of its requests, in order
HTTP_OPS = {
    "get_delegation": ([Reply.GRANT], lambda c, cred: c.get_delegation(username="alice")),
    "put": ([Reply.PUT_BEGIN, Reply.COMMIT], lambda c, cred: c.put(
        cred, username="alice", passphrase="a pass phrase 1")),
    "info": ([Reply.LISTING], lambda c, cred: c.info(username="alice")),
    "destroy": ([Reply.DESTROYED], lambda c, cred: c.destroy(username="alice")),
    "change_passphrase": ([Reply.CHANGED], lambda c, cred: c.change_passphrase(
        username="alice", old_passphrase="old pass 1", new_passphrase="new pass 22")),
    "delegate": ([Reply.CDP_REGISTER, Reply.CDP_CSR, Reply.COMMIT], lambda c, cred: c.delegate(
        cred, username="alice", passphrase="a pass phrase 1")),
    "abort": ([Reply.CDP_DELETE], lambda c, cred: c.abort("an id")),
}


@pytest.mark.parametrize("op", sorted(HTTP_OPS))
@PROPERTY
@given(data=st.data())
def test_an_http_client_fed_any_reply_raises_only_repro_errors(
    op, data, alice, validator, key_pool
):
    replies, call = HTTP_OPS[op]
    frames = []
    for reply in replies:
        body = data.draw(st.one_of(
            _near(reply, HTTP).map(lambda doc: {"ok": True, **doc}),
            st.dictionaries(_line, _json, max_size=3),
            _json,
        ))
        status = data.draw(st.sampled_from([200, 400, 403, 503]))
        frames.append(HttpResponse(
            status=status, headers=[("Content-Type", "application/json")],
            body=json.dumps(body).encode(),
        ).serialize())
    client = CdpClient(lambda: None, alice, validator, key_source=key_pool)
    try:
        call(_scripted(client, frames), alice)
    except ReproError:
        pass
