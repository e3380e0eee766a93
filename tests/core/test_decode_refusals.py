"""Fields the decoders refuse before any command runs.

A lifetime that is not finite (``nan``, ``inf``; JSON ``NaN``/``Infinity``)
passes every ``<``/``min`` clamp and reaches the signer, and a DN-glob list
the ACL cannot parse would only fail when some later GET used it.  Both are
refused at decode, on either binding, with a refusal on the audit trail;
an entry that already stores a bad glob gets the uniform denial.
"""

import dataclasses
import json

import pytest

from repro.core.httpbinding import _POP_LABEL, HttpMyProxyClient, MyProxyHttpGateway
from repro.core.protocol import (
    GSI, PROTOCOL_VERSION, BatchItem, Command, Reply, Request, Response,
)
from repro.federation.cdp import CdpClient, CdpService
from repro.transport.channel import connect_secure
from repro.transport.delegation import new_csr
from repro.util.encoding import encode_kv
from repro.util.errors import AuthenticationError, NotFoundError, ProtocolError, ReproError
from tests.conftest import http_post

PASS = "correct horse 42"
DENIAL = "remote authorization/authentication failed"
NON_FINITE = ["nan", "inf", "-inf", "NaN", "Infinity"]
BAD_GLOBS = ["portal", "/O=Grid/CN=a,portal", ",  ,"]


@pytest.fixture()
def seeded(tb):
    alice, portal = tb.new_user("alice"), tb.new_user("portal")
    tb.myproxy_init(alice, passphrase=PASS)
    return tb, alice, portal


def _raw(tb, user, **fields) -> Response:
    """Send one request of wire ``fields``; the first reply.  After a
    refusal, waits for the server to end the channel, so its audit record
    is written."""
    channel = connect_secure(tb.myproxy_targets["repo-0"](), user.credential, tb.validator)
    try:
        channel.send(encode_kv({"VERSION": PROTOCOL_VERSION, **fields}))
        reply = Response.decode(channel.recv())
        if not reply.ok:
            with pytest.raises(ReproError):
                channel.recv()  # the close alert
        return reply
    finally:
        channel.close()


def _refused_at_decode(tb, reply, field):
    assert not reply.ok and not reply.busy
    assert reply.error.startswith("bad request:") and field in reply.error
    last = tb.myproxy.audit_log()[-1]
    assert not last.ok and field in last.detail
    assert last.command in Command.__members__ and last.username in ("alice", "alice2")


def _put_fields(command=Command.PUT, **extra):
    return {"COMMAND": str(int(command)), "USERNAME": "alice2", "PASSPHRASE": PASS,
            "LIFETIME": "3600", **extra}


class TestNonFiniteLifetimes:
    @pytest.mark.parametrize("value", NON_FINITE)
    def test_gsi_get(self, seeded, value):
        tb, _alice, portal = seeded
        gets = tb.myproxy.stats.snapshot()["gets"]
        reply = _raw(tb, portal, COMMAND="0", USERNAME="alice", PASSPHRASE=PASS,
                     LIFETIME=value)
        _refused_at_decode(tb, reply, "LIFETIME")
        assert tb.myproxy.stats.snapshot()["gets"] == gets

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("position", [0, 1])
    def test_each_get_multi_item(self, seeded, value, position):
        tb, _alice, portal = seeded
        items = [{"username": "alice", "passphrase": PASS, "lifetime": 600.0}
                 for _ in range(2)]
        items[position]["lifetime"] = value
        reply = _raw(tb, portal, COMMAND=str(int(Command.GET_MULTI)), USERNAME="alice",
                     BATCH=json.dumps(items))
        _refused_at_decode(tb, reply, "LIFETIME")
        assert tb.myproxy.stats.snapshot()["gets"] == 0

    @pytest.mark.parametrize("value", ["nan", "inf", "Infinity"])
    def test_gsi_put_max_get_lifetime(self, seeded, value):
        tb, alice, _portal = seeded
        reply = _raw(tb, alice, **_put_fields(MAX_GET_LIFETIME=value))
        _refused_at_decode(tb, reply, "MAX_GET_LIFETIME")
        with pytest.raises(NotFoundError):
            tb.myproxy.repository.get("alice2", "default")

    def test_the_request_type_refuses_them_too(self):
        with pytest.raises(ProtocolError, match="finite"):
            Request(command=Command.GET, username="a", lifetime=float("nan"))
        with pytest.raises(ProtocolError, match="finite"):
            Request(command=Command.PUT, username="a", max_get_lifetime=float("inf"))


class TestDnGlobLists:
    @pytest.mark.parametrize("command", [Command.PUT, Command.STORE])
    @pytest.mark.parametrize("field", ["RETRIEVERS", "RENEWERS"])
    @pytest.mark.parametrize("globs", BAD_GLOBS)
    def test_gsi_put_and_store(self, seeded, command, field, globs):
        tb, alice, _portal = seeded
        reply = _raw(tb, alice, **_put_fields(command, **{field: globs}))
        _refused_at_decode(tb, reply, field)
        with pytest.raises(NotFoundError):
            tb.myproxy.repository.get("alice2", "default")

    def test_a_good_list_still_decodes(self):
        raw = encode_kv({"VERSION": PROTOCOL_VERSION, **_put_fields(
            RETRIEVERS="/O=Grid/CN=portal*, *", RENEWERS="")})
        request = Request.decode(raw)
        assert request.retrievers == ("/O=Grid/CN=portal*", " *")
        assert request.renewers == ()

    def test_a_stored_bad_glob_is_the_uniform_denial(self, seeded):
        tb, _alice, portal = seeded
        repo = tb.myproxy.repository
        repo.put(dataclasses.replace(repo.get("alice", "default"), retrievers=("portal",)))
        with pytest.raises(AuthenticationError, match=DENIAL):
            tb.myproxy_get(username="alice", passphrase=PASS, requester=portal.credential)
        last = tb.myproxy.audit_log()[-1]
        assert (last.command, last.ok) == ("GET", False)
        assert "retrievers" in last.detail


def _gateway_target(tb):
    return MyProxyHttpGateway(tb.myproxy, key_source=tb.key_source).connect


class TestHttpBinding:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_get(self, seeded, key_pool, value):
        tb, _alice, portal = seeded
        channel = connect_secure(_gateway_target(tb)(), portal.credential, tb.validator)
        try:
            status, body = http_post(channel, "/myproxy/get", {
                "username": "alice", "passphrase": PASS, "lifetime": value,
                "csr": new_csr(key_pool.new_key(), portal.dn, label=_POP_LABEL),
            })
        finally:
            channel.close()
        assert status == 400 and "LIFETIME" in body["error"]
        last = tb.myproxy.audit_log()[-1]
        assert (last.command, last.ok) == ("HTTP", False)
        assert tb.myproxy.stats.snapshot()["gets"] == 0

    @pytest.mark.parametrize(
        "fields",
        [
            {"max_get_lifetime": float("nan")},
            {"max_get_lifetime": float("inf")},
            {"retrievers": ["portal"]},
            {"renewers": ["/O=Grid/CN=a", "portal"]},
            {"retrievers": "/O=Grid/CN=*"},  # a string where a list belongs
            {"renewers": [1, 2]},
        ],
    )
    def test_put(self, seeded, fields):
        tb, alice, _portal = seeded

        class Rewriting(HttpMyProxyClient):
            def _call(self, path, payload):
                if path == "/myproxy/put/complete":
                    payload = {**payload, **fields}
                return super()._call(path, payload)

        client = Rewriting(_gateway_target(tb), alice.credential, tb.validator,
                           key_source=tb.key_source, clock=tb.clock)
        with pytest.raises(AuthenticationError, match=r"gateway refused \(400\)"):
            client.put(alice.credential, username="alice2", passphrase=PASS,
                       lifetime=3600)
        last = tb.myproxy.audit_log()[-1]
        assert (last.command, last.ok) == ("HTTP", False)
        with pytest.raises(NotFoundError):
            tb.myproxy.repository.get("alice2", "default")


# A value of any size or nesting is refused at decode like any other
# malformed field: the uniform ``bad request:`` reply, an audit record,
# and a close alert rather than a dropped link.
HUGE_INT = "1" * 5000
DEEP_ARRAY = "[" * 100_000 + "]" * 100_000
BIG_LIFETIME = str(10**400)


def _item_json(**overrides) -> str:
    fields = {"username": '"alice"', "passphrase": json.dumps(PASS), "lifetime": "600.0",
              **overrides}
    return "{" + ", ".join(f'"{key}": {value}' for key, value in fields.items()) + "}"


def _gsi_get_multi(tb, portal, batch: str) -> Response:
    return _raw(tb, portal, COMMAND=str(int(Command.GET_MULTI)), USERNAME="alice",
                BATCH=batch)


def _http_raw(tb, user, path: str, body: bytes):
    """POST ``body`` verbatim twice on one kept connection; both statuses,
    the first reply's error and the audit record the first left."""
    from repro.web.http11 import HttpRequest, HttpResponse

    channel = connect_secure(_gateway_target(tb)(), user.credential, tb.validator)
    replies = []
    try:
        for _ in range(2):
            channel.send(HttpRequest(
                "POST", path, headers=[("Content-Type", "application/json")], body=body,
            ).serialize())
            replies.append(HttpResponse.parse(channel.recv()))
            if len(replies) == 1:
                last = tb.myproxy.audit_log()[-1]
    finally:
        channel.close()
    error = json.loads(replies[0].body)["error"] if replies[0].status == 400 else ""
    return [r.status for r in replies], error, last


def _http_get_body(key_pool, portal, **overrides) -> bytes:
    csr = json.dumps(new_csr(key_pool.new_key(), portal.dn, label=_POP_LABEL))
    fields = {"username": '"alice"', "passphrase": json.dumps(PASS), "csr": csr, **overrides}
    return ("{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}").encode()


class TestOversizedAndOverNested:
    def test_gsi_get_csr_huge_integer(self, seeded):
        tb, _alice, portal = seeded
        reply = _raw(tb, portal, COMMAND="0", USERNAME="alice", PASSPHRASE=PASS,
                     LIFETIME="600", CSR=HUGE_INT)
        _refused_at_decode(tb, reply, "CSR")
        assert tb.myproxy.stats.snapshot()["gets"] == 0

    @pytest.mark.parametrize("batch", [
        "[" + _item_json(lifetime=HUGE_INT) + "]",
        "[" + _item_json(lifetime=BIG_LIFETIME) + "]",
        DEEP_ARRAY,
    ], ids=["huge-integer", "lifetime-10e400", "deep-array"])
    def test_get_multi(self, seeded, batch):
        tb, _alice, portal = seeded
        reply = _gsi_get_multi(tb, portal, batch)
        _refused_at_decode(tb, reply, "BATCH")
        assert tb.myproxy.stats.snapshot()["gets"] == 0

    @pytest.mark.parametrize("body", [
        lambda pool, portal: _http_get_body(pool, portal, lifetime=HUGE_INT),
        lambda pool, portal: _http_get_body(pool, portal, lifetime=BIG_LIFETIME),
        lambda pool, portal: DEEP_ARRAY.encode(),
    ], ids=["huge-integer", "lifetime-10e400", "deep-array"])
    def test_http_get(self, seeded, key_pool, body):
        tb, _alice, portal = seeded
        statuses, error, last = _http_raw(tb, portal, "/myproxy/get", body(key_pool, portal))
        assert statuses == [400, 400]  # refused, and the connection kept
        assert error
        assert (last.command, last.ok) == ("HTTP", False)
        assert tb.myproxy.stats.snapshot()["gets"] == 0


LONG_NAME = "w" * 257


class TestTypesAndBounds:
    def test_gsi_oversized_cred_name(self, seeded):
        tb, _alice, portal = seeded
        reply = _raw(tb, portal, COMMAND="0", USERNAME="alice", PASSPHRASE=PASS,
                     LIFETIME="600", CRED_NAME=LONG_NAME)
        _refused_at_decode(tb, reply, "CRED_NAME")

    def test_gsi_put_oversized_cred_name(self, seeded):
        tb, alice, _portal = seeded
        reply = _raw(tb, alice, **_put_fields(CRED_NAME=LONG_NAME))
        _refused_at_decode(tb, reply, "CRED_NAME")
        assert tb.myproxy.repository.list_for("alice2") == []

    @pytest.mark.parametrize("field,value,named", [
        ("cred_name", json.dumps(LONG_NAME), "CRED_NAME"),
        ("username", '["a"]', "USERNAME"),
        ("lifetime", "true", "LIFETIME"),
        ("lifetime", '"3600"', "LIFETIME"),
        ("cred_name", "{}", "CRED_NAME"),
    ], ids=["long-cred-name", "list-username", "bool-lifetime", "string-lifetime",
            "object-cred-name"])
    def test_get_multi_item(self, seeded, field, value, named):
        tb, _alice, portal = seeded
        reply = _gsi_get_multi(tb, portal, "[" + _item_json(**{field: value}) + "]")
        _refused_at_decode(tb, reply, named)
        assert tb.myproxy.stats.snapshot()["gets"] == 0

    @pytest.mark.parametrize("field,value,named,user", [
        ("cred_name", json.dumps(LONG_NAME), "CRED_NAME", "alice"),
        ("username", '["a"]', "USERNAME", ""),  # a field that did not decode names no one
        ("lifetime", "true", "LIFETIME", "alice"),
        ("lifetime", '"3600"', "LIFETIME", "alice"),
        ("cred_name", "{}", "CRED_NAME", "alice"),
        ("username", json.dumps("alice\nLIFETIME=nan"), "USERNAME", ""),  # GSI cannot carry it
    ], ids=["long-cred-name", "list-username", "bool-lifetime", "string-lifetime",
            "object-cred-name", "line-break-username"])
    def test_http_get(self, seeded, key_pool, field, value, named, user):
        tb, _alice, portal = seeded
        body = _http_get_body(key_pool, portal, **{field: value})
        statuses, error, last = _http_raw(tb, portal, "/myproxy/get", body)
        assert statuses == [400, 400] and named in error
        assert (last.command, last.ok, last.username) == ("HTTP", False, user)
        assert tb.myproxy.stats.snapshot()["gets"] == 0


class TestDecodeRefusalAudit:
    def test_gsi_names_command_user_and_credential(self, seeded):
        tb, _alice, portal = seeded
        reply = _raw(tb, portal, COMMAND="0", USERNAME="alice", CRED_NAME="wallet",
                     PASSPHRASE=PASS, LIFETIME="nan")
        _refused_at_decode(tb, reply, "LIFETIME")
        last = tb.myproxy.audit_log()[-1]
        assert (last.command, last.username, last.cred_name) == ("GET", "alice", "wallet")


class TestBusyHints:
    """A busy reply's ``RETRY_AFTER`` is held to the ``seconds`` rule on
    either binding: a hint no client can sleep on is a ProtocolError, not
    a ``ValueError`` out of the backoff."""

    @pytest.mark.parametrize("value", [b"nan", b"inf"])
    def test_gsi(self, value):
        with pytest.raises(ProtocolError, match="RETRY_AFTER"):
            Response.decode(b"VERSION=MYPROXYv2-REPRO\nRESPONSE=2\nRETRY_AFTER=" + value + b"\n")

    @pytest.mark.parametrize("value", ["nan", "x", None, -1])
    def test_http(self, seeded, value):
        from repro.web.http11 import HttpResponse

        tb, alice, _portal = seeded
        gateway = MyProxyHttpGateway(tb.myproxy, key_source=tb.key_source)
        gateway.add_json_route("/stub/busy", lambda peer, payload: HttpResponse.json(
            {"ok": False, "error": "busy", "retry_after": value}, 503))
        client = HttpMyProxyClient(gateway.connect, alice.credential, tb.validator,
                                   key_source=tb.key_source, clock=tb.clock)
        with pytest.raises(ProtocolError, match="RETRY_AFTER"):
            client._call("/stub/busy", {})


class TestMalformedInfoReply:
    """An INFO reply whose rows the client cannot read is a ProtocolError,
    not a ``KeyError`` or ``TypeError`` out of the client."""

    @pytest.mark.parametrize("rows", [[{"cred_name": "x"}], 5],
                             ids=["row_missing_keys", "not_a_list"])
    def test_gsi(self, seeded, monkeypatch, rows):
        tb, alice, _portal = seeded
        monkeypatch.setattr(Reply.LISTING, "write", lambda key=GSI, **values: {
            "username": "alice", "credentials": rows})
        with tb.myproxy_client(alice.credential) as client:
            with pytest.raises(ProtocolError, match="malformed INFO reply"):
                client.info(username="alice")


def _tamper(monkeypatch, rewrite):
    """Pass the ``INFO`` of every reply a GSI client decodes through
    ``rewrite``."""
    decode = Response.decode

    def tampered(data):
        response = decode(data)
        return dataclasses.replace(response, info=rewrite(dict(response.info)))

    monkeypatch.setattr(Response, "decode", staticmethod(tampered))


class TestMalformedReplies:
    """Every client reads its reply through the one table: a malformed or
    missing field is a ProtocolError naming it, never a ``KeyError``,
    ``TypeError``, ``ValueError`` or ``AttributeError`` out of the client."""

    @pytest.mark.parametrize("count", ["x", [1]], ids=["string", "list"])
    def test_get_multi_ack_count(self, seeded, monkeypatch, count):
        tb, _alice, portal = seeded
        _tamper(monkeypatch, lambda info: {**info, "count": count} if "count" in info else info)
        with tb.myproxy_client(portal.credential) as client:
            with pytest.raises(ProtocolError, match="count"):
                client.get_delegations([BatchItem(username="alice", passphrase=PASS)])

    @pytest.mark.parametrize("cas", [[5], 5], ids=["list_of_int", "int"])
    def test_trustroots_cas(self, seeded, monkeypatch, cas):
        tb, alice, _portal = seeded
        _tamper(monkeypatch, lambda info: {**info, "cas": cas})
        with tb.myproxy_client(alice.credential) as client:
            with pytest.raises(ProtocolError, match="cas"):
                client.get_trustroots()

    @pytest.mark.parametrize("path, missing, call", [
        ("/myproxy/put/begin", "token",
         lambda client, user: client.put(user.credential, username="alice2",
                                         passphrase=PASS, lifetime=3600)),
        ("/cdp/register", "delegation_id",
         lambda client, user: client.delegate(user.credential, username="alice2",
                                              passphrase=PASS, lifetime=3600)),
        ("/myproxy/info", "credentials",
         lambda client, user: client.info(username="alice")),
    ], ids=["put_begin_token", "cdp_register_id", "info_credentials"])
    def test_http_reply_missing_a_field(self, seeded, path, missing, call):
        tb, alice, _portal = seeded
        gateway = MyProxyHttpGateway(tb.myproxy, key_source=tb.key_source)
        CdpService(gateway)

        class Dropping(CdpClient):
            def _call(self, at, payload):
                answer = super()._call(at, payload)
                return {k: v for k, v in answer.items() if k != missing} if at == path else answer

        with Dropping(gateway.connect, alice.credential, tb.validator,
                      key_source=tb.key_source, clock=tb.clock) as client:
            with pytest.raises(ProtocolError, match=missing):
                call(client, alice)

    def test_http_info_rows_are_the_gsi_rows(self, seeded):
        tb, alice, _portal = seeded
        gateway = MyProxyHttpGateway(tb.myproxy, key_source=tb.key_source)
        with HttpMyProxyClient(gateway.connect, alice.credential, tb.validator,
                               key_source=tb.key_source, clock=tb.clock) as client:
            (row,) = client.info(username="alice")
        assert (row.cred_name, row.owner, row.long_term) == ("default", str(alice.dn), False)

    def test_http_get_reply_carries_the_gsi_grant(self, seeded, key_pool):
        tb, _alice, portal = seeded
        channel = connect_secure(_gateway_target(tb)(), portal.credential, tb.validator)
        try:
            status, body = http_post(channel, "/myproxy/get", {
                "username": "alice", "passphrase": PASS, "lifetime": 600.0,
                "csr": new_csr(key_pool.new_key(), portal.dn, label=_POP_LABEL),
            })
        finally:
            channel.close()
        assert status == 200
        assert (body["granted_lifetime"], body["cred_name"], body["limited"]) == (
            600.0, "default", False)
