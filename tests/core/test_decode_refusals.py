"""Fields the decoders refuse before any command runs.

A lifetime that is not finite (``nan``, ``inf``; JSON ``NaN``/``Infinity``)
passes every ``<``/``min`` clamp and reaches the signer, and a DN-glob list
the ACL cannot parse would only fail when some later GET used it.  Both are
refused at decode, on either binding, with a refusal on the audit trail;
an entry that already stores a bad glob gets the uniform denial.
"""

import dataclasses
import json
import threading

import pytest

from repro.core.httpbinding import _POP_LABEL, HttpMyProxyClient, MyProxyHttpGateway
from repro.core.protocol import PROTOCOL_VERSION, Command, Request, Response
from repro.transport.channel import connect_secure
from repro.transport.delegation import new_csr
from repro.transport.links import pipe_pair
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
    gateway = MyProxyHttpGateway(tb.myproxy, key_source=tb.key_source)

    def _target():
        client_end, server_end = pipe_pair("https")
        threading.Thread(
            target=gateway.handle_secure_link, args=(server_end,), daemon=True
        ).start()
        return client_end

    return _target


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
