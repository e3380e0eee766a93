"""One command core under both bindings (§6.4).

The GSI channel protocol and the HTTP binding are codecs over the same
server steps, so a command must leave the same trace — stats and audit —
whichever binding carried it, and every refusal must be decided once and
rendered faithfully: the uniform denial, busy with a retry hint, or a
generic storage error that never leaks the storage layer's message.
"""

import dataclasses
import json

import pytest

from repro.core.client import ClientCore, RetryPolicy
from repro.core.httpbinding import _POP_LABEL, HttpMyProxyClient, MyProxyHttpGateway
from repro.core.policy import ServerPolicy
from repro.core.protocol import Command, Request, Response
from repro.transport.channel import connect_secure
from repro.transport.delegation import new_csr
from repro.util.errors import AuthenticationError, RepositoryError, ServerBusyError
from repro.web.http11 import HttpRequest, HttpResponse
from tests.conftest import http_post

PASS = "correct horse 42"
DENIAL = "remote authorization/authentication failed"
STORAGE = "temporary repository error; retry"


@pytest.fixture(params=["gsi", "http"])
def world(request, tb):
    """``(tb, make_client)`` where ``make_client(user)`` speaks one binding."""
    if request.param == "gsi":
        def make_client(user):
            client = tb.myproxy_client(user.credential)
            client.retry = RetryPolicy(busy_retries=0)  # busy surfaces, unretried
            return client
    else:
        target = MyProxyHttpGateway(tb.myproxy, key_source=tb.key_source).connect

        def make_client(user):
            client = HttpMyProxyClient(
                target, user.credential, tb.validator,
                key_source=tb.key_source, clock=tb.clock,
            )
            client.retry = RetryPolicy(busy_retries=0)  # busy surfaces, unretried
            return client
    tb.new_user("alice")
    tb.new_user("svc")
    return tb, make_client


def _stats(tb):
    # A two-step HTTP PUT is two connections, a GSI PUT one: connection
    # counts are per transport, everything else is per command.
    snap = tb.myproxy.stats.snapshot()
    snap.pop("connections")
    return snap


def _delta(before, after):
    return {k: after[k] - before[k] for k in after if after[k] != before[k]}


def _seed(tb):
    tb.myproxy_init(tb.users["alice"], passphrase=PASS)


class TestSuccessParity:
    @pytest.mark.parametrize(
        "command, seeded, expected",
        [
            ("PUT", False, {"puts": 1}),
            ("GET", True, {"gets": 1}),
            ("INFO", True, {}),
            ("DESTROY", True, {}),
            ("CHANGE_PASSPHRASE", True, {}),
        ],
    )
    def test_same_stats_and_audit(self, world, command, seeded, expected):
        tb, make_client = world
        alice, svc = tb.users["alice"], tb.users["svc"]
        if seeded:
            _seed(tb)
        before, mark = _stats(tb), len(tb.myproxy.audit_log())
        run = {
            "PUT": lambda: make_client(alice).put(
                alice.credential, username="alice", passphrase=PASS,
                lifetime=7 * 86400,
            ),
            "GET": lambda: make_client(svc).get_delegation(
                username="alice", passphrase=PASS, lifetime=3600
            ),
            "INFO": lambda: make_client(alice).info(username="alice"),
            "DESTROY": lambda: make_client(alice).destroy(username="alice"),
            "CHANGE_PASSPHRASE": lambda: make_client(alice).change_passphrase(
                username="alice", old_passphrase=PASS, new_passphrase="rotated 88"
            ),
        }[command]
        run()
        assert _delta(before, _stats(tb)) == expected
        records = tb.myproxy.audit_log()[mark:]
        assert [r.command for r in records if r.ok] == [command]
        assert not [r for r in records if not r.ok]


class TestReplyParity:
    """Both clients read a reply through the one table, so they return the
    same grant and the same INFO rows for the same entry."""

    def test_equal_grants_and_info_rows(self, tb, monkeypatch):
        alice, svc = tb.new_user("alice"), tb.new_user("svc")
        _seed(tb)
        gateway = MyProxyHttpGateway(tb.myproxy, key_source=tb.key_source)

        def http(user):
            return HttpMyProxyClient(gateway.connect, user.credential, tb.validator,
                                     key_source=tb.key_source, clock=tb.clock)

        grants = []
        granted = ClientCore._granted

        def spy(self, grant, lifetime):
            grants.append(grant)
            return granted(self, grant, lifetime)

        monkeypatch.setattr(ClientCore, "_granted", spy)
        for client in (tb.myproxy_client(svc.credential), http(svc)):
            with client:
                client.get_delegation(username="alice", passphrase=PASS, lifetime=3600)
        terms = [
            tuple(g.get(k) if isinstance(g, dict) else getattr(g, k)
                  for k in ("granted_lifetime", "cred_name", "limited"))
            for g in grants
        ]
        assert terms == [(3600.0, "default", False)] * 2
        with tb.myproxy_client(alice.credential) as gsi, http(alice) as over_http:
            rows = gsi.info(username="alice")
            assert over_http.info(username="alice") == rows
        assert [(row.cred_name, row.auth_method, row.retrievers) for row in rows] == [
            ("default", "passphrase", None)
        ]


    def test_an_entry_stored_without_a_positive_cap_still_lists(self, tb):
        """An entry an older server stored with a cap ≤ 0 lists, on both
        bindings, with the server's maximum as its cap, and GETs under it."""
        alice, svc = tb.new_user("alice"), tb.new_user("svc")
        _seed(tb)
        repository = tb.myproxy.repository
        repository.put(dataclasses.replace(repository.get("alice", "default"),
                                           max_get_lifetime=-5.0))
        gateway = MyProxyHttpGateway(tb.myproxy, key_source=tb.key_source)
        with tb.myproxy_client(alice.credential) as gsi, HttpMyProxyClient(
            gateway.connect, alice.credential, tb.validator,
            key_source=tb.key_source, clock=tb.clock,
        ) as over_http:
            rows = gsi.info(username="alice")
            assert over_http.info(username="alice") == rows
        cap = tb.myproxy.policy.max_delegation_lifetime
        assert [row.max_get_lifetime for row in rows] == [cap]
        with tb.myproxy_client(svc.credential) as client:
            proxy = client.get_delegation(username="alice", passphrase=PASS, lifetime=3600)
        assert proxy.certificate.not_after - tb.clock.now() == 3600.0


class TestRefusalParity:
    @pytest.mark.parametrize("passphrase", [PASS, "wrong wrong 7"])
    @pytest.mark.parametrize("binding", ["gsi", "http"])
    def test_a_get_without_a_csr_reveals_no_entry(self, tb, binding, passphrase):
        """The CSR is checked before the entry is looked up: a GET without
        one gets the same refusal for a stored and an unknown user, with
        the right pass phrase or a wrong one, and no lockout counts it."""
        tb.new_user("alice")
        svc = tb.new_user("svc")
        _seed(tb)
        if binding == "gsi":
            answers = []
            for username in ("alice", "ghost"):
                channel = connect_secure(
                    tb.myproxy_targets["repo-0"](), svc.credential, tb.validator
                )
                try:
                    channel.send(Request(command=Command.GET, username=username,
                                         passphrase=passphrase).encode())
                    answers.append(Response.decode(channel.recv()))
                finally:
                    channel.close()
            assert not answers[0].ok and "malformed CSR" in answers[0].error
        else:
            gateway = MyProxyHttpGateway(tb.myproxy, key_source=tb.key_source)
            answers = _exchange(gateway, svc, [
                ("/myproxy/get", {"username": username, "passphrase": passphrase})
                for username in ("alice", "ghost")
            ])
            assert answers[0][0] == 400 and "malformed CSR" in answers[0][1]["error"]
        assert answers[0] == answers[1]
        assert tb.myproxy._failed_auths == {}

    @pytest.mark.parametrize("case", ["wrong passphrase", "unknown user", "not the owner"])
    def test_one_denial_uniform_message(self, world, case):
        tb, make_client = world
        _seed(tb)
        mallory = tb.new_user("mallory")
        before = _stats(tb)
        with pytest.raises(AuthenticationError) as refused:
            if case == "wrong passphrase":
                make_client(tb.users["svc"]).get_delegation(
                    username="alice", passphrase="wrong wrong 7"
                )
            elif case == "unknown user":
                make_client(tb.users["svc"]).get_delegation(
                    username="ghost", passphrase=PASS
                )
            else:
                make_client(mallory).destroy(username="alice")
        assert DENIAL in str(refused.value)
        assert _delta(before, _stats(tb)) == {"denials": 1}

    def test_storage_error_is_generic_and_audited(self, world, monkeypatch):
        tb, make_client = world
        _seed(tb)

        def eio(username, cred_name):
            raise RepositoryError("EIO reading /srv/myproxy/seg-000042.mps")

        monkeypatch.setattr(tb.myproxy.repository, "get", eio)
        before = _stats(tb)
        with pytest.raises(AuthenticationError) as refused:
            make_client(tb.users["svc"]).get_delegation(username="alice", passphrase=PASS)
        assert STORAGE in str(refused.value)
        assert "EIO" not in str(refused.value)
        assert _delta(before, _stats(tb)) == {"denials": 1}
        last = tb.myproxy.audit_log()[-1]
        assert not last.ok and "EIO reading" in last.detail

    def test_lapsed_lease_answers_busy(self, world, monkeypatch):
        tb, make_client = world
        _seed(tb)

        def lease_lapsed(username, cred_name):
            raise ServerBusyError("primary lease lapsed", retry_after=0.25)

        monkeypatch.setattr(tb.myproxy.repository, "delete", lease_lapsed)
        before = _stats(tb)
        with pytest.raises(ServerBusyError) as busy:
            make_client(tb.users["alice"]).destroy(username="alice")
        assert busy.value.retry_after == pytest.approx(0.25)
        assert _delta(before, _stats(tb)) == {"denials": 1, "lease_denied_writes": 1}


class TestHttpRendering:
    def test_storage_and_busy_are_json_503s(self, tb, monkeypatch):
        gateway = MyProxyHttpGateway(tb.myproxy, key_source=tb.key_source)
        alice = tb.new_user("alice")
        _seed(tb)

        repository = tb.myproxy.repository
        real_get = repository.get

        def eio_for_bob(username, cred_name):
            if username == "bob":
                raise RepositoryError("EIO reading /srv/myproxy/seg-000042.mps")
            return real_get(username, cred_name)

        def lease_lapsed(username, cred_name):
            raise ServerBusyError("primary lease lapsed", retry_after=0.25)

        monkeypatch.setattr(repository, "get", eio_for_bob)
        monkeypatch.setattr(repository, "delete", lease_lapsed)
        # A well-formed GET: the CSR is checked before the entry is read.
        csr = new_csr(tb.key_source.new_key(), alice.credential.identity, label=_POP_LABEL)
        replies = _exchange(gateway, alice, [
            ("/myproxy/get", {"username": "bob", "passphrase": PASS, "csr": csr}),
            ("/myproxy/destroy", {"username": "alice"}),
        ])
        assert replies == [
            (503, {"ok": False, "error": STORAGE}),
            (503, {"ok": False, "error": "busy", "retry_after": 0.25}),
        ]

    def test_admission_is_per_request_on_a_kept_alive_connection(self, tb_factory):
        tb = tb_factory(myproxy_policy=ServerPolicy(qos_rate=0.001, qos_burst=1))
        gateway = MyProxyHttpGateway(tb.myproxy, key_source=tb.key_source)
        alice = tb.new_user("alice")
        before = tb.myproxy.stats.shed
        replies = _exchange(gateway, alice, [("/myproxy/info", {"username": "alice"})] * 3)
        assert replies[0][0] == 403  # admitted: alice simply owns nothing
        for status, body in replies[1:]:
            assert status == 503
            assert body["error"] == "busy" and body["retry_after"] > 0
        assert tb.myproxy.stats.shed == before + 2


def _exchange(gateway, user, requests):
    """POST each ``(path, payload)`` in turn over one kept-alive HTTPS
    connection; returns ``(status, JSON body)`` per reply."""
    channel = connect_secure(gateway.connect(), user.credential, gateway.server.validator)
    replies = []
    try:
        for path, payload in requests:
            channel.send(
                HttpRequest(
                    "POST", path,
                    headers=[("Content-Type", "application/json")],
                    body=json.dumps(payload).encode("utf-8"),
                ).serialize()
            )
            response = HttpResponse.parse(channel.recv())
            replies.append((response.status, json.loads(response.body)))
    finally:
        channel.close()
    return replies


class TestKeptConnections:
    @pytest.mark.parametrize("binding", ["gsi", "http"])
    def test_two_requests_on_one_tcp_connection(
        self, binding, tcp_repository, https_gateway, alice
    ):
        server, client = tcp_repository()
        before = server.stats.connections
        if binding == "gsi":
            with client(alice) as owner:
                names = [owner.info(username="alice")[0].cred_name for _ in range(2)]
        else:
            with https_gateway(server)(alice) as channel:
                bodies = [
                    http_post(channel, "/myproxy/info", {"username": "alice"})[1]
                    for _ in range(2)
                ]
            names = [body["credentials"][0]["cred_name"] for body in bodies]
        assert names == ["default", "default"]
        assert server.stats.connections == before + 1  # one handshake, two requests
        assert sum(1 for r in server.audit_log() if r.command == "INFO" and r.ok) == 2
