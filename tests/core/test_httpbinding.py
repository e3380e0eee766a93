"""§6.4: the HTTP binding of the MyProxy protocol."""

import json

import pytest

from repro.core.httpbinding import HttpMyProxyClient, MyProxyHttpGateway
from repro.core.protocol import AuthMethod
from repro.federation.cdp import CdpClient, CdpService
from repro.transport.channel import connect_secure
from repro.util.errors import AuthenticationError, HandshakeError
from repro.web.http11 import HttpRequest, HttpResponse

PASS = "correct horse 42"


@pytest.fixture()
def gateway(tb):
    return MyProxyHttpGateway(tb.myproxy, key_source=tb.key_source)


def http_client(tb, gateway, credential):
    return HttpMyProxyClient(
        gateway.connect, credential, tb.validator, key_source=tb.key_source, clock=tb.clock
    )


@pytest.fixture()
def world(tb, gateway):
    alice = tb.new_user("alice")
    svc = tb.new_user("svc")
    return tb, gateway, alice, svc


class TestPutOverHttp:
    def test_two_step_put_stores_credential(self, world, clock):
        tb, gateway, alice, _ = world
        client = http_client(tb, gateway, alice.credential)
        answer = client.put(
            alice.credential, username="alice", passphrase=PASS, lifetime=7 * 86400
        )
        assert answer.stored
        entry = tb.myproxy.repository.get("alice", "default")
        assert entry.owner_dn == str(alice.dn)
        assert entry.not_after == pytest.approx(clock.now() + 7 * 86400, abs=600)

    def test_put_session_single_use(self, world):
        """A replayed complete with a consumed token is refused."""
        import secrets as s

        tb, gateway, alice, _ = world
        client = http_client(tb, gateway, alice.credential)
        nonce = s.token_hex(16)
        begin = client._call("/myproxy/put/begin", {"nonce": nonce})
        # consume it once (mismatched cert is fine — it will fail, consuming
        # the session)
        with pytest.raises(AuthenticationError):
            client._call(
                "/myproxy/put/complete",
                {"token": begin["token"], "username": "alice",
                 "passphrase": PASS, "lifetime": 3600,
                 "certificate_pem": "", "chain_pem": ""},
            )
        with pytest.raises(AuthenticationError, match="refused"):
            client._call(
                "/myproxy/put/complete",
                {"token": begin["token"], "username": "alice",
                 "passphrase": PASS, "lifetime": 3600,
                 "certificate_pem": "", "chain_pem": ""},
            )

    def test_put_session_expires(self, world, clock):
        import secrets as s

        tb, gateway, alice, _ = world
        client = http_client(tb, gateway, alice.credential)
        begin = client._call("/myproxy/put/begin", {"nonce": s.token_hex(16)})
        clock.advance(200)  # past PUT_SESSION_TTL
        with pytest.raises(AuthenticationError):
            client._call(
                "/myproxy/put/complete",
                {"token": begin["token"], "username": "alice",
                 "passphrase": PASS, "lifetime": 3600,
                 "certificate_pem": "", "chain_pem": ""},
            )

    def test_put_token_bound_to_identity(self, world):
        """Mallory cannot complete alice's PUT session."""
        import secrets as s

        tb, gateway, alice, _ = world
        mallory = tb.new_user("mallory")
        alice_client = http_client(tb, gateway, alice.credential)
        begin = alice_client._call("/myproxy/put/begin", {"nonce": s.token_hex(16)})
        mallory_client = http_client(tb, gateway, mallory.credential)
        with pytest.raises(AuthenticationError):
            mallory_client._call(
                "/myproxy/put/complete",
                {"token": begin["token"], "username": "mallory",
                 "passphrase": PASS, "lifetime": 3600,
                 "certificate_pem": "", "chain_pem": ""},
            )


class TestPutSessionHardening:
    """Consumed and lapsed tokens get *distinct* refusals (§6.4).

    The token is a bearer secret its holder legitimately had, so naming
    the fate (replayed vs expired) is actionable for the client and not
    an oracle for guessers — who still get the generic denial.
    """

    def _begin(self, tb, gateway, credential):
        import secrets as s

        client = http_client(tb, gateway, credential)
        begin = client._call("/myproxy/put/begin", {"nonce": s.token_hex(16)})
        return client, begin["token"]

    def _complete(self, client, token, username="alice"):
        return client._call(
            "/myproxy/put/complete",
            {"token": token, "username": username, "passphrase": PASS,
             "lifetime": 3600, "certificate_pem": "", "chain_pem": ""},
        )

    def test_replayed_token_names_the_replay(self, world):
        tb, gateway, alice, _ = world
        client, token = self._begin(tb, gateway, alice.credential)
        with pytest.raises(AuthenticationError):
            self._complete(client, token)  # consumes the session
        with pytest.raises(AuthenticationError, match="already used"):
            self._complete(client, token)

    def test_expired_token_names_the_expiry(self, world, clock):
        from repro.core.httpbinding import PUT_SESSION_TTL

        tb, gateway, alice, _ = world
        client, token = self._begin(tb, gateway, alice.credential)
        clock.advance(PUT_SESSION_TTL + 1.0)
        with pytest.raises(AuthenticationError, match="PUT session expired"):
            self._complete(client, token)

    def test_tombstones_eventually_forgotten(self, world, clock):
        """Past the tombstone TTL, a stale token folds into 'unknown'."""
        from repro.core.httpbinding import PUT_SESSION_TTL, PUT_TOMBSTONE_TTL

        tb, gateway, alice, _ = world
        client, token = self._begin(tb, gateway, alice.credential)
        clock.advance(PUT_SESSION_TTL + 1.0)
        self._begin(tb, gateway, alice.credential)  # reap: expiry noticed here
        clock.advance(PUT_TOMBSTONE_TTL + 1.0)
        with pytest.raises(AuthenticationError, match="authorization"):
            self._complete(client, token)

    def test_other_peers_tombstone_stays_generic(self, world, clock):
        """Mallory probing alice's expired token learns nothing."""
        from repro.core.httpbinding import PUT_SESSION_TTL

        tb, gateway, alice, _ = world
        mallory = tb.new_user("mallory")
        _client, token = self._begin(tb, gateway, alice.credential)
        clock.advance(PUT_SESSION_TTL + 1.0)
        mallory_client = http_client(tb, gateway, mallory.credential)
        with pytest.raises(AuthenticationError, match="authorization"):
            self._complete(mallory_client, token, username="mallory")

    def test_endpoint_metrics_counted(self, world):
        tb, gateway, alice, _ = world
        client, token = self._begin(tb, gateway, alice.credential)
        with pytest.raises(AuthenticationError):
            self._complete(client, token)
        families = tb.myproxy.metrics.snapshot()
        requests = families["myproxy_http_requests_total"]
        assert requests["endpoint=/myproxy/put/begin,outcome=ok"] == 1
        assert requests["endpoint=/myproxy/put/complete,outcome=rejected"] == 1
        latency = families["myproxy_http_request_seconds"]
        assert latency["endpoint=/myproxy/put/begin"]["count"] == 1


class TestGetOverHttp:
    @pytest.fixture()
    def stored(self, world):
        tb, gateway, alice, svc = world
        http_client(tb, gateway, alice.credential).put(
            alice.credential, username="alice", passphrase=PASS, lifetime=7 * 86400
        )
        return tb, gateway, alice, svc

    def test_get_returns_usable_credential(self, stored, clock):
        tb, gateway, alice, svc = stored
        client = http_client(tb, gateway, svc.credential)
        proxy = client.get_delegation(
            username="alice", passphrase=PASS, lifetime=3600
        )
        assert proxy.identity == alice.dn
        assert proxy.has_key
        assert tb.validator.validate(proxy.full_chain())
        assert proxy.seconds_remaining(clock) == pytest.approx(3600, abs=300)

    def test_wrong_passphrase_refused(self, stored):
        tb, gateway, _, svc = stored
        client = http_client(tb, gateway, svc.credential)
        with pytest.raises(AuthenticationError):
            client.get_delegation(username="alice", passphrase="nope nope")

    def test_interoperates_with_channel_protocol(self, stored):
        """Credentials PUT over HTTP are retrievable over the classic
        channel protocol, and vice versa — one repository, two bindings."""
        tb, gateway, alice, svc = stored
        # HTTP PUT (done in fixture) → channel GET:
        channel_proxy = tb.myproxy_get(
            username="alice", passphrase=PASS, requester=svc.credential
        )
        assert channel_proxy.identity == alice.dn
        # channel PUT → HTTP GET:
        bob = tb.new_user("bob")
        tb.myproxy_init(bob, passphrase=PASS)
        http_proxy = http_client(tb, gateway, svc.credential).get_delegation(
            username="bob", passphrase=PASS
        )
        assert http_proxy.identity == bob.dn

    def test_renewal_over_http(self, world, clock):
        tb, gateway, alice, svc = world
        http_client(tb, gateway, alice.credential).put(
            alice.credential, username="alice", passphrase=PASS,
            lifetime=7 * 86400, renewers=("*",),
        )
        current = http_client(tb, gateway, svc.credential).get_delegation(
            username="alice", passphrase=PASS, lifetime=3600
        )
        clock.advance(3000)
        fresh = http_client(tb, gateway, current).get_delegation(
            username="alice", auth_method=AuthMethod.RENEWAL, lifetime=3600
        )
        assert fresh.certificate.not_after > current.certificate.not_after


class TestHousekeepingOverHttp:
    @pytest.fixture()
    def stored(self, world):
        tb, gateway, alice, svc = world
        client = http_client(tb, gateway, alice.credential)
        client.put(alice.credential, username="alice", passphrase=PASS,
                   lifetime=7 * 86400)
        return tb, gateway, alice, client

    def test_info(self, stored):
        _, _, _, client = stored
        rows = client.info(username="alice")
        assert len(rows) == 1 and rows[0].cred_name == "default"

    def test_change_passphrase_and_destroy(self, stored, world):
        tb, gateway, alice, client = stored
        client.change_passphrase(
            username="alice", old_passphrase=PASS, new_passphrase="rotated 88"
        )
        svc = tb.users["svc"]
        getter = http_client(tb, gateway, svc.credential)
        with pytest.raises(AuthenticationError):
            getter.get_delegation(username="alice", passphrase=PASS)
        assert getter.get_delegation(
            username="alice", passphrase="rotated 88"
        ).identity == alice.dn
        client.destroy(username="alice")
        with pytest.raises(AuthenticationError):
            getter.get_delegation(username="alice", passphrase="rotated 88")

    def test_change_passphrase_of_long_term_entry(self, world):
        """Regression: the HTTP change used to replace a STORE entry's
        certificates-plus-key blob with a bare key."""
        tb, gateway, alice, svc = world
        gsi = tb.myproxy_client(alice.credential)
        gsi.store_longterm(alice.credential, username="alice", passphrase=PASS,
                           cred_name="lt")
        http_client(tb, gateway, alice.credential).change_passphrase(
            username="alice", old_passphrase=PASS, new_passphrase="rotated 88",
            cred_name="lt",
        )
        getter = http_client(tb, gateway, svc.credential)
        assert getter.get_delegation(
            username="alice", passphrase="rotated 88", cred_name="lt"
        ).identity == alice.dn
        with pytest.raises(AuthenticationError):
            getter.get_delegation(username="alice", passphrase=PASS, cred_name="lt")
        back = gsi.retrieve_longterm(username="alice", passphrase="rotated 88",
                                     cred_name="lt")
        assert back.key.public == alice.credential.key.public
        audit = tb.myproxy.audit_log()
        assert any(r.command == "CHANGE_PASSPHRASE" and r.ok for r in audit)


class TestTransportSecurity:
    def test_anonymous_clients_rejected_at_handshake(self, world):
        """Unlike the portal, the gateway demands client certificates."""
        tb, gateway, _, _ = world
        with pytest.raises(HandshakeError):
            connect_secure(gateway.connect(), None, tb.validator)

    def test_gateway_audits_denials(self, world):
        tb, gateway, alice, svc = world
        client = http_client(tb, gateway, svc.credential)
        with pytest.raises(AuthenticationError):
            client.get_delegation(username="ghost", passphrase="x" * 8)
        assert any(
            r.command == "HTTP" and not r.ok for r in tb.myproxy.audit_log()
        )


class TestNoBrowserSessions:
    """The gateway authorizes each request on its client certificate: it
    mints no web session and sets no cookie, whatever the route."""

    def test_requests_leave_no_session(self, world):
        tb, gateway, alice, _ = world
        CdpService(gateway)
        client = http_client(tb, gateway, alice.credential)
        client.put(alice.credential, username="alice", passphrase=PASS, lifetime=86400)
        for _ in range(10):
            client.info(username="alice")
        CdpClient(
            client._target, alice.credential, tb.validator,
            key_source=tb.key_source, clock=tb.clock,
        ).delegate(alice.credential, username="alice", passphrase=PASS,
                   lifetime=3600, cred_name="cdp")
        assert gateway.web.sessions.count() == 0

    @pytest.mark.parametrize(
        "path, payload, status",
        [("/myproxy/info", {"username": "alice"}, 403), ("/cdp/register", {}, 200)],
    )
    def test_no_set_cookie(self, world, path, payload, status):
        tb, gateway, alice, _ = world
        CdpService(gateway)
        with connect_secure(gateway.connect(), alice.credential, tb.validator) as channel:
            channel.send(
                HttpRequest(
                    "POST", path, headers=[("Content-Type", "application/json")],
                    body=json.dumps(payload).encode("utf-8"),
                ).serialize()
            )
            response = HttpResponse.parse(channel.recv())
        assert response.status == status  # INFO: alice owns nothing yet
        assert response.header("Set-Cookie") is None
        assert gateway.web.sessions.count() == 0
