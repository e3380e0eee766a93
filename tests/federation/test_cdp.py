"""IVOA CDP lifecycle: the happy dance and every abuse of it."""

import secrets

import pytest

from repro.core.httpbinding import MyProxyHttpGateway
from repro.federation.cdp import CdpClient, CdpService
from repro.pki.proxy import ProxyRestrictions, effective_restrictions, sign_proxy_request
from repro.util.errors import AuthenticationError

PASS = "correct horse 42"


@pytest.fixture()
def cdp_world(tb):
    gateway = MyProxyHttpGateway(tb.myproxy, key_source=tb.key_source)
    service = CdpService(gateway, csr_ttl=300.0)
    return tb, gateway, service


def cdp_client(tb, gateway, credential):
    return CdpClient(
        gateway.connect, credential, tb.validator, key_source=tb.key_source, clock=tb.clock
    )


class TestLifecycle:
    def test_delegate_stores_retrievable_credential(self, cdp_world):
        tb, gateway, _service = cdp_world
        alice = tb.new_user("alice")
        client = cdp_client(tb, gateway, alice.credential)
        delegation_id, commit = client.delegate(
            alice.credential, username="alice", passphrase=PASS, lifetime=86400.0
        )
        assert commit.stored and delegation_id
        svc = tb.new_user("svc")
        proxy = tb.myproxy_get(
            username="alice", passphrase=PASS, requester=svc.credential
        )
        assert proxy.identity == alice.dn

    def test_restrictions_survive_the_deposit(self, cdp_world):
        tb, gateway, _service = cdp_world
        alice = tb.new_user("alice")
        narrow = ProxyRestrictions(
            operations=frozenset({"fetch"}), resources=frozenset(),
            max_delegation_depth=1,
        )
        cdp_client(tb, gateway, alice.credential).delegate(
            alice.credential, username="alice", passphrase=PASS,
            lifetime=86400.0, restrictions=narrow,
        )
        svc = tb.new_user("svc")
        proxy = tb.myproxy_get(
            username="alice", passphrase=PASS, requester=svc.credential
        )
        effective = effective_restrictions(proxy.full_chain())
        assert effective.operations == frozenset({"fetch"})

    def test_delete_aborts_pending_resource(self, cdp_world):
        tb, gateway, _service = cdp_world
        alice = tb.new_user("alice")
        client = cdp_client(tb, gateway, alice.credential)
        registered = client._call("/cdp/register", {})
        client.abort(registered["delegation_id"])
        with pytest.raises(AuthenticationError):
            client._call(
                "/cdp/proxy-csr",
                {"delegation_id": registered["delegation_id"],
                 "nonce": secrets.token_hex(16)},
            )

    def test_audited_as_cdp(self, cdp_world):
        tb, gateway, _service = cdp_world
        alice = tb.new_user("alice")
        cdp_client(tb, gateway, alice.credential).delegate(
            alice.credential, username="alice", passphrase=PASS, lifetime=86400.0
        )
        assert any(
            r.command == "CDP" and r.ok for r in tb.myproxy.audit_log()
        )
        assert tb.myproxy.stats.snapshot()["cdp_delegations"] == 1


class TestAbuse:
    def test_completed_resource_refuses_replay(self, cdp_world):
        """Re-uploading against a used id names the replay precisely."""
        tb, gateway, _service = cdp_world
        alice = tb.new_user("alice")
        client = cdp_client(tb, gateway, alice.credential)
        delegation_id, _commit = client.delegate(
            alice.credential, username="alice", passphrase=PASS, lifetime=86400.0
        )
        with pytest.raises(AuthenticationError, match="replay refused"):
            client._call(
                "/cdp/proxy-csr",
                {"delegation_id": delegation_id,
                 "nonce": secrets.token_hex(16)},
            )

    def test_expired_csr_named_precisely(self, cdp_world, clock):
        tb, gateway, service = cdp_world
        alice = tb.new_user("alice")
        client = cdp_client(tb, gateway, alice.credential)
        registered = client._call("/cdp/register", {})
        clock.advance(service.csr_ttl + 1.0)
        with pytest.raises(AuthenticationError, match="CSR expired"):
            client._call(
                "/cdp/proxy-csr",
                {"delegation_id": registered["delegation_id"],
                 "nonce": secrets.token_hex(16)},
            )

    def test_cross_user_redemption_fails_generically(self, cdp_world):
        """Mallory probing alice's id learns nothing beyond 'unknown'."""
        tb, gateway, _service = cdp_world
        alice = tb.new_user("alice")
        mallory = tb.new_user("mallory")
        registered = cdp_client(tb, gateway, alice.credential)._call(
            "/cdp/register", {}
        )
        with pytest.raises(AuthenticationError, match="authorization"):
            cdp_client(tb, gateway, mallory.credential)._call(
                "/cdp/proxy-csr",
                {"delegation_id": registered["delegation_id"],
                 "nonce": secrets.token_hex(16)},
            )

    def test_certificate_signed_by_wrong_identity_refused(self, cdp_world):
        """The deposit is bound to the transport peer, not the chain alone."""
        tb, gateway, _service = cdp_world
        alice = tb.new_user("alice")
        bob = tb.new_user("bob")
        client = cdp_client(tb, gateway, alice.credential)
        registered = client._call("/cdp/register", {})
        csr = client._call(
            "/cdp/proxy-csr",
            {"delegation_id": registered["delegation_id"],
             "nonce": secrets.token_hex(16)},
        )
        from repro.pki.keys import PublicKey

        cert = sign_proxy_request(
            bob.credential,
            PublicKey.from_pem(csr["public_key_pem"].encode("ascii")),
            lifetime=3600.0, clock=tb.clock,
        )
        chain_pem = b"".join(c.to_pem() for c in bob.credential.full_chain())
        with pytest.raises(AuthenticationError):
            client._call(
                "/cdp/certificate",
                {"delegation_id": registered["delegation_id"],
                 "username": "alice", "passphrase": PASS, "lifetime": 3600.0,
                 "certificate_pem": cert.to_pem().decode("ascii"),
                 "chain_pem": chain_pem.decode("ascii")},
            )

    def test_failed_upload_does_not_consume_resource(self, cdp_world):
        """A rejected certificate leaves the CSR redeemable until its TTL."""
        tb, gateway, _service = cdp_world
        alice = tb.new_user("alice")
        client = cdp_client(tb, gateway, alice.credential)
        registered = client._call("/cdp/register", {})
        did = registered["delegation_id"]
        nonce = secrets.token_hex(16)
        csr = client._call("/cdp/proxy-csr", {"delegation_id": did, "nonce": nonce})
        with pytest.raises(AuthenticationError):  # garbage certificate
            client._call(
                "/cdp/certificate",
                {"delegation_id": did, "username": "alice", "passphrase": PASS,
                 "lifetime": 3600.0, "certificate_pem": "", "chain_pem": ""},
            )
        from repro.pki.keys import PublicKey

        cert = sign_proxy_request(
            alice.credential,
            PublicKey.from_pem(csr["public_key_pem"].encode("ascii")),
            lifetime=3600.0, clock=tb.clock,
        )
        chain_pem = b"".join(c.to_pem() for c in alice.credential.full_chain())
        answer = client._call(
            "/cdp/certificate",
            {"delegation_id": did, "username": "alice", "passphrase": PASS,
             "lifetime": 3600.0,
             "certificate_pem": cert.to_pem().decode("ascii"),
             "chain_pem": chain_pem.decode("ascii")},
        )
        assert answer["stored"]

    def test_short_nonce_rejected(self, cdp_world):
        tb, gateway, _service = cdp_world
        alice = tb.new_user("alice")
        client = cdp_client(tb, gateway, alice.credential)
        registered = client._call("/cdp/register", {})
        with pytest.raises(AuthenticationError, match="nonce"):
            client._call(
                "/cdp/proxy-csr",
                {"delegation_id": registered["delegation_id"], "nonce": "abcd"},
            )
