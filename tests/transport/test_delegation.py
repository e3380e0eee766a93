"""GSI delegation over a secure channel (§2.4)."""

import threading

import pytest

from repro.pki.proxy import ProxyRestrictions, ProxyType, create_proxy
from repro.transport.channel import accept_secure, connect_secure
from repro.transport.delegation import accept_delegation, delegate_credential
from repro.transport.links import pipe_pair


@pytest.fixture()
def channel_pair(alice, host_cred, validator):
    cl, sl = pipe_pair()
    result = {}

    def _server():
        result["channel"] = accept_secure(sl, host_cred, validator)

    thread = threading.Thread(target=_server)
    thread.start()
    client = connect_secure(cl, alice, validator)
    thread.join(10)
    yield client, result["channel"]
    client.close()


def _delegate(channel_pair, issuer, key_pool, clock, **kwargs):
    client, server = channel_pair
    result = {}

    def _accept():
        result["credential"] = accept_delegation(server, key_source=key_pool)

    thread = threading.Thread(target=_accept)
    thread.start()
    issued = delegate_credential(client, issuer, clock=clock, **kwargs)
    thread.join(10)
    return issued, result["credential"]


class TestDelegation:
    def test_acceptor_obtains_working_credential(
        self, channel_pair, alice, key_pool, clock, validator
    ):
        issued, received = _delegate(channel_pair, alice, key_pool, clock, lifetime=1800)
        assert received.identity == alice.subject
        assert received.has_key
        assert received.certificate == issued
        assert validator.validate(received.full_chain()).proxy_depth == 1

    def test_private_key_never_crosses_the_wire(
        self, alice, host_cred, validator, key_pool, clock
    ):
        """Tap the raw link during delegation; no private key material leaks."""
        from repro.attacks.eavesdrop import WireCapture

        cl, sl = pipe_pair()
        capture = WireCapture()
        result = {}

        def _server():
            channel = accept_secure(sl, host_cred, validator)
            result["cred"] = accept_delegation(channel, key_source=key_pool)

        thread = threading.Thread(target=_server)
        thread.start()
        client = connect_secure(capture.tap(cl), alice, validator)
        delegate_credential(client, alice, lifetime=600, clock=clock)
        thread.join(10)
        received = result["cred"]
        # The acceptor's private key (PKCS8 DER) must appear nowhere on the wire.
        key_der_prefix = received.key.to_pem().splitlines()[1][:32]
        all_wire = capture.all_bytes()
        assert key_der_prefix not in all_wire
        assert b"PRIVATE KEY" not in all_wire

    def test_limited_delegation(self, channel_pair, alice, key_pool, clock):
        _issued, received = _delegate(
            channel_pair, alice, key_pool, clock, limited=True
        )
        assert ProxyType.of(received.certificate) is ProxyType.LIMITED

    def test_restricted_delegation(self, channel_pair, alice, key_pool, clock):
        restrictions = ProxyRestrictions(operations=frozenset({"store"}))
        _issued, received = _delegate(
            channel_pair, alice, key_pool, clock, restrictions=restrictions
        )
        assert received.certificate.restrictions_payload == restrictions.to_payload()

    def test_chained_delegation(self, alice, host_cred, validator, key_pool, clock):
        """host receives a delegation, then delegates onward (§2.4 chaining)."""
        # hop 1: alice → host
        cl, sl = pipe_pair()
        hop1 = {}

        def _host():
            channel = accept_secure(sl, host_cred, validator)
            hop1["cred"] = accept_delegation(channel, key_source=key_pool)

        t = threading.Thread(target=_host)
        t.start()
        c1 = connect_secure(cl, alice, validator)
        delegate_credential(c1, alice, lifetime=3600, clock=clock)
        t.join(10)
        hop1_cred = hop1["cred"]

        # hop 2: host (as alice's delegate) → second service
        cl2, sl2 = pipe_pair()
        hop2 = {}

        def _second():
            channel = accept_secure(sl2, host_cred, validator)
            hop2["cred"] = accept_delegation(channel, key_source=key_pool)

        t2 = threading.Thread(target=_second)
        t2.start()
        c2 = connect_secure(cl2, hop1_cred, validator)
        delegate_credential(c2, hop1_cred, lifetime=1800, clock=clock)
        t2.join(10)

        final = hop2["cred"]
        ident = validator.validate(final.full_chain())
        assert ident.identity == alice.subject
        assert ident.proxy_depth == 2

    def test_delegated_lifetime_clipped_by_issuer(
        self, channel_pair, alice, ca, key_pool, clock
    ):
        proxy = create_proxy(alice, lifetime=1000, key_source=key_pool, clock=clock)
        _issued, received = _delegate(
            channel_pair, proxy, key_pool, clock, lifetime=10_000
        )
        assert received.certificate.not_after <= proxy.certificate.not_after
