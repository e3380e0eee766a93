"""S3 (§5.1): repository impersonation fails.

"MyProxy clients also require mutual authentication of the repository ...
This prevents an attacker from impersonating the repository in order to
steal credentials or authentication information."
"""

import pytest

from repro.attacks.impersonate import FakeRepository
from repro.core.client import MyProxyClient, myproxy_init_from_longterm
from repro.util.errors import HandshakeError

PASS = "correct horse 42"


@pytest.fixture()
def fake(tb, clock):
    fake = FakeRepository(tb.ca.certificate, clock=clock)
    with fake.server:
        yield fake


class TestImpersonation:
    def test_client_aborts_before_sending_anything(self, tb, fake):
        """myproxy-init against the fake must die in the handshake."""
        alice = tb.new_user("alice")
        client = MyProxyClient(
            fake.target(), alice.credential, tb.validator,
            clock=tb.clock, key_source=tb.key_source,
        )
        with pytest.raises(HandshakeError):
            myproxy_init_from_longterm(
                client, alice.credential, username="alice", passphrase=PASS,
                key_source=tb.key_source,
            )
        # The fake's own audit shows no request ever arrived.
        assert fake.server.stats.puts == 0
        assert fake.server.repository.count() == 0

    def test_no_passphrase_reaches_the_fake(self, tb, fake):
        """Even the failed attempt leaks nothing: the pass phrase is only
        sent after the server proves its identity."""
        alice = tb.new_user("alice")
        client = MyProxyClient(
            fake.target(), alice.credential, tb.validator,
            clock=tb.clock, key_source=tb.key_source,
        )
        with pytest.raises(HandshakeError):
            client.get_delegation(username="alice", passphrase=PASS)
        commands = [r.command for r in fake.server.audit_log()]
        assert commands in ([], ["handshake"]) or all(c == "handshake" for c in commands)

    def test_fake_has_protocol_parity(self, tb, fake):
        """Sanity: the fake is a *real* MyProxy server — a careless victim
        who trusted the evil CA would be fully served.  The trust anchor is
        the only thing protecting the user."""
        gullible_validator_anchors = [fake.evil_ca.certificate, tb.ca.certificate]
        from repro.pki.validation import ChainValidator

        gullible = ChainValidator(gullible_validator_anchors, clock=tb.clock)
        alice = tb.new_user("alice")
        client = MyProxyClient(
            fake.target(), alice.credential, gullible,
            clock=tb.clock, key_source=tb.key_source,
        )
        response = myproxy_init_from_longterm(
            client, alice.credential, username="alice", passphrase=PASS,
            key_source=tb.key_source,
        )
        assert response.ok  # the fake now *holds alice's delegated proxy*
        assert fake.server.repository.count() == 1
