"""Batched GET (GET_MULTI) and session resumption, end to end.

The crypto hot path in one place: a portal fetching proxies for many
users should pay the asymmetric handshake once per *connection*, and a
repeat client should pay it once per *ticket lifetime*.
"""

import pytest

from repro.core.protocol import BatchItem
from repro.obs.registry import MetricsRegistry
from repro.util.errors import AuthenticationError, ServerBusyError


PASS = "correct horse 42"
PASS2 = "staple battery 99"


@pytest.fixture()
def seeded(tb_factory):
    registry = MetricsRegistry()
    tb = tb_factory(myproxy_metrics_registry=registry)
    alice = tb.new_user("alice")
    bob = tb.new_user("bob")
    tb.myproxy_init(alice, passphrase=PASS)
    tb.myproxy_init(bob, passphrase=PASS2)
    portal = tb.new_user("portalsvc")
    return tb, registry, alice, bob, portal


def _resumption_count(registry, outcome):
    family = registry.snapshot().get("myproxy_resumption_total", {})
    return family.get(f"outcome={outcome}", 0)


class TestBatchGet:
    def test_batch_of_two_succeeds(self, seeded):
        tb, _registry, alice, bob, portal = seeded
        client = tb.myproxy_client(portal.credential)
        results = client.get_delegations(
            [
                BatchItem(username="alice", passphrase=PASS, lifetime=3600.0),
                BatchItem(username="bob", passphrase=PASS2, lifetime=3600.0),
            ]
        )
        assert [r.identity for r in results] == [alice.dn, bob.dn]
        for proxy in results:
            assert tb.validator.validate(proxy.full_chain())

    def test_one_bad_item_does_not_cost_the_rest(self, seeded):
        tb, _registry, alice, bob, portal = seeded
        client = tb.myproxy_client(portal.credential)
        results = client.get_delegations(
            [
                BatchItem(username="alice", passphrase=PASS),
                BatchItem(username="bob", passphrase="wrong wrong 7"),
                BatchItem(username="nobody", passphrase=PASS),
            ]
        )
        assert results[0].identity == alice.dn
        assert isinstance(results[1], AuthenticationError)
        assert isinstance(results[2], AuthenticationError)
        # §5.1: refusals stay generic — wrong pass phrase and unknown
        # user must be indistinguishable.
        assert str(results[1]) == str(results[2])

    def test_batch_amortizes_the_handshake(self, seeded):
        tb, registry, _alice, _bob, portal = seeded
        client = tb.myproxy_client(portal.credential)
        before = sum(
            _resumption_count(registry, o) for o in ("hit", "miss", "none")
        )
        client.get_delegations(
            [
                BatchItem(username="alice", passphrase=PASS),
                BatchItem(username="bob", passphrase=PASS2),
            ]
        )
        after = sum(
            _resumption_count(registry, o) for o in ("hit", "miss", "none")
        )
        # Two delegations, one connection: exactly one handshake happened.
        assert after - before == 1
        assert client.stats.operations == 1

    def test_busy_item_does_not_cost_the_rest(self, seeded, monkeypatch):
        """An OTP item whose verify-and-advance write meets a lapsed
        cluster lease is answered busy; the batch carries on."""
        from repro.core.otp import OTPGenerator
        from repro.core.protocol import AuthMethod
        from repro.pki.proxy import create_proxy

        tb, _registry, _alice, bob, portal = seeded
        carol = tb.new_user("carol")
        gen = OTPGenerator("otp secret", "seed0", count=8)
        tb.myproxy_client(carol.credential).put(
            create_proxy(carol.credential, lifetime=7 * 86400,
                         key_source=tb.key_source, clock=tb.clock),
            username="carol", auth_method=AuthMethod.OTP, otp=gen,
            lifetime=7 * 86400,
        )

        def lease_lapsed(entry):
            raise ServerBusyError("primary lease lapsed", retry_after=0.5)

        monkeypatch.setattr(tb.myproxy.repository, "put", lease_lapsed)
        before = tb.myproxy.stats.lease_denied_writes
        results = tb.myproxy_client(portal.credential).get_delegations(
            [
                BatchItem(username="carol", passphrase=gen.next_word(),
                          auth_method=AuthMethod.OTP),
                BatchItem(username="bob", passphrase=PASS2),
            ]
        )
        assert isinstance(results[0], ServerBusyError)
        assert results[0].retry_after == pytest.approx(0.5)
        assert results[1].identity == bob.dn
        assert tb.myproxy.stats.lease_denied_writes == before + 1

    def test_empty_batch_is_a_no_op(self, seeded):
        tb, _registry, _alice, _bob, portal = seeded
        client = tb.myproxy_client(portal.credential)
        assert client.get_delegations([]) == []


class TestResumptionIntegration:
    def test_second_operation_resumes(self, seeded):
        tb, registry, alice, _bob, portal = seeded
        client = tb.myproxy_client(portal.credential)
        client.get_delegation(username="alice", passphrase=PASS)
        assert client.stats.full_handshakes >= 1
        resumed_before = client.stats.resumed_handshakes
        client.close()  # the next operation dials, whatever the transport
        client.get_delegation(username="alice", passphrase=PASS)
        assert client.stats.resumed_handshakes == resumed_before + 1
        assert _resumption_count(registry, "hit") >= 1

    def test_fresh_client_same_store_still_resumes(self, seeded):
        """The portal shape: short-lived clients share one ticket store."""
        tb, registry, _alice, _bob, portal = seeded
        tb.myproxy_client(portal.credential).get_delegation(
            username="alice", passphrase=PASS
        )
        second = tb.myproxy_client(portal.credential)
        second.get_delegation(username="alice", passphrase=PASS)
        assert second.stats.resumed_handshakes == 1
        assert second.stats.full_handshakes == 0
        assert _resumption_count(registry, "hit") >= 1

    def test_different_identity_does_not_share_tickets(self, tb_factory):
        """Bob's client must never resume with Alice's ticket.

        Tickets are keyed by (client identity, endpoint).  If they were
        keyed by endpoint alone, Bob's first connection would resume the
        session Alice's ``myproxy_init`` earned — authenticating him as
        Alice, so ``info`` on her credentials would *succeed*.
        """
        tb = tb_factory()
        alice = tb.new_user("alice")
        bob = tb.new_user("bob")
        tb.myproxy_init(alice, passphrase=PASS)  # alice earns a ticket
        bob_client = tb.myproxy_client(bob.credential)
        with pytest.raises(AuthenticationError):
            bob_client.info(username="alice")
        assert bob_client.stats.resumed_handshakes == 0
        assert bob_client.stats.full_handshakes == 1

    def test_tickets_disabled_by_policy(self, tb_factory):
        from repro.core.policy import ServerPolicy

        tb = tb_factory(myproxy_policy=ServerPolicy(session_tickets=False))
        user = tb.new_user("alice")
        tb.myproxy_init(user, passphrase=PASS)
        client = tb.myproxy_client(user.credential)
        client.info(username="alice")
        client.close()  # the next operation dials, whatever the transport
        client.info(username="alice")
        assert client.stats.resumed_handshakes == 0
        assert client.stats.full_handshakes == 2
