"""A reused channel gets no trust the handshake would not give again.

A kept channel skips the handshake, so before every request after the
first the server repeats exactly what a ticket redemption checks: the
trust generation is unchanged and the peer chain still validates
(expiry, CRLs).  Refusals and anonymous channels end the channel, and
admission bills every request, not every channel.
"""

import pytest

from repro.core.client import RetryPolicy
from repro.core.protocol import Command, Request, Response
from repro.pki.ca import CertificateAuthority
from repro.pki.names import DistinguishedName
from repro.pki.proxy import create_proxy
from repro.transport.channel import PeerClosedError, connect_secure
from repro.util.concurrency import wait_for
from repro.util.errors import AuthenticationError, ServerBusyError, TransportError


def _info_served(server) -> int:
    return sum(1 for r in server.audit_log() if r.command == "INFO" and r.ok)


def _wait_for_handshake_refusal(server, reason: str) -> None:
    # The client sees the abort before the server has audited it.
    wait_for(
        lambda: any(
            reason in r.detail for r in server.audit_log() if r.command == "handshake"
        ),
        message=f"a handshake refused as {reason}",
    )


class TestTrustIsRecheckedPerRequest:
    def test_crl_update_ends_the_channel_and_the_redial_is_refused(
        self, tcp_repository, ca, validator, alice
    ):
        server, client = tcp_repository()
        owner = client(alice)
        owner.info(username="alice")
        ca.revoke(alice.certificate)
        validator.update_crl(ca.crl())
        with pytest.raises(TransportError):
            owner.info(username="alice")
        # Never served on the old channel, and the transparent redial's
        # full handshake met the revocation.
        assert _info_served(server) == 1
        _wait_for_handshake_refusal(server, "revoked")
        assert owner.stats.dial_attempts == 2

    def test_new_anchor_ends_the_channel(self, tcp_repository, validator, alice, key_pool):
        server, client = tcp_repository()
        owner = client(alice)
        owner.info(username="alice")
        other = CertificateAuthority(
            DistinguishedName.parse("/O=Grid/CN=Other CA"), key=key_pool.new_key()
        )
        validator.add_anchor(other.certificate)
        assert owner.info(username="alice")[0].cred_name == "default"
        # Served, but on a fresh dial whose ticket the new generation
        # refused — the old channel carried nothing more.
        assert owner.stats.dial_attempts == 2
        assert owner.stats.full_handshakes == 2
        assert owner.stats.transport_failures == 0
        assert _info_served(server) == 2

    def test_expired_peer_proxy_is_not_served_again(
        self, tcp_repository, clock, validator, alice, key_pool
    ):
        server, client = tcp_repository()
        proxy = create_proxy(alice, lifetime=600.0, key_source=key_pool, clock=clock)
        holder = client(proxy)
        holder.info(username="alice")
        clock.advance(600.0 + validator.skew + 1.0)
        with pytest.raises(TransportError):
            holder.info(username="alice")
        assert _info_served(server) == 1
        _wait_for_handshake_refusal(server, "expired")


class TestSwappedCredential:
    """A kept channel is filed under the leaf subject, like a session
    ticket: a swap to a fresh proxy of the same subject keeps it, and
    the chain the channel proved is still the one re-checked."""

    def test_old_proxy_expiry_costs_one_transparent_redial(
        self, tcp_repository, clock, validator, alice, key_pool
    ):
        server, client = tcp_repository()
        holder = client(create_proxy(alice, lifetime=600.0, key_source=key_pool, clock=clock))
        holder.info(username="alice")
        holder.credential = create_proxy(
            alice, lifetime=3600.0, key_source=key_pool, clock=clock
        )
        holder.info(username="alice")
        before = holder.stats.snapshot()
        assert before["dial_attempts"] == 1
        served = _info_served(server)
        clock.advance(600.0 + validator.skew + 1.0)  # old expired, new live
        assert holder.info(username="alice")[0].cred_name == "default"
        after = holder.stats.snapshot()
        # Not served on the old chain's channel; the redial presents the
        # new proxy, and the old chain's ticket is refused.
        assert after["dial_attempts"] == before["dial_attempts"] + 1
        assert after["transport_failures"] == 0
        assert after["full_handshakes"] == before["full_handshakes"] + 1
        assert _info_served(server) == served + 1

    def test_swap_to_a_limited_proxy_dials(self, tcp_repository, clock, alice, key_pool):
        server, client = tcp_repository()
        holder = client(create_proxy(alice, key_source=key_pool, clock=clock))
        holder.info(username="alice")
        holder.credential = create_proxy(
            alice, limited=True, key_source=key_pool, clock=clock
        )
        assert holder.info(username="alice")[0].cred_name == "default"
        assert holder.stats.dial_attempts == 2
        assert holder.stats.resumed_handshakes == 0  # a new subject: no ticket
        assert holder.stats.full_handshakes == 2

    def test_crl_after_a_swap_ends_the_channel_and_the_redial_is_refused(
        self, tcp_repository, ca, clock, validator, alice, key_pool
    ):
        server, client = tcp_repository()
        holder = client(create_proxy(alice, key_source=key_pool, clock=clock))
        holder.info(username="alice")
        holder.credential = create_proxy(alice, key_source=key_pool, clock=clock)
        holder.info(username="alice")
        assert holder.stats.dial_attempts == 1
        ca.revoke(alice.certificate)
        validator.update_crl(ca.crl())
        with pytest.raises(TransportError):
            holder.info(username="alice")
        assert _info_served(server) == 2
        _wait_for_handshake_refusal(server, "revoked")
        assert holder.stats.dial_attempts == 2


class TestRefusalsEndTheChannel:
    def test_wrong_passphrase_ends_the_channel(self, tcp_repository, alice, validator):
        server, client = tcp_repository()
        # On the wire: after a refused request the server sends the close
        # alert at once instead of waiting for another request.
        with connect_secure(server.endpoint, alice, validator) as channel:
            channel.send(Request(command=Command.INFO, username="alice").encode())
            assert Response.decode(channel.recv()).ok
            channel.send(
                Request(command=Command.GET, username="alice", passphrase="wrong 1").encode()
            )
            assert not Response.decode(channel.recv()).ok
            with pytest.raises(PeerClosedError):
                channel.recv()
        # And in the client: the next operation dials.
        owner = client(alice)
        owner.info(username="alice")
        with pytest.raises(AuthenticationError):
            owner.get_delegation(username="alice", passphrase="wrong 2")
        before = owner.stats.dial_attempts
        owner.info(username="alice")
        assert owner.stats.dial_attempts == before + 1

    def test_anonymous_trustroots_channel_serves_one_request(
        self, tcp_repository, validator
    ):
        server, client = tcp_repository()
        with connect_secure(server.endpoint, None, validator, timeout=5.0) as channel:
            channel.send(Request(command=Command.TRUSTROOTS, username="trustroots").encode())
            assert Response.decode(channel.recv()).ok
            with pytest.raises(PeerClosedError):
                channel.recv()
        anonymous = client(None)
        anonymous.get_trustroots()
        anonymous.get_trustroots()
        assert anonymous.stats.dial_attempts == 2


class TestAdmissionPerRequest:
    def test_second_request_on_a_channel_is_rate_limited(self, tcp_repository, alice):
        server, client = tcp_repository()
        # Turn the limiter on after set-up, so alice's bucket starts full.
        server.policy.qos_rate = 0.001
        server.policy.qos_burst = 1
        owner = client(alice, retry=RetryPolicy(busy_retries=0))
        owner.info(username="alice")
        with pytest.raises(ServerBusyError):
            owner.info(username="alice")
        assert owner.stats.dial_attempts == 1  # the busy reply came on the kept channel
        assert _info_served(server) == 1
        assert server._shed_reason_total.labels(reason="rate_limited").value == 1

