"""A kept-alive HTTPS connection gets no trust the handshake would not
give again.

The §6.4 gateway's connections take the same turns as GSI channels, so
before every request after the first the server repeats what a ticket
redemption checks: the trust generation is unchanged and the peer chain
still validates (expiry, CRLs).  A peer that fails gets a close alert in
place of a reply and its request is never served — over TCP, where the
idle connection waits in the server's selector, and over a pipe, where
the server blocks reading the next request.
"""

import pytest

from repro.pki.ca import CertificateAuthority
from repro.pki.names import DistinguishedName
from repro.pki.proxy import create_proxy
from repro.transport.channel import PeerClosedError
from tests.conftest import http_post

INFO = ("/myproxy/info", {"username": "alice"})


def _info_served(server) -> int:
    return sum(1 for r in server.audit_log() if r.command == "INFO" and r.ok)


@pytest.fixture(params=["tcp", "pipe"])
def world(request, tcp_repository, https_gateway):
    """``(server, connect)`` for a repository holding alice's entry."""
    server, _client = tcp_repository()
    return server, https_gateway(server, request.param)


def _second_request_is_refused(server, channel, change_trust) -> None:
    assert http_post(channel, *INFO)[0] == 200
    change_trust()
    with pytest.raises(PeerClosedError):
        http_post(channel, *INFO)
    assert _info_served(server) == 1


class TestTrustIsRecheckedPerRequest:
    def test_crl_update_ends_the_connection(self, world, ca, validator, alice):
        server, connect = world

        def revoke():
            ca.revoke(alice.certificate)
            validator.update_crl(ca.crl())

        with connect(alice) as channel:
            _second_request_is_refused(server, channel, revoke)

    def test_new_anchor_ends_the_connection(self, world, validator, alice, key_pool):
        server, connect = world
        other = CertificateAuthority(
            DistinguishedName.parse("/O=Grid/CN=Other CA"), key=key_pool.new_key()
        )
        with connect(alice) as channel:
            _second_request_is_refused(
                server, channel, lambda: validator.add_anchor(other.certificate)
            )

    def test_expired_peer_proxy_is_not_served_again(
        self, world, clock, validator, alice, key_pool
    ):
        server, connect = world
        proxy = create_proxy(alice, lifetime=600.0, key_source=key_pool, clock=clock)
        with connect(proxy) as channel:
            _second_request_is_refused(
                server, channel, lambda: clock.advance(600.0 + validator.skew + 1.0)
            )
