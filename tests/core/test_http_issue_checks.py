"""The HTTP client holds an issued proxy to the GSI client's checks (§6.4).

``HttpMyProxyClient.get_delegation`` must refuse what ``accept_delegation``
refuses: a proxy that outlives the lifetime the gateway granted (or the one
the client asked for, if that is shorter), an issuer chain that does not
link, and a limited proxy nobody asked for.  A stub gateway answers the GET
directly, so each defect reaches the client intact.
"""

import pytest

from repro.core.httpbinding import HttpMyProxyClient
from repro.pki.keys import PublicKey
from repro.pki.proxy import create_proxy, sign_proxy_request
from repro.util.errors import CredentialError, ProtocolError

GRANTED = 3600.0


@pytest.fixture()
def users(tb):
    return tb.new_user("alice").credential, tb.new_user("bob").credential


def stub_client(tb, users, answer, granted=GRANTED):
    """A client whose gateway issues ``answer(public_key)`` for every GET
    and reports ``granted`` as the lifetime it granted."""
    alice, _ = users
    client = HttpMyProxyClient(
        lambda: None, alice, tb.validator, key_source=tb.key_source, clock=tb.clock
    )

    def _call(path, payload):
        assert path == "/myproxy/get"
        public_key = PublicKey.from_pem(
            payload["csr"]["public_key_pem"].encode("ascii")
        )
        cert, chain = answer(public_key)
        return {
            "ok": True,
            "certificate_pem": cert.to_pem().decode("ascii"),
            "chain_pem": b"".join(c.to_pem() for c in chain).decode("ascii"),
            "granted_lifetime": granted,
            "cred_name": "default",
            "limited": False,
        }

    client._call = _call
    return client


def get(client):
    return client.get_delegation(username="alice", passphrase="pw", lifetime=GRANTED)


def test_a_well_formed_issue_is_accepted(tb, users):
    alice, _ = users

    def answer(public_key):
        cert = sign_proxy_request(alice, public_key, lifetime=GRANTED, clock=tb.clock)
        return cert, alice.full_chain()

    proxy = get(stub_client(tb, users, answer))
    assert proxy.identity == alice.identity
    assert tb.validator.validate(proxy.full_chain()).identity == alice.identity


def test_proxy_outliving_granted_lifetime_is_refused(tb, users):
    alice, _ = users

    def answer(public_key):
        cert = sign_proxy_request(
            alice, public_key, lifetime=10 * GRANTED, clock=tb.clock
        )
        return cert, alice.full_chain()

    with pytest.raises(CredentialError, match="outlives"):
        get(stub_client(tb, users, answer))


def test_chain_that_does_not_link_is_refused(tb, users):
    alice, bob = users

    def answer(public_key):
        cert = sign_proxy_request(alice, public_key, lifetime=GRANTED, clock=tb.clock)
        return cert, bob.full_chain()

    with pytest.raises(CredentialError, match="link"):
        get(stub_client(tb, users, answer))


def test_broken_link_above_the_issuer_is_refused(tb, users):
    alice, bob = users
    middle = create_proxy(alice, key_source=tb.key_source, clock=tb.clock)

    def answer(public_key):
        cert = sign_proxy_request(middle, public_key, lifetime=GRANTED, clock=tb.clock)
        return cert, (middle.certificate, bob.certificate)

    with pytest.raises(CredentialError, match="link"):
        get(stub_client(tb, users, answer))


def test_limited_proxy_is_refused(tb, users):
    alice, _ = users

    def answer(public_key):
        cert = sign_proxy_request(
            alice, public_key, lifetime=GRANTED, limited=True, clock=tb.clock
        )
        return cert, alice.full_chain()

    with pytest.raises(CredentialError, match="limit"):
        get(stub_client(tb, users, answer))


def test_proxy_outliving_the_request_is_refused_despite_a_larger_grant(tb, users):
    alice, _ = users

    def answer(public_key):
        cert = sign_proxy_request(
            alice, public_key, lifetime=10 * GRANTED, clock=tb.clock
        )
        return cert, alice.full_chain()

    with pytest.raises(CredentialError, match="outlives"):
        get(stub_client(tb, users, answer, granted=10 * GRANTED))


@pytest.mark.parametrize("granted", [float("nan"), float("inf"), 0.0, -1.0])
def test_a_granted_lifetime_that_is_not_positive_is_refused(tb, users, granted):
    alice, _ = users

    def answer(public_key):
        cert = sign_proxy_request(alice, public_key, lifetime=GRANTED, clock=tb.clock)
        return cert, alice.full_chain()

    with pytest.raises(ProtocolError, match="granted.lifetime"):
        get(stub_client(tb, users, answer, granted=granted))
