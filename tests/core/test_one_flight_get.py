"""One-flight GET: the request carries a CSR, the reply carries the proxy.

A GET (or GET_MULTI item) with a ``CSR`` is answered with ``RESPONSE=0``
and the delegation Issue in one write; the server sends no Offer and reads
nothing more.  Refusals, lockout accounting and the issued proxy are what
they were.  The CSR is required: a GET or GET_MULTI item without one is
refused as a malformed CSR is, and a client that meets an Offer where the
Issue belongs refuses it.
"""

import base64
import threading

import pytest

import repro.core.server as server_module
from repro.core.httpbinding import _POP_LABEL as HTTP_LABEL
from repro.core.httpbinding import HttpMyProxyClient, MyProxyHttpGateway
from repro.core.otp import OTPGenerator
from repro.core.protocol import AuthMethod, BatchItem, Command, Request, Response
from repro.pki.proxy import ProxyRestrictions, create_proxy, effective_restrictions
from repro.transport.channel import accept_secure, connect_secure
from repro.transport.delegation import (
    CSR_POP_LABEL,
    accept_csr_reply,
    check_csr,
    delegate_credential,
    make_csr,
    new_csr,
)
from repro.transport.links import SocketLink, pipe_pair
from repro.util.errors import AuthenticationError, ProtocolError, TransportError
from tests.conftest import REUSE_PASS

PASS = "correct horse 42"
PASS2 = "staple battery 99"
DENIAL = "remote authorization/authentication failed"


@pytest.fixture()
def spies(monkeypatch):
    """Count the server's calls of ``issue``, its one issuing step."""
    calls = {"issue": 0}
    real = server_module.issue

    def wrapper(*args, **kwargs):
        calls["issue"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(server_module, "issue", wrapper)
    return calls


@pytest.fixture()
def seeded(tb):
    alice, bob, portal = tb.new_user("alice"), tb.new_user("bob"), tb.new_user("portal")
    tb.myproxy_init(alice, passphrase=PASS)
    tb.myproxy_init(bob, passphrase=PASS2)
    return tb, alice, bob, portal


def _open(tb, user):
    return connect_secure(tb.myproxy_targets["repo-0"](), user.credential, tb.validator)


def _raw_get(tb, requester, csr, passphrase=PASS, username="alice"):
    """Send one GET carrying ``csr``; the first reply, decoded."""
    channel = _open(tb, requester)
    try:
        channel.send(Request(command=Command.GET, username=username,
                             passphrase=passphrase, csr=csr).encode())
        return Response.decode(channel.recv())
    finally:
        channel.close()


class TestOneFlight:
    def test_a_csr_get_turn_reads_one_frame_on_the_worker(
        self, tcp_repository, alice, monkeypatch, spies
    ):
        server, client = tcp_repository()
        reads, writes = [], []  # (thread name, frames) per recv_frame / write
        real_recv, real_send = SocketLink.recv_frame, SocketLink.send_frames

        def counting_recv(link):
            reads.append((threading.current_thread().name, 1))
            return real_recv(link)

        def counting_send(link, frames):
            frames = list(frames)
            writes.append((threading.current_thread().name, len(frames)))
            return real_send(link, frames)

        def on_worker(calls):
            return [n for name, n in calls if name.startswith("myproxy-worker-")]

        with client(alice) as owner:
            owner.info(username="alice")  # the channel is kept: no handshake below
            monkeypatch.setattr(SocketLink, "recv_frame", counting_recv)
            monkeypatch.setattr(SocketLink, "send_frames", counting_send)
            proxy = owner.get_delegation(username="alice", passphrase=REUSE_PASS)
            monkeypatch.setattr(SocketLink, "recv_frame", real_recv)
            monkeypatch.setattr(SocketLink, "send_frames", real_send)
            assert owner.stats.dial_attempts == 1
        assert on_worker(reads) == [1]  # the request, nothing after it
        assert on_worker(writes) == [2]  # RESPONSE=0 and the Issue, one write
        assert spies == {"issue": 1}
        assert proxy.identity == alice.identity

    def test_reply_states_the_grant_and_carries_the_issue(self, seeded, key_pool):
        tb, alice, _bob, portal = seeded
        key = key_pool.new_key()
        channel = _open(tb, portal)
        try:
            channel.send(Request(command=Command.GET, username="alice", passphrase=PASS,
                                 lifetime=600.0,
                                 csr=new_csr(key, portal.credential.identity)).encode())
            granted = Response.decode(channel.recv())
            assert granted.ok
            assert granted.info["granted_lifetime"] == 600.0
            assert granted.info["limited"] is False
            proxy = accept_csr_reply(channel, key, lifetime=600.0, limited=False,
                                     clock=tb.clock)
        finally:
            channel.close()
        assert proxy.identity == alice.dn
        assert tb.validator.validate(proxy.full_chain())


class TestRefusals:
    @pytest.mark.parametrize("defect", ["pop_by_another_key", "pop_for_another_dn",
                                        "malformed"])
    def test_a_bad_csr_is_refused_and_issues_nothing(self, seeded, key_pool, spies,
                                                     defect):
        tb, alice, _bob, portal = seeded
        key, other = key_pool.new_key(), key_pool.new_key()
        if defect == "pop_by_another_key":
            nonce = "ab" * 16
            public_pem = key.public.to_pem()
            pop = other.sign(CSR_POP_LABEL + bytes.fromhex(nonce) + public_pem
                             + str(portal.credential.identity).encode())
            csr = {"nonce": nonce, "public_key_pem": public_pem.decode(),
                   "pop": base64.b64encode(pop).decode()}
        elif defect == "pop_for_another_dn":
            csr = new_csr(key, alice.credential.identity)  # spliced from alice
        else:
            csr = {"nonce": "ab" * 16, "public_key_pem": "not a key", "pop": 7}
        gets = tb.myproxy.stats.gets
        response = _raw_get(tb, portal, csr)
        assert not response.ok and not response.busy
        assert "CSR" in response.error
        assert tb.myproxy.stats.gets == gets
        assert spies["issue"] == 0
        # The pass phrase was right: nothing counts toward a lockout.
        assert tb.myproxy._failed_auths == {}
        assert not tb.myproxy.audit_log()[-1].ok

    def test_a_wrong_secret_is_the_uniform_denial_and_counts_once(
        self, seeded, key_pool, spies
    ):
        tb, _alice, _bob, portal = seeded
        csr = new_csr(key_pool.new_key(), portal.credential.identity)
        response = _raw_get(tb, portal, csr, passphrase="wrong wrong 7")
        assert response.error == DENIAL
        assert list(tb.myproxy._failed_auths) == [("alice", "default")]
        assert len(tb.myproxy._failed_auths[("alice", "default")]) == 1
        assert spies["issue"] == 0

    def test_lockout_trips_as_without_a_csr(self, seeded, key_pool):
        tb, _alice, _bob, portal = seeded
        for _ in range(tb.myproxy.policy.max_failed_auths):
            csr = new_csr(key_pool.new_key(), portal.credential.identity)
            assert _raw_get(tb, portal, csr, passphrase="wrong wrong 7").error == DENIAL
        with pytest.raises(AuthenticationError):
            tb.myproxy_client(portal.credential).get_delegation(
                username="alice", passphrase=PASS
            )
        assert "locked out" in tb.myproxy.audit_log()[-1].detail


class TestCsrRequired:
    def test_a_get_without_a_csr_is_refused_as_a_bad_csr(self, seeded, spies):
        tb, _alice, _bob, portal = seeded
        gets, denials = tb.myproxy.stats.gets, tb.myproxy.stats.denials
        response = _raw_get(tb, portal, None)
        assert not response.ok and not response.busy
        assert "CSR" in response.error
        assert tb.myproxy.stats.gets == gets
        assert tb.myproxy.stats.denials == denials + 1
        assert spies["issue"] == 0
        assert tb.myproxy._failed_auths == {}  # the pass phrase was right
        record = tb.myproxy.audit_log()[-1]
        assert (record.command, record.username, record.ok) == ("GET", "alice", False)
        assert "CSR" in record.detail

    def test_a_refused_csr_spends_no_otp_word(self, tb, key_pool, spies):
        """The CSR is checked before the secret: an OTP GET refused for its
        CSR leaves the word unspent and counts toward no lockout."""
        alice, portal = tb.new_user("alice"), tb.new_user("portal")
        gen = OTPGenerator("otp secret", "seed", count=5)
        tb.myproxy_client(alice.credential).put(
            create_proxy(alice.credential, key_source=key_pool, clock=tb.clock),
            username="alice", auth_method=AuthMethod.OTP, otp=gen,
        )
        word = gen.next_word()
        channel = _open(tb, portal)
        try:
            channel.send(Request(Command.GET, "alice", word,
                                 auth_method=AuthMethod.OTP).encode())
            refused = Response.decode(channel.recv())
        finally:
            channel.close()
        assert not refused.ok and "malformed CSR" in refused.error
        assert tb.myproxy._failed_auths == {}
        proxy = tb.myproxy_get(username="alice", passphrase=word,
                               requester=portal.credential, auth_method=AuthMethod.OTP)
        assert proxy.identity == alice.dn
        assert spies["issue"] == 1

    def test_a_batch_item_without_a_csr_is_refused_alone(self, seeded, key_pool, spies):
        tb, alice, bob, portal = seeded
        key = key_pool.new_key()
        items = (
            BatchItem(username="alice", passphrase=PASS),
            BatchItem(username="bob", passphrase=PASS2,
                      csr=new_csr(key, portal.credential.identity)),
        )
        gets = tb.myproxy.stats.gets
        channel = _open(tb, portal)
        try:
            channel.send(Request(command=Command.GET_MULTI, username="alice",
                                 batch=items).encode())
            assert Response.decode(channel.recv()).info["count"] == 2
            refused = Response.decode(channel.recv())
            served = Response.decode(channel.recv())
            proxy = accept_csr_reply(channel, key, lifetime=served.info["granted_lifetime"],
                                     limited=False, clock=tb.clock)
        finally:
            channel.close()
        assert not refused.ok and "CSR" in refused.error
        assert proxy.identity == bob.dn
        assert tb.myproxy.stats.gets == gets + 1
        assert spies["issue"] == 1
        refusals = [r for r in tb.myproxy.audit_log() if not r.ok]
        assert [(r.command, r.username) for r in refusals[-1:]] == [("GET_MULTI", "alice")]
        assert "CSR" in refusals[-1].detail

    def test_an_offer_in_place_of_the_issue_is_a_protocol_error(
        self, host_cred, alice, validator, key_pool, clock
    ):
        client_link, server_link = pipe_pair()
        ended = []

        def delegator():
            # A delegator that ignores CSRs opens the Offer exchange.
            channel = accept_secure(server_link, host_cred, validator)
            try:
                delegate_credential(channel, host_cred, lifetime=600.0, clock=clock)
            except TransportError as exc:
                ended.append(exc)
            finally:
                channel.close()

        thread = threading.Thread(target=delegator)
        thread.start()
        client = connect_secure(client_link, alice, validator)
        try:
            with pytest.raises(ProtocolError, match="expected a delegation Issue"):
                accept_csr_reply(client, key_pool.new_key(), lifetime=600.0,
                                 limited=False, clock=clock)
        finally:
            client.close()
            thread.join(10)
        assert ended  # the requester sent no Request for the Offer


class TestBatch:
    def test_one_refused_item_leaves_the_rest_served(self, seeded, spies):
        tb, alice, bob, portal = seeded
        client = tb.myproxy_client(portal.credential)
        results = client.get_delegations([
            BatchItem(username="alice", passphrase=PASS),
            BatchItem(username="bob", passphrase="wrong wrong 7"),
            BatchItem(username="bob", passphrase=PASS2),
        ])
        assert results[0].identity == alice.dn
        assert isinstance(results[1], AuthenticationError)
        assert results[2].identity == bob.dn
        assert spies == {"issue": 2}

    def test_a_bad_item_csr_is_refused_alone(self, seeded, key_pool):
        tb, alice, bob, portal = seeded
        keys = [key_pool.new_key() for _ in range(3)]
        requester = portal.credential.identity
        items = (
            BatchItem(username="alice", passphrase=PASS, csr=new_csr(keys[0], requester)),
            BatchItem(username="bob", passphrase=PASS2,
                      csr=new_csr(keys[1], alice.credential.identity)),
            BatchItem(username="bob", passphrase=PASS2, csr=new_csr(keys[2], requester)),
        )
        channel = _open(tb, portal)
        try:
            channel.send(Request(command=Command.GET_MULTI, username="alice",
                                 batch=items).encode())
            assert Response.decode(channel.recv()).info["count"] == 3
            outcomes = []
            for key in keys:
                response = Response.decode(channel.recv())
                outcomes.append(
                    accept_csr_reply(channel, key, lifetime=response.info["granted_lifetime"],
                                     limited=False, clock=tb.clock).identity
                    if response.ok else response.error
                )
        finally:
            channel.close()
        assert outcomes == [alice.dn, "CSR proof-of-possession failed", bob.dn]


class TestBindingsIssueAlike:
    def test_http_and_gsi_issue_the_same_proxy_for_one_entry(self, tb):
        alice, portal = tb.new_user("alice"), tb.new_user("portal")
        restricted = create_proxy(
            alice.credential, lifetime=7 * 86400, key_source=tb.key_source,
            clock=tb.clock,
            restrictions=ProxyRestrictions(operations=frozenset({"read"}),
                                           max_delegation_depth=3),
        )
        tb.myproxy_client(alice.credential).put(
            restricted, username="alice", passphrase=PASS, lifetime=7 * 86400,
            max_get_lifetime=1800.0,
        )
        gateway = MyProxyHttpGateway(tb.myproxy, key_source=tb.key_source)
        http = HttpMyProxyClient(gateway.connect, portal.credential, tb.validator,
                                 key_source=tb.key_source, clock=tb.clock)
        gsi = tb.myproxy_client(portal.credential)
        proxies = [
            c.get_delegation(username="alice", passphrase=PASS, lifetime=7200.0)
            for c in (http, gsi)
        ]
        now = tb.clock.now()
        assert [p.certificate.not_after - now for p in proxies] == [1800.0, 1800.0]
        assert [p.certificate.subject for p in proxies] == [proxies[0].certificate.subject] * 2
        assert not proxies[0].certificate.subject.last_cn_is_limited
        restrictions = [effective_restrictions(p.full_chain()) for p in proxies]
        assert restrictions[0] == restrictions[1]
        assert restrictions[0].operations == frozenset({"read"})
        assert proxies[0].chain == proxies[1].chain
        assert [c.to_pem() for c in proxies[0].chain] == [
            c.to_pem() for c in tb.myproxy._load_entry_credential(
                tb.myproxy.repository.get("alice", "default"), None).full_chain()]

    def test_csr_labels_do_not_cross_bindings(self, key_pool, alice):
        key = key_pool.new_key()
        http_csr = {"nonce": "cd" * 16,
                    **make_csr(key, "cd" * 16, alice.identity, label=HTTP_LABEL)}
        assert check_csr(http_csr, alice.identity, label=HTTP_LABEL) == key.public
        with pytest.raises(ProtocolError, match="proof-of-possession"):
            check_csr(http_csr, alice.identity)
        with pytest.raises(ProtocolError, match="not hex"):
            check_csr({**http_csr, "nonce": "zz" * 16}, alice.identity, label=HTTP_LABEL)
