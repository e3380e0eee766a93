"""Record before reply: what a client has seen, the operator can already see.

A spy on the server worker's sends takes a snapshot of the server's
records as each send begins.  At the last one — the reply's last flight —
the request must already be in the audit ring, its counter, its latency
histogram and (at a 1 ns threshold) the slow-op log, for every GSI command,
for a refused GET and for every route of the HTTP binding.  The end-to-end
check reads the records the moment the client call returns, with the
interpreter switching threads as often as it can: no close, no sleep.
"""

import sys
import threading

import pytest

from repro.core.httpbinding import HttpMyProxyClient, MyProxyHttpGateway
from repro.core.policy import ServerPolicy
from repro.core.protocol import BatchItem
from repro.pki.proxy import create_proxy
from repro.transport.channel import SecureChannel
from repro.util.errors import AuthenticationError

PASS = "correct horse 42"
PASS2 = "staple battery 99"
WRONG = "wrong wrong 7"


@pytest.fixture()
def world(tb_factory):
    """A testbed whose slow-op log records everything, holding alice's
    proxy (``default``) and long-term credential (``lt``)."""
    tb = tb_factory(
        myproxy_policy=ServerPolicy(slow_op_threshold=1e-9), start_grid_services=False
    )
    alice, portal = tb.new_user("alice"), tb.new_user("portal")
    tb.myproxy_init(alice, passphrase=PASS)
    with tb.myproxy_client(alice.credential) as owner:
        owner.store_longterm(alice.credential, username="alice", passphrase=PASS,
                             cred_name="lt")
    return tb, alice, portal


def records(server):
    """What the operator sees of the GSI binding."""
    metrics = server.metrics.snapshot()
    return {
        "audit": [(r.command, r.username, r.ok) for r in server.audit_log()],
        "stats": server.stats.snapshot(),
        "seconds": {key: h["count"] for key, h in metrics["myproxy_request_seconds"].items()},
        "slow": [(r.command, r.username) for r in server.slow_ops.records()],
    }


def http_records(server):
    """What the operator sees of the HTTP binding."""
    metrics = server.metrics.snapshot()
    return {
        "audit": [(r.command, r.username, r.ok) for r in server.audit_log()],
        "requests": dict(metrics["myproxy_http_requests_total"]),
        "seconds": {
            key: h["count"] for key, h in metrics["myproxy_http_request_seconds"].items()
        },
    }


@pytest.fixture()
def sends(monkeypatch):
    """``watch(look)``: from then on, each send a server worker begins
    first appends ``look()`` to the returned list."""

    def watch(look):
        seen = []
        real = SecureChannel.send_many

        def send_many(channel, messages):
            if threading.current_thread().name.startswith("myproxy-worker-"):
                seen.append(look())
            return real(channel, messages)

        monkeypatch.setattr(SecureChannel, "send_many", send_many)
        return seen

    return watch


def _gained(before, after, key):
    """The entries of ``after[key]`` that ``before`` did not hold."""
    return after[key][len(before[key]):]


def _count(snapshot, key, label):
    return snapshot[key].get(label, 0)


# command → (operation, its audit record, its counter or None)
GSI_CASES = {
    "PUT": (lambda tb, alice, owner, portal: tb.myproxy_init(
        alice, passphrase=PASS, cred_name="again"), ("PUT", "alice", True), "puts"),
    "GET": (lambda tb, alice, owner, portal: portal.get_delegation(
        username="alice", passphrase=PASS), ("GET", "alice", True), "gets"),
    "GET_MULTI": (lambda tb, alice, owner, portal: portal.get_delegations(
        [BatchItem(username="alice", passphrase=PASS)]), ("GET", "alice", True), "gets"),
    "INFO": (lambda tb, alice, owner, portal: owner.info(username="alice"),
             ("INFO", "alice", True), None),
    "DESTROY": (lambda tb, alice, owner, portal: owner.destroy(username="alice"),
                ("DESTROY", "alice", True), None),
    "CHANGE_PASSPHRASE": (lambda tb, alice, owner, portal: owner.change_passphrase(
        username="alice", old_passphrase=PASS, new_passphrase=PASS2),
        ("CHANGE_PASSPHRASE", "alice", True), None),
    "STORE": (lambda tb, alice, owner, portal: owner.store_longterm(
        alice.credential, username="alice", passphrase=PASS, cred_name="lt2"),
        ("STORE", "alice", True), "stores"),
    "RETRIEVE": (lambda tb, alice, owner, portal: owner.retrieve_longterm(
        username="alice", passphrase=PASS, cred_name="lt"),
        ("RETRIEVE", "alice", True), "retrieves"),
    "TRUSTROOTS": (lambda tb, alice, owner, portal: portal.get_trustroots(),
                   ("TRUSTROOTS", "trustroots", True), None),
}


class TestGsiRecordsBeforeTheLastFlight:
    @pytest.mark.parametrize("command", sorted(GSI_CASES))
    def test_the_last_flight_leaves_after_the_records(self, world, sends, command):
        tb, alice, portal = world
        operation, audited, counter = GSI_CASES[command]
        server = tb.myproxy
        with tb.myproxy_client(alice.credential) as owner, \
                tb.myproxy_client(portal.credential) as retriever:
            seen = sends(lambda: records(server))
            before = records(server)
            operation(tb, alice, owner, retriever)
        at_reply = seen[-1]
        assert audited in _gained(before, at_reply, "audit")
        if counter is not None:
            assert at_reply["stats"][counter] == before["stats"][counter] + 1
        label = f"command={command}"
        assert _count(at_reply, "seconds", label) == _count(before, "seconds", label) + 1
        assert (command, audited[1]) in _gained(before, at_reply, "slow")

    def test_a_refused_get_is_recorded_before_its_refusal_leaves(self, world, sends):
        tb, _alice, portal = world
        server = tb.myproxy
        seen = sends(lambda: records(server))
        before = records(server)
        with tb.myproxy_client(portal.credential) as retriever:
            with pytest.raises(AuthenticationError):
                retriever.get_delegation(username="alice", passphrase=WRONG)
        at_reply = seen[-1]
        assert _gained(before, at_reply, "audit") == [("GET", "alice", False)]
        assert at_reply["stats"]["denials"] == before["stats"]["denials"] + 1
        assert at_reply["stats"]["gets"] == before["stats"]["gets"]
        assert _count(at_reply, "seconds", "command=GET") == _count(
            before, "seconds", "command=GET") + 1
        assert ("GET", "alice") in _gained(before, at_reply, "slow")


def _http_put(alice, owner, tb):
    proxy = create_proxy(alice.credential, lifetime=86400, key_source=tb.key_source,
                         clock=tb.clock)
    owner.put(proxy, username="alice", passphrase=PASS, lifetime=86400, cred_name="http")


# operation → (its routes in order, the audit record each leaves or None)
HTTP_CASES = {
    "get": (lambda tb, alice, owner, portal: portal.get_delegation(
        username="alice", passphrase=PASS), [("/myproxy/get", ("GET", "alice", True))]),
    "put": (lambda tb, alice, owner, portal: _http_put(alice, owner, tb),
            [("/myproxy/put/begin", None),
             ("/myproxy/put/complete", ("PUT", "alice", True))]),
    "info": (lambda tb, alice, owner, portal: owner.info(username="alice"),
             [("/myproxy/info", ("INFO", "alice", True))]),
    "destroy": (lambda tb, alice, owner, portal: owner.destroy(username="alice"),
                [("/myproxy/destroy", ("DESTROY", "alice", True))]),
    "change-passphrase": (lambda tb, alice, owner, portal: owner.change_passphrase(
        username="alice", old_passphrase=PASS, new_passphrase=PASS2),
        [("/myproxy/change-passphrase", ("CHANGE_PASSPHRASE", "alice", True))]),
}


class TestHttpRecordsBeforeTheReply:
    def _clients(self, tb, alice, portal):
        gateway = MyProxyHttpGateway(tb.myproxy, key_source=tb.key_source)
        return [
            HttpMyProxyClient(gateway.connect, user.credential, tb.validator,
                              key_source=tb.key_source, clock=tb.clock)
            for user in (alice, portal)
        ]

    @pytest.mark.parametrize("name", sorted(HTTP_CASES))
    def test_each_route_is_recorded_before_its_reply(self, world, sends, name):
        tb, alice, portal = world
        operation, routes = HTTP_CASES[name]
        server = tb.myproxy
        owner, retriever = self._clients(tb, alice, portal)
        with owner, retriever:
            seen = sends(lambda: http_records(server))
            before = http_records(server)
            operation(tb, alice, owner, retriever)
        assert len(seen) == len(routes)  # one reply per request
        for (route, audited), at_reply in zip(routes, seen):
            if audited is not None:
                assert audited in _gained(before, at_reply, "audit")
            ok = f"endpoint={route},outcome=ok"
            assert _count(at_reply, "requests", ok) == _count(before, "requests", ok) + 1
            label = f"endpoint={route}"
            assert _count(at_reply, "seconds", label) == _count(before, "seconds", label) + 1

    def test_a_refused_get_is_recorded_before_its_reply(self, world, sends):
        tb, alice, portal = world
        server = tb.myproxy
        owner, retriever = self._clients(tb, alice, portal)
        with owner, retriever:
            seen = sends(lambda: http_records(server))
            before = http_records(server)
            with pytest.raises(AuthenticationError):
                retriever.get_delegation(username="alice", passphrase=WRONG)
        at_reply = seen[-1]
        assert _gained(before, at_reply, "audit") == [("HTTP", "alice", False)]
        denied = "endpoint=/myproxy/get,outcome=denied"
        assert _count(at_reply, "requests", denied) == _count(before, "requests", denied) + 1


class TestEndToEnd:
    def test_records_are_there_when_the_client_call_returns(self, world):
        tb, alice, portal = world
        server = tb.myproxy
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with tb.myproxy_client(alice.credential) as owner, \
                    tb.myproxy_client(portal.credential) as retriever:
                for _ in range(20):
                    for command, call in (
                        ("GET", lambda: retriever.get_delegation(
                            username="alice", passphrase=PASS)),
                        ("INFO", lambda: owner.info(username="alice")),
                        ("RETRIEVE", lambda: owner.retrieve_longterm(
                            username="alice", passphrase=PASS, cred_name="lt")),
                    ):
                        before = records(server)
                        call()
                        after = records(server)  # no close, no sleep
                        label = f"command={command}"
                        assert _count(after, "seconds", label) == _count(
                            before, "seconds", label) + 1
                        assert (command, "alice") in _gained(before, after, "slow")
                        assert (command, "alice", True) in _gained(before, after, "audit")
        finally:
            sys.setswitchinterval(interval)
