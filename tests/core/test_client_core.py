"""One client core under both bindings.

The HTTP and CDP clients run on the same kept-channel loop as the GSI
client: one dial serves many requests, a busy 503 is honoured against the
same gateway, and a channel the gateway closed at its idle timeout is
redialled transparently.  The cluster client is that loop over a user's
shard order, so it keeps its channel across operations too, and a client
of an in-process link factory keeps its channel as a TCP client does.
"""

import sys
import threading
import time

import pytest

from repro.cluster.failover import ClusterRouter, FailoverMyProxyClient
from repro.core.client import RetryPolicy
from repro.core.httpbinding import HttpMyProxyClient, MyProxyHttpGateway
from repro.core.policy import ServerPolicy
from repro.federation.cdp import CdpClient, CdpService
from repro.util.errors import ServerBusyError
from repro.web.http11 import HttpResponse
from tests.conftest import REUSE_PASS


@pytest.fixture()
def http_world(tcp_repository, validator, clock, key_pool):
    """``(server, gateway, connect)``: a TCP repository holding alice's
    entry, its HTTP gateway (with CDP) over TCP, and
    ``connect(credential, cls=HttpMyProxyClient)``."""
    clients = []

    def _make(policy=None):
        server, _client = tcp_repository(policy=policy)
        gateway = MyProxyHttpGateway(server, key_source=key_pool)
        CdpService(gateway)
        endpoint = gateway.serve("127.0.0.1", 0)

        def connect(credential, cls=HttpMyProxyClient):
            client = cls(endpoint, credential, validator, key_source=key_pool, clock=clock)
            clients.append(client)
            return client

        return server, gateway, connect

    yield _make
    for client in clients:
        client.close()


class TestHttpClientKeepsItsChannel:
    def test_three_infos_and_a_get_cost_one_connection(self, http_world, alice):
        server, _gateway, connect = http_world()
        client = connect(alice)
        before = server.stats.connections
        for _ in range(3):
            assert client.info(username="alice")[0].cred_name == "default"
        proxy = client.get_delegation(
            username="alice", passphrase=REUSE_PASS, lifetime=3600.0
        )
        assert proxy.identity == alice.identity
        assert server.stats.connections - before == 1
        assert client.stats.full_handshakes == 1
        assert client.stats.dial_attempts == 1
        assert client.stats.operations == 4

    def test_a_cdp_delegation_costs_one_handshake(self, http_world, alice):
        server, _gateway, connect = http_world()
        client = connect(alice, cls=CdpClient)
        before = server.stats.connections
        _delegation_id, commit = client.delegate(
            alice, username="alice", passphrase=REUSE_PASS, lifetime=3600.0,
            cred_name="cdp",
        )
        assert commit.stored is True
        assert client.stats.operations == 3  # register, proxy-csr, certificate
        assert client.stats.full_handshakes == 1
        assert client.stats.resumed_handshakes == 0
        assert server.stats.connections - before == 1

    def test_a_busy_503_is_honoured_on_the_same_target(self, http_world, alice):
        _server, gateway, connect = http_world()
        calls = []

        def flaky(peer, payload):
            calls.append(peer.identity)
            if len(calls) == 1:
                raise ServerBusyError("shedding", retry_after=0.01)
            return HttpResponse.json({"ok": True, "answered": len(calls)})

        gateway.add_json_route("/test/flaky", flaky)
        client = connect(alice)
        assert client._call("/test/flaky", {})["answered"] == 2
        assert client.stats.busy_backoffs == 1
        assert client.stats.transport_failures == 0
        assert client.stats.failovers == 0
        assert client.stats.exhausted == 0
        assert calls == [alice.identity, alice.identity]

    def test_an_idle_timeout_is_redialled_transparently(self, http_world, alice):
        policy = ServerPolicy()
        policy.connection_timeout = 0.3
        _server, _gateway, connect = http_world(policy)
        client = connect(alice)
        client.info(username="alice")
        time.sleep(0.8)  # the gateway has sent its close alert by now
        assert client.info(username="alice")[0].cred_name == "default"
        assert client.stats.dial_attempts == 2
        assert client.stats.transport_failures == 0

    def test_threads_sharing_a_client_leak_no_channel(self, http_world, alice):
        _server, _gateway, connect = http_world()
        client = connect(alice)
        dialled = []
        dial = client._connect

        def recording_dial(target):
            channel = dial(target)
            dialled.append(channel)
            return channel

        client._connect = recording_dial
        failures = []

        def run():
            try:
                for _ in range(20):
                    assert client.info(username="alice")[0].cred_name == "default"
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert client.stats.operations == 80
        assert client.stats.transport_failures == 0
        # One channel stays idle; every other one dialled was closed.
        idle = list(client._idle.values())
        assert len(idle) == 1
        assert all(channel._closed for channel in dialled if channel not in idle)


class TestLinkFactoryClientKeepsItsChannel:
    def test_three_infos_on_the_pipe_testbed_cost_one_dial(self, tb):
        alice = tb.new_user("alice")
        tb.myproxy_init(alice, passphrase=REUSE_PASS)
        before = tb.myproxy.stats.connections
        with tb.myproxy_client(alice.credential) as client:
            for _ in range(3):
                assert client.info(username="alice")[0].cred_name == "default"
            assert client.stats.dial_attempts == 1
            assert client.stats.full_handshakes + client.stats.resumed_handshakes == 1
        assert tb.myproxy.stats.connections - before == 1


class TestFailoverClientKeepsItsChannel:
    def test_one_dial_for_two_operations_then_failover(
        self, tcp_repository, alice, validator, clock, key_pool
    ):
        servers = dict(zip(("node0", "node1"), (tcp_repository()[0] for _ in range(2))))
        router = ClusterRouter(sorted(servers), 2)
        primary, replica = router.order("alice")
        client = FailoverMyProxyClient(
            {name: server.endpoint for name, server in servers.items()},
            router, alice, validator, clock=clock, key_source=key_pool,
            retry=RetryPolicy(rounds=2, base_delay=0.01, max_delay=0.05),
        )
        before = servers[primary].stats.connections
        for _ in range(2):
            assert client.info(username="alice")[0].cred_name == "default"
        assert client.stats.dial_attempts == 1
        assert servers[primary].stats.connections - before == 1

        replica_before = servers[replica].stats.connections
        servers[primary].stop()
        assert client.info(username="alice")[0].cred_name == "default"
        assert servers[replica].stats.connections - replica_before == 1
        assert client.stats.failovers == 1
        assert client.stats.transport_failures == 1
        assert client.stats.operations == 3
        client.close()
