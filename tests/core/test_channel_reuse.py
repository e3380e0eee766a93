"""One authenticated channel, many requests: the channel's lifecycle.

Between requests a kept channel sits in the server's selector, not on a
worker; it ends on the server's idle timeout, on ``stop()``, or when the
client's credential changes subject.  A stale channel the server never read a
request from is redialled transparently; anything else is not.
"""

import socket
import threading
import time

import pytest

from repro.core.client import ClientStats, RetryPolicy, myproxy_init_from_longterm
from repro.core.policy import ServerPolicy
from repro.core.protocol import AuthMethod, Command, Request, Response
from repro.core.renewal import RenewalAgent, RenewalTarget
from repro.pki.proxy import create_proxy
from repro.transport.channel import PeerClosedError, connect_secure
from repro.util.concurrency import wait_for
from repro.util.errors import ServerBusyError, TransportError
from tests.conftest import REUSE_PASS, http_post

INFO = ("/myproxy/info", {"username": "alice"})


class TestIdleChannelsHoldNoWorker:
    def test_an_idle_channel_does_not_delay_another_client(
        self, tcp_repository, clock, alice, bob, key_pool
    ):
        server, client = tcp_repository(max_concurrent_connections=1)
        with client(bob) as bob_client:
            bob_client.put(
                create_proxy(bob, key_source=key_pool, clock=clock),
                username="bob",
                passphrase="staple battery 99",
            )
        idle_owner = client(alice)
        idle_owner.info(username="alice")  # keeps its channel
        started = time.monotonic()
        with client(bob) as other:
            assert other.info(username="bob")[0].owner == str(bob.identity)
        # One worker, and it was free: nothing waited on alice's channel
        # (the connection timeout is 30 s, the queue deadline 3 s).
        assert time.monotonic() - started < 2.0
        idle_owner.info(username="alice")
        assert idle_owner.stats.dial_attempts == 1

    def test_a_closing_peer_is_a_normal_end(self, tcp_repository, alice):
        server, client = tcp_repository()
        owner = client(alice)
        owner.info(username="alice")
        audited = len(server.audit_log())
        owner.close()
        time.sleep(0.2)  # the selector sees the close alert
        assert len(server.audit_log()) == audited
        assert server.stats.handshake_failures == 0


class TestChannelEnds:
    def test_idle_timeout_redials_transparently(self, tcp_repository, alice):
        policy = ServerPolicy()
        policy.connection_timeout = 0.3
        server, client = tcp_repository(policy=policy)
        owner = client(alice)
        owner.info(username="alice")
        time.sleep(0.8)  # the server has sent its close alert by now
        assert owner.info(username="alice")[0].cred_name == "default"
        assert owner.stats.dial_attempts == 2
        assert owner.stats.transport_failures == 0

    def test_stop_closes_parked_channels(self, tcp_repository, alice, validator):
        server, client = tcp_repository()
        channel = connect_secure(server.endpoint, alice, validator, timeout=5.0)
        try:
            channel.send(Request(command=Command.INFO, username="alice").encode())
            assert Response.decode(channel.recv()).ok
            server.stop()
            with pytest.raises(PeerClosedError):
                channel.recv()
        finally:
            channel.close()

    def test_reassigning_the_credential_forces_a_dial(
        self, tcp_repository, clock, alice, key_pool
    ):
        server, client = tcp_repository()
        owner = client(alice)
        owner.info(username="alice")
        owner.info(username="alice")
        assert owner.stats.dial_attempts == 1
        owner.credential = create_proxy(alice, key_source=key_pool, clock=clock)
        owner.info(username="alice")
        assert owner.stats.dial_attempts == 2
        assert owner.stats.resumed_handshakes == 0  # a new subject: no ticket

    def test_same_subject_swap_keeps_the_channel(
        self, tcp_repository, clock, alice, key_pool
    ):
        server, client = tcp_repository()
        owner = client(create_proxy(alice, key_source=key_pool, clock=clock))
        owner.info(username="alice")
        # A renewal agent's swap: a fresh proxy under the same subject.
        owner.credential = create_proxy(alice, key_source=key_pool, clock=clock)
        owner.info(username="alice")
        assert owner.stats.dial_attempts == 1
        assert owner.stats.operations == 2


class TestRenewalAgentKeepsItsChannel:
    def test_three_jobs_renewed_on_one_dial(self, tcp_repository, clock, alice, key_pool):
        server, client = tcp_repository()
        with client(alice) as owner:
            myproxy_init_from_longterm(
                owner, alice, username="alice", passphrase=REUSE_PASS,
                key_source=key_pool, renewers=("*",),
            )
            jobs = {
                f"job{i}": owner.get_delegation(
                    username="alice", passphrase=REUSE_PASS, lifetime=3600.0
                )
                for i in range(3)
            }
        held = dict(jobs)
        stats = ClientStats()
        agent = RenewalAgent(
            client(alice), clock=clock,
            client_factory=lambda cred: client(cred, stats=stats),
        )
        for name in jobs:
            agent.register(RenewalTarget(
                name=name,
                get_credential=lambda name=name: held[name],
                set_credential=lambda cred, name=name: held.__setitem__(name, cred),
                username="alice",
                secret=lambda: "",
                auth_method=AuthMethod.RENEWAL,
                lifetime=3600.0,
                threshold=900.0,
            ))
        clock.advance(3000.0)
        assert sorted(agent.check_once()) == sorted(jobs)
        assert stats.dial_attempts == 1
        assert all(
            held[name].certificate.not_after > jobs[name].certificate.not_after
            for name in jobs
        )
        agent.stop()  # closes the kept channel: the next pass dials
        clock.advance(3000.0)
        assert sorted(agent.check_once()) == sorted(jobs)
        assert stats.dial_attempts == 2
        agent.stop()


class TestSharing:
    def test_two_threads_share_one_client(self, tcp_repository, alice):
        server, client = tcp_repository()
        shared = client(alice)
        failures = []

        def run():
            try:
                for _ in range(50):
                    rows = shared.info(username="alice")
                    assert [(r.cred_name, r.owner) for r in rows] == [
                        ("default", str(alice.identity))
                    ]
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        threads = [threading.Thread(target=run) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []
        assert shared.stats.operations == 100
        assert shared.stats.transport_failures == 0
        assert shared.stats.dial_attempts < 100


class TestFailuresOnAReusedChannel:
    def test_queue_deadline_answers_a_parked_channel_busy(self, tcp_repository, alice):
        policy = ServerPolicy()
        policy.qos_queue_deadline = 0.2
        policy.connection_timeout = 3.0
        server, client = tcp_repository(policy=policy, max_concurrent_connections=1)
        owner = client(alice, retry=RetryPolicy(busy_retries=0))
        owner.info(username="alice")
        # Pin the one worker in a handshake read, then ask again.
        holder = socket.create_connection(server.endpoint)
        try:
            wait_for(lambda: server._qos_inflight.value == 1, message="worker pinned")
            with pytest.raises(ServerBusyError):
                owner.info(username="alice")
        finally:
            holder.close()
        # The encrypted busy reply came on the kept channel, no dial.
        assert owner.stats.dial_attempts == 1
        assert server._shed_reason_total.labels(reason="queue_deadline").value == 1

    @pytest.mark.expect_error("RuntimeError")
    def test_eof_during_destroy_is_not_replayed(self, tcp_repository, alice, monkeypatch):
        server, client = tcp_repository()
        owner = client(alice)
        owner.info(username="alice")
        calls = []
        real_destroy = server.destroy

        def destroy_then_crash(peer, request):
            calls.append(request.cred_name)
            real_destroy(peer, request)
            raise RuntimeError("worker died after acting")

        monkeypatch.setattr(server, "destroy", destroy_then_crash)
        with pytest.raises(TransportError) as caught:
            owner.destroy(username="alice")
        assert not isinstance(caught.value, PeerClosedError)
        assert calls == ["default"]  # acted on once, never replayed
        assert owner.stats.dial_attempts == 1
        assert owner.stats.transport_failures == 1


class TestHttpsConnectionsShareTheLifecycle:
    """The §6.4 gateway's kept-alive connections live on the same
    selector, workers, idle timeout and ``stop()`` as GSI channels."""

    def test_stop_ends_a_kept_alive_connection(self, tcp_repository, https_gateway, alice):
        server, _client = tcp_repository()
        with https_gateway(server)(alice) as channel:
            assert http_post(channel, *INFO)[0] == 200
            server.stop()
            with pytest.raises(PeerClosedError):
                http_post(channel, *INFO)

    def test_idle_timeout_closes_the_connection(self, tcp_repository, https_gateway, alice):
        policy = ServerPolicy()
        policy.connection_timeout = 0.3
        server, _client = tcp_repository(policy=policy)
        with https_gateway(server)(alice) as channel:
            assert http_post(channel, *INFO)[0] == 200
            started = time.monotonic()
            with pytest.raises(PeerClosedError):
                channel.recv()  # the server's close alert, unprompted
            assert time.monotonic() - started < 1.5

    def test_an_idle_connection_does_not_delay_a_gsi_client(
        self, tcp_repository, https_gateway, alice
    ):
        server, client = tcp_repository(max_concurrent_connections=1)
        with https_gateway(server)(alice) as channel:
            assert http_post(channel, *INFO)[0] == 200
            started = time.monotonic()
            with client(alice) as other:
                assert other.info(username="alice")[0].cred_name == "default"
            assert time.monotonic() - started < 2.0
            assert http_post(channel, *INFO)[0] == 200

    def test_queue_deadline_answers_a_parked_connection_with_json_busy(
        self, tcp_repository, https_gateway, alice
    ):
        policy = ServerPolicy()
        policy.qos_queue_deadline = 0.2
        policy.connection_timeout = 3.0
        server, _client = tcp_repository(policy=policy, max_concurrent_connections=1)
        with https_gateway(server)(alice) as channel:
            assert http_post(channel, *INFO)[0] == 200
            # Pin the one worker in a handshake read, then ask again.
            holder = socket.create_connection(server.endpoint)
            try:
                wait_for(lambda: server._qos_inflight.value == 1, message="worker pinned")
                status, body = http_post(channel, *INFO)
            finally:
                holder.close()
            assert status == 503
            assert body["ok"] is False and body["error"] == "busy"
            assert body["retry_after"] > 0
            with pytest.raises(PeerClosedError):
                channel.recv()
        assert server._shed_reason_total.labels(reason="queue_deadline").value == 1
