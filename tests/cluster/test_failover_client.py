"""Client-side resilience: retry policy bounds, endpoint failover, routing."""

import random

import pytest

from repro.cluster.failover import ClusterRouter, FailoverMyProxyClient
from repro.core.client import MyProxyClient, RetryPolicy, myproxy_init_from_longterm
from repro.core.repository import MemoryRepository
from repro.core.server import MyProxyServer
from repro.util.errors import AuthenticationError, TransportError

PASS = "correct horse 42"


class TestRetryPolicy:
    def test_backoffs_respect_jitter_bounds(self):
        """Every delay lies in [cap * (1 - jitter), cap] with the cap
        growing exponentially up to max_delay."""
        policy = RetryPolicy(
            rounds=6, base_delay=0.1, max_delay=0.8, multiplier=2.0, jitter=0.5
        )
        delays = list(policy.backoffs(random.Random(7)))
        assert len(delays) == policy.rounds - 1
        caps = [min(0.1 * 2.0**i, 0.8) for i in range(5)]
        assert caps[-1] == 0.8  # max_delay really caps the growth
        for delay, cap in zip(delays, caps):
            assert cap * 0.5 <= delay <= cap

    def test_zero_jitter_is_deterministic(self):
        policy = RetryPolicy(rounds=4, base_delay=0.2, max_delay=10.0, jitter=0.0)
        assert list(policy.backoffs()) == [0.2, 0.4, 0.8]

    def test_seeded_rng_reproduces_the_schedule(self):
        policy = RetryPolicy(rounds=5, base_delay=0.1)
        a = list(policy.backoffs(random.Random(42)))
        b = list(policy.backoffs(random.Random(42)))
        assert a == b

    def test_single_round_default_never_sleeps(self):
        assert list(RetryPolicy().backoffs()) == []

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one round"):
            RetryPolicy(rounds=0)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=-0.1)


@pytest.fixture()
def server(ca, validator, key_pool, clock):
    cred = ca.issue_host_credential("repo.example.org", key=key_pool.new_key())
    with MyProxyServer(
        cred, validator, repository=MemoryRepository(),
        clock=clock, key_source=key_pool,
    ) as server:
        yield server


class TestClientFailover:
    def test_dead_primary_falls_back_within_the_round(
        self, server, alice, validator, key_pool, clock
    ):
        def dead():
            raise TransportError("connection refused")

        sleeps = []
        client = MyProxyClient(
            dead, alice, validator, clock=clock, key_source=key_pool,
            fallbacks=[server.connect],
            retry=RetryPolicy(rounds=2), sleep=sleeps.append,
        )
        myproxy_init_from_longterm(
            client, alice, username="alice", passphrase=PASS, key_source=key_pool
        )
        assert server.repository.get("alice", "default").username == "alice"
        assert sleeps == []  # rotating within a round costs no backoff

    def test_transient_failure_retries_with_backoff(
        self, server, alice, validator, key_pool, clock
    ):
        calls = {"n": 0}
        real = server.connect

        def flaky():
            calls["n"] += 1
            if calls["n"] == 1:
                raise TransportError("transient outage")
            return real()

        sleeps = []
        policy = RetryPolicy(rounds=3, base_delay=0.01, max_delay=0.05, jitter=0.5)
        client = MyProxyClient(
            flaky, alice, validator, clock=clock, key_source=key_pool,
            retry=policy, sleep=sleeps.append, rng=random.Random(1),
        )
        myproxy_init_from_longterm(
            client, alice, username="alice", passphrase=PASS, key_source=key_pool
        )
        assert calls["n"] == 2
        assert len(sleeps) == 1
        assert 0.01 * 0.5 <= sleeps[0] <= 0.01

    def test_all_rounds_exhausted_raises_the_last_error(
        self, alice, validator, key_pool, clock
    ):
        dials = {"n": 0}

        def dead():
            dials["n"] += 1
            raise TransportError("still down")

        client = MyProxyClient(
            dead, alice, validator, clock=clock, key_source=key_pool,
            retry=RetryPolicy(rounds=3, base_delay=0.001), sleep=lambda s: None,
        )
        with pytest.raises(TransportError, match="still down"):
            client.info(username="alice")
        assert dials["n"] == 3  # one dial per round, three rounds

    def test_authoritative_refusals_are_not_retried(
        self, server, alice, bob, validator, key_pool, clock
    ):
        """A wrong pass phrase is an answer, not an outage — retrying would
        burn OTP words and lockout budget."""
        dials = {"n": 0}
        real = server.connect

        def counted():
            dials["n"] += 1
            return real()

        init_client = MyProxyClient(
            counted, alice, validator, clock=clock, key_source=key_pool
        )
        myproxy_init_from_longterm(
            init_client, alice, username="alice", passphrase=PASS,
            key_source=key_pool,
        )
        dials["n"] = 0
        requester = MyProxyClient(
            counted, bob, validator, clock=clock, key_source=key_pool,
            retry=RetryPolicy(rounds=4, base_delay=0.001), sleep=lambda s: None,
        )
        with pytest.raises(AuthenticationError):
            requester.get_delegation(username="alice", passphrase="wrong phrase 9")
        assert dials["n"] == 1


class TestClusterRouter:
    def test_order_starts_with_the_preference_list(self):
        router = ClusterRouter(["node0", "node1", "node2"], replication_factor=2)
        order = router.order("alice")
        assert sorted(order) == ["node0", "node1", "node2"]
        assert order[:2] == router.preference("alice")

    def test_matches_the_server_side_ring(self, cluster_factory):
        cluster = cluster_factory(3, replication_factor=2)
        router = cluster.router()
        for user in ("alice", "bob", "carol"):
            assert router.preference(user) == [
                node.name for node in cluster.preference(user)
            ]


class TestFailoverMyProxyClient:
    def test_targets_must_be_ring_members(self, cluster_factory, alice, validator):
        cluster = cluster_factory(2)
        with pytest.raises(ValueError, match="not on the ring"):
            FailoverMyProxyClient(
                {"ghost": lambda: None}, cluster.router(), alice, validator
            )

    def test_survives_a_dead_primary_without_promotion(
        self, cluster_factory, cluster_client_factory, alice, bob, key_pool
    ):
        """rf=2 on two nodes: both hold the entry, so the replica can answer
        a GET even before any failover runs."""
        cluster = cluster_factory(2, replication_factor=2)
        client = cluster_client_factory(cluster, alice)
        myproxy_init_from_longterm(
            client, alice, username="alice", passphrase=PASS, key_source=key_pool
        )
        cluster.primary_for("alice").kill()
        requester = cluster_client_factory(cluster, bob)
        proxy = requester.get_delegation(username="alice", passphrase=PASS)
        assert proxy.identity == alice.identity
        # the owner's INFO rides the same failover path
        rows = client.info(username="alice")
        assert [r.cred_name for r in rows] == ["default"]
