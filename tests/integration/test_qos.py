"""Per-identity fairness and busy-aware client routing (repro.qos).

Covers the tentpole guarantees end to end:

- a rate-limited identity gets ``RESPONSE=2`` + ``RETRY_AFTER`` over the
  secure channel and cannot starve a second identity;
- service-class weights scale an identity's admission budget;
- the failover client retries the *same* node after a busy reply but
  rotates to the next node after a real transport failure.
"""


import pytest

from repro.core.client import MyProxyClient, RetryPolicy
from repro.core.policy import ServerPolicy
from repro.transport.handshake import send_busy_notice
from repro.transport.links import pipe_pair
from repro.util.errors import ServerBusyError

PASS = "correct horse 42"

#: Fail immediately on busy instead of sleeping — tests assert the error.
NO_BUSY_RETRY = RetryPolicy(busy_retries=0)


def _client(tb, credential, **kwargs):
    kwargs.setdefault("key_source", tb.key_source)
    return MyProxyClient(
        tb.myproxy_targets["repo-0"], credential, tb.validator,
        clock=tb.clock, **kwargs,
    )


class TestPerIdentityFairness:
    def test_noisy_identity_cannot_starve_another(self, tb_factory):
        policy = ServerPolicy()
        policy.qos_rate = 0.5     # slow refill relative to test speed
        policy.qos_burst = 3.0
        tb = tb_factory(myproxy_policy=policy)
        alice = tb.new_user("alice")
        tb.myproxy_init(alice, passphrase=PASS)  # conversation 1 of 3

        noisy = _client(tb, alice.credential, retry=NO_BUSY_RETRY)
        noisy.info(username="alice")             # conversation 2 of 3
        noisy.info(username="alice")             # 3 of 3: burst exhausted
        with pytest.raises(ServerBusyError) as excinfo:
            noisy.info(username="alice")
        assert excinfo.value.retry_after > 0

        # A different identity is untouched: its own bucket is full.
        bob = tb.new_user("bob")
        assert tb.myproxy_init(bob, passphrase=PASS).ok

        server = tb.myproxy
        assert (
            server._shed_reason_total.labels(reason="rate_limited").value >= 1
        )
        # The busy reply is audited, with the class named.
        admissions = [
            r for r in server.audit_log() if r.command == "ADMISSION"
        ]
        assert admissions and "rate limited" in admissions[-1].detail

    def test_class_weight_scales_the_budget(self, tb_factory):
        policy = ServerPolicy()
        policy.qos_rate = 0.5
        policy.qos_burst = 2.0
        from repro.core.config import _parse_qos_classes

        policy.qos_classes = _parse_qos_classes(
            [(1, "portal 4 /O=Grid/OU=Repro/CN=Heavy")]
        )
        tb = tb_factory(myproxy_policy=policy)
        light = tb.new_user("light")
        heavy = tb.new_user("heavy")
        tb.myproxy_init(light, passphrase=PASS)
        tb.myproxy_init(heavy, passphrase=PASS)

        # light (class default, weight 1): burst 2, already spent 1.
        light_client = _client(tb, light.credential, retry=NO_BUSY_RETRY)
        light_client.info(username="light")
        with pytest.raises(ServerBusyError):
            light_client.info(username="light")

        # heavy (weight 4): burst 8, so seven more conversations fit.
        heavy_client = _client(tb, heavy.credential, retry=NO_BUSY_RETRY)
        for _ in range(7):
            heavy_client.info(username="heavy")
        with pytest.raises(ServerBusyError):
            heavy_client.info(username="heavy")

        admitted = tb.myproxy._qos_admitted_total
        assert admitted.labels(qclass="portal").value == 8
        assert admitted.labels(qclass="default").value == 2

    def test_rate_limiting_off_by_default(self, tb):
        alice = tb.new_user("alice")
        tb.myproxy_init(alice, passphrase=PASS)
        client = _client(tb, alice.credential, retry=NO_BUSY_RETRY)
        for _ in range(20):
            client.info(username="alice")  # no bucket, no busy


class _FlakyTarget:
    """Link factory whose first ``n`` dials misbehave; later dials reach
    the real server through ``connect``."""

    def __init__(self, connect, *, busy_first=0, reset_first=0,
                 retry_after=0.05):
        self.connect = connect
        self.busy_first = busy_first
        self.reset_first = reset_first
        self.retry_after = retry_after
        self.dials = 0

    def __call__(self):
        self.dials += 1
        if self.dials > self.reset_first + self.busy_first:
            return self.connect()
        client_end, server_end = pipe_pair()
        if self.dials > self.reset_first:
            send_busy_notice(server_end, self.retry_after)
        server_end.close()  # after a reset, the client sees a dead transport
        return client_end


class TestBusyVersusFailover:
    """Satellite (c): busy ≠ dead.  Only real failures rotate targets."""

    def _setup(self, tb):
        alice = tb.new_user("alice")
        tb.myproxy_init(alice, passphrase=PASS)
        return alice

    def test_busy_retries_same_node_without_failover(self, tb):
        alice = self._setup(tb)
        primary = _FlakyTarget(tb.myproxy.connect, busy_first=2)
        fallback = _FlakyTarget(tb.myproxy.connect)
        sleeps = []
        client = MyProxyClient(
            primary, alice.credential, tb.validator,
            clock=tb.clock, key_source=tb.key_source,
            fallbacks=[fallback], sleep=sleeps.append,
        )
        rows = client.info(username="alice")
        assert rows and rows[0].cred_name == "default"
        # Both busy replies were honored against the SAME node; the
        # fallback was never dialed and no failover was counted.
        assert primary.dials == 3
        assert fallback.dials == 0
        assert sleeps == [0.05, 0.05]
        assert client.stats.busy_backoffs == 2
        assert client.stats.failovers == 0
        assert client.stats.transport_failures == 0

    def test_reset_fails_over_to_next_node(self, tb):
        alice = self._setup(tb)
        primary = _FlakyTarget(tb.myproxy.connect, reset_first=10)
        fallback = _FlakyTarget(tb.myproxy.connect)
        client = MyProxyClient(
            primary, alice.credential, tb.validator,
            clock=tb.clock, key_source=tb.key_source,
            fallbacks=[fallback], sleep=lambda _s: None,
        )
        rows = client.info(username="alice")
        assert rows and rows[0].cred_name == "default"
        assert fallback.dials == 1
        assert client.stats.failovers == 1
        assert client.stats.transport_failures >= 1
        assert client.stats.busy_backoffs == 0

    def test_cluster_client_does_not_fail_over_on_busy(self, tb):
        from repro.cluster.failover import ClusterRouter, FailoverMyProxyClient

        alice = self._setup(tb)
        targets = {
            "n1": _FlakyTarget(tb.myproxy.connect, busy_first=1),
            "n2": _FlakyTarget(tb.myproxy.connect, busy_first=1),
        }
        client = FailoverMyProxyClient(
            targets, ClusterRouter(list(targets), 1),
            alice.credential, tb.validator,
            key_source=tb.key_source, sleep=lambda _s: None,
        )
        rows = client.info(username="alice")
        assert rows and rows[0].cred_name == "default"
        # The shard primary answered busy once and then served the retry;
        # the other node was never dialed.
        dials = sorted(t.dials for t in targets.values())
        assert dials == [0, 2]
        assert client.stats.busy_backoffs == 1
        assert client.stats.failovers == 0

    def test_persistent_busy_eventually_rotates_then_exhausts(self, tb):
        alice = self._setup(tb)
        # Both nodes permanently busy: the client honors busy_retries per
        # target, then gives up with the busy error (not a transport one),
        # telling the caller to back off rather than declare an outage.
        primary = _FlakyTarget(tb.myproxy.connect, busy_first=10 ** 6)
        fallback = _FlakyTarget(tb.myproxy.connect, busy_first=10 ** 6)
        client = MyProxyClient(
            primary, alice.credential, tb.validator,
            clock=tb.clock, key_source=tb.key_source,
            fallbacks=[fallback], sleep=lambda _s: None,
            retry=RetryPolicy(busy_retries=1),
        )
        with pytest.raises(ServerBusyError):
            client.info(username="alice")
        assert primary.dials == 2   # initial + one honored retry
        assert fallback.dials == 2
        assert client.stats.exhausted == 1
        assert client.stats.failovers == 0
