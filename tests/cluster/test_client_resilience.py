"""Client resilience: circuit breakers, retry budgets, deadlines.

Unit tests drive every primitive off a :class:`ManualClock`; the
integration tests wire an :class:`OperationGuard` into a real
:class:`MyProxyClient` dial loop (with a stubbed transport) to prove the
operation-level guarantees: budget exhaustion fails promptly, open
breakers skip endpoints without ever making an outage worse, and a
deadline bounds total dial+retry+busy time.
"""

from __future__ import annotations

import pytest

from repro.cluster.failover import ClusterRouter, FailoverMyProxyClient
from repro.cluster.resilience import (
    CircuitBreaker,
    Deadline,
    OperationGuard,
    RetryBudget,
)
from repro.core.client import (
    ClientStats,
    MyProxyClient,
    RetryPolicy,
    myproxy_init_from_longterm,
)
from repro.core.repository import MemoryRepository
from repro.core.server import MyProxyServer
from repro.util.clock import ManualClock
from repro.util.errors import (
    DeadlineExceededError,
    RetryBudgetExhaustedError,
    ServerBusyError,
    TransportError,
)


@pytest.fixture()
def clock():
    return ManualClock(1_600_000_000.0)


class TestCircuitBreaker:
    def test_validation(self, clock):
        with pytest.raises(ValueError, match="threshold"):
            CircuitBreaker(failures=0, clock=clock)
        with pytest.raises(ValueError, match="cooldown"):
            CircuitBreaker(cooldown=0, clock=clock)

    def test_opens_after_consecutive_failures_only(self, clock):
        breaker = CircuitBreaker(failures=3, cooldown=5.0, clock=clock)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # resets the streak
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_half_open_admits_exactly_one_probe(self, clock):
        breaker = CircuitBreaker(failures=1, cooldown=5.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(5.0)
        assert breaker.allow()  # the probe slot
        assert breaker.state == "half_open"
        assert not breaker.allow()  # a second caller must wait

    def test_probe_success_closes(self, clock):
        breaker = CircuitBreaker(failures=1, cooldown=5.0, clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_probe_failure_reopens_with_a_fresh_timer(self, clock):
        breaker = CircuitBreaker(failures=1, cooldown=5.0, clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(4.9)  # the old timer would have expired; the new one
        assert not breaker.allow()  # has not
        clock.advance(0.2)
        assert breaker.allow()

    def test_would_allow_is_a_pure_peek(self, clock):
        breaker = CircuitBreaker(failures=1, cooldown=5.0, clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.would_allow()
        assert breaker.state == "open"  # no transition happened
        assert breaker.would_allow()  # and the probe slot is still free
        assert breaker.allow()
        assert not breaker.would_allow()  # now it is taken

    def test_gauge_tracks_state(self, clock):
        class FakeGauge:
            def __init__(self):
                self.values = []

            def set(self, v):
                self.values.append(v)

        gauge = FakeGauge()
        breaker = CircuitBreaker(failures=1, cooldown=5.0, clock=clock, gauge=gauge)
        breaker.record_failure()
        clock.advance(5.0)
        breaker.allow()
        breaker.record_success()
        assert gauge.values == [2, 1, 0]  # open, half-open, closed


class TestRetryBudget:
    def test_validation(self, clock):
        with pytest.raises(ValueError, match="positive token"):
            RetryBudget(tokens=0, clock=clock)
        with pytest.raises(ValueError, match="refill"):
            RetryBudget(refill_per_s=-1, clock=clock)

    def test_spends_down_to_empty(self, clock):
        budget = RetryBudget(tokens=2, refill_per_s=0, clock=clock)
        assert budget.try_spend()
        assert budget.try_spend()
        assert not budget.try_spend()
        assert budget.available() == 0

    def test_refills_over_time_capped_at_capacity(self, clock):
        budget = RetryBudget(tokens=4, refill_per_s=2, clock=clock)
        for _ in range(4):
            assert budget.try_spend()
        clock.advance(1.0)
        assert budget.available() == pytest.approx(2.0)
        clock.advance(100.0)
        assert budget.available() == pytest.approx(4.0)  # never above capacity


class TestDeadline:
    def test_validation(self, clock):
        with pytest.raises(ValueError, match="positive"):
            Deadline(0, clock=clock)

    def test_remaining_expired_clamp(self, clock):
        deadline = Deadline(10.0, clock=clock)
        assert deadline.remaining() == pytest.approx(10.0)
        assert deadline.clamp(3.0) == 3.0
        clock.advance(8.0)
        assert deadline.clamp(5.0) == pytest.approx(2.0)  # never past the end
        assert not deadline.expired()
        clock.advance(2.0)
        assert deadline.expired()
        assert deadline.remaining() == 0.0


class TestOperationGuard:
    def test_first_dial_never_spends_budget(self, clock):
        budget = RetryBudget(tokens=1, refill_per_s=0, clock=clock)
        guard = OperationGuard(["a"], {}, budget=budget)
        assert guard.allow_dial(0, first=True)
        assert budget.available() == 1.0

    def test_exhausted_budget_raises_and_counts(self, clock):
        budget = RetryBudget(tokens=1, refill_per_s=0, clock=clock)
        stats = ClientStats()
        guard = OperationGuard(["a"], {}, budget=budget, stats=stats)
        assert guard.allow_dial(0, first=False)  # spends the only token
        with pytest.raises(RetryBudgetExhaustedError):
            guard.allow_dial(0, first=False)
        assert stats.retry_budget_exhausted == 1

    def test_break_glass_when_every_breaker_refuses(self, clock):
        breakers = {
            name: CircuitBreaker(failures=1, cooldown=60.0, clock=clock)
            for name in ("a", "b")
        }
        guard = OperationGuard(["a", "b"], breakers)
        breakers["a"].record_failure()
        # one endpoint still healthy: the open one really is skipped
        assert not guard.allow_dial(0, first=True)
        assert guard.allow_dial(1, first=True)
        breakers["b"].record_failure()
        # every breaker open: refusing all dials would be strictly worse
        # than whatever the breakers are protecting against — dial through
        assert guard.allow_dial(0, first=True)

    def test_refused_breaker_does_not_drain_the_budget(self, clock):
        """A dial the breaker refuses never happens, so it must not cost
        a token — otherwise a few open breakers could exhaust the shared
        budget without a single extra dial being made."""
        breakers = {
            name: CircuitBreaker(failures=1, cooldown=60.0, clock=clock)
            for name in ("a", "b")
        }
        budget = RetryBudget(tokens=2, refill_per_s=0, clock=clock)
        guard = OperationGuard(["a", "b"], breakers, budget=budget)
        breakers["a"].record_failure()  # a open, b healthy
        for _ in range(5):
            assert not guard.allow_dial(0, first=False)  # skipped, free
        assert budget.available() == 2.0
        assert guard.allow_dial(1, first=False)  # a real dial: one token
        assert budget.available() == 1.0

    def test_lost_probe_slot_race_refunds_the_token(self, clock):
        """If another thread claims the half-open probe slot between the
        peek and the claim, no dial happens — the token comes back."""

        class ClaimedElsewhere(CircuitBreaker):
            def would_allow(self):
                return True

            def allow(self):
                return False

        budget = RetryBudget(tokens=1, refill_per_s=0, clock=clock)
        guard = OperationGuard(
            ["a"],
            {"a": ClaimedElsewhere(failures=1, cooldown=60.0, clock=clock)},
            budget=budget,
        )
        assert not guard.allow_dial(0, first=False)
        assert budget.available() == 1.0

    def test_expired_deadline_stops_the_operation(self, clock):
        guard = OperationGuard(["a"], {}, deadline=Deadline(5.0, clock=clock))
        assert guard.allow_dial(0, first=True)
        clock.advance(5.0)
        with pytest.raises(DeadlineExceededError):
            guard.allow_dial(0, first=False)
        with pytest.raises(DeadlineExceededError):
            guard.pace(1.0)

    def test_pace_clamps_sleeps_to_the_deadline(self, clock):
        guard = OperationGuard(["a"], {}, deadline=Deadline(5.0, clock=clock))
        assert guard.pace(2.0) == 2.0
        clock.advance(4.0)
        assert guard.pace(2.0) == pytest.approx(1.0)
        guard_free = OperationGuard(["a"], {})
        assert guard_free.pace(7.0) == 7.0  # no deadline, no clamp


class _FakeChannel:
    received = 0

    def close(self):
        pass


class TestConverseIntegration:
    """The guard inside MyProxyClient's real dial loop."""

    def make_client(
        self, alice, validator, clock, guard, *, dials, fail=lambda t: True,
        retry=None, stats=None,
    ):
        client = MyProxyClient(
            ("a", 1),
            alice,
            validator,
            clock=clock,
            fallbacks=[("b", 1)],
            retry=retry or RetryPolicy(rounds=5, base_delay=0.01, max_delay=0.05),
            sleep=clock.advance,
            stats=stats,
            guard=guard,
        )

        def _connect(target):
            name = target[0]
            dials.append(name)
            if fail(name):
                raise TransportError(f"refused by {name}")
            return _FakeChannel()

        client._connect = _connect
        return client

    def test_budget_exhaustion_fails_promptly(self, alice, validator, clock):
        stats = ClientStats()
        guard = OperationGuard(
            ["a", "b"],
            {},
            budget=RetryBudget(tokens=3, refill_per_s=0, clock=clock),
            stats=stats,
        )
        dials = []
        client = self.make_client(
            alice, validator, clock, guard, dials=dials, stats=stats
        )
        with pytest.raises(RetryBudgetExhaustedError):
            client._converse(lambda channel: "ok")
        # first dial free + 3 budgeted extras, then a prompt refusal —
        # nowhere near the 10 dials the 5-round policy would allow
        assert dials == ["a", "b", "a", "b"]
        assert stats.retry_budget_exhausted == 1

    def test_open_breaker_skips_endpoint_then_half_open_recovers(
        self, alice, validator, clock
    ):
        breakers = {
            name: CircuitBreaker(failures=1, cooldown=10.0, clock=clock)
            for name in ("a", "b")
        }
        a_alive = [False]
        dials = []

        def run_op():
            guard = OperationGuard(["a", "b"], breakers)  # fresh per op
            client = self.make_client(
                alice, validator, clock, guard, dials=dials,
                fail=lambda t: t == "a" and not a_alive[0],
            )
            return client._converse(lambda channel: "ok")

        assert run_op() == "ok"  # a fails and trips its breaker, b answers
        assert dials == ["a", "b"]
        assert breakers["a"].state == "open"

        assert run_op() == "ok"  # a is skipped outright this time
        assert dials == ["a", "b", "b"]

        clock.advance(10.0)
        a_alive[0] = True
        assert run_op() == "ok"  # cooldown over: a gets its probe back
        assert dials == ["a", "b", "b", "a"]
        assert breakers["a"].state == "closed"

    def test_busy_replies_do_not_trip_the_breaker(self, alice, validator, clock):
        breakers = {"a": CircuitBreaker(failures=1, cooldown=10.0, clock=clock)}
        guard = OperationGuard(["a"], breakers)
        dials = []
        client = self.make_client(
            alice, validator, clock, guard, dials=dials, fail=lambda t: False,
            retry=RetryPolicy(rounds=1, busy_retries=2),
        )

        busy = [2]

        def conversation(channel):
            if busy[0]:
                busy[0] -= 1
                raise ServerBusyError("shedding", retry_after=0.5)
            return "ok"

        assert client._converse(conversation) == "ok"
        # the server answered twice (busy) and then served; it was never
        # dead, so the breaker must still be closed
        assert breakers["a"].state == "closed"
        assert len(dials) == 3

    def test_deadline_bounds_total_busy_wait(self, alice, validator, clock):
        start = clock.now()
        guard = OperationGuard(["a"], {}, deadline=Deadline(8.0, clock=clock))
        dials = []
        client = self.make_client(
            alice, validator, clock, guard, dials=dials, fail=lambda t: False,
            retry=RetryPolicy(rounds=3, busy_retries=5, base_delay=0.01),
        )

        def conversation(channel):
            raise ServerBusyError("shedding", retry_after=5.0)

        with pytest.raises(DeadlineExceededError):
            client._converse(conversation)
        # honored RETRY_AFTER sleeps were clamped: 5s, then 3s, then stop —
        # the operation consumed its deadline exactly, not a worst-case
        # retry schedule (3 rounds x 5 busy retries x 5s)
        assert clock.now() - start == pytest.approx(8.0)
        assert len(dials) == 2


class TestFailoverClientWiring:
    @pytest.fixture()
    def router(self):
        return ClusterRouter(["node0", "node1", "node2"], 2)

    @pytest.fixture()
    def targets(self):
        return {name: (lambda: None) for name in ("node0", "node1", "node2")}

    def make(self, targets, router, alice, validator, clock, **kwargs):
        return FailoverMyProxyClient(
            targets, router, alice, validator, clock=clock, **kwargs
        )

    def test_one_breaker_per_endpoint_with_gauge(
        self, targets, router, alice, validator, clock
    ):
        fclient = self.make(targets, router, alice, validator, clock)
        assert sorted(fclient.breakers) == ["node0", "node1", "node2"]
        gauge = fclient.stats.registry.gauge(
            "myproxy_client_breaker_state", labelnames=("endpoint",)
        )
        assert gauge.labels(endpoint="node1").value == 0
        fclient.breakers["node1"].record_failure()
        for _ in range(7):
            fclient.breakers["node1"].record_failure()
        assert gauge.labels(endpoint="node1").value == 2  # open

    @pytest.fixture()
    def dialled(self, router, ca, validator, key_pool, clock):
        """Targets whose dials are logged: alice's primary refuses every
        dial, the other nodes front one in-process server."""
        server = MyProxyServer(
            ca.issue_host_credential("repo.example.org", key=key_pool.new_key()),
            validator, repository=MemoryRepository(), clock=clock, key_source=key_pool,
        )
        primary = router.order("alice")[0]
        dials = []

        def target(name):
            def _dial():
                dials.append(name)
                if name == primary:
                    raise TransportError(f"{name} refuses")
                return server.connect()
            return _dial

        with server:
            yield {name: target(name) for name in router.order("alice")}, dials

    def test_per_operation_guard_shares_state(
        self, dialled, router, alice, validator, clock, key_pool
    ):
        """Each operation's guard is a view over the client's breakers and
        budget: what one operation spends or trips, the next one sees."""
        targets, dials = dialled
        fclient = self.make(
            targets, router, alice, validator, clock, deadline_seconds=30.0,
            breaker_failures=1, retry_budget_refill_per_s=0.0,
        )
        primary, replica = router.order("alice")[:2]
        full = fclient.budget.available()
        myproxy_init_from_longterm(
            fclient, alice, username="alice", passphrase="correct horse 42", key_source=key_pool
        )
        # The primary failed and tripped its breaker; the replica's dial
        # was the operation's second, so it spent one token.
        assert dials == [primary, replica]
        assert fclient.breakers[primary].state == "open"
        assert fclient.budget.available() == full - 1
        assert [row.cred_name for row in fclient.info(username="alice")] == ["default"]
        # The next operation skips the open breaker without a dial, and
        # its first dial is free again.
        assert dials == [primary, replica, replica]
        assert fclient.budget.available() == full - 1
        assert fclient.stats.transport_failures == 1

    def test_resilience_off_builds_plain_clients(
        self, dialled, router, alice, validator, clock, key_pool
    ):
        """Without resilience there is no breaker to skip an endpoint: every
        operation dials the dead primary first."""
        targets, dials = dialled
        fclient = self.make(
            targets, router, alice, validator, clock, resilience=False,
            breaker_failures=1,
        )
        assert fclient.breakers == {}
        assert fclient.budget is None
        primary, replica = router.order("alice")[:2]
        myproxy_init_from_longterm(
            fclient, alice, username="alice", passphrase="correct horse 42", key_source=key_pool
        )
        assert [row.cred_name for row in fclient.info(username="alice")] == ["default"]
        assert dials == [primary, replica, primary, replica]
        assert fclient.stats.transport_failures == 2
