"""Failover-aware client routing for a repository cluster.

A cluster client needs two things the single-server
:class:`~repro.core.client.MyProxyClient` does not have by itself:

- *shard awareness* — the hash ring is deterministic, so a client given
  the cluster's node list computes the same preference list the servers
  use and dials the user's primary first (replicas next, then everyone
  else as a last resort);
- *failover* — transport failures rotate to the next endpoint with
  jittered exponential backoff (:class:`~repro.core.client.RetryPolicy`),
  so a Figure 1/2 flow completes through a node kill: the dead primary
  refuses the dial, the promoted replica answers.

The client needs no failover *protocol*: promotion is server-side, and any
node holding the user's replicated (still-encrypted) entry can serve it.

A node that answers *busy* (see :mod:`repro.qos`) is not treated as dead:
the underlying client honors the ``RETRY_AFTER`` hint against the same
node, and only a genuine transport failure rotates the preference list.

Against a *partitioned* cluster, raw failover is not enough — a client
that retries every endpoint every round amplifies the outage.  The
cluster client therefore carries per-endpoint circuit breakers, a shared
retry-budget token bucket, and optional end-to-end deadlines (see
:mod:`repro.cluster.resilience`); each operation runs the client core's
one loop over the user's shard order, under an
:class:`~repro.cluster.resilience.OperationGuard` over that shared state.
Like any client it keeps an idle channel per (subject, node) between
operations, so a user's next operation skips the dial; close it (or use
``with``) when done.
"""

from __future__ import annotations

import random
import time
from collections.abc import Callable, Mapping

from repro import faults
from repro.cluster.hashring import DEFAULT_VNODES, ConsistentHashRing
from repro.cluster.resilience import (
    CircuitBreaker,
    Deadline,
    OperationGuard,
    RetryBudget,
)
from repro.core.client import MyProxyClient, RetryPolicy
from repro.pki.credentials import Credential
from repro.pki.validation import ChainValidator
from repro.util.clock import SYSTEM_CLOCK, Clock

DEFAULT_CLUSTER_RETRY = RetryPolicy(rounds=4, base_delay=0.05, max_delay=1.0)

#: Resilience defaults: generous enough that a healthy cluster (or a plain
#: single-node kill) never notices them, tight enough that a client facing
#: a partitioned cluster stops hammering within a few operations.
DEFAULT_BREAKER_FAILURES = 8
DEFAULT_BREAKER_COOLDOWN = 3.0
DEFAULT_RETRY_BUDGET_TOKENS = 64.0
DEFAULT_RETRY_BUDGET_REFILL = 8.0


class ClusterRouter:
    """Orders a cluster's endpoints for a given username."""

    def __init__(
        self,
        node_names: list[str],
        replication_factor: int,
        *,
        vnodes: int = DEFAULT_VNODES,
    ) -> None:
        self.ring = ConsistentHashRing(sorted(node_names), vnodes=vnodes)
        self.replication_factor = replication_factor

    def order(self, username: str) -> list[str]:
        """Every node, preference list first (primary, replicas, the rest)."""
        return self.ring.preference_list(username)

    def preference(self, username: str) -> list[str]:
        return self.ring.preference_list(username, self.replication_factor)


class FailoverMyProxyClient(MyProxyClient):
    """A MyProxy client for a whole cluster rather than one endpoint.

    ``targets`` maps node name → connect target (``(host, port)`` or a link
    factory).  Every :class:`~repro.core.client.MyProxyClient` method is
    available with identical signatures; each operation dials the nodes in
    its username's shard order.
    """

    def __init__(
        self,
        targets: Mapping[str, object],
        router: ClusterRouter,
        credential: Credential,
        validator: ChainValidator,
        *,
        retry: RetryPolicy | None = None,
        clock: Clock = SYSTEM_CLOCK,
        key_source=None,
        sleep: Callable[[float], None] = time.sleep,
        rng: random.Random | None = None,
        injector: faults.FaultInjector | None = None,
        breaker_failures: int = DEFAULT_BREAKER_FAILURES,
        breaker_cooldown: float = DEFAULT_BREAKER_COOLDOWN,
        retry_budget_tokens: float = DEFAULT_RETRY_BUDGET_TOKENS,
        retry_budget_refill_per_s: float = DEFAULT_RETRY_BUDGET_REFILL,
        deadline_seconds: float | None = None,
        resilience: bool = True,
    ) -> None:
        unknown = set(targets) - set(router.ring.nodes)
        if unknown:
            raise ValueError(f"targets name nodes not on the ring: {sorted(unknown)}")
        super().__init__(
            None, credential, validator, clock=clock, key_source=key_source,
            retry=retry or DEFAULT_CLUSTER_RETRY, sleep=sleep, rng=rng,
        )
        self.targets = dict(targets)
        if injector is not None:
            # Chaos hook: each dial of node <name> passes the injector at
            # ``client.dial.<name>`` first, so a plan can reset or
            # partition the path to one node and exercise failover.
            # Only in-process link factories are wrappable; (host, port)
            # endpoints fail at the socket, which needs no simulation.
            def _wrap(name, factory):
                def _dial():
                    injector.fire(f"client.dial.{name}")
                    return factory()
                return _dial
            self.targets = {
                name: _wrap(name, t) if callable(t) else t
                for name, t in self.targets.items()
            }
        self.router = router
        # Long-lived resilience state shared across operations: one breaker
        # per endpoint, one retry-budget bucket for the whole client.  Each
        # operation's guard (built in _route) is just a view over these
        # plus a fresh deadline.
        self.deadline_seconds = deadline_seconds
        self.breakers: dict[str, CircuitBreaker] = {}
        self.budget: RetryBudget | None = None
        if resilience:
            gauge = self.stats.registry.gauge(
                "myproxy_client_breaker_state",
                "Circuit breaker per endpoint: 0 closed, 1 half-open, 2 open.",
                labelnames=("endpoint",),
            )
            for name in sorted(self.targets):
                child = gauge.labels(endpoint=name)
                child.set(0)
                self.breakers[name] = CircuitBreaker(
                    failures=breaker_failures,
                    cooldown=breaker_cooldown,
                    clock=clock,
                    gauge=child,
                )
            self.budget = RetryBudget(
                tokens=retry_budget_tokens,
                refill_per_s=retry_budget_refill_per_s,
                clock=clock,
            )

    def _route(self, username: str | None):
        """``username``'s shard order (primary, replicas, the rest; trust
        material is identical cluster-wide, so TRUSTROOTS takes any), and
        a guard over the shared breakers and budget."""
        names = [
            name for name in self.router.order(username) if name in self.targets
        ]
        if not names:
            raise ValueError("no dialable targets for this cluster")
        targets = [self.targets[name] for name in names]
        deadline = (
            Deadline(self.deadline_seconds, clock=self.clock)
            if self.deadline_seconds is not None
            else None
        )
        if not self.breakers and self.budget is None and deadline is None:
            return targets, None
        return targets, OperationGuard(
            names, self.breakers, budget=self.budget, deadline=deadline, stats=self.stats
        )
