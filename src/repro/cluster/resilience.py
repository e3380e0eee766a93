"""Client-side resilience: circuit breakers, retry budgets, deadlines.

A failover client under a partition is dangerous in the aggregate: every
operation that fails over re-dials every endpoint, so a fleet of portals
pointed at a half-dead cluster multiplies its own load exactly when the
surviving nodes can least afford it.  Three independent brakes bound the
blast radius:

- :class:`CircuitBreaker` (per endpoint, shared across operations): after
  ``failures`` consecutive transport failures the endpoint is *open* and
  skipped outright for ``cooldown`` seconds; then exactly one *half-open*
  probe is let through — success closes the breaker, failure re-opens it.
  Break-glass rule: if every endpoint is open, the client dials anyway
  (a breaker must never make an outage strictly worse);
- :class:`RetryBudget` (token bucket, shared across operations): the
  first dial of every operation is free, each *extra* dial — retry, busy
  redial or failover — spends a token.  An empty bucket fails the
  operation promptly instead of hammering;
- :class:`Deadline`: an end-to-end bound on one operation.  It is
  propagated through every sleep (backoff and honored ``RETRY_AFTER``
  waits are clamped to the time remaining) and checked before every
  dial, so total dial+retry time is bounded by the caller's patience,
  not by the retry schedule's worst case.

:class:`OperationGuard` packages the three for one operation and is what
the client loop (:meth:`~repro.core.client.ClientCore._converse`)
consults; the failover client hands each operation a fresh one over its
long-lived breakers and budget (see :mod:`repro.cluster.failover`).
"""

from __future__ import annotations

import threading

from repro.util.clock import SYSTEM_CLOCK, Clock
from repro.util.errors import DeadlineExceededError, RetryBudgetExhaustedError

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "CircuitBreaker",
    "Deadline",
    "OperationGuard",
    "RetryBudget",
]

#: Gauge values for ``myproxy_client_breaker_state{endpoint=...}``.
BREAKER_CLOSED = 0
BREAKER_HALF_OPEN = 1
BREAKER_OPEN = 2

_STATE_VALUES = {
    "closed": BREAKER_CLOSED,
    "half_open": BREAKER_HALF_OPEN,
    "open": BREAKER_OPEN,
}


class CircuitBreaker:
    """Consecutive-failure breaker for one endpoint.

    ``gauge`` (optional) is a metrics gauge child kept in sync with the
    state so dashboards can see which endpoints a client has written off.
    """

    def __init__(
        self,
        *,
        failures: int = 5,
        cooldown: float = 5.0,
        clock: Clock = SYSTEM_CLOCK,
        gauge=None,
    ) -> None:
        if failures < 1:
            raise ValueError("breaker failure threshold must be >= 1")
        if cooldown <= 0:
            raise ValueError("breaker cooldown must be positive")
        self.failures = failures
        self.cooldown = cooldown
        self.clock = clock
        self._gauge = gauge
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive = 0
        self._opened_at = 0.0

    def _set_state(self, state: str) -> None:
        self._state = state
        if self._gauge is not None:
            self._gauge.set(_STATE_VALUES[state])

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def would_allow(self) -> bool:
        """Non-mutating peek: would :meth:`allow` grant a dial right now?"""
        with self._lock:
            if self._state == "closed":
                return True
            if self._state == "half_open":
                return False  # the probe slot is taken
            return self.clock.now() - self._opened_at >= self.cooldown

    def allow(self) -> bool:
        """Claim permission to dial.  May transition open -> half-open."""
        with self._lock:
            if self._state == "closed":
                return True
            if self._state == "half_open":
                return False
            if self.clock.now() - self._opened_at >= self.cooldown:
                # Cooled off: admit exactly one probe.
                self._set_state("half_open")
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._consecutive = 0
            self._set_state("closed")

    def record_failure(self) -> None:
        with self._lock:
            if self._state == "half_open":
                # The probe failed: straight back to open, timer restarted.
                self._opened_at = self.clock.now()
                self._set_state("open")
                return
            self._consecutive += 1
            if self._consecutive >= self.failures and self._state == "closed":
                self._opened_at = self.clock.now()
                self._set_state("open")


class RetryBudget:
    """A token bucket bounding a client's *extra* dials per unit time."""

    def __init__(
        self,
        *,
        tokens: float = 32.0,
        refill_per_s: float = 4.0,
        clock: Clock = SYSTEM_CLOCK,
    ) -> None:
        if tokens <= 0:
            raise ValueError("retry budget needs a positive token capacity")
        if refill_per_s < 0:
            raise ValueError("retry budget refill rate cannot be negative")
        self.capacity = float(tokens)
        self.refill_per_s = float(refill_per_s)
        self.clock = clock
        self._level = float(tokens)
        self._last = clock.now()
        self._lock = threading.Lock()

    def available(self) -> float:
        with self._lock:
            self._refill_locked()
            return self._level

    def _refill_locked(self) -> None:
        now = self.clock.now()
        elapsed = max(now - self._last, 0.0)
        self._last = now
        self._level = min(self.capacity, self._level + elapsed * self.refill_per_s)

    def try_spend(self, cost: float = 1.0) -> bool:
        with self._lock:
            self._refill_locked()
            if self._level < cost:
                return False
            self._level -= cost
            return True

    def refund(self, cost: float = 1.0) -> None:
        """Return a token charged for a dial that never happened."""
        with self._lock:
            self._refill_locked()
            self._level = min(self.capacity, self._level + cost)


class Deadline:
    """An absolute end-to-end bound for one operation."""

    def __init__(self, seconds: float, *, clock: Clock = SYSTEM_CLOCK) -> None:
        if seconds <= 0:
            raise ValueError("deadline must be positive")
        self.clock = clock
        self.expires = clock.now() + seconds

    def remaining(self) -> float:
        return max(self.expires - self.clock.now(), 0.0)

    def expired(self) -> bool:
        return self.clock.now() >= self.expires

    def clamp(self, delay: float) -> float:
        """Never sleep past the deadline."""
        return min(delay, self.remaining())


class OperationGuard:
    """The per-operation view over shared breakers and budget.

    ``names`` orders the endpoints exactly as the operation dials them,
    so the client loop can consult the guard by dial index without
    knowing endpoint naming.
    """

    def __init__(
        self,
        names: list[str],
        breakers: dict[str, CircuitBreaker],
        *,
        budget: RetryBudget | None = None,
        deadline: Deadline | None = None,
        stats=None,
    ) -> None:
        self.names = list(names)
        self.breakers = breakers
        self.budget = budget
        self.deadline = deadline
        self.stats = stats

    def _breaker(self, index: int) -> CircuitBreaker | None:
        if index >= len(self.names):
            return None
        return self.breakers.get(self.names[index])

    def allow_dial(self, index: int, *, first: bool) -> bool:
        """Gate one dial attempt.

        Returns False when the endpoint's breaker refuses (skip it, try
        the next); raises when the whole *operation* must stop — the
        deadline passed or the shared retry budget ran dry.  The first
        dial of an operation never spends budget: a healthy cluster costs
        nothing, only retries draw down.  The breaker is consulted
        *before* the budget is charged: an endpoint the breaker refuses
        causes no dial, so it must not drain tokens the remaining
        endpoints (or other operations) still need.
        """
        if self.deadline is not None and self.deadline.expired():
            raise DeadlineExceededError(
                "operation deadline expired before the dial"
            )
        breaker = self._breaker(index)
        break_glass = False
        if breaker is not None and not breaker.would_allow():
            # Break-glass: with every endpoint's breaker refusing,
            # skipping them all would fail the operation without a single
            # dial — worse than any outcome the breakers prevent.
            if any(
                b.would_allow()
                for b in (self.breakers.get(n) for n in self.names)
                if b
            ):
                return False  # another endpoint can serve; skip, free
            break_glass = True
        charged = False
        if not first and self.budget is not None:
            if not self.budget.try_spend():
                if self.stats is not None:
                    self.stats.inc("retry_budget_exhausted")
                raise RetryBudgetExhaustedError(
                    "client retry budget exhausted; failing fast instead of "
                    "retrying into a degraded cluster"
                )
            charged = True
        if break_glass or breaker is None or breaker.allow():
            return True
        # Raced: another thread claimed the half-open probe slot between
        # the peek and the claim.  No dial happens — hand the token back.
        if charged:
            self.budget.refund()
        return False

    def on_success(self, index: int) -> None:
        breaker = self._breaker(index)
        if breaker is not None:
            breaker.record_success()

    def on_failure(self, index: int) -> None:
        breaker = self._breaker(index)
        if breaker is not None:
            breaker.record_failure()

    def pace(self, delay: float) -> float:
        """Clamp a backoff/busy sleep to the operation deadline."""
        if self.deadline is None:
            return delay
        if self.deadline.expired():
            raise DeadlineExceededError("operation deadline expired mid-backoff")
        return self.deadline.clamp(delay)
