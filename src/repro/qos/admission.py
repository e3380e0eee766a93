"""A bounded admission queue with deadlines, for a fixed worker pool.

The old serving path spawned a thread per connection behind a semaphore:
at capacity, new connections were silently closed — a burst one
conversation-time wide was indistinguishable from an outage.  The
admission queue changes the shape: accepted connections wait briefly in a
bounded FIFO, a fixed pool of workers drains it, and two explicit shed
points replace the silent drop:

- *no slots* — the queue itself is full (``offer`` refuses);
- *queue deadline* — a connection waited longer than the deadline; serving
  it now would only add a stale response on top of the wait (the classic
  overload death spiral), so it is shed instead, by the dequeuing worker
  or by the sweeper when every worker is pinned.

Every ticket knows how long it waited, so the server can feed an
admission-wait histogram and compute honest ``RETRY_AFTER`` hints from the
current occupancy.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass

__all__ = ["AdmissionQueue", "AdmissionTicket", "DEFAULT_DEADLINE", "DEFAULT_DEPTH"]

#: Queue bound and deadline (seconds): MyProxy's ``qos_queue_*`` defaults,
#: and every other server's fixed queue.
DEFAULT_DEPTH = 64
DEFAULT_DEADLINE = 3.0


@dataclass(frozen=True)
class AdmissionTicket:
    """One dequeued admission entry."""

    item: object
    enqueued_at: float
    waited: float
    expired: bool


class AdmissionQueue:
    """Bounded FIFO of pending work items with a queue-time deadline.

    ``depth=0`` degenerates to "no queueing": an ``offer`` succeeds only
    as a direct handoff to a consumer already waiting in :meth:`take`,
    which reproduces the old drop-at-accept behaviour — if no worker is
    idle *right now*, shed — minus the silence (the caller still sheds
    gracefully).  Time is injectable for tests.
    """

    def __init__(
        self,
        depth: int,
        deadline: float,
        *,
        timefunc: Callable[[], float] = time.monotonic,
        depth_gauge=None,
    ) -> None:
        if depth < 0:
            raise ValueError("queue depth must be non-negative")
        if deadline <= 0:
            raise ValueError("queue deadline must be positive")
        self.depth = depth
        self.deadline = deadline
        self._timefunc = timefunc
        self._depth_gauge = depth_gauge
        self._lock = threading.Lock()
        self._entries: deque[tuple[object, float]] = deque()
        # One lock per consumer asleep in take(), newest last.  An offer
        # wakes the newest, so work goes to the workers that ran last and
        # a pool larger than the load leaves the rest asleep, their stacks
        # and allocator caches untouched (waking the oldest cycles through
        # every worker of the pool).
        self._sleepers: list[threading.Lock] = []
        self._waiters = 0
        self._closed = False

    # -- producers ----------------------------------------------------------

    def offer(self, item: object) -> bool:
        """Enqueue ``item``; False when the queue is full or closed.

        With ``depth=0``, succeeds only as a handoff to a consumer
        already blocked in :meth:`take` (one not about to receive an
        earlier handoff).
        """
        with self._lock:
            if self._closed:
                return False
            handoff = self.depth == 0 and self._waiters > len(self._entries)
            if len(self._entries) >= self.depth and not handoff:
                return False
            self._entries.append((item, self._timefunc()))
            self._set_gauge_locked()
            if self._sleepers:
                self._sleepers.pop().release()
            return True

    # -- consumers ----------------------------------------------------------

    def take(self, timeout: float | None) -> AdmissionTicket | None:
        """Dequeue the oldest entry, or None after ``timeout`` seconds
        (``None``: wait as long as it takes) or once the queue is closed.

        The ticket reports whether the entry already overran the deadline;
        the worker sheds those instead of serving them.
        """
        with self._lock:
            if not self._entries and not self._closed and (timeout is None or timeout > 0):
                self._sleep_locked(timeout)
            if not self._entries:
                return None
            item, enqueued_at = self._entries.popleft()
            self._set_gauge_locked()
        waited = self._timefunc() - enqueued_at
        return AdmissionTicket(
            item=item,
            enqueued_at=enqueued_at,
            waited=waited,
            expired=waited > self.deadline,
        )

    def _sleep_locked(self, timeout: float | None) -> None:
        """Release the lock until an offer or :meth:`close` wakes this
        consumer, or ``timeout`` passes; holds the lock again on return."""
        wake = threading.Lock()
        wake.acquire()
        self._sleepers.append(wake)
        self._waiters += 1
        self._lock.release()
        try:
            wake.acquire(timeout=-1 if timeout is None else timeout)
        finally:
            self._lock.acquire()
            self._waiters -= 1
            if wake in self._sleepers:  # timed out: no offer woke it
                self._sleepers.remove(wake)

    def pop_expired(self) -> list[AdmissionTicket]:
        """Remove every entry past its deadline (the sweeper's call).

        Needed because a fully pinned worker pool dequeues nothing: without
        the sweep, expired clients would sit unanswered until a worker
        freed up — precisely the stall the deadline exists to bound.
        """
        now = self._timefunc()
        cutoff = now - self.deadline
        expired: list[AdmissionTicket] = []
        with self._lock:
            while self._entries and self._entries[0][1] < cutoff:
                item, enqueued_at = self._entries.popleft()
                expired.append(
                    AdmissionTicket(
                        item=item,
                        enqueued_at=enqueued_at,
                        waited=now - enqueued_at,
                        expired=True,
                    )
                )
            if expired:
                self._set_gauge_locked()
        return expired

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def suggest_retry_after(self) -> float:
        """A retry hint proportional to current occupancy.

        An empty queue suggests a token-sized pause; a full one suggests
        the whole deadline (by then today's backlog has either drained or
        been shed).  Clamped to [0.1, deadline].
        """
        with self._lock:
            occupancy = len(self._entries) / self.depth if self.depth else 1.0
        return min(max(0.1, occupancy * self.deadline), self.deadline)

    def close(self) -> list[AdmissionTicket]:
        """Refuse further offers and hand back whatever was still queued."""
        now = self._timefunc()
        with self._lock:
            self._closed = True
            drained = [
                AdmissionTicket(
                    item=item,
                    enqueued_at=enqueued_at,
                    waited=now - enqueued_at,
                    expired=True,
                )
                for item, enqueued_at in self._entries
            ]
            self._entries.clear()
            self._set_gauge_locked()
            for wake in self._sleepers:
                wake.release()
            self._sleepers.clear()
        return drained

    def _set_gauge_locked(self) -> None:
        if self._depth_gauge is not None:
            self._depth_gauge.set(len(self._entries))
