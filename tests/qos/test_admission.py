"""The bounded admission queue (repro.qos.admission)."""

import threading
import time

import pytest

from repro.qos.admission import AdmissionQueue
from tests.qos.test_bucket import FakeTime


class TestOfferTake:
    def test_fifo_order_and_waited(self):
        t = FakeTime()
        q = AdmissionQueue(4, deadline=10.0, timefunc=t)
        assert q.offer("a")
        t.advance(1.0)
        assert q.offer("b")
        t.advance(1.0)
        first = q.take(timeout=0.0)
        assert first.item == "a"
        assert first.waited == pytest.approx(2.0)
        assert not first.expired
        assert q.take(timeout=0.0).item == "b"

    def test_full_queue_refuses(self):
        q = AdmissionQueue(2, deadline=1.0, timefunc=FakeTime())
        assert q.offer(1) and q.offer(2)
        assert not q.offer(3)
        assert len(q) == 2

    def test_overdue_ticket_is_marked_expired(self):
        t = FakeTime()
        q = AdmissionQueue(4, deadline=0.5, timefunc=t)
        q.offer("stale")
        t.advance(0.6)
        ticket = q.take(timeout=0.0)
        assert ticket.expired
        assert ticket.waited == pytest.approx(0.6)

    def test_depth_gauge_tracks_occupancy(self):
        class G:
            value = None

            def set(self, v):
                self.value = v

        gauge = G()
        q = AdmissionQueue(4, deadline=1.0, timefunc=FakeTime(), depth_gauge=gauge)
        q.offer(1)
        q.offer(2)
        assert gauge.value == 2
        q.take(timeout=0.0)
        assert gauge.value == 1


class TestDepthZero:
    """depth=0 = the old drop-on-accept: admit only if a worker is idle."""

    def test_refuses_with_no_waiter(self):
        q = AdmissionQueue(0, deadline=1.0, timefunc=FakeTime())
        assert not q.offer("x")

    def test_hands_off_to_a_waiting_consumer(self):
        q = AdmissionQueue(0, deadline=1.0)
        got = []
        waiting = threading.Event()

        def consume():
            waiting.set()
            got.append(q.take(timeout=5.0))

        worker = threading.Thread(target=consume, daemon=True)
        worker.start()
        waiting.wait(timeout=5.0)
        # Spin briefly: the consumer registers as a waiter inside take().
        deadline_evt = threading.Event()
        for _ in range(500):
            if q.offer("handoff"):
                break
            deadline_evt.wait(0.01)
        worker.join(timeout=5.0)
        assert got and got[0].item == "handoff"


class TestWakeOrder:
    def test_an_offer_wakes_the_newest_sleeper(self):
        # Work goes to the consumer that went idle last, so a pool larger
        # than the load keeps its other workers asleep.
        q = AdmissionQueue(8, deadline=5.0)
        served = []

        def consume(name):
            ticket = q.take(timeout=None)
            if ticket is not None:
                served.append((name, ticket.item))

        threads = []
        for name in "abc":
            threads.append(threading.Thread(target=consume, args=(name,), daemon=True))
            threads[-1].start()
            deadline = time.monotonic() + 5.0
            while q._waiters < len(threads) and time.monotonic() < deadline:
                time.sleep(0.001)
        assert q.offer("job")
        threads[-1].join(timeout=5.0)
        assert served == [("c", "job")]
        q.close()  # wakes the others with nothing to take
        for thread in threads:
            thread.join(timeout=5.0)
        assert served == [("c", "job")]
        assert not any(thread.is_alive() for thread in threads)


class TestSweeping:
    def test_pop_expired_removes_only_overdue(self):
        t = FakeTime()
        q = AdmissionQueue(8, deadline=1.0, timefunc=t)
        q.offer("old")
        t.advance(2.0)
        q.offer("fresh")
        expired = q.pop_expired()
        assert [e.item for e in expired] == ["old"]
        assert all(e.expired for e in expired)
        assert len(q) == 1  # "fresh" still queued

    def test_close_drains_remainder_as_expired(self):
        t = FakeTime()
        q = AdmissionQueue(8, deadline=1.0, timefunc=t)
        q.offer("a")
        q.offer("b")
        drained = q.close()
        assert [d.item for d in drained] == ["a", "b"]
        assert not q.offer("c")  # closed
        assert q.take(timeout=0.0) is None


class TestRetryHint:
    def test_scales_with_occupancy_and_clamps(self):
        t = FakeTime()
        q = AdmissionQueue(10, deadline=2.0, timefunc=t)
        assert q.suggest_retry_after() == pytest.approx(0.1)  # empty: floor
        for i in range(10):
            q.offer(i)
        assert q.suggest_retry_after() == pytest.approx(2.0)  # full: deadline

    def test_depth_zero_suggests_the_deadline(self):
        q = AdmissionQueue(0, deadline=0.5, timefunc=FakeTime())
        assert q.suggest_retry_after() == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionQueue(-1, deadline=1.0)
        with pytest.raises(ValueError):
            AdmissionQueue(4, deadline=0.0)
