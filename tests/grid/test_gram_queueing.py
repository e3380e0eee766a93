"""GRAM execution slots: queueing, FIFO activation, queue-time proxy decay."""

import pytest

from repro.grid.gram import JobSpec, JobState
from repro.pki.proxy import create_proxy

PASS = "correct horse 42"


@pytest.fixture()
def slotted(tb, key_pool, clock):
    tb.gram.max_slots = 2
    alice = tb.new_user("alice")
    proxy = create_proxy(alice.credential, lifetime=7200, key_source=key_pool,
                         clock=clock)
    return tb, alice, proxy


def submit(tb, proxy, clock, duration=100.0, **kwargs):
    with tb.gram_client(proxy) as gram:
        return gram.submit(JobSpec(duration=duration, **kwargs),
                           delegate_from=proxy, clock=clock)


class TestSlots:
    def test_excess_jobs_queue(self, slotted, clock):
        tb, _, proxy = slotted
        ids = [submit(tb, proxy, clock) for _ in range(4)]
        states = [tb.gram.job(i).state for i in ids]
        assert states == [JobState.ACTIVE, JobState.ACTIVE,
                          JobState.PENDING, JobState.PENDING]

    def test_fifo_activation_as_slots_free(self, slotted, clock):
        tb, _, proxy = slotted
        ids = [submit(tb, proxy, clock, duration=100.0) for _ in range(4)]
        tb.gram.stop()  # this test reads what its own polls change: no sweep may race them
        clock.advance(101)
        changed = tb.gram.poll_jobs()
        # Two completed, two activated — in submission order.
        assert set(changed) == set(ids)
        assert tb.gram.job(ids[0]).state is JobState.DONE
        assert tb.gram.job(ids[2]).state is JobState.ACTIVE
        assert tb.gram.job(ids[3]).state is JobState.ACTIVE
        clock.advance(101)
        tb.gram.poll_jobs()
        assert tb.gram.job(ids[3]).state is JobState.DONE

    def test_queued_job_reports_queue_detail(self, slotted, clock):
        tb, _, proxy = slotted
        submit(tb, proxy, clock)
        submit(tb, proxy, clock)
        third = submit(tb, proxy, clock)
        with tb.gram_client(proxy) as gram:
            status = gram.status(third)
        assert status["state"] == "pending"
        assert "queued" in status["detail"]
        assert status["remaining"] == 100.0  # full duration still ahead

    def test_queue_time_eats_credential_lifetime(self, slotted, key_pool, clock):
        """A proxy can die *in the queue* — the §6.6 problem starts before
        the job even runs."""
        tb, _, proxy = slotted
        short = create_proxy(proxy, lifetime=300, key_source=key_pool, clock=clock)
        submit(tb, proxy, clock, duration=1000.0)
        submit(tb, proxy, clock, duration=1000.0)
        with tb.gram_client(short) as gram:
            queued = gram.submit(JobSpec(duration=50.0), delegate_from=short,
                                 lifetime=300, clock=clock)
        assert tb.gram.job(queued).state is JobState.PENDING
        clock.advance(400)  # still queued; its proxy is now dead
        tb.gram.poll_jobs()
        record = tb.gram.job(queued)
        assert record.state is JobState.FAILED
        assert "in the queue" in record.detail

    def test_refresh_while_queued_saves_the_job(self, slotted, key_pool, clock):
        tb, _, proxy = slotted
        submit(tb, proxy, clock, duration=1000.0)
        submit(tb, proxy, clock, duration=1000.0)
        short = create_proxy(proxy, lifetime=300, key_source=key_pool, clock=clock)
        with tb.gram_client(short) as gram:
            queued = gram.submit(JobSpec(duration=50.0), delegate_from=short,
                                 lifetime=300, clock=clock)
        clock.advance(200)
        fresh = create_proxy(proxy, lifetime=3600, key_source=key_pool, clock=clock)
        with tb.gram_client(fresh) as gram:
            gram.refresh(queued, fresh, clock=clock)
        clock.advance(900)  # first two jobs finish; queued one activates
        tb.gram.poll_jobs()
        assert tb.gram.job(queued).state is JobState.ACTIVE
        clock.advance(51)
        tb.gram.poll_jobs()
        assert tb.gram.job(queued).state is JobState.DONE

    def test_cancel_while_queued(self, slotted, clock):
        tb, _, proxy = slotted
        submit(tb, proxy, clock)
        submit(tb, proxy, clock)
        queued = submit(tb, proxy, clock)
        with tb.gram_client(proxy) as gram:
            assert gram.cancel(queued) == "cancelled"
        # A cancelled queued job never takes a slot.
        clock.advance(101)
        tb.gram.poll_jobs()
        assert tb.gram.job(queued).state is JobState.CANCELLED

    def test_unlimited_slots_by_default(self, tb, key_pool, clock):
        alice = tb.new_user("alice")
        proxy = create_proxy(alice.credential, key_source=key_pool, clock=clock)
        ids = [submit(tb, proxy, clock) for _ in range(5)]
        assert all(tb.gram.job(i).state is JobState.ACTIVE for i in ids)
