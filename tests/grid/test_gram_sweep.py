"""GRAM advances its jobs on the listener's tick, with no client asking.

The service's listener calls :meth:`GramService.sweep` (its ``poll_jobs``)
once per tick, whether its clients dial it in process (the default
transport) or over TCP, so §6.6's failure — a job whose delegated proxy
expires before it finishes — is recorded even if nobody polls.
"""

import pytest

from repro.grid.gram import JobSpec, JobState
from repro.pki.proxy import create_proxy
from repro.testbed import GridTestbed
from repro.transport.listener import _TICK
from repro.util.concurrency import wait_for


@pytest.mark.parametrize("transport", ["pipe", "tcp"])
def test_expired_job_proxy_fails_the_job_unprompted(clock, key_pool, transport):
    with GridTestbed(transport=transport, clock=clock, key_source=key_pool) as tb:
        alice = tb.new_user("alice")
        proxy = create_proxy(alice.credential, lifetime=7200, key_source=key_pool, clock=clock)
        short = create_proxy(proxy, lifetime=600, key_source=key_pool, clock=clock)
        with tb.gram_client(short) as gram:
            job_id = gram.submit(
                JobSpec(duration=7200), delegate_from=short, lifetime=600, clock=clock
            )
        assert tb.gram.job(job_id).state is JobState.ACTIVE

        clock.advance(1200)  # the proxy died at 600 s; the job needs 7200 s
        wait_for(
            lambda: tb.gram.job(job_id).state is JobState.FAILED,
            timeout=2 * _TICK + 0.1,
            message="the listener's sweep to fail the job",
        )
        assert "expired" in tb.gram.job(job_id).detail
