"""The GRAM-like job service: gatekeeper rules, delegation, job lifecycle."""

import pytest

from repro.grid.gram import JobSpec, JobState
from repro.pki.proxy import create_proxy
from repro.util.errors import AuthorizationError

PASS = "correct horse 42"


@pytest.fixture()
def grid(tb, key_pool, clock):
    alice = tb.new_user("alice")
    proxy = create_proxy(alice.credential, lifetime=7200, key_source=key_pool, clock=clock)
    return tb, alice, proxy


class TestSubmission:
    def test_submit_returns_job_id(self, grid):
        tb, _, proxy = grid
        with tb.gram_client(proxy) as gram:
            job_id = gram.submit(JobSpec(duration=60), delegate_from=proxy, clock=tb.clock)
        assert job_id.startswith("job-")
        assert tb.gram.job(job_id).state is JobState.ACTIVE

    def test_job_holds_delegated_credential(self, grid):
        tb, alice, proxy = grid
        with tb.gram_client(proxy) as gram:
            job_id = gram.submit(JobSpec(), delegate_from=proxy, clock=tb.clock)
        record = tb.gram.job(job_id)
        assert record.credential is not None
        assert record.credential.identity == alice.dn
        assert record.credential.proxy_depth == 2  # user → proxy → job

    def test_limited_proxy_cannot_submit(self, grid, key_pool, clock):
        """The classic gatekeeper refusal."""
        tb, _, proxy = grid
        limited = create_proxy(proxy, limited=True, key_source=key_pool, clock=clock)
        with tb.gram_client(limited) as gram:
            with pytest.raises(AuthorizationError, match="limited"):
                gram.submit(JobSpec(), delegate_from=limited, clock=clock)

    def test_unmapped_user_cannot_submit(self, tb, key_pool, clock):
        from repro.pki.names import DistinguishedName

        stranger = tb.ca.issue_credential(
            DistinguishedName.grid_user("Grid", "Repro", "Stranger"),
            key=key_pool.new_key(),
        )
        with tb.gram_client(stranger) as gram:
            with pytest.raises(AuthorizationError, match="gridmap"):
                gram.submit(JobSpec(), delegate_from=stranger, clock=clock)

    def test_delegation_required_by_default(self, grid):
        tb, _, proxy = grid
        with tb.gram_client(proxy) as gram:
            with pytest.raises(AuthorizationError, match="delegation"):
                gram.submit(JobSpec(), delegate_from=None)

    def test_bad_spec_refused(self, grid):
        tb, _, proxy = grid
        with tb.gram_client(proxy) as gram:
            with pytest.raises(AuthorizationError):
                gram.submit(JobSpec(kind="mine-bitcoin"), delegate_from=proxy, clock=tb.clock)


class TestLifecycle:
    def test_job_completes_after_duration(self, grid, clock):
        tb, _, proxy = grid
        with tb.gram_client(proxy) as gram:
            job_id = gram.submit(JobSpec(duration=100), delegate_from=proxy, clock=clock)
        tb.gram.stop()  # this test reads what its own polls change: no sweep may race them
        assert tb.gram.poll_jobs() == []  # not finished yet
        clock.advance(101)
        assert tb.gram.poll_jobs() == [job_id]
        assert tb.gram.job(job_id).state is JobState.DONE

    def test_compute_store_writes_result_as_user(self, grid, clock):
        """§2.4's example: the job stores its result with the user's identity."""
        tb, alice, proxy = grid
        spec = JobSpec(kind="compute-store", duration=50, output_path="out/run.dat",
                       output_size=2048)
        with tb.gram_client(proxy) as gram:
            job_id = gram.submit(spec, delegate_from=proxy, clock=clock)
        clock.advance(51)
        tb.gram.poll_jobs()
        assert tb.gram.job(job_id).state is JobState.DONE
        data = tb.storage.file_bytes("alice", "out/run.dat")
        assert len(data) == 2048 and job_id.encode() in data

    def test_job_fails_if_proxy_expires_first(self, grid, clock, key_pool):
        """§6.6's problem statement, reproduced."""
        tb, _, proxy = grid
        short = create_proxy(proxy, lifetime=600, key_source=key_pool, clock=clock)
        with tb.gram_client(short) as gram:
            job_id = gram.submit(
                JobSpec(duration=7200), delegate_from=short, lifetime=600, clock=clock
            )
        clock.advance(1200)  # proxy died at 600s; job needs 7200s
        tb.gram.poll_jobs()
        record = tb.gram.job(job_id)
        assert record.state is JobState.FAILED
        assert "expired" in record.detail

    def test_cancel(self, grid, clock):
        tb, _, proxy = grid
        with tb.gram_client(proxy) as gram:
            job_id = gram.submit(JobSpec(duration=1000), delegate_from=proxy, clock=clock)
            assert gram.cancel(job_id) == "cancelled"
        clock.advance(2000)
        tb.gram.poll_jobs()
        assert tb.gram.job(job_id).state is JobState.CANCELLED


class TestStatusAndOwnership:
    def test_status_visible_to_owner(self, grid, clock):
        tb, _, proxy = grid
        with tb.gram_client(proxy) as gram:
            job_id = gram.submit(JobSpec(duration=500), delegate_from=proxy, clock=clock)
            status = gram.status(job_id)
        assert status["state"] == "active"
        assert status["remaining"] == pytest.approx(500, abs=5)
        assert status["credential_seconds_left"] > 0

    def test_other_users_cannot_see_or_cancel(self, grid, key_pool, clock):
        tb, _, proxy = grid
        with tb.gram_client(proxy) as gram:
            job_id = gram.submit(JobSpec(), delegate_from=proxy, clock=clock)
        eve = tb.new_user("eve")
        eve_proxy = create_proxy(eve.credential, key_source=key_pool, clock=clock)
        with tb.gram_client(eve_proxy) as gram:
            with pytest.raises(AuthorizationError, match="not your job"):
                gram.status(job_id)
            with pytest.raises(AuthorizationError, match="not your job"):
                gram.cancel(job_id)

    def test_list_shows_only_own_jobs(self, grid, key_pool, clock):
        tb, _, proxy = grid
        bob = tb.new_user("bobby")
        bob_proxy = create_proxy(bob.credential, key_source=key_pool, clock=clock)
        with tb.gram_client(proxy) as gram:
            gram.submit(JobSpec(), delegate_from=proxy, clock=clock)
        with tb.gram_client(bob_proxy) as gram:
            assert gram.list_jobs() == []


class TestRefresh:
    def test_refresh_extends_job_credential(self, grid, clock, key_pool):
        tb, _, proxy = grid
        short = create_proxy(proxy, lifetime=600, key_source=key_pool, clock=clock)
        with tb.gram_client(short) as gram:
            job_id = gram.submit(
                JobSpec(duration=2000), delegate_from=short, lifetime=600, clock=clock
            )
        clock.advance(500)
        fresh = create_proxy(proxy, lifetime=3600, key_source=key_pool, clock=clock)
        with tb.gram_client(fresh) as gram:
            left = gram.refresh(job_id, fresh, clock=clock)
        assert left > 2000
        clock.advance(1600)  # job finishes at 2000s with the fresh credential
        tb.gram.poll_jobs()
        assert tb.gram.job(job_id).state is JobState.DONE
        assert tb.gram.job(job_id).renewals == 1

    def test_refresh_by_other_identity_refused(self, grid, clock, key_pool):
        tb, _, proxy = grid
        with tb.gram_client(proxy) as gram:
            job_id = gram.submit(JobSpec(duration=2000), delegate_from=proxy, clock=clock)
        eve = tb.new_user("eve2")
        eve_proxy = create_proxy(eve.credential, key_source=key_pool, clock=clock)
        with tb.gram_client(eve_proxy) as gram:
            with pytest.raises(AuthorizationError):
                gram.refresh(job_id, eve_proxy, clock=clock)

    def test_refresh_finished_job_refused(self, grid, clock):
        tb, _, proxy = grid
        with tb.gram_client(proxy) as gram:
            job_id = gram.submit(JobSpec(duration=10), delegate_from=proxy, clock=clock)
        clock.advance(11)
        tb.gram.poll_jobs()
        with tb.gram_client(proxy) as gram:
            with pytest.raises(AuthorizationError, match="not refreshable"):
                gram.refresh(job_id, proxy, clock=clock)
