"""Disk misbehavior (not crashes): errors, tears, lost fsyncs, bit rot."""

from __future__ import annotations

import pytest

from repro import faults
from repro.obs import MetricsRegistry
from repro.obs.prometheus import render_prometheus
from repro.util.errors import NotFoundError, RepositoryError
from tests.cluster.conftest import make_plain_entry


def _arm(injector, kind, site, **kw):
    injector.arm(
        faults.FaultPlan([faults.FaultRule(kind, site, **kw)], seed=99)
    )


def _rot_record(repo, username, cred_name):
    """Flip one byte of a record *under the live index* (no reopen)."""
    segkey, offset, length = repo._index[(username, cred_name)]
    with open(repo._segments[segkey].path, "r+b") as fh:
        fh.seek(offset + length // 2)
        byte = fh.read(1)
        fh.seek(offset + length // 2)
        fh.write(bytes([byte[0] ^ 0xFF]))


class TestWriteErrors:
    @pytest.mark.parametrize("kind", ["eio", "enospc"])
    @pytest.mark.parametrize("site", ["repo.segment.write", "repo.segment.fsync"])
    def test_failed_put_fails_cleanly_and_keeps_old(
        self, repo_factory, injector, kind, site
    ):
        repo = repo_factory()
        repo.put(make_plain_entry(key_pem=b"old"))
        _arm(injector, kind, site)
        with pytest.raises(RepositoryError):
            repo.put(make_plain_entry(key_pem=b"new"))
        injector.disarm()
        # The repository survives the error in-process: the old entry is
        # still served and the next put goes through.
        assert repo.get("alice", "default").key_pem == b"old"
        repo.put(make_plain_entry(key_pem=b"after"))
        assert repo.get("alice", "default").key_pem == b"after"

    def test_failed_delete_fails_cleanly_and_keeps_entry(
        self, repo_factory, injector
    ):
        repo = repo_factory()
        repo.put(make_plain_entry(key_pem=b"kept"))
        _arm(injector, "eio", "repo.segment.write")
        with pytest.raises(RepositoryError):
            repo.delete("alice", "default")
        injector.disarm()
        assert repo.get("alice", "default").key_pem == b"kept"

    def test_short_write_does_not_shadow_later_records(
        self, repo_factory, injector
    ):
        repo = repo_factory()
        _arm(injector, "short", "repo.segment.write")
        with pytest.raises(RepositoryError):
            repo.put(make_plain_entry(key_pem=b"torn-away"))
        injector.disarm()
        # The partial frame was trimmed, so the next (acknowledged) put's
        # record is readable by recovery instead of hiding behind garbage.
        repo.put(make_plain_entry(key_pem=b"must-survive"))
        repo.close()
        reopened = repo_factory(faulty=False)
        assert reopened.get("alice", "default").key_pem == b"must-survive"
        assert reopened.quarantined() == []
        assert reopened.stats.get("corruption_detected") == 0


class TestTornAppend:
    def test_torn_append_is_truncated_at_recovery(self, repo_factory, injector):
        repo = repo_factory()
        repo.put(make_plain_entry("alice", "safe", key_pem=b"safe"))
        _arm(injector, "torn", "repo.segment.write")
        with pytest.raises(faults.KillPoint):
            repo.put(make_plain_entry("alice", "torn", key_pem=b"torn"))
        injector.disarm()
        repo.close()

        reopened = repo_factory(faulty=False)
        # the torn (never-acked) op simply never happened
        assert reopened.get("alice", "safe").key_pem == b"safe"
        with pytest.raises(NotFoundError):
            reopened.get("alice", "torn")
        assert reopened.quarantined() == []


class TestLostFsync:
    def test_lost_fsync_then_crash_rolls_back(self, repo_factory, injector):
        # fsync silently does nothing, then the process dies at the next
        # site: the unsynced record evaporates (page-cache loss), and
        # recovery must roll back to the pre-op state.
        repo = repo_factory()
        repo.put(make_plain_entry(key_pem=b"old"))
        injector.arm(
            faults.FaultPlan(
                [
                    faults.FaultRule("lost_fsync", "repo.segment.fsync"),
                    faults.FaultRule("kill", "repo.segment.append.synced"),
                ],
                seed=5,
            )
        )
        with pytest.raises(faults.KillPoint):
            repo.put(make_plain_entry(key_pem=b"vanishes"))
        injector.disarm()
        repo.close()

        reopened = repo_factory(faulty=False)
        assert reopened.get("alice", "default").key_pem == b"old"
        assert reopened.quarantined() == []


class TestBitRot:
    def test_get_quarantines_and_raises(self, repo_factory):
        repo = repo_factory(faulty=False)
        repo.put(make_plain_entry())
        repo._cache.clear()
        _rot_record(repo, "alice", "default")
        with pytest.raises(RepositoryError, match="quarantined"):
            repo.get("alice", "default")
        assert repo.stats.get("corruption_detected") == 1
        assert repo.stats.get("quarantined") == 1
        [item] = repo.quarantined()
        assert (item.username, item.cred_name) == ("alice", "default")

    def test_listing_surfaces_instead_of_skipping(self, repo_factory):
        # An unreadable record is quarantined (and thus reported) the
        # moment a listing touches it — never silently ignored.
        repo = repo_factory(faulty=False)
        repo.put(make_plain_entry("alice", "good", key_pem=b"fine"))
        repo.put(make_plain_entry("alice", "rotten", key_pem=b"doomed"))
        repo._cache.clear()
        _rot_record(repo, "alice", "rotten")

        with pytest.raises(RepositoryError, match="quarantined"):
            repo.list_for("alice")
        assert [e.cred_name for e in repo.list_for("alice")] == ["good"]
        [item] = repo.quarantined()
        assert item.cred_name == "rotten"

    def test_reopen_quarantines_at_recovery(self, repo_factory):
        repo = repo_factory(faulty=False)
        repo.put(make_plain_entry())
        _rot_record(repo, "alice", "default")
        repo._active_crc = None  # the rot happened behind the engine's back
        repo.close()
        reopened = repo_factory(faulty=False)
        assert reopened.stats.get("quarantined") == 1
        with pytest.raises(NotFoundError):
            reopened.get("alice", "default")

    def test_scrub_reports_and_clear_quarantine_forgets(self, repo_factory):
        repo = repo_factory(faulty=False)
        repo.put(make_plain_entry())
        _rot_record(repo, "alice", "default")
        summary = repo.scrub()
        assert summary["quarantined_now"] == 1
        assert summary["quarantined_total"] == 1
        # after a repair (re-store), the quarantine record can be dropped
        repo.put(make_plain_entry(key_pem=b"restored"))
        assert repo.clear_quarantine("alice", "default") == 1
        assert repo.quarantined() == []
        assert repo.get("alice", "default").key_pem == b"restored"


class TestMetricsPublication:
    def test_counters_transfer_and_mirror(self, repo_factory):
        repo = repo_factory(faulty=False)
        repo.put(make_plain_entry())
        repo._cache.clear()
        _rot_record(repo, "alice", "default")
        with pytest.raises(RepositoryError):
            repo.get("alice", "default")

        registry = MetricsRegistry()
        repo.publish_metrics(registry)
        text = render_prometheus(registry)
        assert "myproxy_storage_corruption_detected_total 1" in text
        assert "myproxy_recovery_seconds_count 1" in text
        # post-publication increments land in the registry too
        repo.scrub()
        assert "myproxy_recovery_seconds_count 2" in render_prometheus(registry)
