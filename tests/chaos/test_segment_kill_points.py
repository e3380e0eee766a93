"""Kill the segment engine at every registered site; recovery must hold.

The contract being proven, for a crash at any site of the one durable
write path:

- an **acknowledged** write (the append fsync returned) is never lost;
- an **unacknowledged** write lands old-or-new — a torn tail frame is
  truncated as unacked, never quarantined as corruption;
- a crash anywhere inside compaction leaves the live set identical: the
  rename is the commit point, so before it the inputs are authoritative
  (the orphan ``.tmp`` is discarded) and after it the output is (the
  ``covers=`` header rolls the cleanup forward) — never both, never
  neither, and with no ``segments.wal`` involved;
- reopening the store (which runs recovery) never raises.

Kills drop unsynced file tails (deterministic page-cache loss), so these
are strictly harsher than a polite process exit.
"""

from __future__ import annotations

import pytest

import json

from repro import faults
from repro.core.framing import encode_frame
from repro.core.segments import put_record
from tests.cluster.conftest import make_plain_entry

# Importing the module registers its sites; enumerate them.
SEG_SITES = faults.kill_points("repo.segment.")
APPEND_SITES = [s for s in SEG_SITES if "compact" not in s]
COMPACT_SITES = [s for s in SEG_SITES if "compact" in s]


def _arm_kill(injector, site):
    injector.arm(faults.FaultPlan([faults.FaultRule("kill", site)], seed=1234))


@pytest.mark.parametrize("site", APPEND_SITES)
class TestKillDuringPut:
    def test_old_or_new_never_corrupt(self, repo_factory, injector, site):
        repo = repo_factory()
        repo.put(make_plain_entry(key_pem=b"old-ciphertext"))

        _arm_kill(injector, site)
        crashed = False
        try:
            repo.put(make_plain_entry(key_pem=b"new-ciphertext"))
        except faults.KillPoint:
            crashed = True
        injector.disarm()
        repo.close()

        reopened = repo_factory(faulty=False)
        entry = reopened.get("alice", "default")
        assert entry.key_pem in (b"old-ciphertext", b"new-ciphertext")
        if not crashed:
            assert entry.key_pem == b"new-ciphertext"
        # A torn tail is truncated as unacked, never quarantined.
        assert reopened.quarantined() == []
        assert reopened.stats.get("corruption_detected") == 0

    def test_acked_writes_survive_crashed_later_write(
        self, repo_factory, injector, site
    ):
        repo = repo_factory()
        doomed = make_plain_entry("alice", "doomed", key_pem=b"doomed?")
        frame = len(encode_frame(
            put_record("alice", "doomed", doomed.to_json())
        ))
        # Fill the active segment exactly, so the doomed write has to seal
        # it and roll: it crosses every append-path site, seal included.
        acked = 0
        while repo._active.size + frame <= repo.segment_max_bytes:
            repo.put(make_plain_entry("alice", f"acked{acked}", key_pem=b"precious"))
            acked += 1

        _arm_kill(injector, site)
        with pytest.raises(faults.KillPoint):
            repo.put(doomed)
        injector.disarm()
        repo.close()

        reopened = repo_factory(faulty=False)
        for i in range(acked):
            assert reopened.get("alice", f"acked{i}").key_pem == b"precious"
        assert reopened.quarantined() == []


@pytest.mark.parametrize("site", APPEND_SITES)
class TestKillDuringDelete:
    def test_gone_or_intact(self, repo_factory, injector, site):
        repo = repo_factory()
        repo.put(make_plain_entry(key_pem=b"to-be-deleted"))

        _arm_kill(injector, site)
        crashed = False
        try:
            repo.delete("alice", "default")
        except faults.KillPoint:
            crashed = True
        injector.disarm()
        repo.close()

        reopened = repo_factory(faulty=False)
        names = {e.cred_name for e in reopened.list_for("alice")}
        if not crashed:
            assert names == set()  # acked tombstone: gone for good
        elif "default" in names:
            assert reopened.get("alice", "default").key_pem == b"to-be-deleted"
        assert reopened.quarantined() == []


@pytest.mark.parametrize("site", COMPACT_SITES)
class TestKillDuringCompaction:
    def _loaded(self, repo_factory):
        repo = repo_factory()
        expected = {}
        for i in range(12):
            repo.put(make_plain_entry("alice", f"c{i}", key_pem=b"v1-%d" % i))
            expected[f"c{i}"] = b"v1-%d" % i
        for i in range(0, 12, 2):  # dead bytes: overwrites…
            repo.put(make_plain_entry("alice", f"c{i}", key_pem=b"v2-%d" % i))
            expected[f"c{i}"] = b"v2-%d" % i
        repo.delete("alice", "c11")  # …and a tombstone
        del expected["c11"]
        return repo, expected

    def test_live_set_identical_after_crash(self, repo_factory, injector, site, tmp_path):
        repo, expected = self._loaded(repo_factory)

        _arm_kill(injector, site)
        try:
            repo.compact()
        except faults.KillPoint:
            pass
        injector.disarm()
        repo.close()

        reopened = repo_factory(faulty=False)
        got = {e.cred_name: e.key_pem for e in reopened.list_for("alice")}
        assert got == expected
        assert reopened.quarantined() == []
        assert reopened.stats.get("corruption_detected") == 0
        assert not (tmp_path / "store" / "segments.wal").exists()

    def test_no_debris_after_recovery(self, repo_factory, injector, site, tmp_path):
        repo, expected = self._loaded(repo_factory)
        _arm_kill(injector, site)
        try:
            repo.compact()
        except faults.KillPoint:
            pass
        injector.disarm()
        repo.close()

        reopened = repo_factory(faulty=False)
        reopened.close()
        root = tmp_path / "store"
        assert list(root.glob("seg-*.mps"))
        # Recovery either rolled the compaction forward or discarded it:
        # no orphaned temp outputs, no superseded inputs left behind.
        assert not list(root.glob("*.tmp"))
        live = sorted(p.name for p in root.glob("seg-*.mps"))
        compacted = [n for n in live if ".c" in n]
        if compacted:
            # Output present → every input it covers must be gone; any
            # plain segment still on disk must be newer than the coverage
            # (the active tail rolled after the compaction was cut).
            import re

            assert len(compacted) == 1
            covered_max = int(
                re.match(r"seg-(\d{8})\.c\d+\.mps", compacted[0]).group(1)
            )
            for name in (n for n in live if ".c" not in n):
                assert int(re.match(r"seg-(\d{8})", name).group(1)) > covered_max


def _crash_compaction(repo_factory, injector, site):
    """Ten overwritten entries, then die at ``site`` inside ``compact()``.

    ``compact_ratio=0`` keeps the automatic trigger out of the way, so the
    explicit call is the only compaction the store has ever seen.
    """
    repo = repo_factory(compact_ratio=0)
    for i in range(10):
        repo.put(make_plain_entry("alice", f"c{i}", key_pem=b"x-%d" % i))
    for i in range(10):
        repo.put(make_plain_entry("alice", f"c{i}", key_pem=b"y-%d" % i))
    _arm_kill(injector, site)
    with pytest.raises(faults.KillPoint):
        repo.compact()
    injector.disarm()
    repo.close()


def _assert_latest(repo):
    for i in range(10):
        assert repo.get("alice", f"c{i}").key_pem == b"y-%d" % i
    assert repo.quarantined() == []


class TestRenameIsTheCommitPoint:
    def test_crash_before_rename_discards_the_output(
        self, repo_factory, injector, tmp_path
    ):
        _crash_compaction(repo_factory, injector, "repo.segment.compact.pre_rename")
        assert list((tmp_path / "store").glob("*.mps.tmp"))  # fsynced, unnamed

        reopened = repo_factory(faulty=False, compact_ratio=0)
        _assert_latest(reopened)
        # The compaction never happened: inputs intact, no output.
        assert all(seg["gen"] == 0 for seg in reopened.segment_info())
        assert not list((tmp_path / "store").glob("*.tmp"))

    def test_crash_after_rename_rolls_forward_from_covers(
        self, repo_factory, injector, tmp_path
    ):
        _crash_compaction(repo_factory, injector, "repo.segment.compact.renamed")
        before = {p.name for p in (tmp_path / "store").glob("seg-*.mps")}

        reopened = repo_factory(faulty=False, compact_ratio=0)
        _assert_latest(reopened)
        info = reopened.segment_info()
        [output] = [seg for seg in info if seg["gen"] > 0]
        # Every covered input the crash left behind is gone.
        assert all(seg["id"] > output["id"] for seg in info if seg["gen"] == 0)
        after = {p.name for p in (tmp_path / "store").glob("seg-*.mps")}
        assert before - after  # recovery did remove leftover inputs


class TestLegacyCompactionWal:
    """Stores written before the redo log was dropped may hold a
    ``segments.wal`` with an uncommitted compact op.  It is ignored —
    ``covers=`` (or the orphan rule) already decides — and removed."""

    @pytest.mark.parametrize(
        "site",
        ["repo.segment.compact.pre_rename", "repo.segment.compact.renamed"],
    )
    def test_pending_compact_op_opens_to_same_entries(
        self, repo_factory, injector, tmp_path, site
    ):
        _crash_compaction(repo_factory, injector, site)
        root = tmp_path / "store"
        [output] = [
            p.name.removesuffix(".tmp") for p in root.glob("seg-*.c1.mps*")
            if not p.name.endswith(".idx")
        ]
        out_id = int(output[len("seg-"):len("seg-") + 8])
        op = {
            "txid": 1, "op": "compact", "username": "", "cred_name": "",
            "document": json.dumps({"output": output, "covers": [0, out_id]}),
        }
        wal = root / "segments.wal"
        wal.write_bytes(encode_frame(json.dumps(op, sort_keys=True).encode()))

        reopened = repo_factory(faulty=False, compact_ratio=0)
        _assert_latest(reopened)
        assert reopened.count() == 10
        assert not wal.exists()
        assert not list(root.glob("*.tmp"))


class TestRecoveryCounters:
    def test_clean_reopen_counts_nothing(self, repo_factory):
        repo = repo_factory(faulty=False)
        repo.put(make_plain_entry())
        repo.close()
        reopened = repo_factory(faulty=False)
        snap = reopened.stats.snapshot()
        assert snap["corruption_detected"] == 0
        assert snap["quarantined"] == 0
        assert snap["recoveries"] == 1  # the reopen itself was timed
