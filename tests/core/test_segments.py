"""The packed segment-file storage engine (DESIGN.md §6.3).

Covers the CredentialRepository contract on segments, index rebuild on
reopen, compaction correctness (latest-wins, tombstones dropped, inputs
removed), the hot-entry cache, torn-tail/bit-rot recovery semantics
(quarantine-never-skip), and snapshot stream/ingest round-trips.
"""

from __future__ import annotations

import pytest

import os
import shutil

from repro.core import segments
from repro.core.framing import encode_frame
from repro.core.segments import (
    SegmentRepository,
    _sidecar_path,
    write_backend_marker,
)
from repro.util.errors import NotFoundError, RepositoryError
from tests.cluster.conftest import make_plain_entry


@pytest.fixture()
def repo_factory(tmp_path):
    repos = []

    def _open(**kwargs) -> SegmentRepository:
        kwargs.setdefault("segment_max_bytes", 8192)
        repo = SegmentRepository(tmp_path / "store", **kwargs)
        repos.append(repo)
        return repo

    yield _open
    for repo in repos:
        repo.close()


class TestContract:
    def test_put_get_delete_list_count(self, repo_factory):
        repo = repo_factory()
        for i in range(10):
            repo.put(make_plain_entry("alice", f"c{i}", key_pem=b"ct-%d" % i))
        repo.put(make_plain_entry("bob", "default"))
        assert repo.count() == 11
        assert repo.usernames() == ["alice", "bob"]
        assert repo.get("alice", "c3").key_pem == b"ct-3"
        assert [e.cred_name for e in repo.list_for("alice")] == [
            f"c{i}" for i in range(10)
        ]
        assert repo.delete("alice", "c3") is True
        assert repo.delete("alice", "c3") is False
        assert repo.count() == 10
        with pytest.raises(NotFoundError):
            repo.get("alice", "c3")

    def test_overwrite_takes_latest(self, repo_factory):
        repo = repo_factory()
        repo.put(make_plain_entry(key_pem=b"v1"))
        repo.put(make_plain_entry(key_pem=b"v2"))
        assert repo.count() == 1
        assert repo.get("alice", "default").key_pem == b"v2"

    def test_entries_round_trip_every_field(self, repo_factory):
        repo = repo_factory()
        entry = make_plain_entry("alice", "full")
        repo.put(entry)
        assert repo.get("alice", "full").to_json() == entry.to_json()

    def test_delete_last_credential_removes_username(self, repo_factory):
        repo = repo_factory()
        repo.put(make_plain_entry("carol", "only"))
        repo.delete("carol", "only")
        assert "carol" not in repo.usernames()
        assert repo.list_for("carol") == []


class TestReopen:
    def test_index_rebuilds_identically(self, repo_factory):
        repo = repo_factory()
        for i in range(40):
            repo.put(make_plain_entry("alice", f"c{i}", key_pem=b"ct-%d" % i))
        repo.delete("alice", "c5")
        repo.put(make_plain_entry("alice", "c6", key_pem=b"ct-6-v2"))
        repo.close()

        reopened = repo_factory()
        assert reopened.count() == 39
        assert reopened.get("alice", "c6").key_pem == b"ct-6-v2"
        with pytest.raises(NotFoundError):
            reopened.get("alice", "c5")

    def test_tombstone_survives_reopen(self, repo_factory):
        """A delete acked before a crash stays deleted after recovery."""
        repo = repo_factory()
        repo.put(make_plain_entry(key_pem=b"gone"))
        repo.delete("alice", "default")
        repo.close()
        reopened = repo_factory()
        assert reopened.count() == 0

    def test_active_segment_is_reused_with_headroom(self, repo_factory):
        repo = repo_factory()
        repo.put(make_plain_entry())
        names_before = [s["name"] for s in repo.segment_info()]
        repo.close()
        reopened = repo_factory()
        assert [s["name"] for s in reopened.segment_info()] == names_before


class TestCompaction:
    def test_compaction_drops_dead_bytes_keeps_live(self, repo_factory):
        repo = repo_factory()
        for i in range(30):
            repo.put(make_plain_entry("alice", f"c{i}", key_pem=b"v1-%d" % i))
        for i in range(30):
            repo.put(make_plain_entry("alice", f"c{i}", key_pem=b"v2-%d" % i))
        repo.delete("alice", "c0")
        # Force a full compaction regardless of the ratio trigger state.
        freed = repo.compact()
        assert freed > 0
        assert repo.count() == 29
        for i in range(1, 30):
            assert repo.get("alice", f"c{i}").key_pem == b"v2-%d" % i
        assert repo.stats.get("compactions") >= 1

    def test_compaction_output_survives_reopen(self, repo_factory):
        repo = repo_factory()
        for i in range(30):
            repo.put(make_plain_entry("alice", f"c{i}"))
        for i in range(30):
            repo.put(make_plain_entry("alice", f"c{i}", key_pem=b"newer"))
        repo.compact()
        repo.close()
        reopened = repo_factory()
        assert reopened.count() == 30
        assert reopened.get("alice", "c17").key_pem == b"newer"

    def test_ratio_trigger_fires_automatically(self, repo_factory):
        repo = repo_factory(compact_ratio=0.5)
        # Two full rounds: after the second, most sealed bytes are dead.
        for _ in range(2):
            for i in range(40):
                repo.put(make_plain_entry("alice", f"c{i}"))
        assert repo.stats.get("compactions") >= 1
        assert repo.count() == 40

    def test_compaction_noop_with_single_active_segment(self, repo_factory):
        repo = repo_factory(segment_max_bytes=1 << 20)
        repo.put(make_plain_entry())
        assert repo.compact() == 0


class TestCache:
    def test_hits_and_misses_counted(self, repo_factory):
        repo = repo_factory(cache_entries=2)
        repo.put(make_plain_entry("alice", "a"))
        repo.put(make_plain_entry("alice", "b"))
        repo.get("alice", "a")  # cached by the put already
        assert repo.stats.get("cache_hits") == 1
        info = repo.cache_info()
        assert info["capacity"] == 2
        assert info["hit_rate"] > 0

    def test_lru_evicts_oldest(self, repo_factory):
        repo = repo_factory(cache_entries=2)
        for name in ("a", "b", "c"):
            repo.put(make_plain_entry("alice", name))
        hits_before = repo.stats.get("cache_hits")
        repo.get("alice", "a")  # evicted: must miss and re-read from disk
        assert repo.stats.get("cache_hits") == hits_before
        assert repo.stats.get("cache_misses") >= 1

    def test_delete_invalidates(self, repo_factory):
        repo = repo_factory(cache_entries=8)
        repo.put(make_plain_entry("alice", "a"))
        repo.delete("alice", "a")
        with pytest.raises(NotFoundError):
            repo.get("alice", "a")

    def test_cache_disabled(self, repo_factory):
        repo = repo_factory(cache_entries=0)
        repo.put(make_plain_entry("alice", "a"))
        repo.get("alice", "a")
        assert repo.cache_info()["entries"] == 0


class TestCorruptionHandling:
    def test_torn_tail_truncated_not_quarantined(self, repo_factory, tmp_path):
        repo = repo_factory()
        repo.put(make_plain_entry(key_pem=b"acked"))
        repo.close()
        segs = sorted((tmp_path / "store").glob("seg-*.mps"))
        with open(segs[-1], "ab") as fh:
            fh.write(b"%MPF1 500 12345\npartial-rec")
        reopened = repo_factory()
        assert reopened.get("alice", "default").key_pem == b"acked"
        assert reopened.stats.get("torn_truncated") == 1
        assert reopened.stats.get("quarantined") == 0

    def test_bit_rot_quarantined_with_identity(self, repo_factory, tmp_path):
        repo = repo_factory()
        for i in range(12):
            repo.put(make_plain_entry("alice", f"c{i}"))
        repo.close()
        seg = sorted((tmp_path / "store").glob("seg-*.mps"))[0]
        data = bytearray(seg.read_bytes())
        second = data.find(b"%MPF1", data.find(b"%MPF1", 10) + 5)
        data[second + 60] ^= 0xFF
        seg.write_bytes(bytes(data))

        reopened = repo_factory()
        # Exactly one record lost; the ones behind the damage survive.
        assert reopened.count() == 11
        assert reopened.stats.get("quarantined") == 1
        assert reopened.stats.get("corruption_detected") >= 1
        items = reopened.quarantined()
        assert len(items) == 1
        assert items[0].username == "alice"  # identity recovered for scrub
        assert items[0].cred_name.startswith("c")
        assert "CRC" in items[0].reason

    def test_clear_quarantine(self, repo_factory, tmp_path):
        repo = repo_factory()
        for i in range(12):
            repo.put(make_plain_entry("alice", f"c{i}"))
        repo.close()
        seg = sorted((tmp_path / "store").glob("seg-*.mps"))[0]
        data = bytearray(seg.read_bytes())
        second = data.find(b"%MPF1", data.find(b"%MPF1", 10) + 5)
        data[second + 60] ^= 0xFF
        seg.write_bytes(bytes(data))
        reopened = repo_factory()
        item = reopened.quarantined()[0]
        assert reopened.clear_quarantine(item.username, item.cred_name) == 1
        assert reopened.quarantined() == []

    def test_scrub_requarantines_fresh_rot(self, repo_factory, tmp_path):
        repo = repo_factory(cache_entries=0)
        for i in range(5):
            repo.put(make_plain_entry("alice", f"c{i}"))
        # Rot a record *under the live index* (no reopen): scrub finds it.
        slot = repo._index[("alice", "c2")]
        seg = repo._segments[slot[0]]
        with open(seg.path, "r+b") as fh:
            fh.seek(slot[1] + 40)
            fh.write(b"\xff")
        summary = repo.scrub()
        assert summary["quarantined_now"] == 1
        assert repo.count() == 4
        with pytest.raises(NotFoundError):
            repo.get("alice", "c2")


class TestSnapshot:
    def test_stream_ingest_round_trip(self, repo_factory, tmp_path):
        repo = repo_factory()
        for i in range(25):
            repo.put(make_plain_entry("alice", f"c{i}", key_pem=b"ct-%d" % i))
        repo.delete("alice", "c0")
        chunks = list(repo.stream_snapshot(extra_meta={"source": "n0"}))

        target = SegmentRepository(tmp_path / "replica")
        try:
            assert target.ingest_snapshot(iter(chunks)) == 24
            assert target.count() == 24
            for i in range(1, 25):
                assert target.get("alice", f"c{i}").key_pem == b"ct-%d" % i
        finally:
            target.close()
        assert repo.stats.get("snapshot_shipped") == 24

    def test_ingest_refuses_non_empty_target(self, repo_factory, tmp_path):
        repo = repo_factory()
        repo.put(make_plain_entry())
        chunks = list(repo.stream_snapshot())
        target = SegmentRepository(tmp_path / "replica")
        try:
            target.put(make_plain_entry("bob", "pre-existing"))
            with pytest.raises(RepositoryError, match="empty"):
                target.ingest_snapshot(iter(chunks))
        finally:
            target.close()

    def test_truncated_stream_fails_and_leaves_target_reusable(
        self, repo_factory, tmp_path
    ):
        repo = repo_factory()
        for i in range(10):
            repo.put(make_plain_entry("alice", f"c{i}"))
        chunks = list(repo.stream_snapshot())
        target = SegmentRepository(tmp_path / "replica")
        try:
            with pytest.raises(RepositoryError, match="trailer"):
                target.ingest_snapshot(iter(chunks[:-1]))  # trailer dropped
            # The failed ingest holds no acknowledged data; a retry of the
            # full stream succeeds (latest-wins absorbs the partial files).
            chunks2 = list(repo.stream_snapshot())
            assert target.ingest_snapshot(iter(chunks2)) == 10
            assert target.count() == 10
        finally:
            target.close()

    def test_interrupted_ingest_discarded_on_reopen(self, repo_factory, tmp_path):
        repo = repo_factory()
        for i in range(10):
            repo.put(make_plain_entry("alice", f"c{i}"))
        chunks = list(repo.stream_snapshot())
        target_root = tmp_path / "replica"
        target = SegmentRepository(target_root)
        with pytest.raises(RepositoryError):
            target.ingest_snapshot(iter(chunks[:-1]))
        target.close()
        # Simulates the ingesting process dying: the marker is on disk, so
        # reopening wipes the half-written segments wholesale.
        assert (target_root / "snapshot.partial").exists()
        fresh = SegmentRepository(target_root)
        try:
            assert fresh.count() == 0
            assert not (target_root / "snapshot.partial").exists()
        finally:
            fresh.close()

    def test_corrupt_stream_fails_crc(self, repo_factory, tmp_path):
        repo = repo_factory()
        for i in range(5):
            repo.put(make_plain_entry("alice", f"c{i}"))
        chunks = list(repo.stream_snapshot())
        # Swap a record frame for a validly-framed but different payload.
        import json

        fake = encode_frame(b"D " + b"QQ==")
        doctored = [chunks[0]] + [fake] + chunks[2:]
        target = SegmentRepository(tmp_path / "replica")
        try:
            with pytest.raises(RepositoryError):
                target.ingest_snapshot(iter(doctored))
        finally:
            target.close()
        json.dumps({})  # keep the import honest


class TestSidecarIndex:
    """``seg-*.mps.idx`` is a pure cache: a wrong, stale, or torn sidecar
    must lose to the full frame scan — never to correctness."""

    def _fill(self, repo, n=30):
        for i in range(n):
            repo.put(make_plain_entry("alice", f"c{i}", key_pem=b"ct-%d" % i))
        repo.delete("alice", "c7")
        return {f"c{i}": b"ct-%d" % i for i in range(n) if i != 7}

    def test_clean_close_writes_sidecar_per_segment(self, repo_factory, tmp_path):
        repo = repo_factory()
        self._fill(repo)
        repo.close()
        segs = sorted((tmp_path / "store").glob("seg-*.mps"))
        assert len(segs) > 1  # 8 KiB cap: the fill spans seals
        for seg in segs:
            assert _sidecar_path(seg).exists(), seg.name

    def test_corrupt_sidecar_falls_back_to_scan(self, repo_factory, tmp_path):
        repo = repo_factory()
        expected = self._fill(repo)
        repo.close()
        for idx in (tmp_path / "store").glob("seg-*.idx"):
            idx.write_bytes(b"not json {")
        reopened = repo_factory()
        got = {e.cred_name: e.key_pem for e in reopened.list_for("alice")}
        assert got == expected
        assert reopened.quarantined() == []
        assert reopened.stats.get("corruption_detected") == 0

    def test_crc_mismatch_rejects_sidecar(self, repo_factory, tmp_path):
        import json

        repo = repo_factory()
        expected = self._fill(repo)
        repo.close()
        for idx in (tmp_path / "store").glob("seg-*.idx"):
            doc = json.loads(idx.read_text("utf-8"))
            doc["crc"] ^= 1  # claims different bytes than are on disk
            idx.write_text(json.dumps(doc), "utf-8")
        reopened = repo_factory()
        got = {e.cred_name: e.key_pem for e in reopened.list_for("alice")}
        assert got == expected

    def test_stale_sidecar_never_hides_newer_records(self, repo_factory, tmp_path):
        """A record appended after the sidecar was cut (size mismatch)
        must still be found by the fallback scan."""
        from repro.core.segments import put_record

        repo = repo_factory()
        self._fill(repo)
        repo.close()
        tails = sorted(p for p in (tmp_path / "store").glob("seg-*.mps")
                       if ".c" not in p.name)
        extra = make_plain_entry("alice", "sneaky", key_pem=b"fresh")
        frame = encode_frame(
            put_record(extra.username, extra.cred_name, extra.to_json())
        )
        with open(tails[-1], "ab") as fh:
            fh.write(frame)
        reopened = repo_factory()
        assert reopened.get("alice", "sneaky").key_pem == b"fresh"

    def test_recovery_heals_missing_sidecars(self, repo_factory, tmp_path):
        repo = repo_factory()
        self._fill(repo)
        repo.close()
        root = tmp_path / "store"
        for idx in root.glob("seg-*.idx"):
            idx.unlink()
        repo_factory().close()  # scan everything, heal, close cleanly
        for seg in root.glob("seg-*.mps"):
            assert _sidecar_path(seg).exists(), seg.name


class TestMetrics:
    def test_counters_published(self, repo_factory):
        from repro.obs import MetricsRegistry, render_prometheus

        repo = repo_factory()
        repo.put(make_plain_entry())
        registry = MetricsRegistry()
        repo.publish_metrics(registry)
        text = render_prometheus(registry)
        assert "myproxy_storage_segments" in text
        assert "myproxy_storage_compactions_total" in text
        assert "myproxy_storage_cache_hits_total" in text
        assert "myproxy_recovery_seconds" in text


class _FsyncLog:
    """Record, in order, the path behind every ``os.fsync`` the engine
    issues (file or directory)."""

    def __init__(self, monkeypatch):
        self.paths: list[str] = []
        real = os.fsync

        def recording_fsync(fd):
            self.paths.append(os.readlink(f"/proc/self/fd/{fd}"))
            real(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)


class TestDirectoryDurability:
    """A new file's (or a rename's) directory entry must itself be
    fsynced, or power loss can drop the name that every later
    acknowledged write lives under."""

    def test_new_active_segment_is_followed_by_a_directory_fsync(
        self, repo_factory, tmp_path, monkeypatch
    ):
        log = _FsyncLog(monkeypatch)
        root = str(tmp_path / "store")
        repo = repo_factory(segment_max_bytes=4096)
        first = str(tmp_path / "store" / "seg-00000001.mps")
        assert log.paths[-2:] == [first, root]

        # …once per roll, not once per append.
        log.paths.clear()
        repo.put(make_plain_entry())
        assert log.paths == [first]

        log.paths.clear()
        for i in range(12):  # enough to seal and roll once at 4 KiB
            repo.put(make_plain_entry("alice", f"c{i}"))
        second = str(tmp_path / "store" / "seg-00000002.mps")
        created = log.paths.index(second)
        assert log.paths[created + 1] == root
        assert log.paths.count(root) == 1

    def test_marker_rename_is_followed_by_a_directory_fsync(
        self, tmp_path, monkeypatch
    ):
        log = _FsyncLog(monkeypatch)
        write_backend_marker(tmp_path)
        assert log.paths == [str(tmp_path / "storage.backend.tmp"), str(tmp_path)]
        assert (tmp_path / "storage.backend").read_text() == "segments\n"


class TestDeleteHygiene:
    def test_dead_segment_is_zeroed_in_full_before_unlink(
        self, repo_factory, tmp_path, monkeypatch
    ):
        """Whole-file, in bounded chunks — not one segment-sized buffer
        and not only the first 64 MiB."""
        monkeypatch.setattr(segments, "_ZERO_CHUNK", 100)
        repo = repo_factory(compact_ratio=0, segment_max_bytes=4096)
        for i in range(12):
            repo.put(make_plain_entry("alice", f"c{i}"))
        [victim] = [
            tmp_path / "store" / seg["name"]
            for seg in repo.segment_info() if not seg["active"]
        ]
        size = victim.stat().st_size
        assert size > 20 * 100

        seen = {}
        real_unlink = type(victim).unlink

        def spying_unlink(path, missing_ok=False):
            if path == victim:
                seen["at_unlink"] = path.read_bytes()
            real_unlink(path, missing_ok=missing_ok)

        monkeypatch.setattr(type(victim), "unlink", spying_unlink)
        repo.compact()
        assert seen["at_unlink"] == b"\0" * size
        assert not victim.exists()


class TestManyGenerations:
    def test_only_the_newest_covering_generation_survives_recovery(
        self, repo_factory, tmp_path
    ):
        """Four rounds of compaction, every superseded input and output
        put back on disk (as if each cleanup had been cut short): the
        ``covers=`` table must still pick exactly the newest view."""
        root = tmp_path / "store"
        attic = tmp_path / "attic"
        attic.mkdir()
        repo = repo_factory(compact_ratio=0, segment_max_bytes=4096)
        expected = {}
        for generation in range(1, 5):
            for i in range(12):
                value = b"g%d-%d" % (generation, i)
                repo.put(make_plain_entry("alice", f"c{i}", key_pem=value))
                expected[f"c{i}"] = value
            repo.delete("alice", f"c{generation}")
            del expected[f"c{generation}"]
            for seg in repo.segment_info():
                if not seg["active"]:
                    shutil.copy(root / seg["name"], attic / seg["name"])
            repo.compact()
        repo.close()
        for stale in attic.iterdir():
            shutil.copy(stale, root / stale.name)
        generations = {
            int(p.name.split(".c")[1].split(".")[0])
            for p in root.glob("seg-*.c*.mps")
        }
        assert generations == {1, 2, 3, 4}

        reopened = repo_factory(compact_ratio=0, segment_max_bytes=4096)
        got = {e.cred_name: e.key_pem for e in reopened.list_for("alice")}
        assert got == expected
        assert reopened.quarantined() == []
        info = reopened.segment_info()
        [newest] = [seg for seg in info if seg["gen"] > 0]
        assert newest["gen"] == 4
        assert all(seg["id"] > newest["id"] for seg in info if seg["gen"] == 0)
