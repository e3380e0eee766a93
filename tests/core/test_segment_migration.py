"""``myproxy-admin migrate``: in-place legacy spool → segments conversion.

The one-file-per-credential spool engine is gone; what remains is a
read-only importer.  The acceptance bar: every readable entry survives
byte-identically (ACLs and renewal state included), uncommitted
``journal.wal`` ops are honoured, every unreadable file ends up in
``quarantine/`` (never skipped), re-migration is a no-op, and an
unmigrated spool — including one a crashed migration left debris in — is
refused by everything that opens a store, without touching a byte.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.core.framing import encode_frame
from repro.core.repository import encode_key_token
from repro.core.segments import (
    SegmentRepository,
    is_unmigrated_spool,
    migrate_spool_to_segments,
    open_repository,
)
from repro.util.errors import RepositoryError
from tests.cluster.conftest import make_plain_entry


def spool_path(root, username, cred_name):
    return root / f"{encode_key_token(username, cred_name)}.json"


def lay_spool(root, entries=None) -> list:
    """Hand-lay a spool the way the removed engine wrote one: a CRC-framed
    JSON document per credential, named by its key token."""
    if entries is None:
        entries = [
            make_plain_entry("alice", f"c{i}", key_pem=b"ct-%d" % i)
            for i in range(20)
        ]
        entries.append(make_plain_entry("bob", "default"))
        # An entry exercising the policy fields migration must not drop.
        entries.append(
            dataclasses.replace(
                make_plain_entry("carol", "locked"),
                retrievers=("/O=Grid/CN=host/portal.*", "/O=Grid/CN=host/other.*"),
                renewers=("/O=Grid/CN=renewer.*",),
                key_pem_renewal=b"sealed-renewal-copy",
                long_term=True,
            )
        )
    root.mkdir(mode=0o700, exist_ok=True)
    for entry in entries:
        path = spool_path(root, entry.username, entry.cred_name)
        path.write_bytes(encode_frame(entry.to_json().encode("utf-8")))
    return entries


def journal_op(txid, op, username, cred_name, document=None) -> bytes:
    doc = {"txid": txid, "op": op, "username": username,
           "cred_name": cred_name, "document": document}
    return encode_frame(json.dumps(doc, sort_keys=True).encode("utf-8"))


def tree(root) -> dict:
    """Every byte and mode under ``root`` (the refusal tests' witness)."""
    out = {".": (None, root.stat().st_mode, root.stat().st_mtime_ns)}
    for path in sorted(root.rglob("*")):
        stat = path.stat()
        data = path.read_bytes() if path.is_file() else None
        out[str(path.relative_to(root))] = (data, stat.st_mode, stat.st_mtime_ns)
    return out


class TestRoundTrip:
    def test_every_entry_and_acl_preserved(self, tmp_path):
        root = tmp_path / "store"
        entries = lay_spool(root)

        result = migrate_spool_to_segments(root)
        assert result["migrated"] is True
        assert result["entries"] == len(entries)

        segs = SegmentRepository(root)
        try:
            assert segs.count() == len(entries)
            for entry in entries:
                assert (
                    segs.get(entry.username, entry.cred_name).to_json()
                    == entry.to_json()
                )
            carol = segs.get("carol", "locked")
            assert carol.retrievers == (
                "/O=Grid/CN=host/portal.*",
                "/O=Grid/CN=host/other.*",
            )
            assert carol.renewers == ("/O=Grid/CN=renewer.*",)
            assert carol.key_pem_renewal == b"sealed-renewal-copy"
        finally:
            segs.close()

    def test_spool_files_zeroized_and_removed(self, tmp_path):
        root = tmp_path / "store"
        lay_spool(root)
        (root / "journal.wal").write_bytes(b"")
        (root / "interrupted.json.tmp").write_bytes(b'{"half": "written')
        migrate_spool_to_segments(root)
        assert not list(root.glob("*.json"))
        assert not list(root.glob("*.json.tmp"))
        assert not (root / "journal.wal").exists()

    def test_keep_spool_leaves_files_but_flips_reads(self, tmp_path):
        root = tmp_path / "store"
        entries = lay_spool(root)
        migrate_spool_to_segments(root, keep_spool=True)
        assert list(root.glob("*.json"))  # old files intact
        assert not is_unmigrated_spool(root)  # but the marker wins
        repo = open_repository(root)
        try:
            assert repo.count() == len(entries)
        finally:
            repo.close()

    def test_earlier_quarantine_preserved_for_scrub(self, tmp_path):
        """What the old engine had already set aside stays listed."""
        root = tmp_path / "store"
        lay_spool(root)
        victim = spool_path(root, "alice", "c0")
        (root / "quarantine").mkdir(mode=0o700)
        os.replace(victim, root / "quarantine" / victim.name)

        migrate_spool_to_segments(root)
        segs = SegmentRepository(root)
        try:
            [item] = segs.quarantined()
            assert (item.username, item.cred_name) == ("alice", "c0")
        finally:
            segs.close()

    def test_remigration_is_noop(self, tmp_path):
        root = tmp_path / "store"
        lay_spool(root)
        first = migrate_spool_to_segments(root)
        assert first["migrated"] is True
        second = migrate_spool_to_segments(root)
        assert second["migrated"] is False
        assert "no unmigrated spool" in second["reason"]

    def test_empty_directory_is_already_a_segment_store(self, tmp_path):
        root = tmp_path / "store"
        root.mkdir()
        assert migrate_spool_to_segments(root)["migrated"] is False
        repo = open_repository(root)
        try:
            assert isinstance(repo, SegmentRepository)
            assert repo.count() == 0
        finally:
            repo.close()


class TestHandLaidSpool:
    """Every on-disk state the removed engine could leave behind."""

    def test_framed_legacy_pending_ops_and_corruption(self, tmp_path):
        root = tmp_path / "store"
        framed = make_plain_entry("alice", "framed", key_pem=b"ct-framed")
        lay_spool(root, [framed])
        # A pre-framing spool file: bare JSON, no CRC.
        legacy = make_plain_entry("bob", "legacy", key_pem=b"ct-legacy")
        spool_path(root, "bob", "legacy").write_text(legacy.to_json(), "utf-8")
        # A put journaled (acknowledged or not, the redo log wins) whose
        # spool file was never written, over a stale older version.
        stale = make_plain_entry("carol", "pending", key_pem=b"ct-stale")
        fresh = make_plain_entry("carol", "pending", key_pem=b"ct-fresh")
        lay_spool(root, [stale])
        # A delete that crashed between zeroize and unlink: a husk of
        # NULs that must neither be imported nor quarantined.
        husk = spool_path(root, "dave", "doomed")
        husk.write_bytes(b"\0" * 300)
        # A committed op (already applied) and the two pending ones,
        # then a torn tail: an append that was never acknowledged.
        (root / "journal.wal").write_bytes(
            journal_op(1, "put", "alice", "framed", framed.to_json())
            + journal_op(1, "commit", "", "")
            + journal_op(2, "put", "carol", "pending", fresh.to_json())
            + journal_op(3, "delete", "dave", "doomed")
            + journal_op(4, "put", "erin", "torn", "{}")[:-9]
        )
        # Bit rot with no journal record covering it.
        rotten = spool_path(root, "frank", "rotten")
        raw = bytearray(encode_frame(make_plain_entry("frank", "rotten")
                                     .to_json().encode("utf-8")))
        raw[len(raw) // 2] ^= 0xFF
        rotten.write_bytes(bytes(raw))

        result = migrate_spool_to_segments(root)
        assert result == {"migrated": True, "entries": 3, "spool_removed": True}

        segs = open_repository(root)
        try:
            got = {e.key: e.to_json()
                   for user in segs.usernames() for e in segs.list_for(user)}
            assert got == {
                ("alice", "framed"): framed.to_json(),
                ("bob", "legacy"): legacy.to_json(),
                ("carol", "pending"): fresh.to_json(),
            }
            # Quarantined, not skipped — and still named for its owner,
            # so ``myproxy-cluster scrub`` can re-fetch it from a peer.
            [item] = segs.quarantined()
            assert (item.username, item.cred_name) == ("frank", "rotten")
            assert item.path.read_bytes() == bytes(raw)
        finally:
            segs.close()
        assert not list(root.glob("*.json"))
        assert not (root / "journal.wal").exists()

    def test_corrupt_journal_tail_is_quarantined(self, tmp_path):
        root = tmp_path / "store"
        [entry] = lay_spool(root, [make_plain_entry()])
        good = journal_op(1, "put", "alice", "default", entry.to_json())
        rotten = bytearray(journal_op(2, "delete", "alice", "default"))
        rotten[-5] ^= 0xFF  # a complete frame that fails its CRC
        (root / "journal.wal").write_bytes(good + bytes(rotten))

        migrate_spool_to_segments(root)
        segs = open_repository(root)
        try:
            # The unreadable op is not honoured (the entry survives)…
            assert segs.get("alice", "default").to_json() == entry.to_json()
        finally:
            segs.close()
        # …and its bytes are kept for the operator.
        [artifact] = (root / "quarantine").glob("journal.wal.corrupt")
        assert artifact.read_bytes() == bytes(rotten)


class TestRefusal:
    """An unmigrated spool is refused, and not one byte of it changes."""

    def test_open_repository_refuses_and_touches_nothing(self, tmp_path):
        root = tmp_path / "store"
        lay_spool(root)
        root.chmod(0o755)  # even the mode must survive the refusal
        before = tree(root)
        with pytest.raises(RepositoryError, match="myproxy-admin .* migrate"):
            open_repository(root)
        assert tree(root) == before

    def test_crashed_migration_debris_is_still_refused(self, tmp_path):
        """Segment files without a marker must not shadow the spool."""
        root = tmp_path / "store"
        lay_spool(root)
        (root / "seg-00000001.mps").write_bytes(b"%MPS1 v1 id=1 gen=0\n")
        assert is_unmigrated_spool(root)
        before = tree(root)
        with pytest.raises(RepositoryError, match="migrate"):
            open_repository(root)
        assert tree(root) == before

    def test_retry_after_crash_succeeds(self, tmp_path):
        root = tmp_path / "store"
        entries = lay_spool(root)
        (root / "seg-00000001.mps").write_bytes(b"%MPS1 v1 id=1 gen=0\n")
        result = migrate_spool_to_segments(root)
        assert result["migrated"] is True
        assert result["entries"] == len(entries)
        segs = open_repository(root)
        try:
            assert segs.count() == len(entries)
        finally:
            segs.close()

    def test_admin_cli_refuses_with_the_hint(self, tmp_path, capsys):
        from repro.cli.myproxy_admin import main

        root = tmp_path / "store"
        lay_spool(root)
        before = tree(root)
        assert main(["--storage-dir", str(root), "query"]) == 1
        assert "migrate" in capsys.readouterr().err
        assert tree(root) == before
        # …and the hinted command is the way out.
        assert main(["--storage-dir", str(root), "migrate"]) == 0
        assert main(["--storage-dir", str(root), "query"]) == 0
        assert "alice/c0" in capsys.readouterr().out


class TestOpenRepository:
    def test_segment_files_without_marker_open(self, tmp_path):
        root = tmp_path / "store"
        repo = SegmentRepository(root)
        repo.put(make_plain_entry())
        repo.close()
        assert not is_unmigrated_spool(root)
        reopened = open_repository(root)
        try:
            assert reopened.count() == 1
        finally:
            reopened.close()

    def test_storage_config_knobs_passed_through(self, tmp_path):
        from repro.core.config import StorageConfig

        cfg = StorageConfig(segment_max_bytes=8192, cache_entries=7)
        repo = open_repository(tmp_path / "store", storage=cfg)
        try:
            assert repo.segment_max_bytes == 8192
            assert repo.cache_info()["capacity"] == 7
        finally:
            repo.close()
