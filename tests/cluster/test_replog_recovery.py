"""Reopening a damaged replication log (DESIGN.md §6, "Replication log").

The log recovers through the same routine as a store segment: a corrupt
record is quarantined and costs only itself, a torn tail is cut, and the
fixed-width high-water header means a reopened log never hands out a
sequence number it handed out before — a replica whose watermark is
already past the damage must still apply the next op.
"""

from __future__ import annotations

import pytest

from repro.cluster.replog import OP_DELETE, ReplicationLog
from repro.core.framing import FrameDecoder

from tests.cluster.conftest import make_plain_entry

SECRET = b"0123456789abcdef0123456789abcdef"
DAMAGED = {"first": 0, "middle": 2, "last": 4}


def _frames(data: bytes) -> list[tuple[int, int]]:
    """``(start, end)`` of each intact frame, behind the header line if any."""
    start = 0 if data.startswith(b"%MPF1") else data.index(b"\n") + 1
    return [(at, end) for _, at, end in FrameDecoder(start).decode((data[start:],))]


def _flip_record(path, index: int) -> bytes:
    """Flip one payload bit of record ``index``; return that record's bytes."""
    data = bytearray(path.read_bytes())
    start, end = _frames(bytes(data))[index]
    data[end - 5] ^= 0x01
    path.write_bytes(bytes(data))
    return bytes(data[start:end])


def _logged(path, n: int = 5) -> None:
    log = ReplicationLog("node0", SECRET, path=path)
    for i in range(n):
        log.append(OP_DELETE, f"user{i}", "default", None)
    log.close()


def _artifacts(directory) -> dict[str, bytes]:
    qdir = directory / "quarantine"
    if not qdir.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in qdir.iterdir()
            if not p.name.endswith(".reason")}


class TestReopenAfterDamage:
    def test_a_corrupt_record_mid_log_costs_only_itself(self, tmp_path):
        path = tmp_path / "node0.replog"
        _logged(path)
        before = path.read_bytes()
        rotten = _flip_record(path, 2)

        log = ReplicationLog("node0", SECRET, path=path)
        try:
            assert [op.seq for op in log.since(0)] == [1, 2, 4, 5]
            assert [op.username for op in log.since(0)] == [
                "user0", "user1", "user3", "user4"]
            for op in log.since(0):
                op.verify(SECRET)
        finally:
            log.close()
        # Only the damaged bytes are set aside; the file keeps its length.
        assert list(_artifacts(tmp_path).values()) == [rotten]
        assert len(path.read_bytes()) == len(before)
        assert log.stats.get("quarantined") == 1
        assert log.stats.get("torn_truncated") == 0

    @pytest.mark.parametrize("damaged", sorted(DAMAGED))
    def test_the_next_append_is_above_every_number_handed_out(self, tmp_path, damaged):
        path = tmp_path / "node0.replog"
        _logged(path)
        _flip_record(path, DAMAGED[damaged])

        log = ReplicationLog("node0", SECRET, path=path)
        try:
            assert log.append(OP_DELETE, "late", "default", None).seq == 6
        finally:
            log.close()
        # The number survives another reopen: it is in the header.
        log = ReplicationLog("node0", SECRET, path=path)
        try:
            assert log.append(OP_DELETE, "later", "default", None).seq == 7
            assert 6 in [op.seq for op in log.since(0)]
        finally:
            log.close()

    def test_a_torn_append_costs_only_a_gap(self, tmp_path):
        path = tmp_path / "node0.replog"
        _logged(path)
        data = path.read_bytes()
        _, end = _frames(data)[-1]
        path.write_bytes(data[:end - 10])  # the last append, torn

        log = ReplicationLog("node0", SECRET, path=path)
        try:
            assert [op.seq for op in log.since(0)] == [1, 2, 3, 4]
            assert log.append(OP_DELETE, "late", "default", None).seq == 6
        finally:
            log.close()
        assert log.stats.get("torn_truncated") == 1
        assert _artifacts(tmp_path) == {}

    def test_a_damaged_header_is_quarantined_and_rewritten(self, tmp_path):
        path = tmp_path / "node0.replog"
        _logged(path)
        data = bytearray(path.read_bytes())
        header = data.index(b"\n") + 1
        data[1] ^= 0x01
        path.write_bytes(bytes(data))

        log = ReplicationLog("node0", SECRET, path=path)
        try:
            assert [op.seq for op in log.since(0)] == [1, 2, 3, 4, 5]
            assert log.append(OP_DELETE, "late", "default", None).seq == 6
        finally:
            log.close()
        assert list(_artifacts(tmp_path).values()) == [bytes(data[:header])]
        assert path.read_bytes().startswith(b"%MPR1 hw=00000000000000000006\n")

    def test_a_log_without_a_header_keeps_every_record(self, tmp_path):
        # A log written before the high-water header: frames from byte 0.
        path = tmp_path / "node0.replog"
        _logged(path)
        data = path.read_bytes()
        path.write_bytes(data[data.index(b"\n") + 1:])

        log = ReplicationLog("node0", SECRET, path=path)
        try:
            assert [op.seq for op in log.since(0)] == [1, 2, 3, 4, 5]
            assert log.append(OP_DELETE, "late", "default", None).seq == 6
        finally:
            log.close()
        assert _artifacts(tmp_path) == {}


def _reopen_log(node, path, damaged: int) -> None:
    """Model the node's process restart with record ``damaged`` rotted."""
    node.log.close()
    _flip_record(path, damaged)
    node.log = node.repository.log = ReplicationLog(node.name, node.secret, path=path)


class TestReplicaPastTheDamage:
    @pytest.mark.parametrize("damaged", sorted(DAMAGED))
    def test_the_replica_applies_the_next_op(self, tmp_path, cluster_factory, damaged):
        cluster = cluster_factory(2, log_dir=tmp_path / "logs")
        primary = cluster.primary_for("alice")
        replica = next(n for n in cluster.nodes.values() if n is not primary)
        for i in range(5):
            primary.repository.put(make_plain_entry("alice", f"cred{i}"))
        assert replica.applied_seq(primary.name) == 5

        _reopen_log(primary, tmp_path / "logs" / f"{primary.name}.replog",
                    DAMAGED[damaged])
        try:
            primary.repository.put(make_plain_entry("alice", "after", b"ct-after"))
            assert replica.applied_seq(primary.name) == 6
            assert replica.backend.get("alice", "after").key_pem == b"ct-after"
        finally:
            primary.log.close()

    def test_lag_counts_ops_not_sequence_distance(self, tmp_path, cluster_factory):
        cluster = cluster_factory(2, log_dir=tmp_path / "logs")
        origin, replica = cluster.nodes["node0"], cluster.nodes["node1"]
        for i in range(4):
            origin.log.append(OP_DELETE, f"user{i}", "default", None)
        _reopen_log(origin, tmp_path / "logs" / "node0.replog", 2)
        try:
            assert [op.seq for op in origin.log.since(0)] == [1, 2, 4]
            replica.applied[origin.name] = 2
            assert replica.lag_behind(origin) == 1
            assert cluster.replica_lag(replica.name) == 1
            assert cluster.status()["nodes"][replica.name]["replica_lag"] == 1
        finally:
            origin.log.close()


def test_quarantine_sits_beside_the_log(tmp_path):
    logs = tmp_path / "logs"
    logs.mkdir()
    path = logs / "node0.replog"
    _logged(path)
    start, _ = _frames(path.read_bytes())[0]
    rotten = _flip_record(path, 0)
    ReplicationLog("node0", SECRET, path=path).close()
    assert _artifacts(logs) == {f"node0.replog+{start}.corrupt": rotten}
