"""The cluster admin surface: status snapshots, control file, both CLIs."""

import json

import pytest

from repro.cli import myproxy_admin, myproxy_cluster
from repro.core.client import myproxy_init_from_longterm

PASS = "correct horse 42"


@pytest.fixture()
def loaded_cluster(tmp_path, cluster_factory, cluster_client_factory, alice, key_pool):
    state_dir = tmp_path / "state"
    state_dir.mkdir()
    cluster = cluster_factory(3, replication_factor=2, state_dir=state_dir)
    client = cluster_client_factory(cluster, alice)
    myproxy_init_from_longterm(
        client, alice, username="alice", passphrase=PASS, key_source=key_pool
    )
    return cluster, state_dir


class TestCoordinatorStateDir:
    def test_save_status_publishes_an_atomic_snapshot(self, loaded_cluster):
        cluster, state_dir = loaded_cluster
        path = cluster.save_status()
        doc = json.loads(path.read_text("utf-8"))
        assert doc["replication_factor"] == 2
        assert set(doc["nodes"]) == set(cluster.nodes)
        assert not list(state_dir.glob("*.tmp"))  # no half-written files

    def test_control_commands_are_applied_on_sweep(self, loaded_cluster):
        cluster, state_dir = loaded_cluster
        victim = cluster.primary_for("alice")
        victim.kill()
        (state_dir / myproxy_cluster.CONTROL_FILE).write_text(
            json.dumps({"cmd": "promote", "node": victim.name}) + "\n"
        )
        handled = cluster.process_control()
        assert [c["cmd"] for c in handled] == ["promote"]
        assert victim.name in cluster._promotions
        # the snapshot was refreshed with the promotion
        doc = json.loads((state_dir / myproxy_cluster.STATUS_FILE).read_text())
        assert victim.name in doc["promotions"]

    def test_bad_control_lines_are_ignored(self, loaded_cluster):
        cluster, state_dir = loaded_cluster
        (state_dir / myproxy_cluster.CONTROL_FILE).write_text(
            "{broken json\n"
            + json.dumps({"cmd": "frobnicate", "node": "node0"}) + "\n"
            + json.dumps({"cmd": "resync", "node": "ghost"}) + "\n"
        )
        assert cluster.process_control() == []

    def test_commands_are_consumed_once(self, loaded_cluster):
        cluster, state_dir = loaded_cluster
        name = sorted(cluster.nodes)[0]
        (state_dir / myproxy_cluster.CONTROL_FILE).write_text(
            json.dumps({"cmd": "resync", "node": name}) + "\n"
        )
        assert len(cluster.process_control()) == 1
        assert cluster.process_control() == []  # offset advanced


class TestMyproxyClusterCli:
    def test_status_pretty_print(self, loaded_cluster, capsys):
        cluster, state_dir = loaded_cluster
        cluster.save_status()
        assert myproxy_cluster.main(["--state-dir", str(state_dir), "status"]) == 0
        out = capsys.readouterr().out
        assert "rf=2" in out
        for name in cluster.nodes:
            assert name in out
        assert "shipped=" in out

    def test_status_json(self, loaded_cluster, capsys):
        cluster, state_dir = loaded_cluster
        cluster.save_status()
        assert (
            myproxy_cluster.main(["--state-dir", str(state_dir), "status", "--json"])
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["nodes"]) == set(cluster.nodes)

    def test_status_without_snapshot_is_an_error(self, tmp_path, capsys):
        assert myproxy_cluster.main(["--state-dir", str(tmp_path), "status"]) == 1
        assert "error" in capsys.readouterr().err

    def test_promote_queues_a_command_the_coordinator_applies(
        self, loaded_cluster, capsys
    ):
        cluster, state_dir = loaded_cluster
        victim = cluster.primary_for("alice")
        successor = cluster.preference("alice")[1]
        victim.kill()
        rc = myproxy_cluster.main(
            ["--state-dir", str(state_dir), "promote",
             "--node", victim.name, "--successor", successor.name]
        )
        assert rc == 0
        assert "queued" in capsys.readouterr().out
        cluster.process_control()
        assert cluster._promotions[victim.name] == successor.name

    def test_resync_queues_a_command(self, loaded_cluster, capsys):
        cluster, state_dir = loaded_cluster
        name = sorted(cluster.nodes)[0]
        assert (
            myproxy_cluster.main(
                ["--state-dir", str(state_dir), "resync", "--node", name]
            )
            == 0
        )
        (handled,) = cluster.process_control()
        assert handled["cmd"] == "resync"
        assert "applied" in handled


class TestMyproxyAdminClusterStatus:
    def test_replication_counters_exposed(self, loaded_cluster, capsys):
        cluster, state_dir = loaded_cluster
        cluster.save_status()
        rc = myproxy_admin.main(["cluster-status", "--state-dir", str(state_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "failovers: 0" in out
        assert "shipped=" in out and "applied=" in out
        # at least one node shipped the alice write, one applied it
        doc = json.loads((state_dir / myproxy_cluster.STATUS_FILE).read_text())
        rows = doc["nodes"].values()
        assert sum(r["stats"]["replication_ops_shipped"] for r in rows) >= 1
        assert sum(r["stats"]["replication_ops_applied"] for r in rows) >= 1
