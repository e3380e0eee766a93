"""Kill a cluster primary at every replication kill point.

For each registered site on the primary's write path (segment append,
replication-log append, ship) the sweep arms a deterministic kill,
drives a write into a 3-node segment-backed cluster, and asserts:

- **no acked credential lost** — the baseline (acknowledged) entry is
  retrievable after failover, and an acknowledged second write survives
  on the promoted replica set;
- **no split-brain** — after the failure detector promotes, exactly one
  live node is primary for the user and the victim is not it;
- **restart heals** — reopening the victim's store runs recovery, resync
  replays the logs, and the node returns with zero lag and no corruption.
"""

from __future__ import annotations

import pytest

from repro import faults
from repro.core.client import myproxy_init_from_longterm
from repro.core.segments import SegmentRepository, open_repository
from repro.pki.names import DistinguishedName
from tests.cluster.conftest import make_plain_entry

# Sites that can fire on a primary accepting a put.  (replog.apply.* fire
# on replicas and get their own test below; the seal and compaction sites
# need a full segment and are swept in test_segment_kill_points.py.)
PRIMARY_PUT_SITES = sorted(
    set(faults.kill_points("repo.segment.append."))
    | {
        "replog.append.pre",
        "replog.append.synced",
        "replog.ship.pre",
        "replog.ship.delivered",
    }
)

USER = "alice"
PASS = "correct horse 42"


@pytest.fixture()
def chaos_cluster(tmp_path, cluster_factory):
    injectors = [faults.FaultInjector() for _ in range(3)]
    backends = [
        SegmentRepository(tmp_path / f"store{i}", injector=injectors[i])
        for i in range(3)
    ]
    cluster = cluster_factory(
        3,
        backends=backends,
        replication_factor=2,
        failover_timeout=5.0,
        state_dir=tmp_path / "state",
        log_dir=tmp_path / "logs",
        injectors=injectors,
    )
    yield cluster
    for injector in injectors:
        injector.disarm()


def _fail_over(cluster, clock):
    clock.advance(cluster.detector.timeout * 0.7)
    cluster.sweep_heartbeats()
    clock.advance(cluster.detector.timeout * 0.6)
    return cluster.check_failover()


def _reopened_backend(cluster, node):
    node.backend.close()  # the dead process's descriptors
    return open_repository(node.backend.root)


@pytest.mark.parametrize("site", PRIMARY_PUT_SITES)
class TestPrimaryKilledMidPut:
    def test_no_acked_loss_no_split_brain_restart_heals(
        self, chaos_cluster, clock, tmp_path, site
    ):
        cluster = chaos_cluster
        victim = cluster.primary_for(USER)

        # baseline: an acknowledged credential, replicated semi-sync
        victim.repository.put(make_plain_entry(USER, "baseline", b"ct-base"))

        victim.injector.arm(
            faults.FaultPlan([faults.FaultRule("kill", site)], seed=2024)
        )
        acked = False
        try:
            victim.repository.put(make_plain_entry(USER, "second", b"ct-2"))
            acked = True
        except faults.KillPoint:
            victim.kill()
        victim.injector.disarm()

        if not victim.alive:
            promotions = _fail_over(cluster, clock)
            assert len(promotions) == 1 and promotions[0][0] == victim.name

        # -- no split-brain: one live primary, and it is not the victim --
        primary = cluster.primary_for(USER)
        assert primary.alive
        if not victim.alive:
            assert primary is not victim
            live_primaries = {
                cluster.primary_for(USER).name
                for _ in range(3)  # routing is stable, not flapping
            }
            assert len(live_primaries) == 1

        # -- no acked credential lost --
        assert primary.backend.get(USER, "baseline").key_pem == b"ct-base"
        if acked:
            # acked => on the primary and >=1 replica; whoever is primary
            # now must serve it
            assert primary.backend.get(USER, "second").key_pem == b"ct-2"

        # -- restart + recovery + resync converges --
        if not victim.alive:
            victim.restart(backend=_reopened_backend(cluster, victim))
            assert victim.backend.stats.get("corruption_detected") == 0
            cluster.resync(victim.name)
            cluster.demote_recovered(victim.name)
            assert cluster.replica_lag(victim.name) == 0
            assert victim.backend.get(USER, "baseline").key_pem == b"ct-base"


class TestReplicaKilledMidApply:
    @pytest.mark.parametrize(
        "site", ["replog.apply.pre", "replog.apply.applied"]
    )
    def test_unacked_write_and_replica_recovery(
        self, chaos_cluster, clock, site
    ):
        cluster = chaos_cluster
        primary = cluster.primary_for(USER)
        replica = next(
            n for n in cluster.preference(USER) if n is not primary
        )
        primary.repository.put(make_plain_entry(USER, "baseline", b"ct-base"))

        replica.injector.arm(
            faults.FaultPlan([faults.FaultRule("kill", site)], seed=7)
        )
        # the lone semi-sync replica dies mid-apply -> the write must NOT
        # be acknowledged
        from repro.util.errors import RepositoryError

        with pytest.raises(RepositoryError, match="refusing to acknowledge"):
            primary.repository.put(make_plain_entry(USER, "unacked", b"ct-u"))
        replica.injector.disarm()
        assert not replica.alive

        replica.restart(backend=_reopened_backend(cluster, replica))
        cluster.resync(replica.name)
        # resync replays the primary's intact log: the replica converges,
        # including the op it died on
        assert cluster.replica_lag(replica.name) == 0
        assert replica.backend.get(USER, "baseline").key_pem == b"ct-base"


class TestClientFlowThroughChaos:
    def test_init_and_get_succeed_via_retry_and_failover(
        self, chaos_cluster, cluster_client_factory, ca, key_pool, clock
    ):
        """The Figure 1/2 flows, with the primary murdered mid-store.

        The client holds real credentials and speaks the real protocol;
        the kill lands inside the server's conversation thread.  Client
        retry + server-side failover must make both flows succeed with no
        client reconfiguration.
        """
        cluster = chaos_cluster
        cred = ca.issue_credential(
            DistinguishedName.grid_user("Grid", "Repro", "Alice"),
            key=key_pool.new_key(),
        )
        victim = cluster.primary_for(USER)
        victim.injector.arm(
            faults.FaultPlan(
                [faults.FaultRule("kill", "replog.ship.pre")], seed=11
            )
        )

        client = cluster_client_factory(cluster, cred)
        myproxy_init_from_longterm(
            client, cred, username=USER, passphrase=PASS, key_source=key_pool
        )
        victim.injector.disarm()
        # the kill landed: the victim went down mid-conversation and the
        # client stored via another node
        assert not victim.alive
        assert client.stats.failovers >= 1

        _fail_over(cluster, clock)
        assert cluster.primary_for(USER).alive

        portal = ca.issue_host_credential(
            "portal.example.org", key=key_pool.new_key()
        )
        requester = cluster_client_factory(cluster, portal)
        proxy = requester.get_delegation(username=USER, passphrase=PASS)
        assert proxy.identity == cred.identity
