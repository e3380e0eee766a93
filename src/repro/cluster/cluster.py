"""The cluster coordinator: sharding, semi-sync replication, failover.

:class:`MyProxyCluster` ties the pieces together:

- a :class:`~repro.cluster.hashring.ConsistentHashRing` assigns each user
  a preference list of ``replication_factor`` nodes (primary first);
- every write a node accepts is shipped to the other members of the user's
  preference list *before* the client is acknowledged (semi-synchronous:
  at least ``min_sync_acks`` replicas must confirm, so killing the primary
  immediately after an ack can never lose the credential);
- a :class:`~repro.cluster.health.FailureDetector` watches heartbeats, and
  :meth:`check_failover` promotes the most-caught-up replica of a dead
  primary — routing follows the promotion, clients follow routing via
  retry (see :mod:`repro.cluster.failover`);
- an admin control path (status snapshot + command file) backs the
  ``myproxy-cluster`` CLI: status, promote, resync.

Partition tolerance (the control plane's CP stance):

- **epochs** — every promotion bumps a persisted, monotonic epoch for
  each shard the dead node was primary for; primaries stamp their epoch
  into every shipped record and replicas fence anything older, so a
  deposed-but-alive primary can never collect acks;
- **quorum** — a suspect is only promoted away from once a majority of
  the voting set (every node, plus the coordinator as tie-breaking
  witness) confirms it unreachable; ``myproxy-cluster promote`` remains
  the admin override;
- **leases** — a primary may only acknowledge writes while it holds a
  time-bounded lease; renewal needs the same quorum, so the minority
  side of a partition drops to reads + ``RETRY_AFTER`` (bounded
  unavailability, never divergence).  Promotion away from a suspect
  that is still *alive* (partitioned, not crashed) is deferred until
  the suspect has stayed quorum-confirmed unreachable for a full lease
  duration, so any lease it renewed before losing quorum provably
  lapsed before a second primary can exist; a crashed node's lease
  dies with its process (``restart()`` rejoins leaseless), so a
  confirmed-dead node is promoted away from immediately.

The voting sets of lease renewal and promotion intersect (both are
majorities of the same electorate), so a partition can sustain at most
one side that writes.  All probes, ships and announcements thread an
optional :class:`~repro.faults.NetChaos` so the chaos suite drives the
*real* promotion/fencing code under asymmetric partitions.

All replication payloads stay ciphertext (see :mod:`repro.cluster.replog`);
the §5.1 encrypted-at-rest property holds on every replica.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path

from repro.cluster.failover import ClusterRouter
from repro.cluster.hashring import ConsistentHashRing
from repro.cluster.health import FailureDetector, HeartbeatMonitor
from repro.cluster.node import ClusterNode
from repro.cluster.replog import SITE_SHIP_DELIVERED, ReplicatedOp, StaleEpochError
from repro.core.repository import SecretBox
from repro.core.server import MyProxyServer
from repro.faults.netchaos import NetChaos
from repro.util.clock import SYSTEM_CLOCK, Clock
from repro.util.errors import (
    ConfigError,
    RepositoryError,
    ServerBusyError,
    TransportError,
)
from repro.util.logging import get_logger

logger = get_logger("cluster.cluster")

STATUS_FILE = "cluster-status.json"
CONTROL_FILE = "cluster-control.jsonl"
EPOCH_FILE = "cluster-epochs.json"

#: The coordinator's vantage point on the chaos network: probes and epoch
#: announcements originate here, so a plan can partition the control
#: plane away from a node without touching the data paths (or vice versa).
COORDINATOR = "@coordinator"


class MyProxyCluster:
    """Membership, routing and failover for a set of cluster nodes."""

    def __init__(
        self,
        nodes: list[ClusterNode],
        *,
        replication_factor: int = 2,
        min_sync_acks: int = 1,
        failover_timeout: float = 5.0,
        heartbeat_interval: float = 1.0,
        clock: Clock = SYSTEM_CLOCK,
        state_dir: str | os.PathLike | None = None,
        quorum: int | None = None,
        lease_duration: float | None = None,
        network: NetChaos | None = None,
        probe_timeout: float = 2.0,
    ) -> None:
        if not nodes:
            raise ConfigError("a cluster needs at least one node")
        if replication_factor < 1:
            raise ConfigError("replication_factor must be at least 1")
        if replication_factor > len(nodes):
            raise ConfigError(
                f"replication_factor {replication_factor} exceeds "
                f"cluster size {len(nodes)}"
            )
        if min_sync_acks > replication_factor - 1:
            raise ConfigError(
                "min_sync_acks cannot exceed the number of replicas "
                f"({replication_factor - 1})"
            )
        self.nodes: dict[str, ClusterNode] = {}
        for node in nodes:
            if node.name in self.nodes:
                raise ConfigError(f"duplicate node name {node.name!r}")
            self.nodes[node.name] = node
        self.replication_factor = replication_factor
        self.min_sync_acks = min_sync_acks
        self.clock = clock
        self.ring = ConsistentHashRing([n.name for n in nodes])
        self.detector = FailureDetector(timeout=failover_timeout, clock=clock)
        for node in nodes:
            self.detector.record_heartbeat(node.name)
        #: dead node name -> the replica promoted in its place.
        self._promotions: dict[str, str] = {}
        #: alive suspect -> instant quorum confirmation was first gathered
        #: (and has held at every sweep since).  Promotion waits until
        #: ``lease_duration`` elapsed past this instant: the suspect could
        #: have renewed right up to the moment it lost its quorum, so only
        #: then has its last possible lease provably lapsed.
        self._confirmed_since: dict[str, float] = {}
        self._promote_lock = threading.Lock()
        self.failovers = 0
        self._state_dir = Path(state_dir) if state_dir is not None else None
        self._control_offset = 0
        self._monitor: HeartbeatMonitor | None = None
        self.network = network
        self.probe_timeout = probe_timeout
        # The electorate is every node plus the coordinator (tie-breaking
        # witness, so a 2-node cluster can still fail over).  Promotion
        # confirmation and lease renewal both demand a majority of it;
        # two majorities always intersect, so no partition can sustain a
        # writing primary on both sides.
        electorate = len(nodes) + 1
        if quorum is not None:
            if not 1 <= quorum <= electorate:
                raise ConfigError(
                    f"cluster_quorum must be between 1 and {electorate} "
                    f"(nodes + coordinator witness), got {quorum}"
                )
            self.quorum = quorum
        else:
            self.quorum = electorate // 2 + 1
        self.lease_duration = (
            lease_duration if lease_duration is not None else failover_timeout
        )
        #: shard root (ring node name) -> current primary epoch.
        self.epochs: dict[str, int] = {}
        self._load_epochs()
        now = clock.now()
        for node in nodes:
            node.server.cluster_peers = tuple(sorted(self.nodes))
            node.repository.shipper = self._make_shipper(node)
            node.shard_of = self._shard_root
            node.repository.epoch_source = node.epoch_for
            node.repository.write_gate = self._make_write_gate(node)
            node.learn_epochs(self.epochs, self._owners)
            # Every node starts with a full lease: a fresh cluster is in
            # contact with itself.  The gate renews (or refuses) once the
            # first duration elapses.
            if self.lease_duration > 0:
                node.lease_expires = now + self.lease_duration
                node.server.stats.set_gauge("lease_state", 1)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def _resolve(self, name: str) -> str:
        """Follow the promotion chain from a (possibly dead) node name."""
        seen = set()
        while name in self._promotions and name not in seen:
            seen.add(name)
            name = self._promotions[name]
        return name

    def _shard_root(self, username: str) -> str:
        """The stable shard identity for a user: the *unresolved* ring head.

        Promotions move who serves a shard, never which shard a user is
        in — epochs are keyed by this root so a shard's epoch survives
        arbitrarily long promotion chains.
        """
        return self.ring.preference_list(username)[0]

    # ------------------------------------------------------------------
    # network vantage (all perfect when no chaos plan is installed)
    # ------------------------------------------------------------------

    def _coordinator_sees(self, node: ClusterNode) -> bool:
        """Can the coordinator hold a round trip with this node right now?"""
        if not node.alive:
            return False
        if self.network is None:
            return True
        return self.network.bidirectional(COORDINATOR, node.name)

    def _nodes_see(self, a: ClusterNode, b: ClusterNode) -> bool:
        """Can node ``a`` hold a round trip with node ``b`` right now?"""
        if not (a.alive and b.alive):
            return False
        if self.network is None:
            return True
        return self.network.bidirectional(a.name, b.name)

    def preference(self, username: str) -> list[ClusterNode]:
        """The user's current replica set, promotions applied, primary first."""
        chosen: list[ClusterNode] = []
        for name in self.ring.preference_list(username):
            node = self.nodes[self._resolve(name)]
            if node not in chosen:
                chosen.append(node)
            if len(chosen) == self.replication_factor:
                break
        return chosen

    def primary_for(self, username: str) -> ClusterNode:
        return self.preference(username)[0]

    def router(self) -> ClusterRouter:
        """A client-side router over this cluster's static membership."""
        return ClusterRouter(sorted(self.nodes), self.replication_factor)

    # ------------------------------------------------------------------
    # replication shipping (primary side)
    # ------------------------------------------------------------------

    def _make_shipper(self, origin: ClusterNode):
        ship_seconds = origin.server.metrics.histogram(
            "myproxy_replication_ship_seconds",
            "Latency of delivering one write op to one replica.",
        )

        def _ship(op: ReplicatedOp) -> None:
            # Partitioned-but-alive replicas stay in the set: under a
            # partition the ack requirement must *fail*, not silently
            # shrink to zero.
            replicas = [
                node
                for node in self.preference(op.username)
                if node is not origin and node.alive
            ]
            acks = 0
            for replica in replicas:
                try:
                    origin.injector.fire(f"replog.ship.to.{replica.name}")
                    copies = 1
                    if self.network is not None:
                        copies = self.network.transmit(origin.name, replica.name)
                    with ship_seconds.time():
                        applied = replica.receive([op], fresh=True)
                        for _ in range(copies - 1):
                            # Duplicate delivery (retransmit storm): the
                            # replica's idempotent apply absorbs it.
                            replica.receive([op], fresh=True)
                    if self.network is not None and not self.network.reachable(
                        replica.name, origin.name
                    ):
                        # Half-open return path: the replica applied the
                        # op but the ack never made it home.
                        raise TransportError(
                            f"ack from {replica.name} lost to the partition"
                        )
                    origin.injector.fire(SITE_SHIP_DELIVERED)
                    # A replica that *skipped* the op (garbled in transit)
                    # returns 0 — that is not an ack; the skip already
                    # queued a resync on the replica.
                    if applied < 1:
                        origin.server.stats.inc("replication_failures")
                        continue
                    acks += 1
                    origin.server.stats.inc("replication_ops_shipped")
                except StaleEpochError as exc:
                    # A replica witnessed a newer epoch: this origin was
                    # deposed behind its back.  Adopt the fence, drop the
                    # lease (self-demotion) and refuse the ack outright —
                    # no quorum of stale-epoch acks may rescue the write.
                    origin.server.stats.inc("replication_failures")
                    origin.learn_epochs(
                        {exc.shard: exc.fence},
                        {exc.shard: exc.owner} if exc.owner is not None else None,
                    )
                    origin.lease_expires = 0.0
                    origin.server.stats.set_gauge("lease_state", 0)
                    logger.warning(
                        "node %s deposed: ship %s#%d fenced by %s at epoch %d",
                        origin.name, op.origin, op.seq, replica.name, exc.fence,
                    )
                    raise RepositoryError(
                        f"write {op.origin}#{op.seq} fenced (epoch {exc.shipped} "
                        f"< {exc.fence}); refusing to acknowledge"
                    ) from exc
                except (TransportError, RepositoryError):
                    origin.server.stats.inc("replication_failures")
                    logger.warning(
                        "shipping %s#%d to %s failed", op.origin, op.seq, replica.name
                    )
            # Semi-sync: never demand more acks than there are live
            # replicas (a degraded shard keeps accepting writes), but with
            # replicas available the client ack waits for them.
            needed = min(self.min_sync_acks, len(replicas))
            if acks < needed:
                raise RepositoryError(
                    f"write {op.origin}#{op.seq} reached {acks} replicas, "
                    f"needs {needed}; refusing to acknowledge"
                )

        return _ship

    # ------------------------------------------------------------------
    # primary leases (writes only while in provable contact with quorum)
    # ------------------------------------------------------------------

    def _make_write_gate(self, node: ClusterNode):
        def _gate(username: str) -> None:
            if self.lease_duration <= 0:
                return  # leases disabled by configuration
            now = self.clock.now()
            if now <= node.lease_expires:
                return
            if self._renew_lease(node, now):
                return
            node.server.stats.set_gauge("lease_state", 0)
            logger.warning(
                "node %s: write for %r refused — lease lapsed and quorum "
                "unreachable", node.name, username,
            )
            raise ServerBusyError(
                f"primary lease lapsed on {node.name}; retry after failover "
                "settles",
                retry_after=max(self.lease_duration, 0.1),
            )

        return _gate

    def _renew_lease(self, node: ClusterNode, now: float) -> bool:
        """On-demand renewal: count the voters this node can reach *now*."""
        votes = 1  # self
        if self._coordinator_sees(node):
            votes += 1  # the coordinator witness
        for peer in self.nodes.values():
            if peer is not node and self._nodes_see(node, peer):
                votes += 1
        if votes < self.quorum:
            return False
        node.lease_expires = now + self.lease_duration
        node.server.stats.set_gauge("lease_state", 1)
        return True

    # ------------------------------------------------------------------
    # epochs (bumped on every change of shard leadership, persisted)
    # ------------------------------------------------------------------

    def _epoch_path(self) -> Path | None:
        if self._state_dir is None:
            return None
        return self._state_dir / EPOCH_FILE

    def _load_epochs(self) -> None:
        self._owners: dict[str, str] = {}
        path = self._epoch_path()
        if path is None or not path.exists():
            return
        try:
            doc = json.loads(path.read_text("utf-8"))
            self.epochs = {str(k): int(v) for k, v in doc.get("epochs", {}).items()}
            self._owners = {
                str(k): str(v) for k, v in doc.get("owners", {}).items()
            }
            self._promotions.update(
                {str(k): str(v) for k, v in doc.get("promotions", {}).items()}
            )
            self.failovers = int(doc.get("failovers", 0))
        except (OSError, ValueError, TypeError) as exc:
            # A coordinator must never come up with *lower* epochs than it
            # had: refuse to guess rather than risk re-acking fenced writes.
            raise ConfigError(f"corrupt epoch state in {path}: {exc}") from exc

    def _save_epochs(self) -> None:
        path = self._epoch_path()
        if path is None:
            return
        self._state_dir.mkdir(parents=True, exist_ok=True)
        doc = {
            "epochs": self.epochs,
            "owners": self._owners,
            "promotions": self._promotions,
            "failovers": self.failovers,
        }
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(doc, indent=1, sort_keys=True), "utf-8")
        os.replace(tmp, path)

    def _announce_epochs(self) -> None:
        """Push (epoch, owner) to every node the coordinator can reach.

        Unreachable nodes learn late — from this announcement after the
        heal, from a resync, or from the first newer-epoch ship they see.
        Fencing only needs *some* ack-granting replica to know; quorum
        guarantees the promotion was witnessed by a majority.
        """
        if not self.epochs:
            return
        for node in self.nodes.values():
            if self._coordinator_sees(node):
                node.learn_epochs(self.epochs, self._owners)

    def _bump_epochs(self, roots: list[str], owner: str) -> None:
        for root in roots:
            self.epochs[root] = self.epochs.get(root, 0) + 1
            self._owners[root] = owner
        self._save_epochs()
        self._announce_epochs()

    # ------------------------------------------------------------------
    # health + failover
    # ------------------------------------------------------------------

    def sweep_heartbeats(self) -> None:
        for node in self.nodes.values():
            try:
                if self._coordinator_sees(node) and node.ping():
                    self.detector.record_heartbeat(node.name)
            except Exception:  # noqa: BLE001 - a dead node is the signal
                pass

    def _confirm_unreachable(self, suspect: str) -> int:
        """How many voters agree the suspect is gone right now.

        The coordinator's own failed probes are one vote; every live,
        coordinator-reachable peer that cannot hold a round trip with the
        suspect adds another.  Peers on the far side of a partition
        cannot be polled and therefore cannot confirm — which is the
        point: a minority-side coordinator must not promote.
        """
        suspect_node = self.nodes[suspect]
        votes = 0
        if not self._coordinator_sees(suspect_node):
            votes += 1
        for peer in self.nodes.values():
            if peer is suspect_node or not self._coordinator_sees(peer):
                continue
            if not self._nodes_see(peer, suspect_node):
                votes += 1
        return votes

    def check_failover(self) -> list[tuple[str, str]]:
        """Promote replicas for every quorum-confirmed-dead node.

        A suspect is promoted away from only when :attr:`quorum` voters
        independently confirm it unreachable — one slow or partitioned
        heartbeat path is not evidence enough to risk a second primary.
        Unconfirmed suspects stay suspects and are re-examined every
        sweep; ``myproxy-cluster promote`` remains the human override.

        A suspect that is still *alive* (partitioned, not crashed) could
        have renewed its lease right up to the instant it lost its quorum
        — and lease renewal may succeed via a majority that excludes the
        coordinator, so the coordinator's own probe history proves
        nothing about the lease.  Promotion therefore waits until the
        suspect has stayed quorum-confirmed unreachable, re-validated at
        every sweep, for a full :attr:`lease_duration`: only then has
        every lease it could possibly hold lapsed, and no configuration
        of ``lease_duration`` versus ``failover_timeout`` can open a
        window with two acking primaries.  A suspect whose process is
        known dead skips the wait — its lease died with it
        (:meth:`ClusterNode.restart` rejoins leaseless).
        """
        performed: list[tuple[str, str]] = []
        with self._promote_lock:
            suspects = set(self.detector.suspects(self.nodes))
            # A node that came back (or was promoted away from) restarts
            # the lease wait from scratch on its next suspicion.
            for tracked in list(self._confirmed_since):
                if tracked not in suspects or tracked in self._promotions:
                    del self._confirmed_since[tracked]
            for name in sorted(suspects):
                if name in self._promotions:
                    continue  # already failed over
                confirmations = self._confirm_unreachable(name)
                if confirmations < self.quorum:
                    # Confirmation lapsed: unreachability was not
                    # continuous, so any wait in progress is void.
                    self._confirmed_since.pop(name, None)
                    logger.warning(
                        "suspect %s: %d/%d unreachability confirmations; "
                        "deferring promotion", name, confirmations, self.quorum,
                    )
                    continue
                if self.nodes[name].alive and self.lease_duration > 0:
                    now = self.clock.now()
                    since = self._confirmed_since.setdefault(name, now)
                    remaining = self.lease_duration - (now - since)
                    if remaining > 0:
                        logger.warning(
                            "suspect %s: quorum-confirmed but possibly "
                            "still leased; deferring promotion %.1fs more",
                            name, remaining,
                        )
                        continue
                promoted = self._promote_locked(name, reason="quorum")
                self._confirmed_since.pop(name, None)
                if promoted is not None:
                    performed.append((name, promoted))
        if self._state_dir is not None and performed:
            self.save_status()
        return performed

    def _successors(self, dead: str) -> list[ClusterNode]:
        """Live promotion candidates for a dead node.

        A node's vnodes are scattered around the ring, so its shards'
        replicas can sit on any peer — every live node is a candidate; the
        most-caught-up one (by the dead primary's log) wins.
        """
        return [
            node
            for name, node in sorted(self.nodes.items())
            if name != dead
            and self._coordinator_sees(node)
            and self._resolve(name) != dead
        ]

    def _promote_locked(
        self, dead: str, successor: str | None = None, *, reason: str = "forced"
    ) -> str | None:
        candidates = self._successors(dead)
        if not candidates:
            logger.error("no live replica to promote for %s", dead)
            return None
        if successor is not None:
            chosen = self.nodes[successor]
            if not chosen.alive:
                raise ConfigError(f"cannot promote dead node {successor!r}")
        else:
            # The most-caught-up replica: the one that applied the most of
            # the dead primary's log (ring order breaks ties).
            dead_node = self.nodes[dead]
            chosen = max(candidates, key=lambda n: n.applied_seq(dead_node.name))
        # Shards whose promotion chains currently end at the dead node
        # change hands: their epochs bump *before* routing moves, so by
        # the time a client can reach the new primary, the old one's
        # ships are already fenceable.
        moving = [r for r in self.nodes if self._resolve(r) == dead]
        self.detector.mark_down(dead)
        self._promotions[dead] = chosen.name
        self.failovers += 1
        chosen.server.stats.inc("failovers")
        chosen.server.metrics.counter(
            "myproxy_promotions_total",
            "Shard promotions this node won, by trigger.",
            labelnames=("reason",),
        ).labels(reason=reason).inc()
        self._bump_epochs(moving, chosen.name)
        logger.info(
            "promoted %s in place of %s (%s; applied %d/%d of its log; "
            "epochs now %s)",
            chosen.name, dead, reason, chosen.applied_seq(dead),
            self.nodes[dead].log.last_seq,
            {r: self.epochs[r] for r in moving},
        )
        return chosen.name

    def promote(self, dead: str, successor: str | None = None) -> str | None:
        """Admin-forced promotion (``myproxy-cluster promote``)."""
        if dead not in self.nodes:
            raise ConfigError(f"unknown node {dead!r}")
        with self._promote_lock:
            self._promotions.pop(dead, None)
            return self._promote_locked(dead, successor, reason="forced")

    def demote_recovered(self, name: str) -> None:
        """Clear a promotion after the node came back and resynced.

        Shard leadership moves *back* to the recovered node — that is as
        much a change of primary as the failover was, so the returning
        shards get a fresh epoch with the recovered node as owner
        (otherwise the interim primary could keep collecting acks).
        """
        with self._promote_lock:
            if self._promotions.pop(name, None) is None:
                return
            returning = [r for r in self.nodes if self._resolve(r) == name]
            self._bump_epochs(returning, name)

    def start_monitor(self, interval: float | None = None) -> None:
        self._monitor = HeartbeatMonitor(
            self.detector,
            list(self.nodes),
            lambda name: self._coordinator_sees(self.nodes[name])
            and self.nodes[name].ping(),
            interval=interval or 1.0,
            probe_timeout=self.probe_timeout,
            on_sweep=lambda: (
                self.check_failover(),
                self.auto_resync(),
                self._announce_epochs(),
                self.process_control(),
            ),
        )
        self._monitor.start()

    def stop(self) -> None:
        """Stop the heartbeat monitor and every node's server."""
        if self._monitor is not None:
            self._monitor.stop()
            self._monitor = None
        for node in self.nodes.values():
            node.server.stop()

    # ------------------------------------------------------------------
    # resync (a restarted node catches up from every peer's log)
    # ------------------------------------------------------------------

    def resync(self, name: str) -> int:
        """Replay every peer's log tail into ``name``; returns ops applied."""
        node = self.nodes.get(name)
        if node is None:
            raise ConfigError(f"unknown node {name!r}")
        if not node.alive:
            raise ConfigError(f"node {name!r} is down; restart it first")
        applied = 0
        for peer in self.nodes.values():
            if peer is node:
                continue
            if not self._nodes_see(node, peer):
                continue  # the heal will trigger another resync round
            tail = peer.log.since(node.applied_seq(peer.name))
            if tail:
                applied += node.receive(tail)
        # Catching up includes catching up on leadership: the node must
        # fence by the current epochs before it grants anyone an ack.
        node.learn_epochs(self.epochs, self._owners)
        node.resync_requested = False
        self.detector.record_heartbeat(name)
        return applied

    def auto_resync(self) -> dict[str, int]:
        """Resync every live node that skipped a shipped op (self-healing).

        A replica that hit a garbled op marks itself ``resync_requested``
        instead of dying; the coordinator's periodic sweep calls this to
        re-ship the missing tail from the healthy logs.
        """
        healed: dict[str, int] = {}
        for name, node in self.nodes.items():
            if (
                node.alive
                and node.resync_requested
                and self._coordinator_sees(node)
            ):
                healed[name] = self.resync(name)
        return healed

    # ------------------------------------------------------------------
    # bootstrap (a joining replica streams a snapshot, not the full log)
    # ------------------------------------------------------------------

    def bootstrap(self, name: str, source: str | None = None) -> dict:
        """Seed an empty node from a peer's segment snapshot stream.

        Replaying the full replication log into a new replica costs one
        fsynced apply per historical op; at 10^5+ entries the segment
        engine streams the live set instead — header, raw record frames,
        CRC-summed trailer (PROTOCOL.md §11) — and the target adopts the
        source's apply watermarks so the follow-up :meth:`resync` ships
        only the tail written since the snapshot was cut.
        """
        node = self.nodes.get(name)
        if node is None:
            raise ConfigError(f"unknown node {name!r}")
        if not node.alive:
            raise ConfigError(f"node {name!r} is down; restart it first")
        if not hasattr(node.backend, "ingest_snapshot"):
            raise ConfigError(
                f"node {name!r}'s backend cannot ingest snapshots "
                "(segments backend required; use resync instead)"
            )
        if node.backend.count():
            raise ConfigError(
                f"bootstrap requires an empty backend on {name!r} "
                f"({node.backend.count()} entries present); use resync "
                "for incremental catch-up"
            )
        if source is not None:
            src = self.nodes.get(source)
            if src is None:
                raise ConfigError(f"unknown source node {source!r}")
        else:
            candidates = [
                peer
                for peer in self.nodes.values()
                if peer is not node
                and peer.alive
                and hasattr(peer.backend, "stream_snapshot")
            ]
            if not candidates:
                raise ConfigError("no live peer can stream a snapshot")
            src = max(candidates, key=lambda peer: peer.backend.count())
        if src is node:
            raise ConfigError("a node cannot bootstrap from itself")
        if not src.alive:
            raise ConfigError(f"source node {src.name!r} is down")
        if not hasattr(src.backend, "stream_snapshot"):
            raise ConfigError(
                f"source node {src.name!r}'s backend cannot stream snapshots"
            )
        watermarks = src.watermarks()
        chunks = src.backend.stream_snapshot(
            extra_meta={
                "source": src.name,
                "watermarks": watermarks,
                # The snapshot header carries the shipping side's epoch
                # view (PROTOCOL §11.2): an ingesting node is fenced
                # correctly from its very first fresh ship.
                "epochs": dict(src.shard_epochs),
                "epoch_owners": dict(src.shard_owners),
            }
        )
        entries = node.backend.ingest_snapshot(chunks)
        node.adopt_watermarks(watermarks)
        node.learn_epochs(dict(src.shard_epochs), dict(src.shard_owners))
        tail_ops = self.resync(name)
        logger.info(
            "bootstrapped %s from %s: %d entries streamed, %d tail op(s) replayed",
            name, src.name, entries, tail_ops,
        )
        return {
            "node": name,
            "source": src.name,
            "entries": entries,
            "tail_ops": tail_ops,
        }

    # ------------------------------------------------------------------
    # scrub (anti-entropy: repair quarantined entries from peers)
    # ------------------------------------------------------------------

    def scrub(self, name: str) -> dict:
        """Repair ``name``'s quarantined entries from its cluster peers.

        Startup recovery never deletes a corrupt entry — it quarantines
        it.  This pass closes the loop: for every quarantined credential,
        re-fetch the canonical entry from a live peer in the user's
        preference list and write it back to the local store (directly on
        the backend, so the repair is not re-replicated).
        """
        node = self.nodes.get(name)
        if node is None:
            raise ConfigError(f"unknown node {name!r}")
        backend = node.backend
        if not hasattr(backend, "quarantined"):
            raise ConfigError(f"node {name!r}'s backend does not support scrub")
        repaired = 0
        unrepaired: list[dict] = []
        for item in backend.quarantined():
            if not item.username:
                unrepaired.append({"path": str(item.path), "reason": item.reason})
                continue
            entry = None
            for peer in self.preference(item.username):
                if peer is node or not peer.alive:
                    continue
                try:
                    entry = peer.backend.get(item.username, item.cred_name)
                    break
                except (RepositoryError, TransportError):
                    continue
            if entry is None:
                unrepaired.append(
                    {
                        "username": item.username,
                        "cred_name": item.cred_name,
                        "reason": item.reason,
                    }
                )
                continue
            backend.put(entry)
            backend.clear_quarantine(item.username, item.cred_name)
            if hasattr(backend, "stats"):
                backend.stats.inc("scrub_repaired")
            node.server.stats.inc("scrub_repaired")
            repaired += 1
            logger.info(
                "scrub: restored %s/%s on %s from a peer",
                item.username, item.cred_name, name,
            )
        return {"node": name, "repaired": repaired, "unrepaired": unrepaired}

    # ------------------------------------------------------------------
    # status + admin control path (the myproxy-cluster CLI's substrate)
    # ------------------------------------------------------------------

    def replica_lag(self, name: str) -> int:
        """Worst-case ops this node lags behind any peer's log."""
        node = self.nodes[name]
        return max(
            (node.lag_behind(peer) for peer in self.nodes.values() if peer is not node),
            default=0,
        )

    def status(self) -> dict:
        now = self.clock.now()
        node_rows = {}
        for name, node in self.nodes.items():
            lag = self.replica_lag(name)
            node.server.stats.set_gauge("replica_lag", lag)
            lease_held = self.lease_duration > 0 and now <= node.lease_expires
            node.server.stats.set_gauge("lease_state", 1 if lease_held else 0)
            node_rows[name] = {
                "alive": node.alive,
                "state": self.detector.state(name),
                "log_seq": node.log.last_seq,
                "applied": dict(node.applied),
                "replica_lag": lag,
                "entries": node.backend.count(),
                "epoch": self.epochs.get(name, 0),
                "lease": {
                    "held": lease_held,
                    "expires_in": round(max(node.lease_expires - now, 0.0), 3),
                },
                "stats": node.server.stats.snapshot(),
            }
        return {
            "at": now,
            "replication_factor": self.replication_factor,
            "min_sync_acks": self.min_sync_acks,
            "quorum": self.quorum,
            "lease_duration": self.lease_duration,
            "failovers": self.failovers,
            "promotions": dict(self._promotions),
            "epochs": dict(self.epochs),
            "epoch_owners": dict(self._owners),
            "nodes": node_rows,
        }

    def save_status(self) -> Path:
        if self._state_dir is None:
            raise ConfigError("cluster has no state_dir configured")
        self._state_dir.mkdir(parents=True, exist_ok=True)
        path = self._state_dir / STATUS_FILE
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(self.status(), indent=1, sort_keys=True), "utf-8")
        os.replace(tmp, path)
        return path

    def process_control(self) -> list[dict]:
        """Apply commands appended to the control file by the admin CLI."""
        if self._state_dir is None:
            return []
        path = self._state_dir / CONTROL_FILE
        if not path.exists():
            return []
        text = path.read_text("utf-8")
        lines = text.splitlines()
        pending = lines[self._control_offset:]
        self._control_offset = len(lines)
        handled: list[dict] = []
        for line in pending:
            line = line.strip()
            if not line:
                continue
            try:
                command = json.loads(line)
                kind = command.get("cmd")
                if kind == "promote":
                    self.promote(command["node"], command.get("successor"))
                elif kind == "resync":
                    command["applied"] = self.resync(command["node"])
                elif kind == "scrub":
                    command["result"] = self.scrub(command["node"])
                elif kind == "bootstrap":
                    command["result"] = self.bootstrap(
                        command["node"], command.get("source")
                    )
                else:
                    raise ConfigError(f"unknown control command {kind!r}")
                handled.append(command)
            except (json.JSONDecodeError, KeyError, ConfigError, RepositoryError) as exc:
                logger.warning("ignoring bad control command %r: %s", line, exc)
        if handled:
            self.save_status()
        return handled


def cluster_master_box(secret: bytes) -> SecretBox:
    """The shared master key every node seals OTP/site entries under.

    Replicated entries sealed by one node must be openable by its promoted
    replica, so the cluster derives one master key from the cluster secret
    instead of each server minting its own.
    """
    return SecretBox(hashlib.sha256(b"repro-cluster-master" + secret).digest())


def build_cluster(
    make_server,
    backends,
    *,
    secret: bytes,
    names: list[str] | None = None,
    replication_factor: int = 2,
    min_sync_acks: int = 1,
    failover_timeout: float = 5.0,
    clock: Clock = SYSTEM_CLOCK,
    state_dir: str | os.PathLike | None = None,
    log_dir: str | os.PathLike | None = None,
    injectors=None,
    quorum: int | None = None,
    lease_duration: float | None = None,
    network: NetChaos | None = None,
    probe_timeout: float = 2.0,
) -> MyProxyCluster:
    """Assemble a cluster from per-node backends.

    ``make_server(index, name, master_box)`` must return a configured
    :class:`~repro.core.server.MyProxyServer`; ``backends`` is one
    repository backend per node.  Used by tests, benchmarks and the
    testbed; TCP deployments wire the same pieces from their config files.

    ``log_dir`` makes each node's replication log durable (one framed
    ``<name>.replog`` file per node); ``injectors`` is an optional list of
    per-node :class:`~repro.faults.FaultInjector` instances the chaos
    suite uses to fail one node without touching the others.
    """
    names = names or [f"node{i}" for i in range(len(backends))]
    if len(names) != len(backends):
        raise ConfigError("names and backends must pair up")
    if injectors is not None and len(injectors) != len(backends):
        raise ConfigError("injectors and backends must pair up")
    if log_dir is not None:
        log_dir = Path(log_dir)
        log_dir.mkdir(parents=True, exist_ok=True)
    box = cluster_master_box(secret)
    nodes = []
    for i, (name, backend) in enumerate(zip(names, backends)):
        server = make_server(i, name, box)
        if not isinstance(server, MyProxyServer):
            raise ConfigError("make_server must return a MyProxyServer")
        nodes.append(
            ClusterNode(
                name,
                server,
                backend,
                secret,
                injector=injectors[i] if injectors is not None else None,
                log_path=log_dir / f"{name}.replog" if log_dir is not None else None,
            )
        )
    return MyProxyCluster(
        nodes,
        replication_factor=replication_factor,
        min_sync_acks=min_sync_acks,
        failover_timeout=failover_timeout,
        clock=clock,
        state_dir=state_dir,
        quorum=quorum,
        lease_duration=lease_duration,
        network=network,
        probe_timeout=probe_timeout,
    )
