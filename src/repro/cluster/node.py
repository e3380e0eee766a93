"""One member of a credential-repository cluster.

A node bundles a full :class:`~repro.core.server.MyProxyServer` (every node
can authenticate clients and serve any command) with its durable local
backend, a :class:`~repro.cluster.replog.ReplicationLog` of the writes it
accepted, and the replica-side apply state (how far it has caught up with
every peer's log).  Whether a node acts as the *primary* or a *replica*
for a given user is decided per shard by the cluster's hash ring — a node
is usually primary for some users and replica for others.

Nodes expose an in-process connect target (the server's own listener, as
the testbed dials), so a cluster can be exercised — and killed
mid-workload — without ports; the TCP path reuses ``server.start()``.

Fault posture: each node carries a :class:`~repro.faults.FaultInjector`
threaded into its replication log, replicating wrapper and apply path.  A
:class:`~repro.faults.KillPoint` raised anywhere in a node's work is
translated into that node dying (``kill()``) plus a transport error to the
caller — exactly what a peer would observe of a crashed process.
"""

from __future__ import annotations

import threading

from repro import faults
from repro.cluster.replog import (
    SITE_APPLY_APPLIED,
    SITE_APPLY_PRE,
    ReplicatedOp,
    ReplicatingRepository,
    ReplicationLog,
    StaleEpochError,
    apply_op,
)
from repro.core.repository import CredentialRepository
from repro.core.server import MyProxyServer
from repro.transport.channel import SecureChannel
from repro.transport.links import Link
from repro.util.errors import RepositoryError, TransportError
from repro.util.logging import get_logger

logger = get_logger("cluster.node")


class ClusterNode:
    """A repository server plus its replication state."""

    def __init__(
        self,
        name: str,
        server: MyProxyServer,
        backend: CredentialRepository,
        secret: bytes,
        *,
        injector: faults.FaultInjector | None = None,
        log_path=None,
    ) -> None:
        self.name = name
        self.server = server
        self.backend = backend
        self.secret = secret
        self.injector = injector if injector is not None else faults.NO_FAULTS
        self.log = ReplicationLog(
            name, secret, path=log_path, injector=self.injector
        )
        # The server's writes flow through the replicating wrapper; the
        # cluster installs the shipper once membership is known.
        self.repository = ReplicatingRepository(
            backend, self.log, injector=self.injector
        )
        server.repository = self.repository
        server.cluster_role = "member"
        # Corruption counters of a durable backend belong on this node's
        # /metrics endpoint (the server was built before the wrapper).
        if hasattr(backend, "publish_metrics"):
            backend.publish_metrics(server.metrics)
        self.alive = True
        self._binding = _NodeBinding(self)
        #: set when an op had to be skipped; the coordinator's sweep (or an
        #: admin ``resync``) re-ships the tail to heal the gap.
        self.resync_requested = False
        #: origin node name -> last op sequence applied locally.
        self.applied: dict[str, int] = {}
        self._apply_lock = threading.Lock()
        #: shard root -> highest primary epoch this node has witnessed.
        #: Fresh ships below a witnessed epoch are fenced (split-brain
        #: defense); announcements and newer ships ratchet it up.
        self.shard_epochs: dict[str, int] = {}
        #: shard root -> the node entitled to ship at the witnessed epoch.
        #: An epoch names exactly one primary; a fresh ship at the right
        #: epoch from the wrong node is as fenced as a stale one.
        self.shard_owners: dict[str, str] = {}
        #: username -> shard root, installed by the cluster once the hash
        #: ring is known.  Without it (standalone node) fencing is inert.
        self.shard_of = None
        #: Primary lease: wall-clock instant (cluster clock) until which
        #: this node may acknowledge writes for its shards.  0 means no
        #: lease; the cluster's write gate renews or refuses on demand.
        self.lease_expires = 0.0

    # ------------------------------------------------------------------
    # epochs (split-brain fencing)
    # ------------------------------------------------------------------

    def learn_epochs(
        self, epochs: dict[str, int], owners: dict[str, str] | None = None
    ) -> None:
        """Adopt the coordinator's epoch announcements (ratchet, never drop).

        Owner bindings follow the CP stance: an epoch that ratchets up
        *without* an accompanying owner keeps the existing binding — a
        possibly-stale owner still fences wrong-origin ships, whereas a
        cleared binding would wave them through until the next
        announcement.  When an announcement does carry an owner it is
        authoritative and overwrites, so a stale binding costs at most
        one refused write before the coordinator's next sweep corrects
        it (bounded unavailability, never divergence).
        """
        with self._apply_lock:
            for shard, epoch in epochs.items():
                epoch = int(epoch)
                witnessed = self.shard_epochs.get(shard, 0)
                if epoch < witnessed:
                    continue
                if epoch > witnessed:
                    self.shard_epochs[shard] = epoch
                if owners and shard in owners:
                    self.shard_owners[shard] = owners[shard]

    def epoch_for(self, username: str) -> int:
        """The primary epoch this node holds for ``username``'s shard."""
        if self.shard_of is None:
            return 0
        return self.shard_epochs.get(self.shard_of(username), 0)

    # ------------------------------------------------------------------
    # replica side
    # ------------------------------------------------------------------

    def receive(self, ops: list[ReplicatedOp], *, fresh: bool = False) -> int:
        """Apply shipped ops to the local backend; returns acks applied.

        Ops land on :attr:`backend` directly (not the replicating wrapper)
        so replication never cascades.  Already-seen sequence numbers are
        skipped, which makes re-shipping during resync idempotent.

        ``fresh`` marks a primary shipping a write it wants *acknowledged
        right now* (as opposed to a resync replaying history).  Fresh ops
        are epoch-fenced: if the op's stamped epoch is older than the
        highest this node has witnessed for the shard, the op is refused
        with :class:`StaleEpochError` and never applied — a deposed
        primary that is still alive behind a partition cannot collect
        acks.  Resync replays are exempt (old records legitimately carry
        old epochs); they are idempotent by sequence number instead.

        A partial or garbled op (failed HMAC, undecodable document) does
        **not** poison the apply loop: it is skipped with a counter, the
        apply watermark for its origin stays put (so a resync re-ships
        from the gap), and later ops from that origin are deferred to
        preserve per-origin ordering.  A kill point firing mid-apply
        downs this node, as a real crash would.
        """
        if not self.alive:
            raise TransportError(f"node {self.name} is down")
        applied = 0
        try:
            with self._apply_lock:
                bad_origins: set[str] = set()
                for op in ops:
                    if op.origin in bad_origins:
                        continue
                    if op.seq <= self.applied.get(op.origin, 0):
                        continue
                    if fresh and self.shard_of is not None:
                        shard = self.shard_of(op.username)
                        witnessed = self.shard_epochs.get(shard, 0)
                        owner = self.shard_owners.get(shard)
                        if op.epoch < witnessed or (
                            op.epoch == witnessed
                            and owner is not None
                            and op.origin != owner
                        ):
                            self.server.stats.inc("fenced_ships")
                            logger.warning(
                                "node %s: fenced ship %s#%d for shard %s "
                                "(op epoch %d, witnessed %d owned by %s)",
                                self.name, op.origin, op.seq, shard,
                                op.epoch, witnessed, owner,
                            )
                            raise StaleEpochError(
                                shard, op.epoch, witnessed, owner=owner
                            )
                        if op.epoch > witnessed:
                            # A promotion this node had not heard about:
                            # the ship itself is the announcement.
                            self.shard_epochs[shard] = op.epoch
                            self.shard_owners[shard] = op.origin
                    self.injector.fire(SITE_APPLY_PRE)
                    try:
                        apply_op(self.backend, op, self.secret)
                    except RepositoryError as exc:
                        # Skip-and-resync: never let one bad op kill the
                        # apply thread or block the batch's other origins.
                        self.server.stats.inc("replication_ops_skipped")
                        self.resync_requested = True
                        bad_origins.add(op.origin)
                        logger.error(
                            "node %s: skipping bad op %s#%d (%s); resync requested",
                            self.name, op.origin, op.seq, exc,
                        )
                        continue
                    self.injector.fire(SITE_APPLY_APPLIED)
                    self.applied[op.origin] = op.seq
                    applied += 1
                    self.server.stats.inc("replication_ops_applied")
        except faults.KillPoint:
            self.kill()
            raise TransportError(f"node {self.name} crashed mid-apply") from None
        return applied

    def applied_seq(self, origin: str) -> int:
        with self._apply_lock:
            return self.applied.get(origin, 0)

    def watermarks(self) -> dict[str, int]:
        """Per-origin apply positions, including this node's own log head.

        Shipped inside a snapshot stream's header: the entries a peer
        ingests already reflect this node's view up to these sequences.
        """
        with self._apply_lock:
            marks = dict(self.applied)
        marks[self.name] = self.log.last_seq
        return marks

    def adopt_watermarks(self, watermarks: dict[str, int]) -> None:
        """After a snapshot bootstrap: fast-forward the apply positions.

        The ingested entries already contain every op the source had
        applied, so replaying those ops again would be wasted work (and
        ``receive`` would skip them one by one) — a following resync only
        ships the tails written since the snapshot was cut.
        """
        with self._apply_lock:
            for origin, seq in watermarks.items():
                if origin == self.name:
                    continue  # nobody ships a node its own ops
                self.applied[origin] = max(self.applied.get(origin, 0), int(seq))

    # ------------------------------------------------------------------
    # liveness (the in-process stand-in for a process/host failure)
    # ------------------------------------------------------------------

    def ping(self) -> bool:
        return self.alive

    def kill(self) -> None:
        """Simulate a node loss: stop answering clients, peers, heartbeats."""
        self.alive = False
        logger.info("node %s killed", self.name)

    def restart(self, backend: CredentialRepository | None = None) -> None:
        """Bring the node back (cold — call the cluster's resync to catch up).

        Pass a freshly reopened ``backend`` to model a real process
        restart: :func:`~repro.core.segments.open_repository` runs the
        segment engine's crash recovery (torn-tail truncation, ``covers=``
        roll-forward, quarantine) against whatever the crash left on disk.
        """
        if backend is not None:
            self.backend = backend
            self.repository.backend = backend
            if hasattr(backend, "publish_metrics"):
                backend.publish_metrics(self.server.metrics)
        self.alive = True
        # A lease never survives a restart: the node rejoins as a replica
        # and only earns write authority back through the cluster's gate.
        self.lease_expires = 0.0
        logger.info("node %s restarted", self.name)

    # ------------------------------------------------------------------
    # connect target (in process; TCP deployments use server.start())
    # ------------------------------------------------------------------

    def target(self) -> Link:
        """A link factory clients can dial, refusing while the node is dead."""
        if not self.alive:
            raise TransportError(f"node {self.name} is down")
        return self.server.connect(self._binding)

    def lag_behind(self, origin: "ClusterNode") -> int:
        """How many of ``origin``'s logged ops this node has not applied
        (counted, not subtracted: sequence numbers may have gaps)."""
        return len(origin.log.since(self.applied_seq(origin.name)))


class _NodeBinding:
    """A node's server binding as its in-process clients reach it: a dead
    node answers nobody, and a :class:`~repro.faults.KillPoint` raised
    inside a turn takes the node down and drops the link without a reply,
    as a crashed process would — the listener's worker lives on."""

    def __init__(self, node: ClusterNode) -> None:
        self.node = node

    def __getattr__(self, name: str):
        return getattr(self.node.server, name)  # the rest of the binding

    def open(self, link: Link) -> SecureChannel | None:
        if not self.node.alive:
            link.close()
            return None
        return self.node.server.open(link)

    def resume(self, channel: SecureChannel) -> bool:
        return self.node.alive and self.node.server.resume(channel)

    def answer(self, channel: SecureChannel, message: bytes) -> bool:
        try:
            return self.node.server.answer(channel, message)
        except faults.KillPoint:
            self.node.kill()
            channel.abort()
            return False
