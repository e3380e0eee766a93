"""The replication log: ordered, HMAC-authenticated repository operations.

Every mutation a node accepts as a primary — store (PUT/STORE, and the
entry-replacing CHANGE_PASSPHRASE / OTP advance) or destroy — is recorded
as a :class:`ReplicatedOp` with a per-origin monotonic sequence number and
an HMAC-SHA256 tag under the shared cluster secret, then shipped
primary→replica.

Security invariant (§5.1 carried over to replication): the ``document``
field of a ``put`` op is the entry's canonical JSON **exactly as persisted**
— the private key inside is encrypted under the user's pass phrase or
sealed under the cluster master key.  No plaintext key material ever enters
the log or crosses the replication channel; a replica's disk is as safe to
steal as the primary's.

The HMAC gives replicas origin authentication and tamper detection even if
the shipping transport is weaker than the client-facing secure channel.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import os
import threading
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from repro import faults
from repro.core.framing import encode_frame, scan_frames
from repro.core.repository import CredentialRepository, RepositoryEntry
from repro.util.errors import RepositoryError
from repro.util.logging import get_logger

logger = get_logger("cluster.replog")

OP_PUT = "put"
OP_DELETE = "delete"

# Replication-path kill points: the log append on the primary, the ship
# to each replica, and the apply on the replica side.
SITE_LOG_APPEND_PRE = faults.kill_point(
    "replog.append.pre", "write accepted, replication log not yet appended")
SITE_LOG_APPEND_SYNCED = faults.kill_point(
    "replog.append.synced", "replication log entry durable, store untouched")
SITE_SHIP_PRE = faults.kill_point(
    "replog.ship.pre", "op applied locally, not yet shipped to any replica")
SITE_SHIP_DELIVERED = faults.kill_point(
    "replog.ship.delivered", "op delivered to a replica, ack not yet counted")
SITE_APPLY_PRE = faults.kill_point(
    "replog.apply.pre", "replica received an op, not yet applied")
SITE_APPLY_APPLIED = faults.kill_point(
    "replog.apply.applied", "replica applied an op, watermark not yet advanced")


class StaleEpochError(RepositoryError):
    """A fresh ship carried an epoch below the replica's witnessed fence.

    Raised replica-side and surfaced to the shipping origin: the write is
    refused (so the deposed primary cannot acknowledge it) and the carried
    ``fence`` tells the origin the epoch the cluster has moved on to —
    with ``owner`` naming the node entitled to ship at that epoch, when
    the fencing replica knows it, so the origin adopts the full binding
    rather than a bare epoch.
    """

    def __init__(
        self, shard: str, shipped: int, fence: int, owner: str | None = None
    ) -> None:
        super().__init__(
            f"fenced: shard {shard!r} ship at epoch {shipped} refused "
            f"(witnessed epoch {fence})"
        )
        self.shard = shard
        self.shipped = shipped
        self.fence = fence
        self.owner = owner


@dataclass(frozen=True)
class ReplicatedOp:
    """One logged repository mutation, as shipped to replicas."""

    origin: str  # node that accepted the write
    seq: int  # monotonic per origin
    kind: str  # OP_PUT | OP_DELETE
    username: str
    cred_name: str
    document: str | None  # canonical entry JSON for put (ciphertext inside)
    mac: str  # hex HMAC-SHA256 over the signed payload
    epoch: int = 0  # shard primary epoch the origin held when it logged this

    def _signed_payload(self) -> bytes:
        doc = {
            "origin": self.origin,
            "seq": self.seq,
            "kind": self.kind,
            "username": self.username,
            "cred_name": self.cred_name,
            "document": self.document,
        }
        # Epoch 0 is the pre-epoch wire form: leaving it out keeps the MACs
        # of records logged before the fencing upgrade verifiable.
        if self.epoch:
            doc["epoch"] = self.epoch
        return json.dumps(doc, sort_keys=True).encode("utf-8")

    @classmethod
    def make(
        cls,
        *,
        origin: str,
        seq: int,
        kind: str,
        username: str,
        cred_name: str,
        document: str | None,
        secret: bytes,
        epoch: int = 0,
    ) -> ReplicatedOp:
        op = cls(origin, seq, kind, username, cred_name, document, mac="",
                 epoch=epoch)
        mac = hmac.new(secret, op._signed_payload(), hashlib.sha256).hexdigest()
        return cls(origin, seq, kind, username, cred_name, document, mac=mac,
                   epoch=epoch)

    def verify(self, secret: bytes) -> None:
        expected = hmac.new(secret, self._signed_payload(), hashlib.sha256).hexdigest()
        if not hmac.compare_digest(expected, self.mac):
            raise RepositoryError(
                f"replication op {self.origin}#{self.seq} failed HMAC verification"
            )

    # -- wire form ----------------------------------------------------------

    def encode(self) -> bytes:
        doc = {
            "origin": self.origin,
            "seq": self.seq,
            "kind": self.kind,
            "username": self.username,
            "cred_name": self.cred_name,
            "document": self.document,
            "mac": self.mac,
            "epoch": self.epoch,
        }
        return json.dumps(doc, sort_keys=True).encode("utf-8")

    @classmethod
    def decode(cls, data: bytes) -> ReplicatedOp:
        try:
            doc = json.loads(data)
            return cls(
                origin=str(doc["origin"]),
                seq=int(doc["seq"]),
                kind=str(doc["kind"]),
                username=str(doc["username"]),
                cred_name=str(doc["cred_name"]),
                document=doc["document"],
                mac=str(doc["mac"]),
                # Records framed before the epoch upgrade carry none: treat
                # them as epoch 0, which every replica accepts.
                epoch=int(doc.get("epoch", 0)),
            )
        except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
            raise RepositoryError(f"corrupt replication op: {exc}") from exc


class ReplicationLog:
    """Per-node ordered log of the mutations it accepted as a primary.

    With ``path`` set, every appended op is also persisted as a CRC-framed
    record (through the fault injector's file shim, so chaos plans can
    tear or error it) and recovered on reopen — a restarted primary can
    still serve its log tail to lagging replicas.  Recovery truncates torn
    tails and *skips* corrupt frames (counting them), which is why
    sequence numbers may have gaps and :meth:`since` filters by value
    instead of slicing.
    """

    def __init__(
        self,
        origin: str,
        secret: bytes,
        *,
        path: str | os.PathLike | None = None,
        injector: faults.FaultInjector | None = None,
    ) -> None:
        self.origin = origin
        self._secret = secret
        self._ops: list[ReplicatedOp] = []
        self._lock = threading.Lock()
        self._injector = injector if injector is not None else faults.NO_FAULTS
        self._file: faults.ShimFile | None = None
        self.corrupt_skipped = 0
        self.torn_truncated = 0
        if path is not None:
            self._open(Path(path))

    def _open(self, path: Path) -> None:
        data = path.read_bytes() if path.exists() else b""
        payloads, clean_len, status = scan_frames(data)
        recovered: list[ReplicatedOp] = []
        for payload in payloads:
            try:
                recovered.append(ReplicatedOp.decode(payload))
            except RepositoryError as exc:
                # A frame that passed its CRC but does not decode: the
                # writer was broken.  Skip it loudly; resync re-fetches.
                self.corrupt_skipped += 1
                logger.error("replog %s: skipping corrupt record: %s", self.origin, exc)
        recovered.sort(key=lambda op: op.seq)
        self._ops = recovered
        self._file = faults.ShimFile(
            path,
            self._injector,
            write_site="replog.append.write",
            fsync_site="replog.append.fsync",
        )
        if clean_len != len(data):
            if status == "torn":
                self.torn_truncated += 1
                logger.warning(
                    "replog %s: truncated %d torn bytes",
                    self.origin, len(data) - clean_len,
                )
            else:
                self.corrupt_skipped += 1
                logger.error(
                    "replog %s: dropped %d corrupt trailing bytes",
                    self.origin, len(data) - clean_len,
                )
            self._file.truncate(clean_len)

    @property
    def last_seq(self) -> int:
        with self._lock:
            return self._ops[-1].seq if self._ops else 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._ops)

    def append(
        self,
        kind: str,
        username: str,
        cred_name: str,
        document: str | None,
        *,
        epoch: int = 0,
    ) -> ReplicatedOp:
        with self._lock:
            seq = (self._ops[-1].seq if self._ops else 0) + 1
            op = ReplicatedOp.make(
                origin=self.origin,
                seq=seq,
                kind=kind,
                username=username,
                cred_name=cred_name,
                document=document,
                secret=self._secret,
                epoch=epoch,
            )
            if self._file is not None:
                start = self._file.size
                try:
                    self._file.write(encode_frame(op.encode()))
                    self._file.fsync()
                except OSError as exc:
                    # Survived a failed append: trim the partial frame so
                    # it cannot shadow later records at recovery.  (A
                    # crash mid-append leaves a torn tail instead, which
                    # _open truncates.)
                    try:
                        self._file.truncate(start)
                    except OSError:  # pragma: no cover - disk truly gone
                        pass
                    raise RepositoryError(
                        f"replication log append failed: {exc}"
                    ) from exc
            self._ops.append(op)
            return op

    def since(self, seq: int) -> list[ReplicatedOp]:
        """All ops with sequence number strictly greater than ``seq``."""
        with self._lock:
            # Recovered logs may have gaps (corrupt records skipped), so
            # filter by sequence value rather than slicing by position.
            return [op for op in self._ops if op.seq > seq]

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None


def apply_op(backend: CredentialRepository, op: ReplicatedOp, secret: bytes) -> None:
    """Verify and apply one replicated op to a replica's local backend."""
    op.verify(secret)
    if op.kind == OP_PUT:
        if op.document is None:
            raise RepositoryError(f"put op {op.origin}#{op.seq} carries no document")
        backend.put(RepositoryEntry.from_json(op.document))
    elif op.kind == OP_DELETE:
        backend.delete(op.username, op.cred_name)
    else:
        raise RepositoryError(f"unknown replication op kind {op.kind!r}")


Shipper = Callable[[ReplicatedOp], None]
"""Delivers one op to the replica set; raises if the semi-sync ack
requirement cannot be met (which fails — and therefore un-acknowledges —
the client's store)."""


class ReplicatingRepository(CredentialRepository):
    """Wraps a backend so every mutation is logged and shipped to replicas.

    The server underneath is unaware of the cluster: it calls ``put`` /
    ``delete`` exactly as on a standalone backend.  Ordering guarantee: the
    op is appended to the log and applied locally *before* shipping, and
    the client's acknowledgement only happens after :attr:`shipper` returns
    — so an acknowledged credential exists on the primary **and** on at
    least ``min_sync_acks`` replicas.

    Two optional control-plane hooks guard the partition story:

    - ``write_gate(username)`` runs before anything is logged.  The
      cluster installs its lease check here, so a primary partitioned
      from quorum refuses the write (``ServerBusyError`` → the busy
      protocol) *before* the op can reach the log or local disk;
    - ``epoch_source(username)`` supplies the primary epoch this node
      currently holds for the entry's shard, stamped (and MAC'd) into
      the shipped record so replicas can fence a deposed primary.
    """

    def __init__(
        self,
        backend: CredentialRepository,
        log: ReplicationLog,
        shipper: Shipper | None = None,
        *,
        injector: faults.FaultInjector | None = None,
        epoch_source: Callable[[str], int] | None = None,
        write_gate: Callable[[str], None] | None = None,
    ) -> None:
        self.backend = backend
        self.log = log
        self.shipper = shipper
        self._injector = injector if injector is not None else faults.NO_FAULTS
        self.epoch_source = epoch_source
        self.write_gate = write_gate

    def _ship(self, op: ReplicatedOp) -> None:
        self._injector.fire(SITE_SHIP_PRE)
        if self.shipper is not None:
            self.shipper(op)

    def _gate(self, username: str) -> None:
        if self.write_gate is not None:
            self.write_gate(username)

    def _epoch(self, username: str) -> int:
        if self.epoch_source is not None:
            return self.epoch_source(username)
        return 0

    # -- mutations (logged + shipped) --------------------------------------

    def put(self, entry: RepositoryEntry) -> None:
        self._gate(entry.username)
        self._injector.fire(SITE_LOG_APPEND_PRE)
        op = self.log.append(OP_PUT, entry.username, entry.cred_name,
                             entry.to_json(), epoch=self._epoch(entry.username))
        self._injector.fire(SITE_LOG_APPEND_SYNCED)
        self.backend.put(entry)
        self._ship(op)

    def delete(self, username: str, cred_name: str) -> bool:
        self._gate(username)
        existed = self.backend.delete(username, cred_name)
        if existed:
            op = self.log.append(OP_DELETE, username, cred_name, None,
                                 epoch=self._epoch(username))
            self._ship(op)
        return existed

    # -- reads (pass-through) ----------------------------------------------

    def get(self, username: str, cred_name: str) -> RepositoryEntry:
        return self.backend.get(username, cred_name)

    def list_for(self, username: str) -> list[RepositoryEntry]:
        return self.backend.list_for(username)

    def count(self) -> int:
        return self.backend.count()

    def usernames(self) -> list[str]:
        return self.backend.usernames()
